"""Euler characteristics of the signed depth-1 closures, and the global
identities relating them to the Euler characteristic of the manifold.

Route one is Morse-theoretic: the alternating index sum over the interior
critical points of one sign, plus the contribution of every cusp's
perturbation certificate.  The cusps are the boundary critical points of
both closures, and in scope each is non-correct (``morse._boundary_records``
checks it), so the certificates are the only boundary terms.  Route two is
direct cell counting on the traced strata: points for n = 1, and for n = 2
arcs (one each), circles (zero each) and cusps.  Every comparison is an
exact integer equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .morse import MorseData
from .scenario import MorinScenario
from .strata import Stratification


def chi_closed_morse(records) -> int:
    """Euler characteristic of a closed manifold from a Morse index census."""
    return int(sum((-1) ** r.morse_index for r in records))


def chi_signed_closure(data: MorseData, sign: str) -> int:
    """Morse-route Euler characteristic of the signed depth-1 closure.

    Each interior critical point of that sign contributes (-1)^index; each
    cusp is a non-correct boundary point of both closures, and its
    certificate carries the net contribution of the cancelling pair.
    """
    return int(sum((-1) ** r.morse_index for r in data.k1_records if r.fold_sign == sign)
               + sum(c.chi_contribution for c in data.certificates))


def _oracle_cells(strat, sign):
    """(arcs, circles) of the traced curves of the given sign.  The cusps of
    a closed curve bracket every sign change of its determinant, so k cusps
    bound k/2 arcs of each sign, and a curve without cusps is one circle of
    the sign of its determinant."""
    arcs = sum(len(c.cusps) // 2 for c in strat.curves)
    circles = sum(1 for c in strat.curves
                  if not c.cusps and ("plus" if c.det_values[0] > 0 else "minus") == sign)
    return arcs, circles


def _row(k, sign, morse, oracle, arcs=0, circles=0, points=0) -> dict:
    return {"k": k, "sign": sign, "chi_morse_boundary": morse, "chi_oracle": oracle,
            "arcs": arcs, "circles": circles, "points": points}


def _strata_table(S: MorinScenario, strat: Stratification, chi_signed: dict) -> list:
    """One row per stratum in scope, with both routes where both exist.

    The cell-counting oracle reaches stratum dimension 1: points by sign for
    n = 1, and for n = 2 arcs by sign (one each; circles count zero) and the
    cusps.  For n = 3 the depth-3 rows read zero by both routes, since
    depth 3 is rejected, and the oracle of the depth-1 and depth-2 strata is
    None.
    """
    table = []
    for sign in ("plus", "minus"):
        arcs, circles = _oracle_cells(strat, sign) if S.n == 2 else (0, 0)
        points = sum(1 for p in strat.points if p.sign == sign) if S.n == 1 else 0
        oracle = {1: points, 2: arcs}.get(S.n)
        table.append(_row(1, sign, chi_signed[sign], oracle, arcs, circles, points))
    if S.n == 3:
        table += [_row(3, sign, 0, 0) for sign in ("plus", "minus")]
    if S.n >= 2:
        cusps = len(strat.cusps)
        table.append(_row(2, "unsigned", None, cusps if S.n == 2 else None, points=cusps))
    return table


@dataclass
class EulerReport:
    scenario: str
    m: int
    n: int
    seed: int
    genericity_seed_used: int
    covector: list
    chi_M_morse: int
    chi_M_expected: int | None
    strata_table: list
    identity_lhs: int
    identity_rhs: int
    identity_ok: bool
    # only n = 2 has two independent routes: with n = 1 both count the same
    # points by sign, and with n = 3 both read the empty depth-3 list
    route_agreement_ok: bool | None
    chi_expected_ok: bool | None
    audits: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    # both follow from the closed-manifold identity chi(M) = chi+ - chi- by
    # arithmetic, so neither can fail on its own: the mod-2 congruence's
    # closure sum is chi+ + chi-, which has the parity of chi+ - chi-, and
    # the fold-only equality is the identity itself
    mod2_congruence_ok = None
    fold_equality_ok = None
    # the telescoping of boundary contributions compares the correct boundary
    # terms with signed index sums on the depth-3 strata; in scope every cusp
    # is non-correct and depth 3 is rejected, so the check does not apply
    telescoping_ok = None

    @property
    def all_ok(self) -> bool:
        """Every applicable check holds; a check that reads None does not apply."""
        checks = [self.identity_ok, self.route_agreement_ok, self.chi_expected_ok]
        return all(c for c in checks if c is not None)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "m": self.m,
            "n": self.n,
            "seed": self.seed,
            "genericity_seed_used": self.genericity_seed_used,
            "covector": self.covector,
            "chi_M_morse": self.chi_M_morse,
            "chi_M_expected": self.chi_M_expected,
            "strata": self.strata_table,
            "identity_lhs": self.identity_lhs,
            "identity_rhs": self.identity_rhs,
            "identity_ok": self.identity_ok,
            "mod2_congruence_ok": self.mod2_congruence_ok,
            "fold_equality_ok": self.fold_equality_ok,
            "telescoping_ok": self.telescoping_ok,
            "route_agreement_ok": self.route_agreement_ok,
            "chi_expected_ok": self.chi_expected_ok,
            "all_ok": self.all_ok,
            "audits": self.audits,
            "tolerances": self.tolerances,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"


def build_report(S: MorinScenario, strat: Stratification, data: MorseData,
                 attempt: int, history=()) -> EulerReport:
    """Assemble every identity and audit into the final report."""
    chi_m = chi_closed_morse(data.k0_records)

    chi_signed = {sign: chi_signed_closure(data, sign) for sign in ("plus", "minus")}
    table = _strata_table(S, strat, chi_signed)
    route_ok = (all(row["chi_oracle"] == row["chi_morse_boundary"]
                    for row in table if row["k"] == 1) if S.n == 2 else None)
    rhs = chi_signed["plus"] - chi_signed["minus"]

    chi_expected_ok = None
    if S.chi_expected is not None:
        chi_expected_ok = chi_m == S.chi_expected

    audits = dict(strat.audits)
    audits["solver"] = {**audits.get("solver", {}), "k0": data.audits.get("k0_solver", {})}
    if data.audits.get("surface_solver"):
        audits["solver"]["surface"] = data.audits["surface_solver"]
    parity = data.audits["parity"]          # None where the audit does not apply (n = 1)
    audits.update({
        "genericity": {"attempt": attempt, "history": list(history)},
        "parity_checked": None if parity is None else parity.checked,
        "parity_violations": None if parity is None else [list(map(float, v[0]))
                                                          for v in parity.violations],
        "separation_matched": data.audits["separation"].matched,
        "separation_max_distance": data.audits["separation"].max_distance,
        "eta_checks": data.audits["eta_checks"],
        "certificates_cancel": all(c.cancels for c in data.certificates),
        "k0_count": len(data.k0_records),
        "stratum1_critical_count": len(data.k1_records),
    })

    return EulerReport(
        scenario=S.name,
        m=S.m,
        n=S.n,
        seed=S.seed,
        genericity_seed_used=attempt,
        covector=[float(c) for c in data.covector.a],
        chi_M_morse=chi_m,
        chi_M_expected=S.chi_expected,
        strata_table=table,
        identity_lhs=chi_m,
        identity_rhs=int(rhs),
        identity_ok=bool(chi_m == rhs),
        route_agreement_ok=route_ok,
        chi_expected_ok=chi_expected_ok,
        audits=_jsonable(audits),
        tolerances=S.tolerances.as_dict(),
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # bool before int: a Python bool is an int and would be written as 0 or 1
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj
