"""Euler characteristics per stratum via two independent routes, and the
global identities relating them to the Euler characteristic of the manifold.

Route one is Morse-theoretic: alternating index sums over interior critical
points, plus boundary corrections (inward-pointing correct critical points,
and certified cancelling pairs at non-correct ones).  Route two is direct
cell counting on the traced strata: points, arcs (one each), circles (zero
each).  Every comparison is an exact integer equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .morse import MorseData
from .strata import MorinScenario, Stratification


class ReportError(RuntimeError):
    """Inconsistent or incomplete inputs to the report assembly."""


def chi_closed_morse(records) -> int:
    """Euler characteristic of a closed manifold from a Morse index census."""
    return int(sum((-1) ** r.morse_index for r in records))


def chi_with_boundary(interior_records, boundary_records, certificates=()) -> int:
    """Euler characteristic of a compact manifold with boundary.

    Interior critical points contribute (-1)^index.  Correct boundary points
    contribute (-1)^index when the gradient points inward.  Non-correct
    boundary points must come with a perturbation certificate, which carries
    the net contribution of the cancelling pair to this side.
    """
    chi = sum((-1) ** r.morse_index for r in interior_records)
    certs = list(certificates)
    for rec in boundary_records:
        if rec.correct is None:
            raise ReportError(f"boundary record at {tuple(map(float, rec.x))} not classified")
        if rec.correct:
            if rec.inward_into == "n/a":
                raise ReportError(f"correct boundary record at {tuple(map(float, rec.x))} "
                                  f"lacks an inwardness verdict")
            if rec.inward_into == "inward":
                chi += (-1) ** rec.morse_index
        else:
            cert = _certificate_for(certs, rec.x)
            if cert is None:
                raise ReportError(f"non-correct boundary record at {tuple(map(float, rec.x))} "
                                  f"has no perturbation certificate")
            chi += cert.chi_contribution
    return int(chi)


def _certificate_for(certs, x):
    for c in certs:
        if np.linalg.norm(np.asarray(c.p) - np.asarray(x)) < 1e-9:
            return c
    return None


def _interior_records(data: MorseData, sign: str):
    return [r for r in data.stratum_records.get(1, ())
            if r.stratum_depth == 1 and r.fold_sign == sign]


def chi_stratum_via_morse(S: MorinScenario, strat: Stratification, data: MorseData,
                          k: int, sign: str) -> int:
    """Morse-route Euler characteristic of a signed depth-k closure."""
    if k % 2 == 0:
        raise ReportError("signed closures exist for odd depths only")
    if k == 1:
        interior = _interior_records(data, sign)
        # boundary points of the signed closures are the depth-2 points; for a
        # two-dimensional target these are the located cusps
        boundary = []
        for rec in data.boundary_records:
            if rec.correct:
                rec = _with_side_resolved(rec, sign)
            boundary.append(rec)
        return chi_with_boundary(interior, boundary, data.certificates)
    # deeper odd strata: point counts of located points of that sign
    pts = [p for p in strat.stratum_points(k) if p.sign == sign]
    return len(pts)


def _with_side_resolved(rec, sign):
    # a correct boundary record stores which signed side its gradient enters;
    # relabel to inward/outward relative to the side being assembled
    side = "plus-stratum" if sign == "plus" else "minus-stratum"
    out = type(rec)(**{f: getattr(rec, f) for f in rec.__dataclass_fields__})
    out.inward_into = "inward" if rec.inward_into == side else "outward"
    return out


def chi_stratum_oracle(S: MorinScenario, strat: Stratification, k: int,
                       sign: str | None):
    """Cell-counting Euler characteristic, available up to stratum dimension 1.

    Dimension 0 counts points; dimension 1 counts arcs (one each) and
    circles (zero each) from the traced curves.  Returns None when the
    stratum dimension exceeds 1.
    """
    dim = S.n - k
    if dim < 0:
        return 0
    if dim == 0:
        pts = strat.stratum_points(k)
        if sign is None:
            return len(pts)
        return sum(1 for p in pts if p.sign == sign)
    if dim == 1 and S.n == 2 and k == 1:
        return _oracle_cells(strat, sign)[0]  # each arc contributes 1, each circle 0
    return None


def _oracle_cells(strat, sign):
    """(arcs, circles) of the traced curves of the given sign (any, for None)."""
    arcs = circles = 0
    for curve in strat.curves:
        if not curve.cusps:
            if sign is None or curve.arcs[0].sign == sign:
                circles += 1
        else:
            arcs += sum(1 for a in curve.arcs if sign is None or a.sign == sign)
    return arcs, circles


def verify_mod2_congruence(S: MorinScenario, chi_m: int, chi_by_depth: dict) -> bool:
    """chi(M) must agree mod 2 with the sum of the closure characteristics."""
    total = sum(chi_by_depth.get(k, 0) for k in range(1, S.n + 1))
    return (chi_m - total) % 2 == 0


def verify_fold_equality(S: MorinScenario, strat: Stratification, chi_m: int,
                         chi_plus: int, chi_minus: int):
    """For fold-only maps: chi(M) equals the signed difference at depth 1.

    Returns None when deeper strata are present (the equality only applies
    to fold-only maps, where open strata and closures coincide).
    """
    if strat.cusps:
        return None
    return chi_m == chi_plus - chi_minus


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
    mod2_congruence_ok: bool
    fold_equality_ok: bool | None
    # the telescoping of boundary contributions compares the correct boundary
    # terms with signed index sums on the depth-3 strata; in scope every cusp
    # is non-correct and depth 3 is rejected, so the check does not apply
    telescoping_ok: bool | None
    # only n = 2 has two independent routes: with n = 1 both count the same
    # points by sign, and with n = 3 both read the empty depth-3 list
    route_agreement_ok: bool | None
    chi_expected_ok: bool | None
    audits: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        """Every applicable check holds; a check that reads None does not apply."""
        checks = [self.identity_ok, self.mod2_congruence_ok, self.fold_equality_ok,
                  self.telescoping_ok, self.route_agreement_ok, self.chi_expected_ok]
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

    table = []
    chi_signed = {}
    for k in range(1, S.n + 1, 2):
        for sign in ("plus", "minus"):
            cm = chi_stratum_via_morse(S, strat, data, k, sign)
            co = chi_stratum_oracle(S, strat, k, sign)
            chi_signed[(k, sign)] = cm
            arcs, circles = _oracle_cells(strat, sign) if (S.n == 2 and k == 1) else (0, 0)
            pts = (len([p for p in strat.stratum_points(k) if p.sign == sign])
                   if S.n - k == 0 else 0)
            table.append({
                "k": k, "sign": sign,
                "chi_morse_boundary": cm,
                "chi_oracle": co,
                "arcs": arcs, "circles": circles, "points": pts,
            })
    for k in range(2, S.n + 1, 2):
        co = chi_stratum_oracle(S, strat, k, None)
        table.append({
            "k": k, "sign": "unsigned",
            "chi_morse_boundary": None,
            "chi_oracle": co,
            "arcs": 0, "circles": 0,
            "points": len(strat.stratum_points(k)),
        })

    route_ok = (all(row["chi_oracle"] == row["chi_morse_boundary"]
                    for row in table if row["k"] == 1) if S.n == 2 else None)
    rhs = sum(chi_signed[(k, "plus")] - chi_signed[(k, "minus")]
              for k in range(1, S.n + 1, 2))
    identity_ok = chi_m == rhs

    chi_by_depth = {}
    for k in range(1, S.n + 1):
        if k % 2 == 1:
            deeper = chi_stratum_oracle(S, strat, k + 1, None) if k + 1 <= S.n else 0
            deeper = 0 if deeper is None else deeper
            chi_by_depth[k] = (chi_signed[(k, "plus")] + chi_signed[(k, "minus")]
                               - deeper)
        else:
            co = chi_stratum_oracle(S, strat, k, None)
            chi_by_depth[k] = 0 if co is None else co
    mod2_ok = verify_mod2_congruence(S, chi_m, chi_by_depth)

    fold_eq = verify_fold_equality(S, strat, chi_m,
                                   chi_signed[(1, "plus")], chi_signed[(1, "minus")])

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
        "stratum1_critical_count": len(data.stratum_records.get(1, ())),
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
        identity_ok=bool(identity_ok),
        mod2_congruence_ok=bool(mod2_ok),
        fold_equality_ok=fold_eq,
        telescoping_ok=None,
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
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj
