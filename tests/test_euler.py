from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from morinchi.euler import (
    build_report,
    chi_closed_morse,
    chi_signed_closure,
)
from morinchi.morse import (
    CriticalRecord,
    MorseData,
    PerturbationCertificate,
    run_with_genericity,
    sample_covector,
)
from morinchi.strata import compute_stratification
from tests.conftest import bundled

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def contexts(s2_height, torus_height, s3_proj, s4_height, s3_cusps, s4_proj):
    out = {}
    for S in (s2_height, torus_height, s3_proj, s4_height, s3_cusps, s4_proj):
        strat = compute_stratification(S)
        a, data, audit, hist = run_with_genericity(S, strat)
        out[S.name] = (S, strat, data, audit, hist)
    return out


# -- chi building blocks -------------------------------------------------------


def test_chi_with_boundary_uses_certificate_contribution():
    # a signed closure is a manifold with boundary; every certificate adds
    # its contribution to both signs
    cert = PerturbationCertificate(
        p=np.zeros(1), p_tilde=np.ones(1), eps=1e-4, sign_xnk=-1,
        interior_index=0, cancels=True, chi_contribution=1,
    )
    data = MorseData(
        covector=sample_covector(1, 0), k0_records=[],
        k1_records=[CriticalRecord(x=np.full(1, 0.5), morse_index=1, fold_sign="plus")],
        boundary_records=[CriticalRecord(x=np.zeros(1), morse_index=0, correct=False)],
        certificates=[cert],
    )
    assert chi_signed_closure(data, "plus") == 0
    assert chi_signed_closure(data, "minus") == 1


def test_chi_closed_morse_values(contexts):
    assert chi_closed_morse(contexts["s2-height"][2].k0_records) == 2
    assert chi_closed_morse(contexts["torus-height"][2].k0_records) == 0
    assert chi_closed_morse(contexts["s3-proj"][2].k0_records) == 0
    assert chi_closed_morse(contexts["s4-height"][2].k0_records) == 2
    assert chi_closed_morse(contexts["s4-proj"][2].k0_records) == 2


# -- per-stratum routes -----------------------------------------------------------


def _rows(ctx):
    S, strat, data, audit, hist = ctx
    return {(r["k"], r["sign"]): r
            for r in build_report(S, strat, data, audit.attempt, hist).strata_table}


def test_signed_chi_s2(contexts):
    data = contexts["s2-height"][2]
    assert chi_signed_closure(data, "plus") == 2
    assert chi_signed_closure(data, "minus") == 0
    rows = _rows(contexts["s2-height"])
    assert rows[(1, "plus")]["chi_oracle"] == 2
    assert rows[(1, "minus")]["chi_oracle"] == 0


def test_signed_chi_s3_circle(contexts):
    data = contexts["s3-proj"][2]
    assert chi_signed_closure(data, "plus") == 0
    assert chi_signed_closure(data, "minus") == 0
    assert _rows(contexts["s3-proj"])[(1, "plus")]["chi_oracle"] == 0


def test_signed_chi_cusp_arcs(contexts):
    data = contexts["s3-cusps"][2]
    # each signed closure is one arc: chi = 1 by both routes
    assert chi_signed_closure(data, "plus") == 1
    assert chi_signed_closure(data, "minus") == 1
    rows = _rows(contexts["s3-cusps"])
    assert rows[(1, "plus")]["chi_oracle"] == 1
    assert rows[(1, "minus")]["chi_oracle"] == 1
    # the depth-2 stratum is the two cusp points
    assert rows[(2, "unsigned")]["chi_oracle"] == 2


def test_oracle_unavailable_beyond_dimension_one(contexts):
    assert _rows(contexts["s4-proj"])[(1, "plus")]["chi_oracle"] is None


def test_deepest_stratum_counts(contexts):
    data = contexts["s4-height"][2]
    assert chi_signed_closure(data, "plus") == 6
    assert chi_signed_closure(data, "minus") == 4


def test_strata_tables_match_the_benchmark_reference(contexts):
    # every bundled scenario runs at its own seed, 0, as the reference does
    reference = json.loads(REFERENCE.read_text())
    assert set(reference) == set(contexts)
    for name, (S, strat, data, audit, hist) in contexts.items():
        assert S.seed == 0, name
        report = build_report(S, strat, data, audit.attempt, hist)
        assert report.chi_M_morse == reference[name]["chi_M"], name
        assert report.strata_table == reference[name]["strata"], name


def test_s2xs2_height_strata_table():
    # the one bundled scenario outside the benchmark reference: four folds,
    # all of sign plus, with chi 4 by both routes
    S = bundled("s2xs2-height")
    strat = compute_stratification(S)
    a, data, audit, hist = run_with_genericity(S, strat)
    report = build_report(S, strat, data, audit.attempt, hist)
    assert report.chi_M_morse == 4
    assert report.strata_table == [
        {"k": 1, "sign": "plus", "chi_morse_boundary": 4, "chi_oracle": 4,
         "arcs": 0, "circles": 0, "points": 4},
        {"k": 1, "sign": "minus", "chi_morse_boundary": 0, "chi_oracle": 0,
         "arcs": 0, "circles": 0, "points": 0},
    ]


def test_audit_booleans_are_written_as_booleans(contexts):
    S, strat, data, audit, hist = contexts["s3-cusps"]
    audits = json.loads(build_report(S, strat, data, audit.attempt, hist).to_json())["audits"]
    assert audits["certificates_cancel"] is True
    assert len(audits["eta_checks"]) == 2
    assert all(c["identity_ok"] is True for c in audits["eta_checks"])


# -- global identities --------------------------------------------------------------


def test_mod2_congruence_examples(contexts):
    # s2-height: chi(M) = 2 and chi+ + chi- = 2; without one point of the
    # k=0 census chi(M) is odd.  chi+ - chi- and chi+ + chi- have the same
    # parity, so the identity check is what fails, and the congruence reads
    # null either way
    S, strat, data, audit, hist = contexts["s2-height"]
    report = build_report(S, strat, data, audit.attempt, hist)
    assert report.identity_ok is True and report.mod2_congruence_ok is None
    short = dataclasses.replace(data, k0_records=data.k0_records[1:])
    report = build_report(S, strat, short, audit.attempt, hist)
    assert report.identity_ok is False and report.mod2_congruence_ok is None
    assert not report.all_ok


def test_reports_all_scenarios(contexts):
    for name, (S, strat, data, audit, hist) in contexts.items():
        report = build_report(S, strat, data, audit.attempt, hist)
        d = report.as_dict()
        assert d["identity_ok"], name
        assert d["mod2_congruence_ok"] is None and d["fold_equality_ok"] is None, name
        # only n = 2 has an oracle independent of the Morse route
        if S.n == 2:
            assert d["route_agreement_ok"] is True, name
        else:
            assert d["route_agreement_ok"] is None, name
        assert not dataclasses.replace(report, route_agreement_ok=False).all_ok, name
        # no depth-3 strata in scope: the telescoping check does not apply
        assert d["telescoping_ok"] is None, name
        assert d["chi_expected_ok"], name
        assert d["all_ok"], name
        assert d["identity_lhs"] == d["chi_M_expected"]


def test_identity_values(contexts):
    expected = {
        "s2-height": (2, 2), "torus-height": (0, 0), "s3-proj": (0, 0),
        "s4-height": (2, 2), "s3-cusps": (0, 0), "s4-proj": (2, 2),
    }
    for name, (S, strat, data, audit, hist) in contexts.items():
        report = build_report(S, strat, data, audit.attempt, hist)
        assert (report.identity_lhs, report.identity_rhs) == expected[name], name


def test_fold_equality_applicability(contexts):
    # with or without cusps, the fold-only equality is the checked identity
    for name, (S, strat, data, audit, hist) in contexts.items():
        report = build_report(S, strat, data, audit.attempt, hist)
        assert report.identity_ok is True, name
        assert report.fold_equality_ok is None, name
        assert json.loads(report.to_json())["fold_equality_ok"] is None, name


def test_report_json_deterministic(contexts):
    S, strat, data, audit, hist = contexts["s2-height"]
    r1 = build_report(S, strat, data, audit.attempt, hist).to_json()
    r2 = build_report(S, strat, data, audit.attempt, hist).to_json()
    assert r1 == r2
