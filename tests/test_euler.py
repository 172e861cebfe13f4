from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from morinchi.euler import (
    ReportError,
    build_report,
    chi_closed_morse,
    chi_stratum_oracle,
    chi_stratum_via_morse,
    chi_with_boundary,
    verify_fold_equality,
    verify_mod2_congruence,
)
from morinchi.morse import CriticalRecord, PerturbationCertificate, run_with_genericity
from morinchi.strata import compute_stratification


def rec(x, index, correct=None, inward="n/a", depth=1, closure=1):
    return CriticalRecord(
        x=np.asarray(x, dtype=float), stratum_depth=depth, on_closure_of=closure,
        morse_index=index, index_basis_dim=1, correct=correct, inward_into=inward,
    )


@pytest.fixture(scope="module")
def contexts(s2_height, torus_height, s3_proj, s4_height, s3_cusps, s4_proj):
    out = {}
    for S in (s2_height, torus_height, s3_proj, s4_height, s3_cusps, s4_proj):
        strat = compute_stratification(S)
        a, data, audit, hist = run_with_genericity(S, strat)
        out[S.name] = (S, strat, data, audit, hist)
    return out


# -- chi building blocks -------------------------------------------------------


def test_chi_closed_interval_example():
    # interval [0,1] with the coordinate function: both ends are boundary
    # critical points, only the lower one points inward
    boundary = [
        rec((0.0,), 0, correct=True, inward="inward"),
        rec((1.0,), 0, correct=True, inward="outward"),
    ]
    assert chi_with_boundary([], boundary) == 1


def test_chi_disk_examples():
    # tilted radial function on a disk: one interior minimum, both boundary
    # critical points outward
    interior = [rec((0.0, 0.0), 0)]
    boundary = [
        rec((0.0, 1.0), 1, correct=True, inward="outward"),
        rec((0.0, -1.0), 0, correct=True, inward="outward"),
    ]
    assert chi_with_boundary(interior, boundary) == 1
    # plain height on the disk: no interior points, the minimum end inward
    boundary = [
        rec((0.0, 1.0), 1, correct=True, inward="outward"),
        rec((0.0, -1.0), 0, correct=True, inward="inward"),
    ]
    assert chi_with_boundary([], boundary) == 1


def test_chi_with_boundary_requires_classification():
    with pytest.raises(ReportError, match="not classified"):
        chi_with_boundary([], [rec((0.0,), 0, correct=None)])


def test_chi_with_boundary_requires_certificate_for_non_correct():
    with pytest.raises(ReportError, match="certificate"):
        chi_with_boundary([], [rec((0.0,), 0, correct=False)])


def test_chi_with_boundary_uses_certificate_contribution():
    cert = PerturbationCertificate(
        p=np.zeros(1), p_tilde=np.ones(1), eps=1e-4, sign_xnk=-1,
        det_sign_closure=1, det_sign_boundary=-1, boundary_index=0,
        interior_index=0, cancels=True, chi_contribution=1,
    )
    assert chi_with_boundary([], [rec((0.0,), 0, correct=False)], [cert]) == 1


def test_chi_closed_morse_values(contexts):
    assert chi_closed_morse(contexts["s2-height"][2].k0_records) == 2
    assert chi_closed_morse(contexts["torus-height"][2].k0_records) == 0
    assert chi_closed_morse(contexts["s3-proj"][2].k0_records) == 0
    assert chi_closed_morse(contexts["s4-height"][2].k0_records) == 2
    assert chi_closed_morse(contexts["s4-proj"][2].k0_records) == 2


# -- per-stratum routes -----------------------------------------------------------


def test_signed_chi_s2(contexts):
    S, strat, data, _, _ = contexts["s2-height"]
    assert chi_stratum_via_morse(S, strat, data, 1, "plus") == 2
    assert chi_stratum_via_morse(S, strat, data, 1, "minus") == 0
    assert chi_stratum_oracle(S, strat, 1, "plus") == 2
    assert chi_stratum_oracle(S, strat, 1, "minus") == 0


def test_signed_chi_s3_circle(contexts):
    S, strat, data, _, _ = contexts["s3-proj"]
    assert chi_stratum_via_morse(S, strat, data, 1, "plus") == 0
    assert chi_stratum_via_morse(S, strat, data, 1, "minus") == 0
    assert chi_stratum_oracle(S, strat, 1, "plus") == 0


def test_signed_chi_cusp_arcs(contexts):
    S, strat, data, _, _ = contexts["s3-cusps"]
    # each signed closure is one arc: chi = 1 by both routes
    assert chi_stratum_via_morse(S, strat, data, 1, "plus") == 1
    assert chi_stratum_via_morse(S, strat, data, 1, "minus") == 1
    assert chi_stratum_oracle(S, strat, 1, "plus") == 1
    assert chi_stratum_oracle(S, strat, 1, "minus") == 1
    # the depth-2 stratum is the two cusp points
    assert chi_stratum_oracle(S, strat, 2, None) == 2


def test_oracle_unavailable_beyond_dimension_one(contexts):
    S, strat, data, _, _ = contexts["s4-proj"]
    assert chi_stratum_oracle(S, strat, 1, "plus") is None


def test_deepest_stratum_counts(contexts):
    S, strat, data, _, _ = contexts["s4-height"]
    assert chi_stratum_via_morse(S, strat, data, 1, "plus") == 6
    assert chi_stratum_via_morse(S, strat, data, 1, "minus") == 4


# -- global identities --------------------------------------------------------------


def test_mod2_congruence_examples():
    class Fake:
        n = 1
    assert verify_mod2_congruence(Fake, 2, {1: 2})     # sphere: 2 and 2
    assert verify_mod2_congruence(Fake, 0, {1: 4})     # torus: 0 and 4
    Fake.n = 2
    assert verify_mod2_congruence(Fake, 0, {1: 0, 2: 0})
    assert not verify_mod2_congruence(Fake, 1, {1: 0, 2: 0})


def test_reports_all_scenarios(contexts):
    for name, (S, strat, data, audit, hist) in contexts.items():
        report = build_report(S, strat, data, audit.attempt, hist)
        d = report.as_dict()
        assert d["identity_ok"], name
        assert d["mod2_congruence_ok"], name
        # only n = 2 has an oracle independent of the Morse route
        if S.n == 2:
            assert d["route_agreement_ok"] is True, name
        else:
            assert d["route_agreement_ok"] is None, name
        assert not dataclasses.replace(report, route_agreement_ok=False).all_ok, name
        # no depth-3 strata in scope: the telescoping check does not apply,
        # and all_ok below holds without it
        assert d["telescoping_ok"] is None, name
        assert not dataclasses.replace(report, telescoping_ok=False).all_ok, name
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
    for name, (S, strat, data, audit, hist) in contexts.items():
        report = build_report(S, strat, data, audit.attempt, hist)
        if name == "s3-cusps":
            assert report.fold_equality_ok is None
        else:
            assert report.fold_equality_ok is True


def test_fold_equality_direct(contexts):
    S, strat, data, _, _ = contexts["s3-proj"]
    assert verify_fold_equality(S, strat, 0, 0, 0) is True
    assert verify_fold_equality(S, strat, 1, 0, 0) is False
    S2, strat2, _, _, _ = contexts["s3-cusps"]
    assert verify_fold_equality(S2, strat2, 0, 1, 1) is None


def test_report_json_deterministic(contexts):
    S, strat, data, audit, hist = contexts["s2-height"]
    r1 = build_report(S, strat, data, audit.attempt, hist).to_json()
    r2 = build_report(S, strat, data, audit.attempt, hist).to_json()
    assert r1 == r2
