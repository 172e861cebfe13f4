from __future__ import annotations

import numpy as np
import pytest

from morinchi import morse, strata
from morinchi._numeric import NewtonResult, fd_jacobian
from morinchi.morse import (
    Covector,
    CriticalRecord,
    GenericityAudit,
    GenericityExhausted,
    MorseAuditError,
    StratumCriticalSystem,
    check_fold_index_parity,
    classify_correctness,
    compute_morse_data,
    critical_points_on_stratum,
    eta_sign,
    perturbation_certificate,
    run_with_genericity,
    sample_covector,
    validate_genericity,
)
from morinchi.strata import (
    FoldCurve,
    SingularSystem,
    StratificationError,
    classify_depth,
    compute_stratification,
    load_scenario,
    stratum_point,
)


@pytest.fixture(scope="module")
def s2_ctx(s2_height):
    strat = compute_stratification(s2_height)
    a, data, audit, hist = run_with_genericity(s2_height, strat)
    return s2_height, strat, a, data, audit


@pytest.fixture(scope="module")
def torus_ctx(torus_height):
    strat = compute_stratification(torus_height)
    a, data, audit, hist = run_with_genericity(torus_height, strat)
    return torus_height, strat, a, data, audit


@pytest.fixture(scope="module")
def s3_ctx(s3_proj):
    strat = compute_stratification(s3_proj)
    a, data, audit, hist = run_with_genericity(s3_proj, strat)
    return s3_proj, strat, a, data, audit


@pytest.fixture(scope="module")
def cusp_ctx(s3_cusps):
    strat = compute_stratification(s3_cusps)
    a, data, audit, hist = run_with_genericity(s3_cusps, strat)
    return s3_cusps, strat, a, data, audit


# -- covector sampling -----------------------------------------------------------


def test_sample_covector_deterministic():
    a1 = sample_covector(2, 0)
    a2 = sample_covector(2, 0)
    assert np.array_equal(a1.a, a2.a)
    # frozen value for seed 0 (determinism contract)
    assert np.allclose(a1.a, sample_covector(2, [0]).a)


def test_sample_covector_distinct_seeds():
    assert not np.allclose(sample_covector(3, 1).a, sample_covector(3, 2).a)


def test_sample_covector_unit_norm():
    for seed in range(5):
        assert np.linalg.norm(sample_covector(4, seed).a) == pytest.approx(1.0, abs=1e-12)


def test_sample_covector_n1_is_sign():
    for seed in range(6):
        a = sample_covector(1, seed).a
        assert abs(abs(float(a[0])) - 1.0) < 1e-12


def test_covector_rejects_non_unit():
    with pytest.raises(ValueError):
        Covector(a=np.array([1.0, 1.0]), seed=0)


# -- critical points on M (k = 0) -------------------------------------------------


def test_s2_k0_indices(s2_ctx):
    S, strat, a, data, audit = s2_ctx
    indices = sorted(r.morse_index for r in data.k0_records)
    assert indices == [0, 2]
    assert all(r.fold_sign == "plus" for r in data.k0_records)


def test_torus_k0_indices(torus_ctx):
    S, strat, a, data, audit = torus_ctx
    indices = sorted(r.morse_index for r in data.k0_records)
    assert indices == [0, 1, 1, 2]


def test_k0_records_lie_on_stratum(torus_ctx):
    S, strat, a, data, audit = torus_ctx
    for rec in data.k0_records:
        d = min(np.linalg.norm(rec.x - p.x) for p in strat.points)
        assert d < 1e-6


# -- critical points on the depth-1 stratum ----------------------------------------


def test_s3_fold_circle_two_critical_points(s3_ctx):
    S, strat, a, data, audit = s3_ctx
    k1 = data.stratum_records[1]
    assert len(k1) == 2
    assert sorted(r.morse_index for r in k1) == [0, 1]
    assert all(r.index_basis_dim == 1 for r in k1)


def test_stratum_records_n1_are_points(torus_ctx):
    S, strat, a, data, audit = torus_ctx
    k1 = data.stratum_records[1]
    assert len(k1) == 4
    assert all(r.morse_index == 0 and r.index_basis_dim == 0 for r in k1)


def test_augmented_jacobian_matches_fd(s3_cusps):
    strat_cloud = compute_stratification(s3_cusps)
    a = sample_covector(2, [s3_cusps.seed, 0])
    sysc = StratumCriticalSystem(s3_cusps, a.a)
    p = strat_cloud.points[0]
    z = sysc.base.pack(p.x, p.cokernel, p.multiplier)
    w = np.concatenate([z, sysc.initial_nu(z)])
    J = sysc.jacobian(w)
    Jfd = fd_jacobian(sysc.residual, w)
    assert np.allclose(J, Jfd, atol=5e-6)


def test_surface_critical_points_s4_proj(s4_proj):
    strat = compute_stratification(s4_proj)
    a, data, audit, hist = run_with_genericity(s4_proj, strat)
    k1 = data.stratum_records[1]
    # a generic linear functional on the fold 2-sphere has exactly two
    # critical points, indices 0 and 2
    assert len(k1) == 2
    assert sorted(r.morse_index for r in k1) == [0, 2]
    assert all(r.index_basis_dim == 2 for r in k1)
    assert all(r.fold_sign == "plus" for r in k1)


# -- correctness, eta, certificates -------------------------------------------------


def test_cusps_are_non_correct_for_the_curve(cusp_ctx):
    S, strat, a, data, audit = cusp_ctx
    assert len(data.boundary_records) == 2
    for rec in data.boundary_records:
        assert rec.correct is False
        assert rec.stratum_depth == 2
        assert rec.on_closure_of == 1


def test_cusps_are_correct_for_the_manifold(cusp_ctx):
    S, strat, a, data, audit = cusp_ctx
    for p in strat.cusps:
        rec = critical_record_stub(p)
        classify_correctness(S, a, rec, closure_depth=0)
        assert rec.correct is True


def critical_record_stub(p):
    from morinchi.morse import CriticalRecord
    return CriticalRecord(x=p.x, stratum_depth=p.depth, on_closure_of=0,
                          morse_index=0, index_basis_dim=1)


def test_interior_points_correct_for_manifold(cusp_ctx):
    # any interior stratum point with nonvanishing manifold gradient is correct
    S, strat, a, data, audit = cusp_ctx
    p = next(q for q in strat.points if q.depth == 1)
    rec = critical_record_stub(p)
    classify_correctness(S, a, rec, closure_depth=0)
    assert rec.correct is True


def test_eta_identity_at_every_cusp(cusp_ctx):
    S, strat, a, data, audit = cusp_ctx
    assert data.audits["block_hessian_ok"]
    for chk in data.audits["eta_checks"]:
        assert chk["identity_ok"]
        assert chk["eta"] == -((-1) ** chk["closure_index"])


def test_eta_sign_flat_model(flat_cusp):
    # at the flat model cusp the eta factor equals the first covector entry
    p = stratum_point(flat_cusp, np.zeros(4), np.array([0.0, 1.0]), np.array([0.0]))
    classify_depth(flat_cusp, p)
    for a1 in (0.6, -0.6):
        a = Covector(a=np.array([a1, np.sqrt(1 - a1**2)]), seed=0)
        assert eta_sign(flat_cusp, a, p) == (1 if a1 > 0 else -1)


def test_certificates_cancel(cusp_ctx):
    S, strat, a, data, audit = cusp_ctx
    assert len(data.certificates) == 2
    for cert in data.certificates:
        assert cert.cancels
        assert cert.sign_xnk == (-1) ** (cert.boundary_index + 1) * (-1) ** cert.interior_index
        assert np.linalg.norm(cert.p_tilde - cert.p) > S.tolerances.dedup_radius
        assert cert.chi_contribution == (1 if cert.interior_index == 0 else 0)


def test_certificate_det_sign_bookkeeping(cusp_ctx):
    S, strat, a, data, audit = cusp_ctx
    for cert in data.certificates:
        # closure determinant sign carries the interior index parity
        assert cert.det_sign_closure == (-1) ** cert.interior_index
        # boundary factor is minus epsilon times the empty boundary Hessian
        assert cert.det_sign_boundary == -1
        assert cert.sign_xnk == cert.det_sign_closure * cert.det_sign_boundary


# -- audits --------------------------------------------------------------------------


def test_parity_audit_all_scenarios(s2_ctx, torus_ctx, s3_ctx, cusp_ctx):
    for S, strat, a, data, audit in (s2_ctx, torus_ctx, s3_ctx, cusp_ctx):
        parity = data.audits["parity"]
        if S.n == 1:
            # the kernel form is the reduced Hessian up to sign: nothing to check
            assert parity is None
            continue
        assert parity.ok, parity.violations
        assert parity.checked == len(data.k0_records)


def test_parity_audit_detects_violation(s3_ctx):
    S, strat, a, data, audit = s3_ctx
    import copy
    broken = copy.deepcopy(data.k0_records)
    broken[0].morse_index += 1
    parity = check_fold_index_parity(S, a, broken, data.stratum_records[1])
    assert not parity.ok


def test_separation_audit(s3_ctx):
    S, strat, a, data, audit = s3_ctx
    sep = data.audits["separation"]
    assert sep.ok
    assert sep.matched == len(data.k0_records)
    assert sep.max_distance <= 1e-6


def test_validate_genericity_flags_failures(cusp_ctx):
    S, strat, a, data, audit = cusp_ctx
    assert audit.ok
    import copy
    broken = copy.deepcopy(data)
    broken.certificates[0].cancels = False
    bad = validate_genericity(S, a, strat, broken, attempt=0)
    assert not bad.ok
    assert any("cancel" in f for f in bad.failures)


def test_genericity_exhausted_when_budget_tiny(s3_cusps):
    from morinchi.strata import Tolerances
    import copy
    S = load_scenario({
        "name": "budget", "ambient_dim": 4, "intrinsic_dim": 3,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) (^ x3 2) -1)"],
        "target_dim": 2,
        "components": ["x0", "(+ x1 (* 4/5 (^ x2 2)) (* 3/10 x0 x2))"],
        "seed": 0,
    })
    strat = compute_stratification(S)

    # force every attempt to fail by monkeypatching the audit target
    class AlwaysBad:
        def __init__(self, *a, **k):
            pass
    merged = S.tolerances.as_dict()
    merged["max_resamples"] = 1
    S.tolerances = Tolerances.from_dict(merged)
    import morinchi.morse as morse_mod
    orig = morse_mod.validate_genericity
    try:
        morse_mod.validate_genericity = lambda *a, **k: GenericityAudit(
            ok=False, failures=["forced"], attempt=0)
        with pytest.raises(GenericityExhausted):
            run_with_genericity(S, strat)
    finally:
        morse_mod.validate_genericity = orig


def test_reduced_index_invariant_under_frame_rotation(torus_ctx):
    # the index census must not depend on the tangent frame used for the
    # reduced Hessian; conjugating by any orthogonal frame change preserves it
    S, strat, a, data, audit = torus_ctx
    from morinchi.manifold import tangent_frame
    from morinchi._numeric import eig_sign_counts
    rng = np.random.default_rng(5)
    for rec in data.k0_records:
        lam = np.linalg.lstsq(S.manifold.jacobian(rec.x).T,
                              S.Df(rec.x).T @ a.a, rcond=None)[0]
        frame = tangent_frame(S.manifold, rec.x)
        W = S.lagrangian_hessian(rec.x, a.a, lam)
        q, _ = np.linalg.qr(rng.standard_normal((S.m, S.m)))
        B1 = frame.tangent
        B2 = q @ frame.tangent
        idx1 = eig_sign_counts(B1 @ W @ B1.T, 1e-6)[1]
        idx2 = eig_sign_counts(B2 @ W @ B2.T, 1e-6)[1]
        assert idx1 == idx2 == rec.morse_index


def test_seed_changes_covector_but_not_results(s2_height):
    strat = compute_stratification(s2_height)
    outcomes = []
    for seed in (0, 1):
        s = load_scenario({
            "name": "s2", "ambient_dim": 3, "intrinsic_dim": 2,
            "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) -1)"],
            "target_dim": 1, "components": ["x2"], "seed": seed,
            "chi_expected": 2,
        })
        st = compute_stratification(s)
        a, data, audit, hist = run_with_genericity(s, st)
        outcomes.append(sorted(r.morse_index for r in data.k0_records))
    assert outcomes[0] == outcomes[1] == [0, 2]


def test_unconverged_landing_is_a_stratification_error(flat_cusp, monkeypatch):
    S = flat_cusp
    p = stratum_point(S, np.zeros(4), np.array([0.0, 1.0]), np.array([0.0]))
    system = SingularSystem(S)
    z = system.pack(p.x, p.cokernel, p.multiplier)

    def stalled(system, z0):
        return NewtonResult(np.asarray(z0, dtype=float), 1.0, False, 60)

    monkeypatch.setattr(morse, "land", stalled)
    rec = CriticalRecord(x=p.x, stratum_depth=2, on_closure_of=1, morse_index=0,
                         index_basis_dim=0)
    with pytest.raises(StratificationError, match="land"):
        classify_correctness(S, sample_covector(2, [0, 0]), rec, closure_depth=1, point=p)
    with pytest.raises(StratificationError, match="land"):
        morse._curve_context_at(S, p)

    # the cusp bisection converges at once, then the landing on the cusp stalls
    converges = iter([True, False])
    monkeypatch.setattr(strata, "land", lambda system, z0: NewtonResult(
        np.asarray(z0, dtype=float), 0.0, next(converges), 1))
    monkeypatch.setattr(strata, "_node_metrics", lambda S, system, z: (0.0, 0))
    curve = FoldCurve(nodes=np.array([z, z + 0.01]), closed=True, closure_error=0.0,
                      det_values=np.array([1.0, -1.0]), parities=np.array([0, 1]),
                      tangents=np.zeros((2, len(z))))
    with pytest.raises(StratificationError, match="land"):
        strata._locate_cusps(S, system, curve)
