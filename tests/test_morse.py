from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from morinchi import continuation, morse, strata
from morinchi._numeric import STOP_REASONS, NewtonResult
from morinchi.morse import (
    Covector,
    CriticalRecord,
    GenericityAudit,
    GenericityExhausted,
    MorseAuditError,
    StratumCriticalSystem,
    check_fold_index_parity,
    compute_morse_data,
    critical_points_on_stratum,
    eta_sign,
    perturbation_certificate,
    run_with_genericity,
    sample_covector,
    validate_genericity,
)
from morinchi.scenario import StratificationError, load_scenario
from morinchi.strata import (
    FoldCurve,
    SingularSystem,
    compute_stratification,
)
from tests.conftest import bundled, fd_jacobian, reference_stratum_point


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
        Covector(a=np.array([1.0, 1.0]))


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
    k1 = data.k1_records
    assert len(k1) == 2
    assert sorted(r.morse_index for r in k1) == [0, 1]


def test_stratum_records_n1_are_points(torus_ctx):
    S, strat, a, data, audit = torus_ctx
    k1 = data.k1_records
    assert len(k1) == 4
    assert all(r.morse_index == 0 for r in k1)


def test_stratum_solve_refuses_fold_curves(cusp_ctx):
    # n = 2: the depth-1 critical points come from the curve walk, not the
    # surface solve on the depth-1 cloud
    S, strat, a, data, audit = cusp_ctx
    with pytest.raises(StratificationError, match="fold curves"):
        critical_points_on_stratum(S, a, 1, strat)


def test_augmented_jacobian_matches_fd(s3_cusps):
    strat_cloud = compute_stratification(s3_cusps)
    a = sample_covector(2, [s3_cusps.seed, 0])
    sysc = StratumCriticalSystem(s3_cusps, a.a)
    p = strat_cloud.points[0]
    z = sysc.base.pack(p.x, p.cokernel, p.multiplier)
    w = np.concatenate([z, sysc.initial_nu(z)])
    J = sysc.evaluate(w)[1]
    Jfd = fd_jacobian(lambda v: sysc.evaluate(v)[0], w)
    assert np.allclose(J, Jfd, atol=5e-6)


def test_surface_critical_points_s4_proj(s4_proj):
    strat = compute_stratification(s4_proj)
    a, data, audit, hist = run_with_genericity(s4_proj, strat)
    k1 = data.k1_records
    # a generic linear functional on the fold 2-sphere has exactly two
    # critical points, indices 0 and 2
    assert len(k1) == 2
    assert sorted(r.morse_index for r in k1) == [0, 2]
    assert all(r.fold_sign == "plus" for r in k1)


# -- correctness, eta, certificates -------------------------------------------------


def test_cusps_are_non_correct_for_the_curve(cusp_ctx):
    S, strat, a, data, audit = cusp_ctx
    assert len(data.boundary_records) == 2
    for rec in data.boundary_records:
        assert rec.correct is False


def _every_cusp_hit(strat):
    return set(range(len(strat.cusps)))


def test_cusps_are_correct_for_the_manifold(cusp_ctx):
    # the boundary records pass the dichotomy check, whose half on M asks
    # for a tangential gradient above the correctness threshold
    S, strat, a, data, audit = cusp_ctx
    records, _, _ = morse._boundary_records(S, a, strat, _every_cusp_hit(strat))
    assert [r.correct for r in records] == [False] * len(strat.cusps)
    for p in strat.cusps:
        thr = S.tolerances.correctness * morse._gradient_scale(S, a.a, p.x)
        assert np.linalg.norm(morse._tangential_gradient_on_M(S, a.a, p.x)) > 1e3 * thr


def _history_of_one_attempt(S, strat, monkeypatch):
    monkeypatch.setattr(S, "tolerances", dataclasses.replace(S.tolerances, max_resamples=1))
    with pytest.raises(GenericityExhausted) as info:
        run_with_genericity(S, strat)
    return str(info.value)


def test_a_cusp_with_a_derivative_along_the_curve_violates_the_dichotomy(
        s3_cusps, monkeypatch):
    # each cusp's tangent turned to h's tangential gradient on M, along
    # which h has a clear derivative; the certificates still read the
    # charted tangents, so only the dichotomy sees the turned ones
    S = s3_cusps
    strat = compute_stratification(S)
    a = sample_covector(S.n, [S.seed, 0])
    turned = []
    for p in strat.cusps:
        t = np.zeros_like(p.arc_tangent)
        t[:S.N] = morse._tangential_gradient_on_M(S, a.a, p.x)
        turned.append(dataclasses.replace(p, arc_tangent=t))
    charted = {id(q): p for q, p in zip(turned, strat.cusps)}
    certificate = morse.perturbation_certificate
    monkeypatch.setattr(morse, "perturbation_certificate",
                        lambda S, a, q: certificate(S, a, charted[id(q)]))
    strat = dataclasses.replace(strat, cusps=turned)
    with pytest.raises(MorseAuditError,
                       match="correctness dichotomy violated.*expected non-correct"):
        morse._boundary_records(S, a, strat, _every_cusp_hit(strat))
    history = _history_of_one_attempt(S, strat, monkeypatch)
    assert "attempt 0: correctness dichotomy violated" in history
    assert "expected non-correct" in history


def test_a_cusp_with_no_gradient_on_the_manifold_violates_the_dichotomy(
        cusp_ctx, monkeypatch):
    # eta reads the same tangential gradient and would refuse first, so it
    # is set to a constant: only the dichotomy's half on M is under test
    S, strat, a, data, audit = cusp_ctx
    monkeypatch.setattr(morse, "_tangential_gradient_on_M",
                        lambda S, a, x: np.zeros(S.N))
    monkeypatch.setattr(morse, "eta_sign", lambda S, a, p: 1)
    with pytest.raises(MorseAuditError,
                       match="correctness dichotomy violated.*expected correct"):
        morse._boundary_records(S, a, strat, _every_cusp_hit(strat))
    history = _history_of_one_attempt(S, strat, monkeypatch)
    assert "correctness dichotomy violated" in history and "expected correct" in history


def test_eta_identity_at_every_cusp(cusp_ctx):
    S, strat, a, data, audit = cusp_ctx
    assert data.audits["block_hessian_ok"]
    for chk in data.audits["eta_checks"]:
        assert chk["identity_ok"]
        assert chk["eta"] == -((-1) ** chk["closure_index"])


def test_eta_sign_flat_model(flat_cusp):
    # at the flat model cusp the eta factor equals the first covector entry
    p = reference_stratum_point(flat_cusp, np.zeros(4), np.array([0.0, 1.0]), np.array([0.0]))
    strata._chart_cusps(flat_cusp, SingularSystem(flat_cusp), [p])
    for a1 in (0.6, -0.6):
        a = Covector(a=np.array([a1, np.sqrt(1 - a1**2)]))
        assert eta_sign(flat_cusp, a, p) == (1 if a1 > 0 else -1)


def test_certificates_cancel(cusp_ctx):
    S, strat, a, data, audit = cusp_ctx
    assert len(data.certificates) == 2
    for cert in data.certificates:
        assert cert.cancels
        assert cert.sign_xnk == -(-1) ** cert.interior_index
        assert np.linalg.norm(cert.p_tilde - cert.p) > S.tolerances.dedup_radius
        assert cert.chi_contribution == (1 if cert.interior_index == 0 else 0)


def _flat_below(S, system, Z):
    """S with eigen_zero between the relative sizes of the kernel Hessian's
    smallest eigenvalue at the two points Z, each measured as
    ``sign_counts`` measures it, so that one point is flat."""
    vals = np.abs(strata._kernel_spectra(S, *system.unpack(Z))[2])
    sizes = np.min(vals, axis=1) / np.maximum(np.max(vals, axis=1), 1.0)
    small, large = sorted(sizes)
    assert large > 1.001 * small
    S.tolerances = dataclasses.replace(S.tolerances, eigen_zero=float(np.sqrt(small * large)))


def test_an_arc_sample_on_a_flat_point_is_not_a_fold_point():
    # the kernel eigenvalues of the two arc samples at an s3-cusps cusp
    # differ in magnitude (about 8.24e-3 and 8.29e-3); with eigen_zero
    # between them one sample is flat.  Its sign is "unsigned" and the other
    # sample's is not, so the signs differ: only the flat count rejects the
    # sample, when the cusp is charted again
    S = bundled("s3-cusps")
    cusp = compute_stratification(S).cusps[0]
    system = SingularSystem(S)
    _flat_below(S, system, cusp.arc_samples)
    points, failures = strata.stratum_points(S, system, cusp.arc_samples)
    assert not failures and sorted(q.signature.n_zero for q in points) == [0, 1]
    assert len({q.sign for q in points}) == 2 and {q.depth for q in points} == {1}
    with pytest.raises(StratificationError, match="arc sample at a cusp is not a fold point"):
        strata._chart_cusps(S, system, [cusp])


def test_a_flat_interior_partner_is_not_a_fold_point(cusp_ctx):
    # the certificate's interior partner sits about 1e-4 from the cusp; an
    # eigen_zero above its kernel eigenvalue makes it flat, while the cusp
    # was charted with the default tolerances
    _, _, a, data, _ = cusp_ctx
    S = bundled("s3-cusps")
    cusp = compute_stratification(S).cusps[0]
    partner = data.certificates[0].p_tilde
    assert 0 < np.linalg.norm(partner - cusp.x) < 1e-3
    S.tolerances = dataclasses.replace(S.tolerances, eigen_zero=1e-2)
    with pytest.raises(StratificationError, match="interior partner is not a fold point"):
        perturbation_certificate(S, a, cusp)


def test_cusp_geometry_is_charted_once_per_pipeline(s3_cusps, monkeypatch):
    # covector attempt 0 fails the audit and attempt 1 passes: the arc
    # samples are corrected once, as one stack for the curve, while the
    # Morse theory corrects only the eight partner candidates of each cusp
    # on each attempt
    S = s3_cusps
    charts, chart_lanes, partner_lanes = [], [], []
    chart, correct, validate = (strata._chart_cusps, continuation.correct_in_planes,
                                morse.validate_genericity)

    def charting(S, system, cusps):
        charts.append(len(cusps))
        try:
            return chart(S, system, cusps)
        finally:
            charts.append(None)

    def in_chart(system, Z, anchors, normals):
        # the trace's corrections come before the chart and after no chart
        if charts and charts[-1] is not None:
            chart_lanes.append(len(Z))
        return correct(system, Z, anchors, normals)

    def in_morse(system, Z, anchors, normals):
        partner_lanes.append(len(Z))
        return correct(system, Z, anchors, normals)

    def failing_first(S, a, strat, data, attempt=0):
        if attempt == 0:
            return GenericityAudit(ok=False, failures=["forced"], attempt=0)
        return validate(S, a, strat, data, attempt)

    monkeypatch.setattr(strata, "_chart_cusps", charting)
    monkeypatch.setattr(strata, "correct_in_planes", in_chart)
    monkeypatch.setattr(morse, "correct_in_planes", in_morse)
    monkeypatch.setattr(morse, "validate_genericity", failing_first)
    strat = compute_stratification(S)
    assert charts == [2, None] and chart_lanes == [4]
    a, data, audit, history = run_with_genericity(S, strat)
    assert audit.ok and audit.attempt == 1 and history == ["attempt 0: forced"]
    assert charts == [2, None] and chart_lanes == [4]
    assert partner_lanes == [8] * (len(strat.cusps) * 2)


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
    pairs = copy.deepcopy(data.audits["separation"].pairs)
    rec, partner = pairs[0]
    rec.morse_index += 1
    parity = check_fold_index_parity(pairs)
    assert parity.checked == len(pairs)
    assert parity.violations == [(tuple(map(float, rec.x)),
                                  f"ambient {rec.morse_index} vs stratum "
                                  f"{partner.morse_index} on {rec.fold_sign}")]


def test_a_point_off_its_partner_is_named_by_separation_and_skipped_by_parity(
        s3_ctx, monkeypatch):
    # the parity audit reads the separation audit's pairs: a k=0 point moved
    # off its depth-1 partner is unmatched, and the parity audit checks the
    # other pairs only
    S, strat, a, data, audit = s3_ctx
    original = morse.critical_points_on_stratum

    def moved(S, a, k, *args, **kwargs):
        records = original(S, a, k, *args, **kwargs)
        if k == 0:
            records[0] = dataclasses.replace(records[0], x=records[0].x + 1e-3)
        return records

    monkeypatch.setattr(morse, "critical_points_on_stratum", moved)
    broken = compute_morse_data(S, strat, a)
    sep, parity = broken.audits["separation"], broken.audits["parity"]
    k0 = broken.k0_records
    assert parity.ok, parity.violations
    assert parity.checked == len(k0) - 1
    assert sep.unmatched_k0 == [tuple(map(float, k0[0].x))]
    assert len(sep.unmatched_k1) == 1 and sep.matched == len(k0) - 1
    assert [r0 for r0, _ in sep.pairs] == k0[1:]
    failures = validate_genericity(S, a, strat, broken).failures
    assert len(failures) == 1 and "boundary-criticality equivalence" in failures[0]


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


def test_audit_messages_print_points_as_plain_floats(cusp_ctx):
    # numpy 2 writes np.float64(...) for the entries of a tuple of array
    # elements; every point in a failure message is a tuple of floats
    S, strat, a, data, audit = cusp_ctx
    import copy
    broken = copy.deepcopy(data)
    broken.k0_records[0].x = strat.cusps[0].x.copy()       # on a cusp, unmatched
    broken.audits["separation"] = morse._boundary_equivalence_audit(
        broken.k0_records, data.k1_records)
    pairs = broken.audits["separation"].pairs
    pairs[0][0].morse_index += 1                            # a matched pair, flipped
    broken.audits["parity"] = check_fold_index_parity(pairs)
    broken.certificates[0].cancels = False
    bad = validate_genericity(S, a, strat, broken)
    kinds = ("boundary-criticality equivalence", "collides with a cusp", "index parity",
             "does not cancel")
    assert [k for k in kinds if any(k in f for f in bad.failures)] == list(kinds)
    assert broken.audits["separation"].unmatched_k0 and broken.audits["separation"].unmatched_k1
    for failure in bad.failures:
        assert "np.float64(" not in failure and "(" in failure


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
        W = S.lagrangian_hessian(rec.x, a.a, lam)
        q, _ = np.linalg.qr(rng.standard_normal((S.m, S.m)))
        B1 = tangent_frame(S.manifold, rec.x)
        B2 = q @ B1
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


def test_a_stalled_cusp_polish_is_a_stratification_error(flat_cusp, monkeypatch):
    S = flat_cusp
    p = reference_stratum_point(S, np.zeros(4), np.array([0.0, 1.0]), np.array([0.0]))
    system = SingularSystem(S)
    z = system.pack(p.x, p.cokernel, p.multiplier)

    def stalled(F, Z0, tol=1e-12, max_iter=60):
        Z0 = np.array(Z0, dtype=float)
        return NewtonResult(Z0, np.ones(len(Z0)), np.full(len(Z0), max_iter),
                            np.full(len(Z0), STOP_REASONS.index("iteration_cap")))

    # each determinant bracket starts one polish on the augmented system,
    # and the polish stalls
    monkeypatch.setattr(strata, "newton_batch", stalled)
    curve = FoldCurve(nodes=np.array([z, z + 0.01]), closure_error=0.0,
                      det_values=np.array([1.0, -1.0]), tangents=np.zeros((2, len(z))))
    with pytest.raises(StratificationError, match="could not polish the cusp"):
        strata._locate_cusps(S, system, curve)


def test_each_cusp_is_one_polish_with_a_covector_normal_to_its_cokernel(s3_cusps,
                                                                         monkeypatch):
    # the cusp search lands nothing on the curve equations: each determinant
    # bracket is one newton_batch, of one lane, on the augmented system of
    # h = <a, f> with a the unit covector normal to the start's cokernel
    S = s3_cusps
    polishes, landings, locating = [], [], []
    newton_batch, locate = strata.newton_batch, strata._locate_cusps

    def counted(F, Z0, **kwargs):
        out = newton_batch(F, Z0, **kwargs)
        system = getattr(F, "__self__", None)
        if locating and isinstance(system, StratumCriticalSystem):
            polishes.append((system.fixed, np.array(Z0), out))
        elif locating and isinstance(system, SingularSystem):
            landings.append(len(Z0))
        return out

    def marked(*args):
        locating.append(True)
        try:
            return locate(*args)
        finally:
            locating.pop()

    for module in (strata, morse, continuation):
        monkeypatch.setattr(module, "newton_batch", counted)
    monkeypatch.setattr(strata, "_locate_cusps", marked)
    strat = compute_stratification(S)
    (curve,) = strat.curves
    assert landings == [] and len(polishes) == len(curve.cusps) == 2
    for a, W0, out in polishes:
        u = W0[:, S.N:S.N + S.n]
        assert W0.shape[0] == 1 and out.converged.all()
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-15 and abs(float(u[0] @ a)) <= 1e-15
    assert curve.solver["cusp_iterations"] == sum(int(out.iterations.sum())
                                                 for _, _, out in polishes) >= 2
    # the polished roots are the cusps, which the rest of the pipeline reads
    for (_, _, out), p in zip(polishes, curve.cusps):
        assert np.max(np.abs(out.z[0, :S.N] - p.x)) == 0.0
    a, data, audit, hist = run_with_genericity(S, strat)
    assert audit.ok and len(data.boundary_records) == 2


def test_the_walk_along_the_curves_is_one_polish(s3_cusps, monkeypatch):
    # every sign change of dh/ds between two nodes is one start of a single
    # batched polish, and the polished roots hit both cusps
    S = s3_cusps
    strat = compute_stratification(S)
    a = sample_covector(S.n, [S.seed, 0])
    brackets = 0
    for curve in strat.curves:
        phis = morse._curve_phi_values(S, a.a, curve)
        brackets += int(np.sum(phis * np.roll(phis, -1) < 0))
    calls = []
    newton_batch = continuation.newton_batch

    def counted(F, Z0, **kwargs):
        calls.append(len(Z0))
        return newton_batch(F, Z0, **kwargs)

    for module in (morse, continuation):
        monkeypatch.setattr(module, "newton_batch", counted)
    records, cusp_hits = morse._critical_points_on_curves(S, a, strat)
    assert calls == [brackets] and brackets >= len(records) + 2
    assert cusp_hits == {0, 1} and len(strat.cusps) == 2
