"""Stacked jets, the lane-wise batched Newton and the stacked kernel geometry
against their references.

The single-point jets, the scalar ``newton`` and the per-point frames, node
metrics and tangents are the references: a stack must give what a loop over
its points gives, up to the rounding of a different summation order.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from morinchi import expr as ex
from morinchi._numeric import newton, newton_batch
from morinchi.manifold import (
    ImplicitManifold,
    ManifoldError,
    RegularityError,
    project_points,
    tangent_frame,
    tangent_frames,
)
from morinchi.morse import (
    StratumCriticalSystem,
    _curve_phi_values,
    _k0_starts,
    sample_covector,
)
from morinchi.strata import (
    SingularSystem,
    StratificationError,
    _initial_guesses,
    _kernel_data,
    _multistart_seeds,
    _node_metrics,
    compute_stratification,
    curve_tangent,
    load_scenario,
    solve_stratum1,
)
from tests.conftest import bundled

ALL_SCENARIOS = ["s2-height", "torus-height", "s3-proj", "s4-height",
                 "s3-cusps", "s4-proj"]


def _jets(S, x):
    """Every jet the solvers use, at a point or a stack."""
    M = S.manifold
    return (S.f(x), S.Df(x), S.Hf(x), M.g(x), M.jacobian(x), S.jet(x)[2][..., S.n:, :, :],
            *S.third_tensors(x))


def _assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_stacked_jets_match_single_points(name):
    S = bundled(name)
    w = S.manifold.sample_halfwidth
    X = np.random.default_rng([5, S.N]).uniform(-w, w, (200, S.N))
    stacked = _jets(S, X)
    single = [_jets(S, x) for x in X]
    for k, block in enumerate(stacked):
        _assert_close(block, np.array([s[k] for s in single]))


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_stacked_jets_match_exact_derivatives(name):
    S = bundled(name)
    rng = np.random.default_rng([6, S.N])
    pts = [tuple(Fraction(int(c), 16) for c in rng.integers(-24, 25, S.N)) for _ in range(4)]
    stacked = _jets(S, np.array([[float(c) for c in p] for p in pts]))
    N = S.N
    for family, order, got in ((S.components, 0, stacked[0]), (S.components, 1, stacked[1]),
                               (S.components, 2, stacked[2]),
                               (S.manifold.constraints, 0, stacked[3]),
                               (S.manifold.constraints, 1, stacked[4]),
                               (S.manifold.constraints, 2, stacked[5]),
                               (S.components, 3, stacked[6]),
                               (S.manifold.constraints, 3, stacked[7])):
        want = np.zeros((len(pts), len(family)) + (N,) * order)
        for r, e in enumerate(family):
            for idx in np.ndindex(*(N,) * order):
                d = e
                for i in idx:
                    d = ex.differentiate(d, i)
                for b, p in enumerate(pts):
                    want[(b, r) + idx] = float(ex.evaluate(d, p))
        _assert_close(got, want)


def _agree_lane_by_lane(residual_fn, jacobian_fn, Z0, tol, max_iter):
    batch = newton_batch(lambda Z: (residual_fn(Z), jacobian_fn(Z)), Z0, tol, max_iter)
    for i, z0 in enumerate(Z0):
        one = newton(residual_fn, jacobian_fn, z0, tol=tol, max_iter=max_iter)
        assert (batch.converged[i], batch.iterations[i]) == (one.converged, one.iterations), i
        if one.converged:
            assert np.max(np.abs(batch.z[i] - one.z)) <= 1e-10
    return batch


def test_newton_batch_matches_newton_on_the_torus_k0_census():
    S = bundled("torus-height")
    a = sample_covector(S.n, [S.seed, 0])
    sys0 = SingularSystem(S, a.a)
    _, Z0 = _k0_starts(S, a.a)
    out = _agree_lane_by_lane(sys0.residual, sys0.jacobian, Z0, S.tolerances.residual, 30)
    assert 0 < out.converged.sum() < len(Z0)        # both outcomes are covered


def test_newton_batch_matches_newton_on_the_s4_height_depth1_system():
    S = bundled("s4-height")
    system = SingularSystem(S)
    X0 = np.array(_multistart_seeds(S, S.tolerances.multistart_density * S.n, tag=1))
    Z0 = _initial_guesses(S, system, X0)
    _agree_lane_by_lane(system.residual, system.jacobian, Z0, S.tolerances.residual, 30)


def test_newton_batch_matches_newton_on_the_s4_proj_augmented_system():
    S = bundled("s4-proj")
    points = solve_stratum1(S)
    sysc = StratumCriticalSystem(S, sample_covector(S.n, [S.seed, 0]).a)
    Z = np.array([sysc.base.pack(p.x, p.cokernel, p.multiplier) for p in points[::4]])
    W0 = np.concatenate([Z, sysc.initial_nu(Z)], axis=1)
    _agree_lane_by_lane(sysc.residual, sysc.jacobian, W0, S.tolerances.residual, 60)


def test_newton_batch_stops_failing_lanes_like_newton():
    # a start on the root takes no step; a start with a NaN fails at once
    def residual(z):
        return np.stack([z[..., 0] ** 2 + z[..., 1] ** 2 + z[..., 2], z[..., 1]], axis=-1)

    def jacobian(z):
        J = np.zeros(z.shape[:-1] + (2, 3))
        J[..., 0, 0], J[..., 0, 1], J[..., 0, 2] = 2 * z[..., 0], 2 * z[..., 1], 1.0
        J[..., 1, 1] = 1.0
        return J

    Z0 = np.array([[1.0, 0.5, -1.0], [0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    out = _agree_lane_by_lane(residual, jacobian, Z0, 1e-12, 20)
    assert out.converged.tolist() == [True, True, False]
    assert out.iterations[1] == 0


# -- stacked kernel geometry ------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_tangent_frames_match_tangent_frame(name):
    S = bundled(name)
    w = S.manifold.sample_halfwidth
    X = np.random.default_rng([7, S.N]).uniform(-w, w, (200, S.N))
    proj = project_points(S.manifold, X)
    P = proj.z[proj.converged]
    assert len(P) > 100
    frames, failures = tangent_frames(S.manifold, P)
    assert not failures
    single = [tangent_frame(S.manifold, p) for p in P]
    _assert_close(frames.tangent, np.array([f.tangent for f in single]))
    _assert_close(frames.normal, np.array([f.normal for f in single]))


def test_tangent_frames_report_every_failing_lane():
    # a cone: its apex lies on M, where the constraint gradient vanishes
    cone = ImplicitManifold(3, [ex.parse_prefix("(+ (^ x0 2) (^ x1 2) (* -1 (^ x2 2)))", 3)],
                            2, compact=False)
    on, apex, off = np.array([0.6, 0.8, 1.0]), np.zeros(3), np.array([0.0, 0.0, 3.0])
    frames, failures = tangent_frames(cone, np.array([on, off, apex, on]))
    assert frames.tangent.shape == (4, 2, 3)
    assert sorted(failures) == [1, 2]
    assert type(failures[1]) is ManifoldError and "off the manifold" in str(failures[1])
    assert type(failures[2]) is RegularityError and "rank-deficient" in str(failures[2])
    for lane in (0, 3):
        assert np.array_equal(frames.lane(lane).tangent, tangent_frame(cone, on).tangent)
    with pytest.raises(RegularityError, match="rank-deficient"):
        tangent_frame(cone, apex)


def test_stacked_kernel_data_raises_for_the_first_failing_lane():
    cone = load_scenario({
        "name": "cone", "ambient_dim": 3, "intrinsic_dim": 2,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (* -1 (^ x2 2)))"],
        "target_dim": 1, "components": ["x2"], "compact": False,
    })
    # on the cone the height has a full-rank differential, off the apex
    on, apex, off = np.array([0.6, 0.8, 1.0]), np.zeros(3), np.array([0.0, 0.0, 3.0])
    with pytest.raises(ManifoldError, match="off the manifold") as info:
        _kernel_data(cone, np.array([off, apex, on]))
    assert info.type is ManifoldError
    with pytest.raises(RegularityError, match="rank-deficient"):
        _kernel_data(cone, np.array([apex, off, on]))
    with pytest.raises(StratificationError, match="not singular"):
        _kernel_data(cone, np.array([on, off, apex]))


@pytest.fixture(scope="module")
def fold_curves():
    """The traced curves of the two bundled n = 2 scenarios."""
    return {name: (bundled(name), compute_stratification(bundled(name)).curves)
            for name in ("s3-proj", "s3-cusps")}


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_stacked_node_metrics_match_the_node_loop(fold_curves, name):
    S, curves = fold_curves[name]
    system = SingularSystem(S)
    for curve in curves:
        det, parity = _node_metrics(S, system, curve.nodes)
        loop = [_node_metrics(S, system, z) for z in curve.nodes]
        want = np.array([d for d, _ in loop])
        assert parity.tolist() == [p for _, p in loop] == curve.parities.tolist()
        for got in (det, curve.det_values):
            assert np.array_equal(np.sign(got), np.sign(want))
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_curve_tangents_are_the_tangent_chain(fold_curves, name):
    S, curves = fold_curves[name]
    system = SingularSystem(S)
    a = sample_covector(S.n, [S.seed, 0]).a
    for curve in curves:
        prev, phis = None, []
        for z, t in zip(curve.nodes, curve.tangents):
            prev = curve_tangent(system, z, prev=prev)
            assert np.array_equal(t, prev)
            phis.append(float((S.Df(z[:S.N]).T @ a) @ prev[:S.N]))
        stacked = _curve_phi_values(S, a, curve)
        assert np.array_equal(np.sign(stacked), np.sign(phis))
        _assert_close(stacked, phis)
