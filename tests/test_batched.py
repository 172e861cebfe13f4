"""Stacked jets, the lane-wise batched Newton and the stacked kernel geometry
against their references.

The single-point jets, the scalar Newton loop (``reference_newton``) and the
per-point frames, node metrics and tangents are the references: a stack must
give what a loop over its points gives, up to the rounding of a different
summation order.
"""

from __future__ import annotations

import csv
import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morinchi import _numeric, continuation, manifold, strata
from morinchi import expr as ex
from morinchi.cli import _write_curves_csv
from morinchi.euler import _oracle_cells
from morinchi._numeric import (
    LINE_SEARCH_HALVINGS,
    STOP_REASONS,
    _HALVING_ROUNDS,
    _accepts,
    _svd_solve,
    batch_width,
    dedup_points,
    eig_sign_counts,
    min_norm_apply,
    min_norm_factor,
    min_norm_solve,
    newton,
    newton_batch,
    sorted_by_x,
)
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
    _stratum_records,
    sample_covector,
)
from morinchi.scenario import MorinnessError, StratificationError, load_scenario
from morinchi.strata import (
    SingularSystem,
    _kernel_lanes,
    _kernel_spectra,
    _multistart_seeds,
    _node_metrics,
    _points_from_solutions,
    compute_stratification,
    multistart_starts,
    solve_stratum1,
    stratum_points,
)
from tests.conftest import (
    CUSP_CURVE_PROBE,
    FLAT_CUSP,
    bundled,
    einsum_augmented,
    einsum_initial_nu,
    einsum_reduced_hessian,
    fine_cloud,
    reference_curve_tangent,
    reference_dedup,
    reference_degenerate_direction,
    reference_newton,
    reference_newton_batch,
    reference_points_from_solutions,
    reference_stratum_point,
    reversed_nodes,
    scenario_path,
)

ALL_SCENARIOS = ["s2-height", "torus-height", "s3-proj", "s4-height",
                 "s3-cusps", "s4-proj"]


def _jets(S, x):
    """Every jet the solvers use, at a point or a stack."""
    M = S.manifold
    H = S.jet(x)[2]
    return (S.f(x), S.Df(x), H[..., :S.n, :, :], M.g(x), M.jacobian(x), H[..., S.n:, :, :],
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


@pytest.mark.parametrize("name", ["torus-height", "s4-proj", "s3-cusps"])
def test_one_point_values_equal_its_row_of_a_stack_bit_for_bit(name):
    # a point, a stack of a few points and a row of a larger stack round
    # alike, so a Newton lane's values do not depend on the lanes that share
    # its call.  This rests on the BLAS rounding every full row block of a
    # gemm alike: OpenBLAS 0.3.31 passes with its Katmai, Nehalem,
    # Sandybridge, Haswell and SkylakeX kernels (OPENBLAS_CORETYPE), on one
    # and two threads; without the padding the Haswell kernel fails on odd
    # stacks and the Nehalem kernel on stacks of 1 to 3 points
    S = bundled(name)
    rng = np.random.default_rng([7, S.N])
    singular, augmented = S.singular_block[0], S.augmented_block[0]
    for evaluate, dim in ((singular, singular.nvars), (augmented, augmented.nvars),
                          (lambda x: np.concatenate([v.reshape(x.shape[:-1] + (-1,))
                                                     for v in S.jet(x)], axis=-1), S.N)):
        Z = rng.uniform(-1.5, 1.5, (50, dim))
        stacked = evaluate(Z)
        for i in range(len(Z)):
            assert np.array_equal(evaluate(Z[i]), stacked[i]), (name, i)
            for k in (1, 2, 3, 5, 17, 37):
                assert np.array_equal(evaluate(Z[i:i + k]), stacked[i:i + k]), (name, i, k)


def test_a_corrector_lane_gets_the_same_bits_alone_in_its_own_stack_and_in_a_merged_one(
        monkeypatch):
    # what one call for all snaps of a trace rests on, as the block values
    # above: a corrector lane's z, residual, iterations, stop and Jacobian
    # do not depend on the lanes that share its call, at stack sizes on and
    # off the block of 16 rows.  The stacks are the corrector stacks of an
    # s3-cusps trace, merged into one
    S, system, Z = fine_cloud("s3-cusps", 11)
    stacks, correct = [], strata._Lanes._correct

    def kept(self, lanes, Z, anchors, normals):
        stacks.append((Z, anchors, normals))
        return correct(self, lanes, Z, anchors, normals)

    monkeypatch.setattr(strata._Lanes, "_correct", kept)
    strata._Lanes(system, Z).run()
    # the first steps, some of the last ones and the snaps, every seventh row
    Zs, anchors, normals = (np.concatenate(rows)[::7] for rows in
                            zip(*(stacks[:3] + stacks[-12:])))

    def corrected(rows):
        out = continuation.correct_in_planes(system, Zs[rows], anchors[rows], normals[rows])
        return out.z, out.residual, out.iterations, out.stop, out.jacobian

    assert len(Zs) > 300 and len(Zs) % 16
    merged = corrected(slice(None))
    for size in (1, 3, 17, 100):
        for i in range(0, len(Zs), size):
            for a, b in zip(corrected(slice(i, i + size)), merged):
                assert a.tobytes() == b[i:i + size].tobytes(), (size, i)


def _agree_lane_by_lane(evaluate, Z0, tol, max_iter):
    # every lane against the scalar reference loop, and ``newton``, one lane
    # of ``newton_batch``, against the batch with scalars for its counters
    batch = newton_batch(evaluate, Z0, tol, max_iter)

    def residual_fn(z):
        return evaluate(z)[0]

    def jacobian_fn(z):
        return evaluate(z)[1]

    for i, z0 in enumerate(Z0):
        one = reference_newton(residual_fn, jacobian_fn, z0, tol=tol, max_iter=max_iter)
        assert ((batch.converged[i], batch.iterations[i], batch.stop[i])
                == (one.converged, one.iterations, one.stop)), i
        if one.converged:
            assert np.max(np.abs(batch.z[i] - one.z)) <= 1e-10
        lane = newton(residual_fn, jacobian_fn, z0, tol=tol, max_iter=max_iter)
        assert [type(v) for v in (lane.residual, lane.iterations, lane.stop)] == [float, int, int]
        assert (lane.iterations, lane.stop) == (batch.iterations[i], batch.stop[i]), i
        if lane.converged:
            assert np.max(np.abs(lane.z - batch.z[i])) <= 1e-10
    return batch


@pytest.fixture(scope="module")
def torus_k0():
    """The system and the starts of the k=0 census of torus-height for the
    first covector of its default seed."""
    S = bundled("torus-height")
    sys0 = SingularSystem(S, sample_covector(S.n, [S.seed, 0]).a)
    _, Z0 = multistart_starts(S, sys0, S.tolerances.multistart_density * (S.n + 1), tag=2)
    return S, sys0, Z0


def test_newton_batch_matches_newton_on_the_torus_k0_census(torus_k0):
    S, sys0, Z0 = torus_k0
    out = _agree_lane_by_lane(sys0.evaluate, Z0, S.tolerances.residual, 30)
    assert 0 < out.converged.sum() < len(Z0)        # both outcomes are covered


def test_newton_batch_tries_the_halvings_in_four_rounds(torus_k0):
    # an iteration evaluates its trial steps in at most four rounds, and a
    # round of a chunk of lanes in one call of at most batch_width rows; one
    # halving per call took 361 calls here
    S, sys0, Z0 = torus_k0
    sizes = []

    def F(Z):
        sizes.append(len(Z))
        return sys0.evaluate(Z)

    out = newton_batch(F, Z0, S.tolerances.residual, 30)
    width = batch_width(Z0.shape[1])
    chunks = -(-len(Z0) // (width // _HALVING_ROUNDS[-1].size))   # calls of the widest round
    assert max(sizes) <= width
    assert len(sizes) <= 1 + 4 * chunks * out.iterations.max()


def test_newton_batch_matches_newton_on_the_s4_height_depth1_system():
    S = bundled("s4-height")
    system = SingularSystem(S)
    _, Z0 = multistart_starts(S, system, S.tolerances.multistart_density * S.n, tag=1)
    _agree_lane_by_lane(system.evaluate, Z0, S.tolerances.residual, 30)


@pytest.fixture(scope="module")
def s4_proj_polish():
    """The augmented system of s4-proj for the first covector of its default
    seed, and a start at every point of its depth-1 cloud: a stack of 600
    lanes that mostly converge, in ten chunks per iteration."""
    S = bundled("s4-proj")
    sysc = StratumCriticalSystem(S, sample_covector(S.n, [S.seed, 0]).a)
    Z = np.array([sysc.base.pack(p.x, p.cokernel, p.multiplier) for p in solve_stratum1(S)])
    return S, sysc, np.concatenate([Z, sysc.initial_nu(Z)], axis=1)


def test_newton_batch_matches_newton_on_the_s4_proj_augmented_system(s4_proj_polish):
    S, sysc, W0 = s4_proj_polish
    _agree_lane_by_lane(sysc.evaluate, W0[::4], S.tolerances.residual, 60)


def test_newton_batch_pools_lanes_within_the_batch_width(s4_proj_polish):
    # the lanes still searching are pooled across the whole stack, yet no
    # call of F sees more lanes than the memory bound allows
    S, sysc, W0 = s4_proj_polish
    sizes = []

    def F(W):
        sizes.append(len(W))
        return sysc.evaluate(W)

    out = newton_batch(F, W0, tol=S.tolerances.residual)
    assert max(sizes) == batch_width(W0.shape[1]) < len(W0)
    assert len(sizes) <= 1000           # 2,460 calls with one stack per 64 lanes
    assert out.converged.sum() > len(W0) // 2


def test_newton_batch_factors_each_jacobian_once_per_iteration(s4_proj_polish, monkeypatch):
    # every iteration of a lane inverts its G once, for the step, and its
    # simplified corrections reuse that inverse: 4,187 lanes inverted, where
    # inverting again for each halving round's corrections took 5,410; the
    # calls of F stay those of one call per round and chunk
    S, sysc, W0 = s4_proj_polish
    inverted, calls = [], []
    inv = np.linalg.inv

    def spy(G):
        inverted.append(len(G))
        return inv(G)

    def F(W):
        calls.append(len(W))
        return sysc.evaluate(W)

    monkeypatch.setattr(np.linalg, "inv", spy)
    out = newton_batch(F, W0, tol=S.tolerances.residual)
    assert sum(inverted) == out.iterations.sum() == 4187
    assert len(calls) == 104


def test_newton_batch_lanes_do_not_depend_on_their_order(s4_proj_polish):
    S, sysc, W0 = s4_proj_polish
    out = newton_batch(sysc.evaluate, W0, tol=S.tolerances.residual)
    rev = newton_batch(sysc.evaluate, W0[::-1], tol=S.tolerances.residual)
    assert np.array_equal(rev.converged[::-1], out.converged)
    assert np.array_equal(rev.iterations[::-1], out.iterations)
    assert np.array_equal(rev.stop[::-1], out.stop)
    assert np.max(np.abs(rev.z[::-1] - out.z)) <= 1e-12


@pytest.fixture(scope="module", params=["s3-proj", "s3-cusps", "s4-proj"])
def augmented_cloud(request):
    """The augmented system of a scenario for the first covector of its
    default seed, and its depth-1 cloud as a stack of z."""
    S = bundled(request.param)
    sysc = StratumCriticalSystem(S, sample_covector(S.n, [S.seed, 0]).a)
    Z = np.array([sysc.base.pack(p.x, p.cokernel, p.multiplier) for p in solve_stratum1(S)])
    return sysc, Z


def test_augmented_block_matches_the_einsum_reference(augmented_cloud):
    # on the cloud with perturbed multipliers, and off the singular set
    # altogether, at one point and on the whole cloud as one stack
    sysc, Z = augmented_cloud
    rng = np.random.default_rng(12)
    nu = einsum_initial_nu(sysc, Z) + rng.standard_normal((len(Z), sysc.E))
    for W in (np.concatenate([Z, nu], axis=1), rng.uniform(-2, 2, (len(Z), sysc.D + sysc.E))):
        for w in (W, W[0], W[-1]):
            for got, want in zip(sysc.evaluate(w), einsum_augmented(sysc, w)):
                _assert_close(got, want)
    # the reduced Hessians of the whole cloud as one stack, point by point
    k = sysc.S.n - 1
    stack = sysc.reduced_hessian(np.concatenate([Z, nu], axis=1))
    assert stack.shape == (len(Z), k, k)
    for z, v, H in zip(Z, nu, stack):
        _assert_close(H, einsum_reduced_hessian(sysc, z, v))
    assert sysc.reduced_hessian(np.zeros((0, sysc.D + sysc.E))).shape == (0, k, k)


def test_reduced_hessian_refuses_a_root_where_df_lost_rank(augmented_cloud, monkeypatch):
    # one root of the stack whose DF repeats a row has nullity n, not n - 1:
    # the stratum is not a smooth (n - 1)-manifold there, so no index is
    # read off its n x n form; the audit's error exits 66
    sysc, Z = augmented_cloud
    n = sysc.S.n
    W = np.concatenate([Z[:6], sysc.initial_nu(Z[:6])], axis=1)
    evaluate = sysc.evaluate

    def lost_rank(W):
        R, J = evaluate(W)
        J[3, 1, :sysc.D] = J[3, 0, :sysc.D]
        return R, J

    monkeypatch.setattr(sysc, "evaluate", lost_rank)
    with pytest.raises(MorinnessError, match=f"dimension audit failed: nullity {n} != {n - 1}"):
        sysc.reduced_hessian(W)
    with pytest.raises(MorinnessError, match=f"nullity {n} != {n - 1}"):
        _stratum_records(sysc.S, W, sysc)


def test_stacked_initial_nu_matches_the_reference_lane_by_lane(augmented_cloud):
    sysc, Z = augmented_cloud
    assert len(Z) > batch_width(sysc.D + sysc.E)
    stacked = sysc.initial_nu(Z)
    _assert_close(stacked, np.array([einsum_initial_nu(sysc, z) for z in Z]))
    _assert_close(sysc.initial_nu(Z[7]), stacked[7])
    assert sysc.initial_nu(Z[:0]).shape == (0, sysc.E)


def _dedup_loop(points, radius):
    """``dedup_points`` before its window: every kept point is measured."""
    pts = np.asarray(points, dtype=float)
    kept = []
    for idx in np.lexsort(pts.T[::-1]):
        if not kept or np.all(np.linalg.norm(pts[kept] - pts[idx], axis=1) > radius):
            kept.append(int(idx))
    return kept


def test_dedup_points_matches_the_loop():
    rng = np.random.default_rng(13)
    r = 0.25
    base = rng.uniform(-1, 1, (40, 3))
    # exact and near duplicates, in shuffled order
    dups = np.concatenate([base, base, base + rng.uniform(-0.1, 0.1, base.shape)])
    # pairs exactly radius apart, along the first coordinate or across it,
    # and a grid spaced radius apart: every pair counts as a duplicate
    grid = np.array([[i * r, j * r, 0.0] for i in range(-4, 5) for j in range(-4, 5)])
    exact = np.array([[0.5, 0.0, 0.0], [0.75, 0.0, 0.0], [0.5, 0.25, 0.0], [1.0, 0.0, 0.125]])
    # first coordinates between radius and 2 radius apart, near in the others
    window = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.4, 0.1, 0.0], [0.45, 0.0, 0.0]])
    # first coordinates more than radius apart whose difference rounds to it
    rounded = np.array([[0.008263817764264545, 0.0, 0.0], [0.25826381776426455, 0.0, 0.0]])
    assert rounded[0, 0] < rounded[1, 0] - r and rounded[1, 0] - rounded[0, 0] == r
    for pts in (dups[rng.permutation(len(dups))], grid, exact, window, rounded,
                np.concatenate([grid, exact, window, rounded, dups])):
        for radius in (r, np.nextafter(r, 0.0), 1e-3):
            assert dedup_points(pts, radius) == _dedup_loop(pts, radius)
    assert dedup_points(np.zeros((0, 3)), r) == []


@settings(max_examples=300, deadline=None)
@given(centers=st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=1, max_size=6),
       offsets=st.lists(st.tuples(st.integers(0, 5), *[st.floats(-1.0, 1.0)] * 3),
                        max_size=40),
       radius=st.sampled_from([0.25, 0.1, 1e-3]))
def test_dedup_points_matches_the_loop_on_clusters(centers, offsets, radius):
    # roots on a grid spaced one radius apart, each hit by a cluster of
    # points at most one radius away per coordinate: exact duplicates, exact
    # radius steps and near ties all occur
    C = radius * np.array(centers, dtype=float)
    pts = np.array([C[i % len(C)] + radius * np.array(o) for i, *o in offsets]).reshape(-1, 3)
    pts = np.concatenate([C, pts])
    assert dedup_points(pts, radius) == _dedup_loop(pts, radius)


def test_dedup_points_matches_the_loop_on_the_s4_proj_cloud(s4_proj_polish):
    S, sysc, W0 = s4_proj_polish
    radius = S.tolerances.dedup_radius
    cloud = W0[:, :S.N]
    kept = dedup_points(cloud, radius)
    assert len(kept) == len(cloud) == 600
    assert kept == _dedup_loop(cloud, radius)
    out = newton_batch(sysc.evaluate, W0, tol=S.tolerances.residual)
    found = out.z[out.converged, :S.N]
    assert dedup_points(found, radius) == _dedup_loop(found, radius)
    assert len(dedup_points(found, radius)) == 2


def test_min_norm_solve_matches_lstsq_lane_by_lane(monkeypatch):
    # lanes whose square matrix or Gram matrix passes the conditioning gate
    # take its inverse, the others the SVD, and so do the lanes whose matrix
    # is exactly singular, where inv raises, without their neighbours; every
    # lane gives what lstsq gives, to 1e-9 relative, or to sqrt(eps)
    # relative for the lanes near the gate
    rng = np.random.default_rng(11)
    d = 7
    well = rng.standard_normal((5, d, d))
    U, _, Vt = np.linalg.svd(rng.standard_normal((3, d, d)))
    near = U @ (np.array([1.0, 0.7, 0.5, 0.3, 0.2, 0.1, 1e-16])[:, None] * Vt)   # kappa 1e16
    deficient = rng.standard_normal((3, d, d - 2)) @ rng.standard_normal((3, d - 2, d))
    zero_row = rng.standard_normal((1, d, d))
    zero_row[0, 3] = 0.0                                    # LU meets a zero pivot
    # wide 4 x 9 lanes: kappa 1e2 passes the gate (kappa(G) = 1e4), kappa 1e9
    # and rank 2 do not; their transposes are the tall lanes
    U, _, Vt = np.linalg.svd(rng.standard_normal((6, 4, 9)), full_matrices=False)
    sigma = np.array([[1.0, 0.7, 0.5, 1e-2]] * 3 + [[1.0, 0.7, 0.5, 1e-9]] * 3)
    wide = np.concatenate([rng.standard_normal((3, 4, 9)), U @ (sigma[..., None] * Vt),
                           rng.standard_normal((3, 4, 2)) @ rng.standard_normal((3, 2, 9))])
    wide_zero = rng.standard_normal((2, 4, 9))
    wide_zero[1, 2] = 0.0                                   # A A^T has a zero row
    rows = rng.standard_normal((6, 1, 9))                   # a hypersurface's gradients
    rows_zero = np.concatenate([rows, np.zeros((1, 1, 9))])
    # wide lanes at kappa 2e3, just inside the gate (s kappa_1(G) is 0.4 to
    # 0.5 of eps^-1/2), and their transposes: the normal equations keep them
    # within the sqrt(eps) relative error the docstring derives
    U, _, Vt = np.linalg.svd(rng.standard_normal((6, 4, 9)), full_matrices=False)
    edge = U @ (np.array([1.0, 0.7, 0.5, 5e-4])[:, None] * Vt)
    loose = np.finfo(float).eps ** 0.5
    # a whole census's square stack in which one lane's Jacobian has a zero row
    census = np.random.default_rng(111).standard_normal((400, d, d))
    census[123, 2] = 0.0
    cases = [(np.concatenate([well, near, deficient]), [False] * 5 + [True] * 6, 1e-9),
             (np.concatenate([well, near, zero_row, deficient]),  # inv raises
              [False] * 5 + [True] * 7, 1e-9),
             (census, [i == 123 for i in range(400)], 1e-9),
             (wide, [False] * 6 + [True] * 6, 1e-9),
             (np.swapaxes(wide, 1, 2), [False] * 6 + [True] * 6, 1e-9),
             (wide_zero, [False, True], 1e-9), (np.swapaxes(wide_zero, 1, 2), [False, True], 1e-9),
             (rows, [False] * 6, 1e-9), (rows_zero, [False] * 6 + [True], 1e-9),
             (rng.standard_normal((6, 4, 9)), [False] * 6, 1e-9),
             (rng.standard_normal((6, 9, 4)), [False] * 6, 1e-9),
             (edge, [False] * 6, loose), (np.swapaxes(edge, 1, 2), [False] * 6, loose)]
    svd_lanes = []

    def svd_solve(A, b):
        svd_lanes.extend(A)
        return _svd_solve(A, b)

    monkeypatch.setattr(_numeric, "_svd_solve", svd_solve)
    for A, by_svd, rtol in cases:
        b = rng.standard_normal(A.shape[:2])
        svd_lanes.clear()
        got = min_norm_solve(A, b)
        _assert_factor_applies_bit_for_bit(A, b)
        assert [any(np.array_equal(Ai, S) for S in svd_lanes) for Ai in A] == by_svd
        assert got.shape == (len(A), A.shape[2])
        for Ai, bi, x in zip(A, b, got):
            want = np.linalg.lstsq(Ai, bi, rcond=None)[0]
            assert np.max(np.abs(x - want)) <= rtol * max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(min_norm_solve(Ai, bi) - want)) <= rtol * max(
                1.0, np.max(np.abs(want)))
    ranks = [np.linalg.lstsq(Ai, np.ones(len(Ai)), rcond=None)[2]
             for Ai in (*near, *deficient, *wide[3:], *np.swapaxes(wide[3:], 1, 2))]
    assert ranks == [d - 1] * 3 + [d - 2] * 3 + ([4] * 6 + [2] * 3) * 2   # the cutoff is exercised
    # stacks with no rows or no columns, and stacks with NaN lanes
    nan, wide_nan = well[:3].copy(), wide[:3].copy()
    nan[1], nan[2, 0, 0], wide_nan[0, 1, 2] = np.nan, np.nan, np.nan
    for A in (np.zeros((3, 0, 4)), np.zeros((3, 4, 0)), nan, wide_nan,
              np.swapaxes(wide_nan, 1, 2)):
        _assert_factor_applies_bit_for_bit(A, rng.standard_normal(A.shape[:2]))
    # a single matrix and a (2, 3) stack with no columns: empty solutions
    for A in (np.zeros((3, 0)), np.zeros((2, 3, 4, 0))):
        b = rng.standard_normal(A.shape[:-1])
        assert min_norm_factor(A).svd.shape == A.shape[:-2]
        assert min_norm_solve(A, b).shape == A.shape[:-2] + (0,)


def _assert_factor_applies_bit_for_bit(A, b):
    # a stack's factor applied gives min_norm_solve's bits, whole and on
    # every lane, and so does the factor of any of its lanes that ``take``
    # keeps, as newton_batch keeps them for its corrections
    factor, got = min_norm_factor(A), min_norm_solve(A, b)
    assert np.array_equal(min_norm_apply(A, factor, b), got, equal_nan=True)
    for i in range(len(A)):
        assert np.array_equal(min_norm_apply(A[i:i + 1], factor.take([i]), b[i:i + 1]),
                              got[i:i + 1], equal_nan=True)
    keep = np.arange(len(A))[::-2]
    assert np.array_equal(min_norm_apply(A[keep], factor.take(keep), b[keep]),
                          min_norm_solve(A[keep], b[keep]), equal_nan=True)


def test_min_norm_solve_shares_each_matrix_across_several_right_sides():
    # (m, k, r) right sides against (m, r, d) matrices give what lstsq gives
    # side by side, through the inverse and through the SVD (a rank-deficient
    # and an exactly singular lane), square, wide and tall
    rng = np.random.default_rng(15)
    for r, d in ((5, 5), (3, 6), (6, 3)):
        A = rng.standard_normal((6, r, d))
        A[4] = rng.standard_normal((r, 2)) @ rng.standard_normal((2, d))
        A[5, 1] = 0.0
        b = rng.standard_normal((6, 4, r))
        got = min_norm_solve(A, b)
        assert got.shape == (6, 4, d)
        for Ai, bi, xi in zip(A, b, got):
            for bj, xj in zip(bi, xi):
                want = np.linalg.lstsq(Ai, bj, rcond=None)[0]
                assert np.max(np.abs(xj - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
        assert min_norm_solve(A[0], b[0]).shape == (4, d)
        assert min_norm_solve(A[:0], b[:0]).shape == (0, 4, d)


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
    out = _agree_lane_by_lane(lambda z: (residual(z), jacobian(z)), Z0, 1e-12, 20)
    assert out.converged.tolist() == [True, True, False]
    assert [STOP_REASONS[k] for k in out.stop] == ["converged", "converged", "nonfinite_step"]
    assert out.iterations[1] == 0


def _assert_reference_bits(F, Z0, tol=1e-12, max_iter=60, indexed=False):
    """``newton_batch`` of one stack gives ``reference_newton_batch``'s bits:
    the same z, residual, iterations, stop and Jacobian arrays."""
    got = newton_batch(F, Z0, tol, max_iter, indexed)
    want = reference_newton_batch(F, Z0, tol, max_iter, indexed)
    for name in ("z", "residual", "iterations", "stop", "jacobian"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    return got


def _spying(monkeypatch, module):
    """Route ``module``'s calls of ``newton_batch`` through
    ``_assert_reference_bits``; returns the list of their ``indexed`` flags."""
    seen = []

    def both(F, Z0, tol=1e-12, max_iter=60, indexed=False):
        seen.append(indexed)
        return _assert_reference_bits(F, Z0, tol, max_iter, indexed)

    monkeypatch.setattr(module, "newton_batch", both)
    return seen


def test_newton_batch_gives_the_reference_bits_on_the_census_and_polish_stacks(
        torus_k0, s4_proj_polish):
    # the k=0 census of torus-height, the s4-height depth-1 system and the
    # augmented system of s4-proj from its depth-1 cloud (ten chunks of lanes
    # per iteration)
    S, sys0, Z0 = torus_k0
    out = _assert_reference_bits(sys0.evaluate, Z0, S.tolerances.residual, 30)
    assert {STOP_REASONS[k] for k in out.stop} >= {"converged", "line_search_failed"}
    S = bundled("s4-height")
    system = SingularSystem(S)
    _, Z0 = multistart_starts(S, system, S.tolerances.multistart_density * S.n, tag=1)
    _assert_reference_bits(system.evaluate, Z0, S.tolerances.residual, 30)
    S, sysc, W0 = s4_proj_polish
    assert len(W0) > 2 * batch_width(W0.shape[1])
    _assert_reference_bits(sysc.evaluate, W0, S.tolerances.residual)


def test_newton_batch_gives_the_reference_bits_on_projections_and_corrector_stacks(monkeypatch):
    # a project_points stack of torus-height, and every corrector stack of an
    # s3-cusps stratification at the benchmark's curve step, whose lanes each
    # see their own plane row (indexed): one per lockstep step, one per
    # half-step retry, one of all the snaps, of 800 rows, and one of the arc
    # samples of each curve's cusps
    S = bundled("torus-height")
    projected = _spying(monkeypatch, manifold)
    project_points(S.manifold, _multistart_seeds(S, 400, tag=2))
    assert projected == [False]
    data = json.loads(scenario_path("s3-cusps").read_text())
    S = load_scenario(dict(data, tolerances={**data.get("tolerances", {}), "curve_step": 2.5e-3}))
    corrected = _spying(monkeypatch, continuation)
    step, steps, retries = strata._Lanes.step, [], []

    def counted(self):
        half = int(self.half_steps.sum())
        step(self)
        steps.append(self)
        retries.append(int(self.half_steps.sum()) > half)

    monkeypatch.setattr(strata._Lanes, "step", counted)
    strat = compute_stratification(S)
    charted = sum(bool(curve.cusps) for curve in strat.curves)
    assert len(set(map(id, steps))) == 1 and charted == 1
    assert len(corrected) == len(steps) + sum(retries) + 1 + charted and all(corrected)


def _square_with_flat_rows(z):
    # F = (x^2 - 1, y^2 - 4 + x w, w^3 - y); J's first row (2x, 0, 0) is zero
    # at x = 0 and tiny at x = 1e-17, and a start with x > 5 gets an infinite
    # Jacobian beside a finite residual
    x, y, w = z[..., 0], z[..., 1], z[..., 2]
    J = np.zeros(z.shape[:-1] + (3, 3))
    J[..., 0, 0] = np.where(x > 5, np.inf, 2 * x)
    J[..., 1, 0], J[..., 1, 1], J[..., 1, 2] = w, 2 * y, x
    J[..., 2, 1], J[..., 2, 2] = -1.0, 3 * w ** 2
    return np.stack([x ** 2 - 1, y ** 2 - 4 + x * w, w ** 3 - y], axis=-1), J


def test_newton_batch_gives_the_reference_bits_on_failing_lanes():
    # a NaN lane, an exactly singular lane (a zero row of J: inv raises and
    # the chunk takes the determinant fallback), a lane past the kappa_1 gate, a lane with a finite residual and
    # an infinite Jacobian, one whose accepted full step has an infinite
    # Jacobian, and lanes that converge beside them
    Z0 = np.array([[0.5, 1.0, 1.0], [np.nan, 1.0, 1.0], [0.0, 1.0, 1.0], [1e-17, 1.0, 1.0],
                   [6.0, 1.0, 1.0], [0.1, 100.0, 1.0], [-2.0, 1.5, 0.5], [1.0, 2.0, 0.0]])
    R, J = _square_with_flat_rows(Z0)
    factor = min_norm_factor(J[[0, 2, 3]])
    assert factor.svd.tolist() == [False, True, True]
    out = _assert_reference_bits(_square_with_flat_rows, Z0, 1e-12, 30)
    assert [STOP_REASONS[k] for k in out.stop[[1, 4, 5]]] == ["nonfinite_step"] * 3
    assert out.iterations[[1, 4, 5]].tolist() == [1, 1, 2]
    assert out.converged[[0, 6, 7]].all()


def test_trial_test_refuses_nan_and_inf_on_floats_and_stacks():
    tries = [np.nan, np.inf, 1.0, 0.5]
    assert [bool(_accepts(x, 1.0)) for x in tries] == [False, False, False, True]
    assert _accepts(np.array(tries), np.ones(4)).tolist() == [False, False, False, True]
    assert not _accepts(np.inf, np.inf)



def _scaled_parabola(z):
    # F = (x, 1000 (y - x^2)): two rows in units three orders apart
    x, y = z[..., 0], z[..., 1]
    J = np.zeros(z.shape[:-1] + (2, 2))
    J[..., 0, 0], J[..., 1, 0], J[..., 1, 1] = 1.0, -2000.0 * x, 1000.0
    return np.stack([x, 1000.0 * (y - x ** 2)], axis=-1), J


def test_a_full_step_that_raises_the_residual_but_shrinks_the_correction_is_taken():
    # from (1, 1) the Newton step is (-1, -2); at (0, -1) the residual is
    # 1000 against 1, yet the simplified correction (0, -1) is half the step,
    # so the lane takes scale 1 and lands on the root with its next step;
    # the residual test alone would first accept scale 1/64
    z0 = np.array([1.0, 1.0])
    R0, J0 = _scaled_parabola(z0)
    step = np.linalg.solve(J0, -R0)
    R1 = _scaled_parabola(z0 + step)[0]
    norm0, norm1 = np.max(np.abs(R0)), np.max(np.abs(R1))
    assert (norm0, norm1, step.tolist()) == (1.0, 1000.0, [-1.0, -2.0])
    assert not _accepts(norm1, norm0)
    assert _accepts(norm1, norm0, np.max(np.abs(np.linalg.solve(J0, R1))), np.max(np.abs(step)))
    assert newton_batch(_scaled_parabola, z0, max_iter=1).z[0].tolist() == [0.0, -1.0]
    out = _agree_lane_by_lane(_scaled_parabola, z0[None], 1e-12, 20)
    assert out.converged[0] and out.iterations[0] == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nan_or_inf_trial_is_refused_by_both_tests(bad, monkeypatch):
    assert not _accepts(bad, 1.0, bad, 1.0)
    assert not _accepts(np.full(3, bad), np.ones(3), np.full(3, bad), np.ones(3)).any()

    # F = z - 1 is not finite above 0.8: from 0 the full step to the root is
    # refused, its half taken; no correction is solved for a bad trial
    def F(Z):
        return np.where(Z > 0.8, bad, Z - 1.0), np.ones(Z.shape + (1,))

    sides = []

    def spy(A, factor, b):
        sides.append(np.asarray(b))
        return min_norm_apply(A, factor, b)

    monkeypatch.setattr(_numeric, "min_norm_apply", spy)
    assert newton_batch(F, [[0.0]], max_iter=1).z.tolist() == [[0.5]]
    assert sides and all(np.isfinite(b).all() for b in sides)
    out = _agree_lane_by_lane(F, np.array([[0.0], [0.5]]), 1e-12, 6)
    assert [STOP_REASONS[k] for k in out.stop] == ["iteration_cap"] * 2


def _one_iteration_one_scale_at_a_time(evaluate, Z0, tol):
    """One Newton iteration from Z0 with the scales tried one by one, each by
    both tests and each correction solved on its own: the iterates, and the
    (scale, residual test passed) of every lane that took a trial."""
    R, J = evaluate(Z0)
    steps = min_norm_solve(J, -R)
    norm, sizes = np.max(np.abs(R), axis=1), np.max(np.abs(steps), axis=1)
    want, taken = Z0.copy(), []
    for i in np.flatnonzero(norm > tol):
        for scale in 0.5 ** np.arange(LINE_SEARCH_HALVINGS):
            z = Z0[i] + scale * steps[i]
            R_try = evaluate(z)[0]
            norm_try = np.max(np.abs(R_try))
            bar = np.max(np.abs(min_norm_solve(J[i], R_try))) if np.isfinite(norm_try) else np.nan
            if _accepts(norm_try, norm[i], bar, sizes[i]):
                want[i] = z
                taken.append((scale, bool(norm_try < norm[i])))
                break
    return want, taken


def _rounds_of(taken):
    return {next(k for k, r in enumerate(_HALVING_ROUNDS) if scale in r) for scale, _ in taken}


def test_the_rounds_take_the_scale_that_trying_one_at_a_time_takes(torus_k0):
    # one iteration of the k=0 census of torus-height against the scales
    # tried one by one, each by both tests; lanes are taken by either test,
    # and in more than one round
    S, sys0, Z0 = torus_k0
    want, taken = _one_iteration_one_scale_at_a_time(sys0.evaluate, Z0, S.tolerances.residual)
    got = newton_batch(sys0.evaluate, Z0, S.tolerances.residual, 1).z
    assert np.array_equal(got, want)
    assert len(_rounds_of(taken)) >= 3
    assert {residual for _, residual in taken} == {True, False}


def test_the_kept_gram_inverse_takes_the_scale_that_trying_one_at_a_time_takes():
    # the depth-1 system of s3-cusps has wide 6 x 7 Jacobians, solved through
    # the inverse of their Gram matrices, which the later rounds reuse
    S = bundled("s3-cusps")
    system = SingularSystem(S)
    _, Z0 = multistart_starts(S, system, S.tolerances.multistart_density * S.n, tag=1)
    assert system.evaluate(Z0[:1])[1].shape == (1, 6, 7)
    want, taken = _one_iteration_one_scale_at_a_time(system.evaluate, Z0, S.tolerances.residual)
    got = newton_batch(system.evaluate, Z0, S.tolerances.residual, 1).z
    assert np.array_equal(got, want)
    assert len(_rounds_of(taken) - {0}) >= 2
    assert {residual for scale, residual in taken if scale < 1} == {True, False}


def _cubic_with_a_tiny_row(z):
    # F = (x^3 - 1, 1e-17 y): from |x| in [0.1, 0.3] the full step
    # overshoots far past the root, and the residual first drops at a scale
    # of round 2 or 3
    x, y = z[..., 0], z[..., 1]
    J = np.zeros(z.shape[:-1] + (2, 2))
    J[..., 0, 0], J[..., 1, 1] = 3.0 * x ** 2, 1e-17
    return np.stack([x ** 3 - 1.0, 1e-17 * y], axis=-1), J


def _scaled_parabola_with_a_tiny_row(z):
    # (_scaled_parabola, 1e-17 w): the natural test takes the full step
    R, J2 = _scaled_parabola(z[..., :2])
    J = np.zeros(z.shape[:-1] + (3, 3))
    J[..., :2, :2], J[..., 2, 2] = J2, 1e-17
    return np.concatenate([R, 1e-17 * z[..., 2:]], axis=-1), J


@pytest.mark.parametrize("evaluate, Z0, scales, residual", [
    (_cubic_with_a_tiny_row, [[0.1, 0.0], [0.2, 5.0], [-0.3, 1.0]], [1 / 32, 1 / 8, 1 / 4], True),
    (_scaled_parabola_with_a_tiny_row, [[1.0, 1.0, 0.0], [1.0, 1.0, 2.0]], [1.0, 1.0], False),
])
def test_a_kept_factor_past_the_gate_takes_the_scale_that_trying_one_at_a_time_takes(
        evaluate, Z0, scales, residual, monkeypatch):
    # square lanes whose kappa_1 fails the gate take the SVD for their step
    # and for every correction; their full step raises the residual
    Z0 = np.array(Z0)
    R, J = evaluate(Z0)
    assert min_norm_factor(J).svd.all()
    steps = min_norm_solve(J, -R)
    assert np.all(np.max(np.abs(evaluate(Z0 + steps)[0]), axis=1) > np.max(np.abs(R), axis=1))
    want, taken = _one_iteration_one_scale_at_a_time(evaluate, Z0, 1e-12)
    assert taken == [(scale, residual) for scale in scales]
    svd_calls = []

    def svd_solve(A, b):
        svd_calls.append(len(A))
        return _svd_solve(A, b)

    monkeypatch.setattr(_numeric, "_svd_solve", svd_solve)
    got = newton_batch(evaluate, Z0, 1e-12, 1).z
    assert np.array_equal(got, want)
    assert len(svd_calls) > 1                   # the step and the corrections


def _dedup_clouds(rng, radius):
    # spread points, clusters of exact and near duplicates larger and smaller
    # than the windows measured pair by pair, chains spaced one radius apart
    # along the first coordinate, and points one radius apart across it
    spread = rng.uniform(-1, 1, (300, 3))
    centers = rng.uniform(-1, 1, (6, 3))
    sizes = rng.integers(1, 3 * _numeric._DEDUP_PAIRS, 6)
    clusters = np.concatenate([c + radius * rng.uniform(-1, 1, (k, 3)) * rng.integers(0, 2, (k, 1))
                               for c, k in zip(centers, sizes)])
    chain = np.array([[i * radius, 0.0, 0.5] for i in range(20)])
    across = np.array([[0.5, i * radius, j * radius] for i in range(4) for j in range(4)])
    mixed = np.concatenate([spread, clusters, chain, across])
    return [spread, clusters, chain, across, mixed[rng.permutation(len(mixed))]]


def test_dedup_points_matches_the_window_loop():
    rng = np.random.default_rng(14)
    for radius in (0.25, 0.1, 1e-3, np.nextafter(0.1, 0.0)):
        for pts in _dedup_clouds(rng, radius):
            assert dedup_points(pts, radius) == reference_dedup(pts, radius), radius
    assert dedup_points(np.zeros((0, 3)), 0.25) == reference_dedup(np.zeros((0, 3)), 0.25) == []


@settings(max_examples=300, deadline=None)
@given(centers=st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=1, max_size=6),
       offsets=st.lists(st.tuples(st.integers(0, 5), *[st.floats(-1.0, 1.0)] * 3),
                        max_size=60),
       spread=st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 3), max_size=30),
       radius=st.sampled_from([0.25, 0.1, 1e-3]))
def test_dedup_points_matches_the_window_loop_on_clusters(centers, offsets, spread, radius):
    C = radius * np.array(centers, dtype=float)
    pts = np.array([C[i % len(C)] + radius * np.array(o) for i, *o in offsets]).reshape(-1, 3)
    pts = np.concatenate([C, pts, np.array(spread, dtype=float).reshape(-1, 3)])
    assert dedup_points(pts, radius) == reference_dedup(pts, radius)


def test_dedup_points_matches_the_window_loop_on_census_clouds(s4_proj_polish):
    # the s4-proj depth-1 cloud keeps all its 600 points, its fold-surface
    # polish collapses to 2 roots
    S, sysc, W0 = s4_proj_polish
    radius = S.tolerances.dedup_radius
    out = newton_batch(sysc.evaluate, W0, tol=S.tolerances.residual)
    for pts, count in ((W0[:, :S.N], 600), (out.z[out.converged, :S.N], 2)):
        kept = dedup_points(pts, radius)
        assert kept == reference_dedup(pts, radius)
        assert len(kept) == count


def test_sorted_by_x_is_the_rounded_key_sort(s4_proj_polish):
    # the s4-proj depth-1 cloud, shuffled, and a grid whose points tie once
    # rounded to 9 decimals (a stable sort keeps their order), in negative
    # zeros too
    S, _, W0 = s4_proj_polish
    rng = np.random.default_rng(16)
    grid = rng.integers(-2, 3, (300, 3)) * 0.5 + rng.choice([0.0, -0.0, 1e-11, 4e-10], (300, 3))
    for X in (W0[rng.permutation(len(W0)), :S.N], grid):
        points = [SimpleNamespace(x=x) for x in X]
        want = sorted(points, key=lambda p: tuple(np.round(p.x, 9)))
        assert [id(p) for p in sorted_by_x(points)] == [id(p) for p in want]
    assert sorted_by_x([]) == [] and sorted_by_x(points[:1]) == points[:1]


# -- stacked kernel geometry ------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_tangent_frames_match_tangent_frame(name):
    S = bundled(name)
    w = S.manifold.sample_halfwidth
    X = np.random.default_rng([7, S.N]).uniform(-w, w, (200, S.N))
    proj = project_points(S.manifold, X)
    P = proj.z[proj.converged]
    assert len(P) > 100
    T, failures = tangent_frames(S.manifold, P)
    assert not failures
    assert T.shape == (len(P), S.m, S.N)
    _assert_close(T, np.array([tangent_frame(S.manifold, p) for p in P]))
    _assert_close(T @ np.swapaxes(T, -1, -2), np.broadcast_to(np.eye(S.m), (len(P), S.m, S.m)))
    assert np.max(np.abs(S.manifold.jacobian(P) @ np.swapaxes(T, -1, -2))) <= 1e-10


def test_tangent_frames_report_every_failing_lane():
    # a cone: its apex lies on M, where the constraint gradient vanishes
    cone = ImplicitManifold(3, [ex.parse_prefix("(+ (^ x0 2) (^ x1 2) (* -1 (^ x2 2)))", 3)],
                            2, compact=False)
    on, apex, off = np.array([0.6, 0.8, 1.0]), np.zeros(3), np.array([0.0, 0.0, 3.0])
    T, failures = tangent_frames(cone, np.array([on, off, apex, on]))
    assert T.shape == (4, 2, 3)
    assert sorted(failures) == [1, 2]
    assert type(failures[1]) is ManifoldError and "off the manifold" in str(failures[1])
    assert type(failures[2]) is RegularityError and "rank-deficient" in str(failures[2])
    for lane in (0, 3):
        assert np.array_equal(T[lane], tangent_frame(cone, on))
    with pytest.raises(RegularityError, match="rank-deficient"):
        tangent_frame(cone, apex)


def test_stacked_node_metrics_raise_for_the_first_failing_lane():
    cone = load_scenario({
        "name": "cone", "ambient_dim": 3, "intrinsic_dim": 2,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (* -1 (^ x2 2)))"],
        "target_dim": 1, "components": ["x2"], "compact": False,
    })
    system = SingularSystem(cone)
    # on the cone the height has a full-rank differential, off the apex
    on, apex, off = np.array([0.6, 0.8, 1.0]), np.zeros(3), np.array([0.0, 0.0, 3.0])
    _, failures = _kernel_lanes(cone, np.array([off, apex, on]))
    assert [type(failures[i]) for i in range(3)] == [
        ManifoldError, RegularityError, StratificationError]
    for X, error, match in (([off, apex, on], ManifoldError, "off the manifold"),
                            ([apex, off, on], RegularityError, "rank-deficient"),
                            ([on, off, apex], StratificationError, "not singular")):
        with pytest.raises(error, match=match) as info:
            _node_metrics(cone, system, system.pack(np.array(X), None, np.zeros((3, 1))))
        assert info.type is error


def test_a_seed_at_a_singular_point_of_M_is_dropped_from_every_multistart():
    # the cone's apex lies on the cone: it projects onto itself, where Dg
    # vanishes, so it has no tangent frame and no multiplier
    apex, on = [0.0, 0.0, 0.0], [0.6, 0.8, 1.0]
    cone = load_scenario({
        "name": "cone", "ambient_dim": 3, "intrinsic_dim": 2,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (* -1 (^ x2 2)))"],
        "target_dim": 1, "components": ["x2"], "compact": False,
        "sample_seeds": [apex, on],
    })
    assert project_points(cone.manifold, np.array([apex])).converged.all()
    a = sample_covector(cone.n, [cone.seed, 0])
    # two seeds draw nothing but the sample seeds: the k=0 census's and the
    # depth-1 solve's starts
    for system, tag in ((SingularSystem(cone, a.a), 2), (SingularSystem(cone), 1)):
        seeds, Z0 = multistart_starts(cone, system, 2, tag)
        assert seeds == 2
        assert np.array_equal(Z0[:, :3], [on])


@pytest.fixture(scope="module")
def fold_curves():
    """The traced curves of the two bundled n = 2 scenarios."""
    return {name: (bundled(name), compute_stratification(bundled(name)).curves)
            for name in ("s3-proj", "s3-cusps")}


@pytest.fixture(scope="module")
def slice_curves():
    """The traced curves of the first slice of the n = 3 cusp-curve probe
    through its minority sign (seed 0): an n = 2 map with two constraints."""
    S = load_scenario(CUSP_CURVE_PROBE)
    points = solve_stratum1(S)
    minus = [p for p in points if p.sign == "minus"]
    plus = [p for p in points if p.sign == "plus"]
    cut, _ = strata._slice(S, 0, min(minus, plus, key=len))
    return cut, compute_stratification(cut).curves


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps", "slice"])
def test_stacked_node_metrics_match_the_node_loop(fold_curves, slice_curves, name):
    # a lane's bits do not depend on its neighbours, so the stacked pass, the
    # one-node calls and the trace's chunks agree bit for bit; the bordered
    # determinant is the product of the kernel spectrum's eigenvalues
    S, curves = slice_curves if name == "slice" else fold_curves[name]
    assert curves and S.c == (2 if name == "slice" else 1)
    system = SingularSystem(S)
    for curve in curves:
        det = _node_metrics(S, system, curve.nodes)
        one = np.concatenate([_node_metrics(S, system, z[None]) for z in curve.nodes])
        assert np.array_equal(det, curve.det_values)
        if name == "slice":
            # with n + c = 4 rows, S.lagrangian_hessian of a one-point stack
            # can differ from the stacked one in the last bit
            assert np.all(np.abs(one - det) <= 1e-12 * np.abs(det))
        else:
            assert np.array_equal(det, one)
        _, _, vals, failures = _kernel_spectra(S, *system.unpack(curve.nodes))
        assert not failures
        want = np.prod(vals, axis=-1)
        assert np.all(det != 0.0) and np.array_equal(np.sign(det), np.sign(want))
        assert np.all(np.abs(det - want) <= 1e-9 * np.abs(want))


# two n = 2 maps, each with lanes at which the node pass refuses, or not (key
# None), every lane with u = (1, 0) and mu = 0
N2_NODE_LANES = {
    # S^3 with f = (x0^2, x1^2): Df vanishes at the pole, and x0 = 0 is a
    # fold of the first component
    "squares": ({
        "name": "squares", "ambient_dim": 4, "intrinsic_dim": 3,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) (^ x3 2) -1)"],
        "target_dim": 2, "components": ["(^ x0 2)", "(^ x1 2)"],
    }, {"corank 2 > 1": [0.0, 0.0, 1.0, 0.0], "off the manifold": [0.0, 0.0, 1.01, 0.0],
        None: [0.0, 0.6, 0.8, 0.0]}),
    # the cone x0^2 + x1^2 + x2^2 = x3^2 with f = (x0, x1): its apex is on M,
    # where Dg vanishes, and its only point of corank > 0
    "cone": ({
        "name": "cone", "ambient_dim": 4, "intrinsic_dim": 3,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) (* -1 (^ x3 2)))"],
        "target_dim": 2, "components": ["x0", "x1"], "compact": False,
    }, {"rank-deficient": [0.0, 0.0, 0.0, 0.0], "off the manifold": [0.0, 0.0, 0.0, 1.0],
        "not singular": [0.6, 0.0, 0.8, 1.0]}),
}


@pytest.mark.parametrize("name", list(N2_NODE_LANES))
def test_stacked_node_metrics_refuse_n2_nodes_as_the_kernel_lanes_do(name):
    # every order of the lanes: the pass raises the first failing lane's
    # error, the one _kernel_lanes records there, type and message
    spec, lanes = N2_NODE_LANES[name]
    S = load_scenario(spec)
    system = SingularSystem(S)
    for order in itertools.permutations(lanes):
        X = np.array([lanes[k] for k in order])
        _, failures = _kernel_lanes(S, X)
        first = min(failures)
        assert order[first] in str(failures[first])
        Z = system.pack(X, np.tile([1.0, 0.0], (len(X), 1)), np.zeros((len(X), 1)))
        with pytest.raises(type(failures[first])) as info:
            _node_metrics(S, system, Z)
        assert info.type is type(failures[first]) and str(info.value) == str(failures[first])
        if None in lanes:
            assert np.isfinite(_node_metrics(S, system, Z[[order.index(None)]])).all()


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_the_oracle_cells_are_the_determinant_sign_runs(fold_curves, name):
    # the reference: a curve's arcs are its runs of one determinant sign
    # between cyclically adjacent brackets, read at the node after each
    # bracket; a curve without a bracket is one circle of node 0's sign
    _, curves = fold_curves[name]
    arcs, circles = {"plus": 0, "minus": 0}, {"plus": 0, "minus": 0}
    for curve in curves:
        dets = curve.det_values
        brackets = np.flatnonzero(dets * np.roll(dets, -1) < 0)
        assert len(curve.cusps) == len(brackets)
        if not len(brackets):
            circles["plus" if dets[0] > 0 else "minus"] += 1
        for b in brackets:
            arcs["plus" if dets[(b + 1) % len(dets)] > 0 else "minus"] += 1
    for sign in ("plus", "minus"):
        got = _oracle_cells(SimpleNamespace(curves=curves), sign)
        assert got == (arcs[sign], circles[sign])
        assert all(type(n) is int for n in got)


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_the_parity_column_is_the_negative_eigenvalue_parity_at_every_node(fold_curves, name,
                                                                           tmp_path):
    # the reference: the kernel spectra's negative count, taken strictly so
    # that near a cusp the crossing eigenvalue keeps its side's sign
    S, curves = fold_curves[name]
    system = SingularSystem(S)
    want = []
    for curve in curves:
        _, _, vals, failures = _kernel_spectra(S, *system.unpack(curve.nodes))
        assert not failures
        want += (np.sum(vals < 0, axis=-1) % 2).tolist()
    _write_curves_csv(tmp_path / "curves.csv", S, SimpleNamespace(curves=curves))
    with open(tmp_path / "curves.csv", newline="") as fh:
        assert [int(row["parity"]) for row in csv.DictReader(fh)] == want


def _phi(S, a, z, t):
    """Derivative of <a, f> along the unit tangent t at the node z."""
    return float((S.Df(z[:S.N]).T @ a) @ t[:S.N])


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_curve_tangents_are_the_tangent_chain(fold_curves, name):
    S, curves = fold_curves[name]
    system = SingularSystem(S)
    a = sample_covector(S.n, [S.seed, 0]).a
    e_last = np.eye(system.dim_z)[-1]
    for curve in curves:
        # a segment's seed takes the null vector of J, oriented along the
        # trace; every later node the solution of [J(z_i); t_(i-1)] tau =
        # e_last, normalized, and a node of a reversed piece, which its lane
        # stepped to from the node after it along -t_(i+1), minus the
        # solution of [J(z_i); -t_(i+1)] tau = e_last
        seeds = set(curve.segments.tolist())
        back = reversed_nodes(curve)
        _assert_close(curve.tangents[0], reference_curve_tangent(system, curve.nodes[0]))
        null_vectors = [curve.tangents[0]]
        for i in range(1, len(curve.nodes)):
            z, prev, t = curve.nodes[i], curve.tangents[i - 1], curve.tangents[i]
            if i not in seeds:
                j, sign = ((i + 1) % len(curve.nodes), -1.0) if back[i] else (i - 1, 1.0)
                tau = np.linalg.solve(np.vstack([system.evaluate(z)[1], sign * curve.tangents[j]]),
                                      e_last)
                _assert_close(sign * t, tau / np.linalg.norm(tau))
            # the null vector of J(z) oriented along the previous tangent
            null_vectors.append(reference_curve_tangent(system, z, prev=prev))
            assert np.max(np.abs(t - null_vectors[-1])) <= 1e-12
        phis = [_phi(S, a, z, t) for z, t in zip(curve.nodes, curve.tangents)]
        svd_phis = [_phi(S, a, z, t) for z, t in zip(curve.nodes, null_vectors)]
        stacked = _curve_phi_values(S, a, curve)
        assert np.array_equal(np.sign(stacked), np.sign(phis))
        assert np.array_equal(np.sign(stacked), np.sign(svd_phis))
        _assert_close(stacked, phis)


def test_a_singular_bordered_chunk_takes_the_null_vectors(fold_curves, monkeypatch):
    # when the solve of one chunk of bordered matrices raises, that chunk's
    # tangents are the SVD null vectors oriented along the previous tangents
    S, (curve,) = fold_curves["s3-cusps"]
    system = SingularSystem(S)
    Z, T = curve.nodes[1:40], curve.tangents[:39]
    bordered = np.concatenate((system.evaluate(Z)[1], T[:, None, :]), axis=1)
    want = continuation.chain_tangents(system, Z, T, bordered)
    solve, calls = np.linalg.solve, []

    def singular_second_chunk(A, b):
        calls.append(len(A))
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(A, b)

    monkeypatch.setattr(continuation, "batch_width", lambda d: 15)
    monkeypatch.setattr(np.linalg, "solve", singular_second_chunk)
    got = continuation.chain_tangents(system, Z, T, bordered)
    monkeypatch.undo()
    assert calls == [15, 15, 9]
    _assert_close(np.delete(got, np.s_[15:30], axis=0), np.delete(want, np.s_[15:30], axis=0))
    for z, t, tau in zip(Z[15:30], T[15:30], got[15:30]):
        assert np.max(np.abs(tau - reference_curve_tangent(system, z, prev=t))) <= 1e-12


# -- stacked stratum data -----------------------------------------------------------


def _same_points(got, want):
    """Stacked stratum points against the per-point reference, in order."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert np.array_equal(p.x, q.x)
        assert np.array_equal(p.cokernel, q.cokernel)
        assert np.array_equal(p.multiplier, q.multiplier)
        _assert_close(p.kernel_basis, q.kernel_basis)
        assert (p.signature, p.sign, p.depth) == (q.signature, q.sign, q.depth)
        assert (p.degenerate_direction is None) == (q.degenerate_direction is None)
        if q.degenerate_direction is not None:
            _assert_close(p.degenerate_direction, q.degenerate_direction, rtol=1e-10)
        assert abs(p.residuals["system"] - q.residuals["system"]) <= 1e-15


def test_chart_directions_match_the_cusp_loop(fold_curves):
    # the chart sets each cusp's degenerate direction from one eigh of the
    # stacked cusp forms; stratum_points sets none, also on a flat lane
    S, curves = fold_curves["s3-cusps"]
    cusps = [p for curve in curves for p in curve.cusps]
    assert len(cusps) == 2
    for p in cusps:
        _assert_close(p.degenerate_direction, reference_degenerate_direction(S, p), rtol=1e-10)
    system = SingularSystem(S)
    Z = np.array([system.pack(p.x, p.cokernel, p.multiplier) for p in cusps])
    points, failures = stratum_points(S, system, Z)
    assert not failures and [q.signature.n_zero for q in points] == [1, 1]
    assert all(q.degenerate_direction is None for q in points)


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps", "s4-proj", "torus-height"])
def test_stacked_stratum_points_match_the_point_loop(name):
    # the depth-1 cloud of solve_stratum1, before its stratum data
    S = bundled(name)
    system = SingularSystem(S)
    _, Z0 = multistart_starts(S, system, S.tolerances.multistart_density * S.n, tag=1)
    out = newton_batch(system.evaluate, Z0, tol=S.tolerances.residual, max_iter=30)
    solutions = out.z[out.converged]
    kept = dedup_points(system.unpack(solutions)[0], S.tolerances.dedup_radius)
    got = _points_from_solutions(S, system, solutions[kept])
    want = reference_points_from_solutions(S, system, solutions, kept)
    _same_points(got, want)
    # the kernel bases come from the same stacked SVDs
    for p, q in zip(got, want):
        assert np.array_equal(p.kernel_basis, q.kernel_basis)
    assert len(got) == len(kept) > (10 if S.n > 1 else 1)


def test_a_stack_longer_than_the_batch_width_matches_the_point_loop(flat_cusp):
    # points of the flat model's fold curve x0 = -3 t^2 with cokernel
    # (-t, 1)/|.|, either sign of it, and the cusp t = 0 and its neighbours
    # within 1e-7 among them, where one kernel eigenvalue is flat
    S = flat_cusp
    system = SingularSystem(S)
    t = np.concatenate([np.linspace(-1.0, 1.0, 500), [0.0, 1e-7, -5e-8]])
    t = np.tile(t, 2)
    x = np.stack([-3 * t ** 2, t, 0 * t, 0 * t], axis=1)
    u = np.stack([-t, np.ones_like(t)], axis=1) / np.sqrt(1 + t ** 2)[:, None]
    u[::3] *= -1.0
    Z = system.pack(x, u, np.zeros((len(t), 1)))
    assert len(Z) > batch_width(system.dim_z)
    points, failures = stratum_points(S, system, Z)
    assert not failures
    want = [reference_stratum_point(S, *system.unpack(z), system) for z in Z]
    _same_points(points, want)
    flat = [p for p in points if p.signature.n_zero == 1]
    assert len(flat) == 6 and all(p.sign == "unsigned" for p in flat)
    assert {p.sign for p in points} == {"plus", "minus", "unsigned"}


def _depth3_model():
    """The flat model with x2^3 for x2^2: at the origin both kernel
    eigenvalues of the fold form vanish."""
    spec = dict(FLAT_CUSP, name="flat-depth3",
                components=["x0", "(+ (^ x1 3) (* x0 x1) (^ x2 3))"])
    S = load_scenario(spec)
    system = SingularSystem(S)
    u, mu = np.array([0.0, 1.0]), np.zeros(1)
    lanes = {"not singular": np.array([0.0, 1.0, 0.0, 0.0]),
             "two flat": np.zeros(4),
             "off M": np.array([0.0, 0.0, 0.0, 1.0])}
    return S, system, {k: system.pack(x, u, mu) for k, x in lanes.items()}


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("order", [("not singular", "two flat", "off M"),
                                   ("not singular", "off M", "two flat")])
def test_stacked_stratum_points_raise_for_the_first_failing_point(order):
    S, system, lanes = _depth3_model()
    Z = np.array([lanes[k] for k in order])
    points, failures = stratum_points(S, system, Z)
    assert points == [None, None, None]
    assert [type(failures[i]) for i in range(3)] == [
        {"not singular": StratificationError, "two flat": MorinnessError,
         "off M": ManifoldError}[k] for k in order]
    # the non-singular lane is skipped, and the next one raises as the loop did
    got = _raised(_points_from_solutions, S, system, Z[[0, 1, 2]])
    want = _raised(reference_points_from_solutions, S, system, Z, range(3))
    assert got == want
    assert got[0] is {"two flat": MorinnessError, "off M": ManifoldError}[order[1]]
    if order[1] == "two flat":
        assert got[1] == ("kernel Hessian has 2 near-zero eigenvalues at [0.0, 0.0, 0.0, 0.0]: "
                          "not Morin")


def test_stacked_sign_counts_scale_each_matrix_by_its_own_eigenvalues():
    # one spectrum near 1e6 beside ones near 1e-7: a scale shared across the
    # stack would count 0.5 and the 1e-6 entries as zero
    rng = np.random.default_rng(11)
    spectra = [[1e6, 3.0, -1e6], [5e-7, 3e-6, -2e-6], [0.5, 1e-7, -2.0], [2.0, 2.0, -2.0]]
    H = []
    for lam in spectra:
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        H.append(q @ np.diag(lam) @ q.T)
    H = np.array(H)
    loop = [eig_sign_counts(h, 1e-6) for h in H]
    assert all(type(c) is int for counts in loop for c in counts)
    assert loop == [(2, 1, 0), (1, 1, 1), (1, 1, 1), (2, 1, 0)]
    stacked = eig_sign_counts(H, 1e-6)
    assert np.stack(stacked, axis=-1).tolist() == [list(c) for c in loop]
    # any stack shape, each matrix on its own
    deep = eig_sign_counts(H.reshape(2, 2, 3, 3), 1e-6)
    assert np.stack(deep, axis=-1).reshape(4, 3).tolist() == [list(c) for c in loop]
