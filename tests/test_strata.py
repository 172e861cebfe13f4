from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from morinchi import expr as ex
from morinchi._numeric import eig_sign_counts
from morinchi.strata import (
    MorinnessError,
    ScenarioFormatError,
    SingularSystem,
    StratificationError,
    StratumPoint,
    Tolerances,
    _kernel_data,
    bisect_on_curve,
    classify_depth,
    compute_stratification,
    correct_in_plane,
    kernel_hessian,
    load_scenario,
    sign_split,
    solve_stratum1,
    stratum_point,
    trace_fold_curve,
)
from tests.conftest import bundled


@pytest.fixture(scope="module")
def s2_strat(s2_height):
    return compute_stratification(s2_height)


@pytest.fixture(scope="module")
def torus_strat(torus_height):
    return compute_stratification(torus_height)


@pytest.fixture(scope="module")
def s3_strat(s3_proj):
    return compute_stratification(s3_proj)


@pytest.fixture(scope="module")
def cusp_strat(s3_cusps):
    return compute_stratification(s3_cusps)


# -- scenario validation ------------------------------------------------------


def test_even_codimension_rejected():
    with pytest.raises(ScenarioFormatError, match="even"):
        load_scenario({
            "name": "bad", "ambient_dim": 4, "intrinsic_dim": 3,
            "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) (^ x3 2) -1)"],
            "target_dim": 1, "components": ["x0"],
        })


def test_equidimensional_rejected():
    with pytest.raises(ScenarioFormatError, match="dim M"):
        load_scenario({
            "name": "bad", "ambient_dim": 3, "intrinsic_dim": 2,
            "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) -1)"],
            "target_dim": 2, "components": ["x0", "x1"],
        })


def test_component_count_mismatch_rejected():
    with pytest.raises(ScenarioFormatError):
        load_scenario({
            "name": "bad", "ambient_dim": 3, "intrinsic_dim": 2,
            "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) -1)"],
            "target_dim": 1, "components": ["x0", "x1"],
        })


def test_tolerance_overrides_roundtrip():
    t = Tolerances.from_dict({"residual": 1e-10, "dedup_radius": 1e-5})
    assert t.residual == 1e-10 and t.dedup_radius == 1e-5
    with pytest.raises(ScenarioFormatError):
        Tolerances.from_dict({"bogus": 1})


# -- the singular system ------------------------------------------------------


def test_singular_system_shape_and_solution_dim(s3_proj):
    sys2 = SingularSystem(s3_proj)
    assert sys2.solution_dim == 1
    assert sys2.dim_z == 4 + 2 + 1
    assert sys2.n_eqs == 1 + 4 + 1


def test_singular_system_solution_projects_to_circle(s3_proj):
    # solutions of the projection scenario lie on {x2 = x3 = 0}
    sys2 = SingularSystem(s3_proj)
    theta = 0.7
    x = np.array([np.cos(theta), np.sin(theta), 0.0, 0.0])
    u = np.array([np.cos(theta), np.sin(theta)])
    mu = np.array([0.5])
    z = sys2.pack(x, u, mu)
    assert float(np.max(np.abs(sys2.residual(z)))) < 1e-12


def test_singular_system_total_for_regular_points(s3_proj):
    # construction is total: the residual is defined away from the circle too
    sys2 = SingularSystem(s3_proj)
    z = sys2.pack(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.3]))
    assert np.all(np.isfinite(sys2.residual(z)))
    assert float(np.max(np.abs(sys2.residual(z)))) > 1e-3


def test_jacobian_matches_finite_differences(s3_cusps):
    from morinchi._numeric import fd_jacobian
    rng = np.random.default_rng(3)
    # the full system, and the reduced chart of a fixed cokernel (the k = 0 system)
    for sys2 in (SingularSystem(s3_cusps), SingularSystem(s3_cusps, (0.6, -0.8))):
        z = rng.uniform(-0.7, 0.7, sys2.dim_z)
        J = sys2.jacobian(z)
        Jfd = fd_jacobian(sys2.residual, z)
        assert J.shape == (sys2.n_eqs, sys2.dim_z)
        assert np.allclose(J, Jfd, atol=1e-6)


def _componentwise(system, z):
    """Residual and Jacobian of the singular system entry by entry, from the
    symbolic partials of f and g evaluated one by one."""
    S = system.S
    N, n, c = S.N, S.n, S.c
    x, u, mu = system.unpack(z)
    fs, gs = S.components, S.manifold.constraints

    def val(e, *idx):
        for i in idx:
            e = ex.differentiate(e, i)
        return ex.evaluate(e, x)

    R = [val(g) for g in gs]
    R += [sum(u[l] * val(fs[l], i) for l in range(n))
          - sum(mu[j] * val(gs[j], i) for j in range(c)) for i in range(N)]
    J = np.zeros((system.n_eqs, system.dim_z))
    for j in range(c):
        J[j, :N] = [val(gs[j], i) for i in range(N)]
    for i in range(N):
        for k in range(N):
            J[c + i, k] = (sum(u[l] * val(fs[l], i, k) for l in range(n))
                           - sum(mu[j] * val(gs[j], i, k) for j in range(c)))
        J[c + i, system.dim_z - c:] = [-val(gs[j], i) for j in range(c)]
    if not system.reduced:
        R.append(float(u @ u) - 1.0)
        for i in range(N):
            J[c + i, N:N + n] = [val(fs[l], i) for l in range(n)]
        J[c + N, N:N + n] = 2 * u
    return np.array(R), J


@pytest.mark.parametrize("chart", ["full", "reduced"])
def test_evaluate_matches_the_componentwise_system(s3_cusps, chart):
    system = SingularSystem(s3_cusps, None if chart == "full" else (0.6, -0.8))
    Z = np.random.default_rng(5).uniform(-1.0, 1.0, (4, system.dim_z))
    want = [_componentwise(system, z) for z in Z]
    R, J = system.evaluate(Z)
    assert R.shape == (4, system.n_eqs) and J.shape == (4, system.n_eqs, system.dim_z)
    for b, (Rw, Jw) in enumerate(want):
        R1, J1 = system.evaluate(Z[b])
        for got in (R1, R[b], system.residual(Z[b])):
            assert np.max(np.abs(got - Rw)) <= 1e-13
        for got in (J1, J[b], system.jacobian(Z[b])):
            assert np.max(np.abs(got - Jw)) <= 1e-13


def test_evaluate_memo_is_keyed_by_shape(s3_cusps):
    system = SingularSystem(s3_cusps)
    z = np.random.default_rng(6).uniform(-1.0, 1.0, system.dim_z)
    R, J = system.evaluate(z)
    assert R.shape == (system.n_eqs,) and J.shape == (system.n_eqs, system.dim_z)
    # z[None] has the same bytes as z
    R1, J1 = system.evaluate(z[None])
    assert R1.shape == (1, system.n_eqs) and J1.shape == (1, system.n_eqs, system.dim_z)
    assert system.residual(z).shape == (system.n_eqs,)
    assert np.array_equal(R1[0], R) and np.array_equal(J1[0], J)
    # the memoized arrays cannot be changed behind the memo's back
    assert not R.flags.writeable and not J.flags.writeable


# -- depth-1 solving ------------------------------------------------------------


def test_s2_height_two_fold_points(s2_strat):
    assert len(s2_strat.points) == 2
    xs = sorted(tuple(np.round(p.x, 8)) for p in s2_strat.points)
    assert np.allclose(xs[0], (0, 0, -1), atol=1e-9)
    assert np.allclose(xs[1], (0, 0, 1), atol=1e-9)
    assert all(p.depth == 1 for p in s2_strat.points)
    assert all(p.sign == "plus" for p in s2_strat.points)


def test_torus_height_four_fold_points(torus_strat):
    assert len(torus_strat.points) == 4
    x0s = sorted(round(float(p.x[0]), 6) for p in torus_strat.points)
    assert x0s == [-3.0, -1.0, 1.0, 3.0]
    signs = {round(float(p.x[0])): p.sign for p in torus_strat.points}
    assert signs[-3] == "plus" and signs[3] == "plus"
    assert signs[-1] == "minus" and signs[1] == "minus"


def test_stratum_points_sorted_and_deduplicated(torus_strat):
    keys = [tuple(np.round(p.x, 9)) for p in torus_strat.points]
    assert keys == sorted(keys)
    for i, p in enumerate(torus_strat.points):
        for q in torus_strat.points[i + 1:]:
            assert np.linalg.norm(p.x - q.x) > 1e-6


def test_residuals_within_tolerance(torus_strat, torus_height):
    for p in torus_strat.points:
        assert p.residuals["system"] <= torus_height.tolerances.residual * 10


# -- kernel Hessian and signatures ---------------------------------------------


def test_quadratic_signature_of_indefinite_form():
    # normal-form quadratic with two plus squares and one minus square
    counts = eig_sign_counts(np.diag([2.0, 2.0, -2.0]), 1e-6)
    assert counts == (2, 1, 0)
    assert counts[1] % 2 == 1  # odd parity


def test_s3_fold_circle_definite_signature(s3_strat):
    p = s3_strat.points[0]
    sig = p.signature
    assert sig.n_zero == 0
    assert sig.n_minus in (0, 2)
    assert sig.lambda_parity == "even"
    assert p.sign == "plus"


def test_kernel_dimension_bookkeeping(s3_strat, s3_proj):
    for p in s3_strat.points[:10]:
        assert p.kernel_basis.shape == (4, s3_proj.m - s3_proj.n + 1)
        # kernel vectors are annihilated by the restricted differential
        A = s3_proj.Df(p.x) @ p.kernel_basis
        assert float(np.max(np.abs(A))) < 1e-7


def test_sign_split_invariant_under_cokernel_flip(torus_strat, torus_height):
    for p in torus_strat.points:
        # built directly: stratum_point would normalize the flip away
        flipped = StratumPoint(x=p.x, depth=1, cokernel=-p.cokernel,
                               multiplier=-p.multiplier, kernel_basis=p.kernel_basis)
        assert sign_split(torus_height, flipped) == p.sign
        assert flipped.signature.n_minus == p.signature.n_plus
        # and stratum_point flips the pair back
        again = stratum_point(torus_height, p.x, -p.cokernel, -p.multiplier)
        assert np.array_equal(again.cokernel, p.cokernel) and again.sign == p.sign


def test_corank_two_point_rejected(s3_proj):
    bad = load_scenario({
        "name": "corank2", "ambient_dim": 4, "intrinsic_dim": 3,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) (^ x3 2) -1)"],
        "target_dim": 2, "components": ["x2", "x2"],
        "compact": False,
    })
    x = np.array([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(MorinnessError, match="corank"):
        _kernel_data(bad, x)


# -- fold curve tracing ---------------------------------------------------------


def test_s3_projection_single_closed_curve(s3_strat, s3_proj):
    assert len(s3_strat.curves) == 1
    curve = s3_strat.curves[0]
    assert curve.closed
    assert curve.closure_error <= 1e-6
    x = curve.x_nodes(s3_proj.N)
    assert float(np.max(np.abs(x[:, 2:]))) < 1e-10
    assert np.allclose(np.linalg.norm(x[:, :2], axis=1), 1.0, atol=1e-10)
    assert len(curve.cusps) == 0
    assert len(curve.arcs) == 1
    assert curve.arcs[0].sign == "plus"


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_trace_takes_one_newton_step_per_node(name):
    S = bundled(name)
    S.tolerances = dataclasses.replace(S.tolerances, curve_step=2.5e-3)
    h = S.tolerances.curve_step
    system = SingularSystem(S)
    p = solve_stratum1(S)[0]
    curve = trace_fold_curve(S, system.pack(p.x, p.cokernel, p.multiplier))
    nodes = len(curve.nodes)
    assert nodes > 3000 and curve.solver["half_steps"] == 0
    assert curve.solver["corrector_iterations"] <= 1.01 * nodes
    # the second-order predictor only moves the corrector's start: every node
    # is still where the plain predictor's step from the node before lands,
    # on the plane through z + h t normal to t
    for i in range(1, nodes):
        z, t = curve.nodes[i - 1], curve.tangents[i - 1]
        plain = correct_in_plane(system, z + h * t, None, t)
        assert plain.converged
        assert np.max(np.abs(plain.z - curve.nodes[i])) <= 1e-11, i


def test_bisect_on_curve_stops_like_the_loops_it_replaced():
    # a flat "curve" every point lies on, so each landing is the point itself
    class Line:
        class S:
            tolerances = Tolerances()

        def residual(self, z):
            return np.zeros(1)

        def jacobian(self, z):
            return np.zeros((1, 1))

    def value(z, chord):
        return float(z[0]) - target

    za, zb = np.array([0.0]), np.array([1.0])
    target = 0.5                        # the first midpoint is an exact zero
    assert bisect_on_curve(Line(), za, zb, -0.5, value, gap=1e-13) == (0.5, 1)
    target = 0.3                        # stops once the bracket is below the gap
    z, steps = bisect_on_curve(Line(), za, zb, -0.3, value, gap=1e-13)
    assert abs(z[0] - 0.3) < 1e-13 and steps < 60
    # a value that is never exactly zero runs all 60 halvings
    z, steps = bisect_on_curve(Line(), za, zb, -1.0,
                               lambda z, chord: 1.0 if z[0] >= 0.3 else -1.0, gap=0.0)
    assert steps == 60 and abs(z[0] - 0.3) < 1e-15    # the bracket midpoint

    class Lost(Line):
        def residual(self, z):
            return np.ones(1)

    with pytest.raises(StratificationError, match="lost the curve"):
        bisect_on_curve(Lost(), za, zb, -0.3, value, gap=1e-13)


def test_open_curve_does_not_close(flat_cusp):
    pts = solve_stratum1(flat_cusp, density=10)
    sys2 = SingularSystem(flat_cusp)
    z0 = sys2.pack(pts[0].x, pts[0].cokernel, pts[0].multiplier)
    with pytest.raises(StratificationError):
        trace_fold_curve(flat_cusp, z0, max_steps=300)


def test_cusp_scenario_two_cusps_alternating(cusp_strat):
    assert len(cusp_strat.curves) == 1
    assert len(cusp_strat.cusps) == 2
    curve = cusp_strat.curves[0]
    assert len(curve.arcs) == 2
    assert {a.sign for a in curve.arcs} == {"plus", "minus"}
    assert cusp_strat.audits["alternation_violations"] == 0
    for p in cusp_strat.cusps:
        assert p.depth == 2
        assert p.depth_verified
        assert abs(p.eig_slope) > 1.0
        assert p.signature.n_zero == 1
        assert p.degenerate_direction is not None


def test_cusps_satisfy_depth1_system(cusp_strat):
    assert cusp_strat.audits["nesting_max_residual"] <= 1e-9


# -- the flat chart-box model ----------------------------------------------------


def test_flat_model_singular_curve_shape(flat_cusp):
    pts = solve_stratum1(flat_cusp, density=30)
    assert pts
    for p in pts:
        x0, x1, x2, x3 = p.x
        assert x0 == pytest.approx(-3 * x1**2, abs=1e-8)
        assert abs(x2) < 1e-8 and abs(x3) < 1e-10


def test_flat_model_fold_signs(flat_cusp):
    pts = solve_stratum1(flat_cusp, density=30)
    for p in pts:
        if abs(p.x[1]) < 1e-3:
            continue
        assert p.sign == ("plus" if p.x[1] > 0 else "minus")


def test_flat_model_cusp_depth_and_slope(flat_cusp):
    p = stratum_point(flat_cusp, np.zeros(4), np.array([0.0, 1.0]), np.array([0.0]))
    assert p.signature.n_zero == 1
    assert classify_depth(flat_cusp, p) == 2
    # the intrinsic leading coefficient of the depth-2 normal form is 6
    assert abs(p.eig_slope) == pytest.approx(6.0, rel=1e-3)


def test_flat_model_fold_depth(flat_cusp):
    x = np.array([-3 * 0.4**2, 0.4, 0.0, 0.0])
    u = np.array([-0.4, 1.0]) / np.sqrt(1 + 0.16)
    p = stratum_point(flat_cusp, x, u, np.array([0.0]))
    assert classify_depth(flat_cusp, p) == 1
    assert p.signature.n_zero == 0
