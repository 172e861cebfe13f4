from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from morinchi import continuation, strata
from morinchi import expr as ex
from morinchi._numeric import STOP_REASONS, eig_sign_counts
from morinchi.continuation import (
    audit_bordered,
    audit_nullity,
    correct_in_planes,
    nullities,
)
from morinchi.euler import _oracle_cells
from morinchi.scenario import (
    MorinnessError,
    MorinScenario,
    ScenarioFormatError,
    StratificationError,
    Tolerances,
    load_scenario,
)
from morinchi.strata import (
    SingularSystem,
    _kernel_form,
    _kernel_lanes,
    _node_metrics,
    compute_stratification,
    cusp_near,
    solve_stratum1,
    stratum_points,
)
from tests.conftest import (
    bundled,
    fd_jacobian,
    fine_cloud,
    reference_bisect,
    reference_meetings,
    reference_newton,
    reference_stratum_point,
    reversed_nodes,
    trace,
)


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
    # a whole-number float is a count
    t = Tolerances.from_dict({"max_resamples": 8.0})
    assert t.max_resamples == 8 and isinstance(t.max_resamples, int)
    with pytest.raises(ScenarioFormatError):
        Tolerances.from_dict({"bogus": 1})


def test_a_negative_seed_is_refused_by_the_scenario():
    # the one check of the root seed, for a file, the command line and the
    # Python API alike: the seeded generators would refuse a negative key
    # with an untyped error
    S = bundled("s2-height")
    with pytest.raises(ScenarioFormatError, match="seed must be non-negative, got -2"):
        MorinScenario(S.name, S.manifold, S.target_dim, S.components, seed=-2)
    with pytest.raises(ScenarioFormatError, match="seed must be non-negative, got -1"):
        S.seed = -1
    assert S.seed == 0
    S.seed = 7.0
    assert S.seed == 7 and isinstance(S.seed, int)


# -- the singular system ------------------------------------------------------


def test_singular_system_shape_and_solution_dim(s3_proj, s3_strat):
    sys2 = SingularSystem(s3_proj)
    assert sys2.dim_z == 4 + 2 + 1
    assert sys2.n_eqs == 1 + 4 + 1
    # the solutions form a curve: nullity n - 1 = 1 at every depth-1 solution
    Z = np.array([sys2.pack(p.x, p.cokernel, p.multiplier) for p in s3_strat.points])
    assert set(nullities(sys2.evaluate(Z)[1]).tolist()) == {s3_proj.n - 1}


def test_singular_system_solution_projects_to_circle(s3_proj):
    # solutions of the projection scenario lie on {x2 = x3 = 0}
    sys2 = SingularSystem(s3_proj)
    theta = 0.7
    x = np.array([np.cos(theta), np.sin(theta), 0.0, 0.0])
    u = np.array([np.cos(theta), np.sin(theta)])
    mu = np.array([0.5])
    z = sys2.pack(x, u, mu)
    assert float(np.max(np.abs(sys2.evaluate(z)[0]))) < 1e-12


def test_singular_system_total_for_regular_points(s3_proj):
    # construction is total: the residual is defined away from the circle too
    sys2 = SingularSystem(s3_proj)
    z = sys2.pack(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.3]))
    R = sys2.evaluate(z)[0]
    assert np.all(np.isfinite(R))
    assert float(np.max(np.abs(R))) > 1e-3


def test_jacobian_matches_finite_differences(s3_cusps):
    rng = np.random.default_rng(3)
    # the full system, and the reduced chart of a fixed cokernel (the k = 0 system)
    for sys2 in (SingularSystem(s3_cusps), SingularSystem(s3_cusps, (0.6, -0.8))):
        z = rng.uniform(-0.7, 0.7, sys2.dim_z)
        J = sys2.evaluate(z)[1]
        Jfd = fd_jacobian(lambda w: sys2.evaluate(w)[0], z)
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


BUNDLED = ("s2-height", "torus-height", "s4-height", "s3-proj", "s3-cusps", "s4-proj")


def _close(got, want):
    return np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name, chart", [pytest.param(name, chart, id=f"{name}-{chart}")
                                         for name in BUNDLED for chart in ("full", "reduced")])
def test_evaluate_matches_the_componentwise_system(request, name, chart):
    # "full" is the default chart, which for n = 1 is the reduced chart of
    # u = (1,); "reduced" fixes another unit cokernel
    S = request.getfixturevalue(name.replace("-", "_"))
    rng = np.random.default_rng(5)
    a = rng.normal(size=S.n)
    system = SingularSystem(S, None if chart == "full" else a / np.linalg.norm(a))
    Z = rng.uniform(-1.0, 1.0, (130, system.dim_z))
    R, J = system.evaluate(Z)
    assert R.shape == (len(Z), system.n_eqs) and J.shape == (len(Z), system.n_eqs, system.dim_z)
    for b in range(len(Z)):
        R1, J1 = system.evaluate(Z[b])
        assert _close(R[b], R1) and _close(J[b], J1)
    for b in (0, 64, 65, len(Z) - 1):
        Rw, Jw = _componentwise(system, Z[b])
        for got in (R[b], system.evaluate(Z[b])[0]):
            assert _close(got, Rw)
        for got in (J[b], system.evaluate(Z[b])[1]):
            assert _close(got, Jw)


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps", "s4-proj"])
def test_reduced_chart_is_the_full_chart_at_its_cokernel(request, name):
    # both charts evaluate one block, so at u = a they agree bit for bit
    S = request.getfixturevalue(name.replace("-", "_"))
    N, n = S.N, S.n
    rng = np.random.default_rng(7)
    a = rng.normal(size=n)
    a /= np.linalg.norm(a)
    full, reduced = SingularSystem(S), SingularSystem(S, a)
    Z = rng.uniform(-1.0, 1.0, (130, full.dim_z))
    Z[:, N:N + n] = a
    Zr = np.delete(Z, np.s_[N:N + n], axis=1)
    for z, zr in ((Z, Zr), (Z[0], Zr[0])):
        R, J = full.evaluate(z)
        Rr, Jr = reduced.evaluate(zr)
        assert np.array_equal(Rr, R[..., :-1])
        assert np.array_equal(Jr, np.delete(J[..., :-1, :], np.s_[N:N + n], axis=-1))


def test_evaluate_keeps_the_shape_of_its_input(s3_cusps):
    # z and z[None] hold the same bytes; each comes back in its own shape
    system = SingularSystem(s3_cusps)
    z = np.random.default_rng(6).uniform(-1.0, 1.0, system.dim_z)
    R, J = system.evaluate(z)
    assert R.shape == (system.n_eqs,) and J.shape == (system.n_eqs, system.dim_z)
    R1, J1 = system.evaluate(z[None])
    assert R1.shape == (1, system.n_eqs) and J1.shape == (1, system.n_eqs, system.dim_z)
    assert np.array_equal(R1[0], R) and np.array_equal(J1[0], J)


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
    assert sig.n_minus % 2 == 0
    assert p.sign == "plus"


def test_kernel_dimension_bookkeeping(s3_strat, s3_proj):
    for p in s3_strat.points[:10]:
        assert p.kernel_basis.shape == (4, s3_proj.m - s3_proj.n + 1)
        # kernel vectors are annihilated by the restricted differential
        A = s3_proj.Df(p.x) @ p.kernel_basis
        assert float(np.max(np.abs(A))) < 1e-7


def test_sign_split_invariant_under_cokernel_flip(torus_strat, torus_height):
    S = torus_height
    for p in torus_strat.points:
        # the kernel form of the flipped pair, which stratum_points would
        # normalize away: its signs are complemented, its parity kept
        HK = _kernel_form(S, p.x, -p.cokernel, -p.multiplier, p.kernel_basis)
        n_plus, n_minus, n_zero = eig_sign_counts(HK, S.tolerances.eigen_zero)
        assert (n_plus, n_minus, n_zero) == (p.signature.n_minus, p.signature.n_plus, 0)
        assert ("plus", "minus")[n_minus % 2] == p.sign
        # and stratum_points flips the pair back, in the chart of the
        # flipped cokernel
        system = SingularSystem(S, -p.cokernel)
        (again,), failures = stratum_points(S, system, system.pack(p.x, -p.cokernel, -p.multiplier)[None])
        assert not failures
        assert np.array_equal(again.cokernel, p.cokernel) and again.sign == p.sign


def test_corank_two_point_rejected(s3_proj):
    bad = load_scenario({
        "name": "corank2", "ambient_dim": 4, "intrinsic_dim": 3,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) (^ x3 2) -1)"],
        "target_dim": 2, "components": ["x2", "x2"],
        "compact": False,
    })
    x = np.array([0.0, 0.0, 1.0, 0.0])
    _, failures = _kernel_lanes(bad, x[None])
    assert list(failures) == [0] and type(failures[0]) is MorinnessError
    assert "corank 2 > 1" in str(failures[0])


# -- fold curve tracing ---------------------------------------------------------


def test_s3_projection_single_closed_curve(s3_strat, s3_proj):
    assert len(s3_strat.curves) == 1
    curve = s3_strat.curves[0]
    assert curve.closure_error <= 1e-6
    x = curve.nodes[:, :s3_proj.N]
    assert float(np.max(np.abs(x[:, 2:]))) < 1e-10
    assert np.allclose(np.linalg.norm(x[:, :2], axis=1), 1.0, atol=1e-10)
    assert len(curve.cusps) == 0
    assert np.all(curve.det_values > 0)     # one plus circle


@pytest.fixture(scope="module")
def fine_traces():
    """Each n = 2 scenario at curve_step 2.5e-3, with its singular system,
    its depth-1 cloud packed as z = (x, u, mu), and its trace from the whole
    cloud and from the first cloud point alone."""
    out = {}
    for name in ("s3-proj", "s3-cusps"):
        S = bundled(name)
        S.tolerances = dataclasses.replace(S.tolerances, curve_step=2.5e-3)
        system = SingularSystem(S)
        Z = np.array([system.pack(p.x, p.cokernel, p.multiplier) for p in solve_stratum1(S)])
        out[name] = (S, system, Z, trace(S, Z), trace(S, Z[:1]))
    return out


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_trace_takes_one_newton_step_per_node(fine_traces, name):
    S, system, Z, curve, _ = fine_traces[name]
    h = S.tolerances.curve_step
    nodes, segments = len(curve.nodes), curve.solver["segments"]
    assert nodes > 3000 and curve.solver["half_steps"] == 0
    assert segments == len(curve.segments) == len(Z)
    # one iteration per corrected node; each of a segment's two lanes adds
    # the plain first step from its seed, the step that meets the other lane
    # and the snap of that step
    assert nodes - segments <= curve.solver["corrector_iterations"]
    assert curve.solver["corrector_iterations"] <= 1.01 * (nodes - segments) + 12 * segments
    assert curve.solver["stops"]["converged"] == sum(curve.solver["stops"].values())
    # the second-order predictor only moves the corrector's start: every node
    # a corrector produced is still where the plain predictor's step from the
    # node its lane stepped from lands, on the plane through z + h t normal
    # to t.  That node is the one before along t, or in a reversed piece the
    # one after along -t.  The reference corrector is the scalar loop
    # ``reference_newton`` (least-squares steps) on the bordered system.  A
    # segment starts at a seed, or at the seed's sheet image (x, -u, -mu),
    # which is exempt.
    sheets = np.concatenate((Z, Z * np.where(np.arange(system.dim_z) < S.N, 1, -1)))
    seeds = set(curve.segments.tolist())
    back = reversed_nodes(curve)
    assert back.sum() > 1000 and (~back).sum() > 1000
    for i in range(1, nodes):
        if i in seeds:
            assert np.min(np.max(np.abs(sheets - curve.nodes[i]), axis=1)) == 0.0
            continue
        j, sign = ((i + 1) % nodes, -1.0) if back[i] else (i - 1, 1.0)
        z, t = curve.nodes[j], sign * curve.tangents[j]
        anchor = z + h * t
        plain = reference_newton(lambda w: np.append(system.evaluate(w)[0], t @ (w - anchor)),
                                 lambda w: np.vstack([system.evaluate(w)[1], t]), anchor,
                                 tol=S.tolerances.residual, max_iter=40)
        assert plain.converged
        assert np.max(np.abs(plain.z - curve.nodes[i])) <= 1e-11, i


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_cloud_trace_matches_the_one_seed_trace(fine_traces, name):
    S, _, Z, curve, single = fine_traces[name]
    assert single.solver["segments"] == 1 and list(single.members) == [0]
    assert list(curve.members) == list(range(len(Z)))
    # the cycle starts where the one-seed trace starts, along the same tangent
    assert np.array_equal(curve.nodes[0], single.nodes[0])
    np.testing.assert_allclose(curve.tangents[0], single.tangents[0], rtol=0, atol=1e-12)
    assert len(curve.cusps) == len(single.cusps)
    for p, q in zip(curve.cusps, single.cusps):
        assert np.max(np.abs(p.x - q.x)) <= 1e-10
    assert (curve.det_values[0] > 0) == (single.det_values[0] > 0)
    assert max(curve.closure_error, single.closure_error) <= 1e-10
    # every node lies on the curve, and no gap, the junctions at the seeds
    # and the closing one included, is longer than 2 h
    for c in (curve, single):
        res = np.max(np.abs(SingularSystem(S).evaluate(c.nodes)[0]), axis=1)
        assert np.all(res <= S.tolerances.residual)
        gaps = np.linalg.norm(np.roll(c.nodes, -1, axis=0) - c.nodes, axis=1)
        assert np.max(gaps) <= 2 * S.tolerances.curve_step


def test_seeds_on_the_other_sheet_give_the_same_curve(fine_traces):
    # a seed and its sheet image (x, -u, -mu) lie on the same base curve: a
    # cloud with every other seed flipped traces the same nodes, its lanes
    # meeting the same lanes, now each on the other's sheet
    S, system, Z, curve, _ = fine_traces["s3-cusps"]
    flipped = Z.copy()
    flipped[1::2, S.N:] *= -1
    other = trace(S, flipped)
    assert other.solver == curve.solver
    assert list(other.members) == list(curve.members)
    assert np.array_equal(other.segments, curve.segments)
    assert np.array_equal(other.meetings, curve.meetings)
    assert other.closure_error <= 1e-10
    np.testing.assert_allclose(other.nodes, curve.nodes, rtol=0, atol=1e-12)
    for p, q in zip(other.cusps, curve.cusps):
        assert np.max(np.abs(p.x - q.x)) <= 1e-10


def _arc_length(nodes):
    return float(np.sum(np.linalg.norm(np.diff(nodes, axis=0), axis=1)))


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_a_lone_seed_meets_itself_on_the_far_side(fine_traces, name):
    # the two lanes of a lone seed walk the curve both ways and meet half
    # way round: the cycle is lane 0 forward, then lane 1 reversed
    S, system, _, _, single = fine_traces[name]
    h, nodes = S.tolerances.curve_step, single.nodes
    assert single.segments.tolist() == [0] and single.meetings.size == 1
    (m,) = single.meetings.tolist()
    assert single.solver["lane_steps"] == len(nodes) - 1
    assert abs(_arc_length(nodes[:m]) - _arc_length(np.r_[nodes[m:], nodes[:1]])) <= 2 * h
    assert np.linalg.norm(nodes[m] - nodes[m - 1]) <= 2 * h
    assert single.closure_error <= 1e-10


@pytest.mark.parametrize("name", ["s3-proj", "s3-cusps"])
def test_seeds_closer_than_half_a_step_meet_at_once(fine_traces, name):
    # a second seed h/3 along +t from the first: the first seed's lane 0 and
    # the second seed's lane heading back pass each other in the first step,
    # so the first segment is the first seed alone; the other two lanes meet
    # on the far side
    S, system, Z, _, single = fine_traces[name]
    h = S.tolerances.curve_step
    t = single.tangents[0]
    near = correct_in_planes(system, (Z[0] + h / 3 * t)[None], (Z[0] + h / 3 * t)[None],
                             t[None])
    assert near.converged[0]
    curve = trace(S, np.concatenate((Z[:1], near.z)))
    assert curve.segments.tolist() == [0, 1] and curve.meetings[0] == 1
    assert list(curve.members) == [0, 1]
    assert np.array_equal(curve.nodes[0], Z[0]) and np.array_equal(curve.nodes[1], near.z[0])
    assert curve.solver["lane_steps"] == len(curve.nodes) - 2
    assert curve.closure_error <= 1e-10
    gaps = np.linalg.norm(np.roll(curve.nodes, -1, axis=0) - curve.nodes, axis=1)
    assert np.max(gaps) <= 2 * h
    assert len(curve.cusps) == len(single.cusps)
    for p, q in zip(curve.cusps, single.cusps):
        assert np.max(np.abs(p.x - q.x)) <= 1e-10
    assert (curve.det_values[0] > 0) == (single.det_values[0] > 0)


def test_correct_in_planes_on_a_singular_border_takes_the_minimal_norm_step(s3_proj_sparse):
    system = SingularSystem(s3_proj_sparse)
    p = solve_stratum1(s3_proj_sparse)[0]
    z = system.pack(p.x, p.cokernel, p.multiplier)
    # t = 0 makes the last row of the bordered matrix zero, so no plane cuts
    # the curve: the singular square stack takes the SVD's minimal-norm step,
    # which lands on the curve as least squares on the curve equations would
    start = (z + 1e-3)[None]
    out = correct_in_planes(system, start, start, np.zeros((1, system.dim_z)))
    assert out.converged[0] and 0 < out.iterations[0] <= 5
    assert np.max(np.abs(system.evaluate(out.z[0])[0])) <= s3_proj_sparse.tolerances.residual
    assert out.residual[0] <= s3_proj_sparse.tolerances.residual


def _lone_seed(S):
    """The lanes of a trace from the first depth-1 point of S alone."""
    system = SingularSystem(S)
    p = solve_stratum1(S)[0]
    return strata._Lanes(system, system.pack(p.x, p.cokernel, p.multiplier)[None])


def _lower_rank_at(monkeypatch, step, lane):
    """Make the corrector Jacobians of ``lane`` in lockstep step ``step``,
    which that step audits, repeat a row of J: nullity 2."""
    correct = strata._Lanes._correct

    def lowered(self, lanes, Z, anchors, normals):
        out = correct(self, lanes, Z, anchors, normals)
        if self.count == step:
            mine = lanes == lane
            # the bordered matrix [J; t]: J's last row repeats the one before
            out.jacobian[mine, -2] = out.jacobian[mine, -3]
        return out

    monkeypatch.setattr(strata._Lanes, "_correct", lowered)


def test_trace_rejects_a_node_of_nullity_two(s3_proj_sparse, monkeypatch):
    # the step audits each node from the corrector's own Jacobians, in the
    # step that makes it
    _lower_rank_at(monkeypatch, 3, 1)
    with pytest.raises(MorinnessError, match="dimension audit failed: nullity 2 != 1"):
        strata.trace_fold_curve(_lone_seed(s3_proj_sparse), 0)


def test_trace_rejects_an_arrival_of_nullity_two(s3_proj_sparse, monkeypatch):
    # the two lanes of a lone seed meet each other in the last step; lane
    # 0's point of that step is an arrival, snapped onto lane 1's plane and
    # never a node, and the step audits it before the meeting search
    lanes = _lone_seed(s3_proj_sparse)
    strata.trace_fold_curve(lanes, 0)
    assert lanes.partner.tolist() == [1, 0] and lanes.count > 3
    _lower_rank_at(monkeypatch, lanes.count, 0)
    with pytest.raises(MorinnessError, match="dimension audit failed: nullity 2 != 1"):
        strata.trace_fold_curve(_lone_seed(s3_proj_sparse), 0)


def test_a_run_keeps_no_step_history_and_steps_once(s3_proj_sparse, monkeypatch):
    # run steps every lane to its meeting and indexes the nodes by lane; a
    # second run, and every curve read after it, steps nothing
    lanes = _lone_seed(s3_proj_sparse)
    lanes.run()
    count = lanes.count
    assert lanes.history is None and not lanes.active.any() and count > 3
    assert lanes.bounds[-1] == len(lanes.rows) == len(lanes.Z) == len(lanes.T)

    def refused(self):
        raise AssertionError("stepped after the run")

    monkeypatch.setattr(strata._Lanes, "step", refused)
    lanes.run()
    curve = strata.trace_fold_curve(lanes, 0)
    assert lanes.count == count and curve.solver["lane_steps"] == len(lanes.Z) - 2


@pytest.mark.parametrize("edit", ["zero", "flip"])
def test_a_lane_whose_det_sign_flips_is_refused(s3_proj_sparse, monkeypatch, edit):
    # lane 1's det [J; t] reads 0 in step 3, which keeps its last sign, or
    # flips in step 4 as where a lane passes a crossing: refused in that step
    lanes = _lone_seed(s3_proj_sparse)
    bordered = strata.audit_bordered

    def edited(B):
        sign = bordered(B)
        if edit == "zero" and lanes.count == 3:
            sign[1] = 0.0
        if edit == "flip" and lanes.count == 4:
            sign[1] *= -1.0
        return sign

    monkeypatch.setattr(strata, "audit_bordered", edited)
    if edit == "zero":
        assert strata.trace_fold_curve(lanes, 0).closure_error <= 1e-10
        return
    with pytest.raises(MorinnessError, match="lane 1 passes a crossing") as info:
        strata.trace_fold_curve(lanes, 0)
    assert lanes.count == 4 and "np.float64(" not in str(info.value)


def _cloud(rng, n, d, N, h, scale):
    """A fake lane state: n lanes at z in a box of sides ``scale`` (per
    coordinate), each stepping about h along a random unit tangent t that
    runs mostly along +-x0."""
    z = rng.uniform(0.0, 1.0, size=(n, d)) * scale
    t = 0.3 * rng.normal(size=(n, d))
    t[:, 0] += rng.choice([-1.0, 1.0], size=n)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    z_new = z + h * t + 0.1 * h * rng.normal(size=(n, d))
    lanes = SimpleNamespace(h=h, sigma=np.where(np.arange(d) < N, 1.0, -1.0),
                            system=SimpleNamespace(S=SimpleNamespace(N=N)))
    return lanes, z, t, z_new


def _zero_spread(z, z_new, h):
    # s3-proj's fold circle has x2 = x3 = 0 at every node
    z[:, 2:4] = z_new[:, 2:4] = 0.0


def _tied_keys(z, z_new, h):
    # the sort coordinate x0 on a grid of h/3: about four nodes share a key
    z[:, 0] = np.round(3 * z[:, 0] / h) * h / 3


@pytest.mark.parametrize("case, scale, batch", [
    ("line", [3.0] + [0.01] * 6, None),
    ("line", [3.0] + [0.01] * 6, 37),
    ("dense", [0.05] * 7, None),
    ("dense", [0.05] * 7, 50),
    ("zero spread", [3.0] + [0.01] * 6, None),
    ("tied keys", [1.0] + [0.01] * 6, None),
])
def test_meetings_are_the_all_pairs_search(monkeypatch, case, scale, batch):
    # the sorted window finds every pair the all-pairs search finds, so the
    # meetings, their order and their flips are the same
    if batch is not None:
        monkeypatch.setattr(strata, "BATCH_ENTRIES", batch)
    rng = np.random.default_rng(len(case) + (batch or 0))
    h = 0.03
    lanes, z, t, z_new = _cloud(rng, 400, 7, 4, h, np.array(scale))
    {"zero spread": _zero_spread, "tied keys": _tied_keys}.get(case, lambda *a: None)(z, z_new, h)
    # half the lanes on the other sheet
    z[::2, 4:] *= -1.0
    z_new[::2, 4:] *= -1.0
    A = np.arange(400)
    got = strata._Lanes._meetings(lanes, A, z, t, z_new)
    want = reference_meetings(lanes, A, z, t, z_new)
    assert got[0].size > 20 and got[2].any() and not got[2].all()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_lanes_head_on_at_a_gap_just_above_h_meet():
    # the two lanes pass each other head on, a gap of h (1 + 1e-6) apart
    # before the step and after it: a gap below 2h closes in one step
    h, d, N = 0.01, 7, 4
    lanes = SimpleNamespace(h=h, sigma=np.where(np.arange(d) < N, 1.0, -1.0),
                            system=SimpleNamespace(S=SimpleNamespace(N=N)))
    gap = h * (1 + 1e-6)
    z = np.zeros((2, d))
    z[:, 4] = 1.0
    z[1, :2] = h, np.sqrt(gap ** 2 - h ** 2)
    t = np.zeros((2, d))
    t[:, 0] = 1.0, -1.0
    z_new = z + h * t
    assert np.linalg.norm(z[0] - z[1]) > h and np.linalg.norm(z_new[0] - z_new[1]) > h
    A = np.arange(2)
    for got in (strata._Lanes._meetings(lanes, A, z, t, z_new),
                reference_meetings(lanes, A, z, t, z_new)):
        assert [g.tolist() for g in got] == [[0, 1], [1, 0], [False, False]]


def test_mutual_pairs_meet_first_then_the_others_in_lane_order():
    # lanes 1 and 2 pass each other head on along x0 and take each other;
    # lane 0 crosses their path and takes lane 2, which lane 2 passes only
    # later in its step; lane 3 takes lane 0, which takes lane 2.  Mutual
    # pairs meet first, so lane 2 meets lane 1, lane 0 is free, and lane 3
    # meets it; in plain lane order lane 0 would take lane 2 instead
    h, d, N = 0.01, 7, 4
    lanes = SimpleNamespace(h=h, sigma=np.where(np.arange(d) < N, 1.0, -1.0),
                            system=SimpleNamespace(S=SimpleNamespace(N=N)))
    z, z_new, t = np.zeros((4, d)), np.zeros((4, d)), np.zeros((4, d))
    z[:, 4] = z_new[:, 4] = 1.0
    z[:, :2] = [0.008, -0.005], [0.002, 0.0], [0.01, 0.0], [0.012, 0.0]
    z_new[:, :2] = [0.008, 0.005], [0.012, 0.0], [0.0, 0.0], [0.022, 0.0]
    t[:, :2] = [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]
    A = np.arange(4)
    for got in (strata._Lanes._meetings(lanes, A, z, t, z_new),
                reference_meetings(lanes, A, z, t, z_new)):
        assert [g.tolist() for g in got] == [[1, 3, 2, 0], [2, 0, 1, 3], [False] * 4]


def test_a_run_snaps_every_meeting_in_one_call(monkeypatch):
    # one corrector call per lockstep step, one per step with a half-step
    # retry, and after the last step one call for every meeting's snap, whose
    # lanes get the bits of a call of their own step's snaps alone
    S, system, Z = fine_cloud("s3-cusps", 11)
    correct, calls, retried, met = strata._Lanes._correct, [], [], []

    def spied(self, lanes, Z, anchors, normals):
        out = correct(self, lanes, Z, anchors, normals)
        calls.append((lanes.copy(), Z.copy(), anchors.copy(), normals.copy(), out))
        return out

    step = strata._Lanes.step

    def counted(self):
        half, active = int(self.half_steps.sum()), int(self.active.sum())
        step(self)
        retried.append(int(self.half_steps.sum()) > half)
        met.append(active - int(self.active.sum()))

    monkeypatch.setattr(strata._Lanes, "_correct", spied)
    monkeypatch.setattr(strata._Lanes, "step", counted)
    lanes = strata._Lanes(system, Z)
    lanes.run()
    assert len(calls) == lanes.count + sum(retried) + 1
    iterations = np.zeros_like(lanes.iterations)
    stops = np.zeros_like(lanes.stops)
    for ids, *_, out in calls[:-1]:
        iterations[ids] += out.iterations
        np.add.at(stops, (ids, out.stop), 1)
    snapped, starts, anchors, normals, merged = calls[-1]
    bounds = np.cumsum([0] + [m for m in met if m])
    assert len(bounds) > 21 and bounds[-1] == len(snapped) == int((lanes.partner >= 0).sum())
    for rows in map(slice, bounds[:-1], bounds[1:]):
        alone = correct_in_planes(system, starts[rows], anchors[rows], normals[rows])
        for name in ("z", "residual", "iterations", "stop"):
            assert getattr(merged, name)[rows].tobytes() == getattr(alone, name).tobytes(), name
        error = np.where(alone.converged, np.linalg.norm(alone.z - anchors[rows], axis=1),
                         np.inf)
        assert lanes.snap_error[snapped[rows]].tobytes() == error.tobytes()
        iterations[snapped[rows]] += alone.iterations
        np.add.at(stops, (snapped[rows], alone.stop), 1)
    assert lanes.iterations.tobytes() == iterations.tobytes()
    assert lanes.stops.tobytes() == stops.tobytes()


def test_s3_cusps_seed_21_is_one_curve_traced_once():
    # two lanes of this cloud pass each other head on about h apart; if they
    # do not meet there, they walk round the curve and meet on the far side,
    # and the curve is read twice over (exit 66, "doubly covered")
    S = bundled("s3-cusps")
    S.seed = 21
    strat = compute_stratification(S)
    assert len(strat.curves) == 1 and len(strat.cusps) == 2
    assert len(strat.curves[0].nodes) < 1500


def test_meetings_along_a_trace_are_the_all_pairs_search(monkeypatch):
    S = bundled("s3-proj")
    S.tolerances = dataclasses.replace(S.tolerances, curve_step=2.5e-3, multistart_density=10)
    meetings, steps = strata._Lanes._meetings, []

    def checked(self, A, z, t, z_new):
        got = meetings(self, A, z, t, z_new)
        want = reference_meetings(self, A, z, t, z_new)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        steps.append(got[0].size)
        return got

    monkeypatch.setattr(strata._Lanes, "_meetings", checked)
    system = SingularSystem(S)
    Z = np.array([system.pack(p.x, p.cokernel, p.multiplier) for p in solve_stratum1(S)])
    curve = trace(S, Z)
    assert sum(steps) == 2 * len(Z) and len(steps) > 20
    assert curve.solver["lane_steps"] <= len(curve.nodes)


def test_a_sparse_trace_sends_no_step_lane_to_the_svd(s3_proj_sparse, monkeypatch):
    # the determinant certificate clears every node of a smooth trace: the
    # step lanes never reach the rank rule's SVD (the seeds' tangents do,
    # through curve_tangents, with k = 1)
    certified, doubted = [], []
    bordered, audit = strata.audit_bordered, continuation.audit_nullity

    def counting_bordered(B):
        certified.append(len(B))
        return bordered(B)

    def counting_audit(J, dim=1, k=0):
        if k == 0:
            doubted.append(len(J))
        return audit(J, dim, k)

    monkeypatch.setattr(strata, "audit_bordered", counting_bordered)
    monkeypatch.setattr(continuation, "audit_nullity", counting_audit)
    system = SingularSystem(s3_proj_sparse)
    Z = np.array([system.pack(p.x, p.cokernel, p.multiplier)
                  for p in solve_stratum1(s3_proj_sparse)])
    curve = trace(s3_proj_sparse, Z)
    assert sum(certified) >= len(curve.nodes) - len(Z) > 100
    assert doubted == []


def _bordered_stack(ratios, rng, d=7):
    """Bordered matrices [J; t] (k, d, d), one per entry of ``ratios``: J
    (d-1, d) with singular values 1, ..., 1, ratio (two of them ratio when
    it is a pair) in random orthonormal frames, t its unit null vector."""
    B = np.empty((len(ratios), d, d))
    for i, ratio in enumerate(ratios):
        U = np.linalg.qr(rng.normal(size=(d - 1, d - 1)))[0]
        V = np.linalg.qr(rng.normal(size=(d, d)))[0]
        s = np.ones(d - 1)
        s[-np.size(ratio):] = ratio
        B[i, :-1] = (U * s) @ V[:, :-1].T
        B[i, -1] = V[:, -1]
    return B


def _outcome(audit, stack):
    try:
        audit(stack)
    except Exception as exc:  # noqa: BLE001  (the two audits must fail alike)
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("ratios, edit, raises", [
    ([1.0] * 5, None, False),
    ([1.0, 1e-7, 1.0, 1e-7], None, False),
    ([1.0, 1e-9, 1.0], None, True),
    ([1.0, (1e-10, 1e-10), 1e-9], None, True),
    ([1.0, 1.0, 1.0], "repeated row", True),
    ([1.0, 1.0, 1.0], "nan", True),
])
def test_audit_bordered_is_the_rank_rule(ratios, edit, raises):
    # the certificate clears only lanes the rule passes; every other lane
    # goes to the rule, which raises for the first lane it rejects
    B = _bordered_stack(ratios, np.random.default_rng(len(ratios)))
    if edit == "repeated row":
        B[1, -2] = B[1, -3]
    elif edit == "nan":
        B[2, 0, 0] = np.nan
    got, want = _outcome(audit_bordered, B), _outcome(audit_nullity, B[:, :-1])
    assert got == want and (got is not None) == raises


@pytest.mark.parametrize("step, seed", [(None, 0), (None, 1), (2.5e-3, 0), (2.5e-3, 1)],
                         ids=["seed-0", "seed-1", "seed-0@2.5e-3", "seed-1@2.5e-3"])
def test_polished_cusps_are_the_reference_bisection_on_s3_cusps(seed, step):
    # each cusp polished from its determinant bracket is where the scalar
    # reference bisection of the kernel-Hessian determinant ends
    S = bundled("s3-cusps")
    S.seed = seed
    if step is not None:
        S.tolerances = dataclasses.replace(S.tolerances, curve_step=step)
    strat = compute_stratification(S)
    system = SingularSystem(S)

    def det(z):
        return _node_metrics(S, system, z[None])[0]

    (curve,) = strat.curves
    dets = curve.det_values
    brackets = np.flatnonzero(dets * np.roll(dets, -1) < 0)
    assert len(brackets) == len(curve.cusps) == 2
    for b, p in zip(brackets, curve.cusps):
        z, steps = reference_bisect(system, curve.nodes[b], curve.nodes[(b + 1) % len(dets)],
                                    dets[b], det, gap=1e-14)
        x, u, _ = system.unpack(z)
        assert 1 < steps < 60
        assert np.max(np.abs(p.x - x)) <= 1e-10
        assert np.max(np.abs(p.cokernel - np.sign(p.cokernel @ u) * u)) <= 1e-10


def test_cusp_near_is_ten_dedup_radii():
    # one radius for the cloud's degenerate points, the walk's cusp hits and
    # the genericity audit's collisions, whatever the dedup radius
    for radius in (1e-6, 1e-9):
        S = SimpleNamespace(tolerances=SimpleNamespace(dedup_radius=radius))
        cusps = [SimpleNamespace(x=np.array([1.0, 0.0])), SimpleNamespace(x=np.array([0.0, 1.0]))]
        assert cusp_near(S, cusps, np.array([0.0, 1.0 + 9.9 * radius])) == 1
        assert cusp_near(S, cusps, np.array([0.0, 1.0 + 10.1 * radius])) is None
        assert cusp_near(S, [], np.zeros(2)) is None


def test_open_curve_does_not_close(flat_cusp_sparse, monkeypatch):
    monkeypatch.setattr(strata, "MAX_LOCKSTEP_STEPS", 300)
    pts = solve_stratum1(flat_cusp_sparse)
    sys2 = SingularSystem(flat_cusp_sparse)
    z0 = sys2.pack(pts[0].x, pts[0].cokernel, pts[0].multiplier)
    with pytest.raises(StratificationError):
        trace(flat_cusp_sparse, z0[None])


def test_two_fold_circles_take_one_trace_each(monkeypatch):
    # M is two disjoint 3-spheres, centred at x0 = -2 and x0 = 2, each with
    # the fold circle of the plane projection: the first curve takes the
    # cloud points of one circle, the second the rest
    S = load_scenario({
        "name": "two-spheres", "ambient_dim": 4, "intrinsic_dim": 3,
        "constraints": ["(* (+ (^ (+ x0 -2) 2) (^ x1 2) (^ x2 2) (^ x3 2) -1) "
                        "(+ (^ (+ x0 2) 2) (^ x1 2) (^ x2 2) (^ x3 2) -1))"],
        "target_dim": 2, "components": ["x1", "x2"], "sample_halfwidth": 3.5,
    })
    runs, stepped = set(), []
    step = strata._Lanes.step

    def counted(lanes):
        runs.add(id(lanes))
        stepped.append(int(np.sum(lanes.active)))
        step(lanes)

    monkeypatch.setattr(strata._Lanes, "step", counted)
    strat = compute_stratification(S)
    assert len(strat.curves) == 2
    assert sum(len(c.members) for c in strat.curves) == len(strat.points)
    # one run of lanes for both curves, and no lane is stepped twice: every
    # lane's steps are its nodes but its seed and the step that meets
    assert len(runs) == 1
    lane_steps = [c.solver["lane_steps"] for c in strat.curves]
    assert sum(stepped) == sum(lane_steps) + 2 * len(strat.points)
    assert all(0 < k <= c.solver["nodes"] for k, c in zip(lane_steps, strat.curves))
    for curve, centre in zip(strat.curves, (-2.0, 2.0)):
        x = curve.nodes[:, :S.N]
        assert np.max(np.abs(x[:, 0] - centre)) < 1e-10
        assert np.max(np.abs(np.linalg.norm(x[:, 1:3], axis=1) - 1.0)) < 1e-10
        assert curve.closure_error <= 1e-10 and not curve.cusps
        assert np.all(curve.det_values > 0)     # a plus circle


def test_a_lane_whose_corrector_fails_ends_the_trace(s3_proj_sparse, monkeypatch):
    system = SingularSystem(s3_proj_sparse)
    Z = np.array([system.pack(p.x, p.cokernel, p.multiplier)
                  for p in solve_stratum1(s3_proj_sparse)])
    correct, calls = strata.correct_in_planes, []

    def failing_after_three(system, Z, anchors, normals):
        # from the fourth call on, the half-step retries included, every lane
        # reports a failed line search
        out = correct(system, Z, anchors, normals)
        calls.append(len(Z))
        if len(calls) > 3:
            out.stop[:] = STOP_REASONS.index("line_search_failed")
        return out

    monkeypatch.setattr(strata, "correct_in_planes", failing_after_three)
    with pytest.raises(StratificationError, match="continuation corrector failed"):
        trace(s3_proj_sparse, Z)


def test_open_curve_lanes_never_arrive(flat_cusp_sparse, monkeypatch):
    # from the whole cloud the lanes between seeds arrive, but the two that
    # leave the outermost seeds run off along the open curve
    monkeypatch.setattr(strata, "MAX_LOCKSTEP_STEPS", 300)
    pts = solve_stratum1(flat_cusp_sparse)
    system = SingularSystem(flat_cusp_sparse)
    Z = np.array([system.pack(p.x, p.cokernel, p.multiplier) for p in pts])
    assert len(Z) > 1
    with pytest.raises(StratificationError, match="did not close"):
        trace(flat_cusp_sparse, Z)


def test_cusp_scenario_two_cusps_alternating(cusp_strat, s3_cusps):
    S = s3_cusps
    assert len(cusp_strat.curves) == 1
    assert len(cusp_strat.cusps) == 2
    curve = cusp_strat.curves[0]
    # the determinant changes sign at two brackets: one plus and one minus arc
    signs = np.sign(curve.det_values)
    assert np.count_nonzero(signs != np.roll(signs, -1)) == 2
    assert _oracle_cells(cusp_strat, "plus") == _oracle_cells(cusp_strat, "minus") == (1, 0)
    assert cusp_strat.audits["alternation_violations"] is None
    for p in cusp_strat.cusps:
        assert p.depth == 2
        assert abs(p.eig_slope) > 1.0
        assert p.signature.n_zero == 1
        assert p.degenerate_direction is not None
        # the chart: the tangent into the plus arc, and the (minus, plus)
        # samples half a curve step away along it, on either side
        h = S.tolerances.curve_step / 2
        z = SingularSystem(S).pack(p.x, p.cokernel, p.multiplier)
        t, (z_minus, z_plus) = p.arc_tangent, p.arc_samples
        assert np.linalg.norm(t) == pytest.approx(1.0)
        assert (z_plus - z) @ t == pytest.approx(h) and (z_minus - z) @ t == pytest.approx(-h)
        signs = [q.sign for q in stratum_points(S, SingularSystem(S), p.arc_samples)[0]]
        assert signs == ["minus", "plus"]


def test_cusps_satisfy_depth1_system(cusp_strat):
    assert cusp_strat.audits["nesting_max_residual"] <= 1e-9


# -- the flat chart-box model ----------------------------------------------------


def test_flat_model_singular_curve_shape(flat_cusp):
    pts = solve_stratum1(flat_cusp)
    assert pts
    for p in pts:
        x0, x1, x2, x3 = p.x
        assert x0 == pytest.approx(-3 * x1**2, abs=1e-8)
        assert abs(x2) < 1e-8 and abs(x3) < 1e-10


def test_flat_model_fold_signs(flat_cusp):
    pts = solve_stratum1(flat_cusp)
    for p in pts:
        if abs(p.x[1]) < 1e-3:
            continue
        assert p.sign == ("plus" if p.x[1] > 0 else "minus")


def test_flat_model_cusp_depth_and_slope(flat_cusp):
    p = reference_stratum_point(flat_cusp, np.zeros(4), np.array([0.0, 1.0]), np.array([0.0]))
    assert p.signature.n_zero == 1
    strata._chart_cusps(flat_cusp, SingularSystem(flat_cusp), [p])
    assert p.depth == 2
    # the intrinsic leading coefficient of the depth-2 normal form is 6
    assert abs(p.eig_slope) == pytest.approx(6.0, rel=1e-3)
    # the plus arc is x1 > 0
    assert p.arc_tangent[1] > 0 and p.arc_samples[1, 1] > 0 > p.arc_samples[0, 1]


def test_flat_model_fold_depth(flat_cusp):
    x = np.array([-3 * 0.4**2, 0.4, 0.0, 0.0])
    u = np.array([-0.4, 1.0]) / np.sqrt(1 + 0.16)
    system = SingularSystem(flat_cusp)
    (p,), failures = stratum_points(flat_cusp, system, system.pack(x, u, np.array([0.0])))
    assert not failures
    assert p.depth == 1 and p.signature.n_zero == 0
