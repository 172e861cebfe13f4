from __future__ import annotations

import json
from importlib.resources import files

import numpy as np
import pytest

from morinchi._numeric import (
    BATCH_ENTRIES,
    LINE_SEARCH_HALVINGS,
    STOP_REASONS,
    NewtonResult,
    batch_width,
    eig_sign_counts,
    min_norm_solve,
    newton_batch,
    sign_normalize,
    vecmat,
)
from morinchi.manifold import RegularityError
from morinchi.scenario import MorinnessError, StratificationError, load_scenario
from morinchi.strata import (
    QuadraticSignature,
    SingularSystem,
    StratumPoint,
    _kernel_form,
    _kernel_lanes,
    _Lanes,
    trace_fold_curve,
)


def scenario_path(name):
    return files("morinchi").joinpath(f"scenarios/{name}.json")


def bundled(name):
    return load_scenario(scenario_path(name))


def fd_jacobian(fn, z, step=1e-7):
    """Central-difference Jacobian of a vector function."""
    z = np.asarray(z, dtype=float)
    J = np.empty((len(fn(z)), len(z)))
    for i in range(len(z)):
        e = np.zeros(len(z))
        e[i] = step
        J[:, i] = (fn(z + e) - fn(z - e)) / (2 * step)
    return J


def trace(S, seeds):
    """The trace of the curve through the first of ``seeds``, a stack of z,
    from all of them: the seeds landed on the singular curve by one batched
    Newton, then one run of lanes."""
    system = SingularSystem(S)
    landed = newton_batch(system.evaluate, seeds, tol=S.tolerances.residual, max_iter=60)
    assert landed.converged.all()
    return trace_fold_curve(_Lanes(system, landed.z), 0)


def nullspace(A, rtol=1e-9):
    """Orthonormal basis (columns) of the null space of one matrix A: the
    per-matrix rank rule that ``continuation.nullities`` replaced."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vt = np.linalg.svd(A)
    cutoff = rtol * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > max(cutoff, np.finfo(float).tiny)))
    return vt[rank:].T


def reference_curve_tangent(system, z, prev=None):
    """Unit tangent of the solution curve at one point z from ``nullspace``:
    the per-point rule ``curve_tangents`` replaced.  Oriented along ``prev``
    when given and sign-normalized otherwise; a nullity other than 1 is
    rejected."""
    ns = nullspace(system.evaluate(z)[1], rtol=1e-8)
    if ns.shape[1] != 1:
        raise MorinnessError(f"singular-set dimension audit failed: nullity {ns.shape[1]} != 1")
    t = ns[:, 0]
    if prev is None:
        return sign_normalize(t)
    return -t if t @ prev < 0 else t


def reference_meetings(lanes, A, z, t, z_new):
    """``_Lanes._meetings`` by an all-pairs search: the x-distances of every
    lane's new point to every node, in blocks of ``BATCH_ENTRIES`` entries,
    then the same passing test and pairing.  The block search the sorted
    window replaced, with the gap of a meeting below 2h before the step."""
    h, N, n = lanes.h, lanes.system.S.N, len(A)
    r = 2 * h + float(np.max(np.linalg.norm(z_new[:, :N] - z[:, :N], axis=1)))
    columns = z[:, :N].T.copy()
    rows = max(1, BATCH_ENTRIES // n)
    found, targets = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for i in range(0, n, rows):
        block = np.arange(i, min(i + rows, n))
        near = 0.0
        for j, column in enumerate(columns):
            d = column - z_new[block, j, None]
            near = near + d * d
        near[np.arange(block.size), block] = np.inf
        b, q = np.nonzero(near < r ** 2)
        found.append(block[b])
        targets.append(q)
    lane, q = np.concatenate(found), np.concatenate(targets)
    if not lane.size:
        return lane, lane, lane.astype(bool)
    flip = np.sum(z[lane, N:] * z[q, N:], axis=1) < 0
    sheet = np.where(flip[:, None], lanes.sigma, 1.0)
    before, after = z[lane] - z[q] * sheet, z_new[lane] - z_new[q] * sheet
    close = np.linalg.norm(before, axis=1) < 2 * h
    T = t[q] * sheet
    d0, d1 = np.sum(before * T, axis=1), np.sum(after * T, axis=1)
    met = close & (d0 > 0) & (d1 <= 0)
    lane, q, flip, d0, d1 = lane[met], q[met], flip[met], d0[met], d1[met]
    order = np.lexsort((q, d0 / (d0 - d1), lane))
    lane, q, flip = lane[order], q[order], flip[order]
    first = np.diff(lane, prepend=-1) != 0
    lane, q, flip = lane[first], q[first], flip[first]
    choice = np.full(n, -1)
    choice[lane] = q
    free = np.ones(n, dtype=bool)
    pairs = []
    for i in np.lexsort((lane, choice[q] != lane)):
        x, y = lane[i], q[i]
        if free[x] and free[y]:
            free[x] = free[y] = False
            pairs.append((x, y, flip[i]))
    x, y, f = np.array(pairs, dtype=int).reshape(-1, 3).T
    return np.r_[x, y], np.r_[y, x], np.r_[f, f].astype(bool)


def reversed_nodes(curve):
    """True at the nodes of a traced curve's reversed pieces: from each
    segment's meeting to the next segment's seed."""
    back = np.zeros(len(curve.nodes), dtype=bool)
    for start, end in zip(curve.meetings, np.r_[curve.segments[1:], len(curve.nodes)]):
        back[start:end] = True
    return back


def reference_newton(residual_fn, jacobian_fn, z0, tol=1e-12, max_iter=60):
    """Damped Newton on one system, one point at a time: the scalar loop
    ``newton_batch`` replaced.  Each step is ``np.linalg.lstsq``'s
    minimal-norm solution, halved up to ``LINE_SEARCH_HALVINGS`` times until
    the trial's max-norm residual is below the current one, or else the
    max-norm of its simplified Newton correction, ``lstsq`` of the current
    Jacobian against the trial's residual, is below the step's."""
    z = np.asarray(z0, dtype=float).copy()
    res = np.asarray(residual_fn(z), dtype=float)
    norm = float(np.max(np.abs(res))) if res.size else 0.0
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return NewtonResult(z, norm, it - 1, STOP_REASONS.index("converged"))
        J = np.asarray(jacobian_fn(z), dtype=float)
        try:
            step = np.linalg.lstsq(J, -res, rcond=None)[0]
        except np.linalg.LinAlgError:
            step = np.nan
        if not np.all(np.isfinite(step)):
            return NewtonResult(z, norm, it, STOP_REASONS.index("nonfinite_step"))
        scale = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            z_try = z + scale * step
            res_try = np.asarray(residual_fn(z_try), dtype=float)
            norm_try = float(np.max(np.abs(res_try)))
            if norm_try < norm:
                break
            if np.isfinite(norm_try):
                bar = np.linalg.lstsq(J, res_try, rcond=None)[0]
                if np.max(np.abs(bar)) < np.max(np.abs(step)):
                    break
            scale *= 0.5
        else:
            return NewtonResult(z, norm, it, STOP_REASONS.index("line_search_failed"))
        z, res, norm = z_try, res_try, norm_try
    return NewtonResult(z, norm, max_iter,
                        STOP_REASONS.index("converged" if norm <= tol else "iteration_cap"))


def reference_dedup(points, radius):
    """``dedup_points`` by the greedy loop over every kept point: each one
    measures the later points of its window of 2 * radius in the first
    coordinate and drops those within ``radius``.  The loop the stacked pass
    over the window's pairs replaced."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return []
    order = np.lexsort(pts.T[::-1])
    first = pts[order, 0]
    ends = np.searchsorted(first, first + 2 * radius, side="right")
    dropped = np.zeros(len(order) + 1, dtype=bool)      # the last entry stops the scan
    kept = []
    j = 0
    while j < len(order):
        kept.append(int(order[j]))
        near = slice(j + 1, ends[j])
        dropped[near] |= ~(np.linalg.norm(pts[order[near]] - pts[order[j]], axis=1) > radius)
        j += 1 + int(np.argmin(dropped[j + 1:]))
    return kept


def reference_stratum_point(S, x, u, mu, system=None, K=None):
    """Stratum data at one solution (x, u, mu), one point at a time: the
    per-point rule ``stratum_points`` replaced.  (u, mu) is flipped as a
    pair by the sign of the first cokernel entry above 1e-12; the residual
    is taken at the packed flipped point, and the signature from
    ``eig_sign_counts`` of the one kernel form.  ``K`` defaults to the
    kernel basis at x, and its first failure raises."""
    u, mu = np.asarray(u, dtype=float), np.asarray(mu, dtype=float)
    lead = u[np.abs(u) > 1e-12]
    if lead.size and lead[0] < 0:
        u, mu = -u, -mu
    system = system or SingularSystem(S)
    res = float(np.max(np.abs(system.evaluate(system.pack(x, u, mu))[0])))
    if K is None:
        (K,), failures = _kernel_lanes(S, np.asarray(x, dtype=float)[None])
        if failures:
            raise failures[0]
    HK = _kernel_form(S, x, u, mu, K)
    n_plus, n_minus, n_zero = eig_sign_counts(HK, S.tolerances.eigen_zero)
    if n_zero > 1:
        raise MorinnessError(
            f"kernel Hessian has {n_zero} near-zero eigenvalues at {x}: not Morin")
    p = StratumPoint(x=np.asarray(x, dtype=float), depth=1, cokernel=u, multiplier=mu,
                     kernel_basis=K, residuals={"system": res},
                     signature=QuadraticSignature(n_plus, n_minus, n_zero))
    if n_zero == 0:
        p.sign = "plus" if n_minus % 2 == 0 else "minus"
    return p


def reference_degenerate_direction(S, p):
    """The degenerate kernel direction that the chart of the cusp p sets,
    one cusp at a time: the eigenvector of the eigenvalue nearest zero of
    its kernel form, from its own ``eigh``, in the ambient space and
    sign-normalized."""
    HK = _kernel_form(S, p.x, p.cokernel, p.multiplier, p.kernel_basis)
    vals, vecs = np.linalg.eigh(HK)
    return sign_normalize(p.kernel_basis @ vecs[:, int(np.argmin(np.abs(vals)))])


def reference_points_from_solutions(S, system, solutions, kept):
    """The loop over the kept solutions that one ``stratum_points`` pass
    replaced: kernel bases in stacks of ``batch_width`` lanes, then
    ``reference_stratum_point`` at each point in kept order, skipping a point
    whose kernel data fails as non-singular or irregular."""
    kept = list(kept)
    width = batch_width(system.dim_z)
    lanes = [_kernel_lanes(S, system.unpack(solutions[kept[i:i + width]])[0])
             for i in range(0, len(kept), width)]
    points = []
    for j, idx in enumerate(kept):
        K, failures = lanes[j // width]
        error = failures.get(j % width)
        if isinstance(error, (StratificationError, RegularityError)):
            continue
        if error is not None:
            raise error
        x, u, mu = system.unpack(solutions[idx])
        points.append(reference_stratum_point(S, x, u, mu, system, K[j % width]))
    points.sort(key=lambda p: tuple(np.round(p.x, 9)))
    return points


def einsum_augmented(sysc, w):
    """(residual, Jacobian) of a ``StratumCriticalSystem`` at w, a point or a
    stack, assembled from one evaluation of the singular system, the jets
    and the third-derivative tensors, one einsum per block of the Lagrangian
    Hessian: the evaluator the augmented block replaced."""
    S, D, E = sysc.S, sysc.D, sysc.E
    N, n, c = S.N, S.n, S.c
    z, nu = w[..., :D], w[..., D:]
    x, u, mu = sysc.base.unpack(z)
    F, DF = sysc.base.evaluate(z)
    grad_h = np.zeros(x.shape[:-1] + (D,))
    grad_h[..., :N] = vecmat(sysc.fixed, S.Df(x))
    # A = hess_z h - sum_r nu_r hess_z F_r, in (x, u, mu) block form
    nu_g, nu_s, nu_n = nu[..., :c], nu[..., c:c + N], nu[..., c + N]
    H = S.jet(x)[2]
    Hf, Hg = H[..., :n, :, :], H[..., n:, :, :]
    T3f, T3g = S.third_tensors(x)
    A = np.zeros(x.shape[:-1] + (D, D))
    Axx = np.einsum("l,...lpq->...pq", sysc.fixed, Hf)
    Axx -= np.einsum("...j,...jpq->...pq", nu_g, Hg)
    Ms = np.einsum("...i,...l,...lipq->...pq", nu_s, u, T3f)
    Ms -= np.einsum("...i,...j,...jipq->...pq", nu_s, mu, T3g)
    Axx -= Ms
    A[..., :N, :N] = Axx
    Axu = -np.einsum("...lpi,...i->...pl", Hf, nu_s)      # column l is -Hf_l nu_s
    A[..., :N, N:N + n] = Axu
    A[..., N:N + n, :N] = np.swapaxes(Axu, -1, -2)
    Axm = np.einsum("...jpi,...i->...pj", Hg, nu_s)
    A[..., :N, N + n:] = Axm
    A[..., N + n:, :N] = np.swapaxes(Axm, -1, -2)
    A[..., N:N + n, N:N + n] = -2.0 * np.multiply.outer(nu_n, np.eye(n))
    R = np.concatenate([F, grad_h - vecmat(nu, DF)], axis=-1)
    J = np.zeros(w.shape[:-1] + (E + D, D + E))
    J[..., :E, :D] = DF
    J[..., E:, :D] = A
    J[..., E:, D:] = -np.swapaxes(DF, -1, -2)
    return R, J


def einsum_initial_nu(sysc, z):
    """``initial_nu`` from ``einsum_augmented``: the least-squares nu of
    grad h = DF^T nu, whose right side is the stationarity rows at nu = 0."""
    R, J = einsum_augmented(sysc, np.concatenate([z, np.zeros(z.shape[:-1] + (sysc.E,))], axis=-1))
    return min_norm_solve(np.swapaxes(J[..., :sysc.E, :sysc.D], -1, -2), R[..., sysc.E:])


def einsum_reduced_hessian(sysc, z, nu):
    """``reduced_hessian`` from ``einsum_augmented`` at one point."""
    J = einsum_augmented(sysc, np.concatenate([z, nu]))[1]
    B = nullspace(J[:sysc.E, :sysc.D], rtol=1e-8)
    return B.T @ J[sysc.E:, :sysc.D] @ B


@pytest.fixture(scope="session")
def s2_height():
    return bundled("s2-height")


@pytest.fixture(scope="session")
def torus_height():
    return bundled("torus-height")


@pytest.fixture(scope="session")
def s3_proj():
    return bundled("s3-proj")


@pytest.fixture(scope="session")
def s3_proj_sparse():
    """s3-proj drawing 10 depth-1 starts per target dimension."""
    return load_scenario(dict(json.loads(scenario_path("s3-proj").read_text()),
                              tolerances={"multistart_density": 10}))


@pytest.fixture(scope="session")
def s4_height():
    return bundled("s4-height")


@pytest.fixture(scope="session")
def s4_proj():
    return bundled("s4-proj")


@pytest.fixture(scope="session")
def s3_cusps():
    return bundled("s3-cusps")


# Flat chart-box scenario carrying the standard depth-2 normal form
#   f = (x0, x1^3 + x0 x1 + x2^2) on M = {x3 = 0} in R^4.
# Non-compact, so it exercises the pointwise machinery only.
FLAT_CUSP = {
    "name": "flat-cusp-model",
    "ambient_dim": 4,
    "intrinsic_dim": 3,
    "constraints": ["x3"],
    "target_dim": 2,
    "components": ["x0", "(+ (^ x1 3) (* x0 x1) (^ x2 2))"],
    "seed": 0,
    "compact": False,
    "sample_seeds": [[0.0, 0.5, 0.0, 0.0], [-0.75, -0.5, 0.0, 0.0]],
}


@pytest.fixture(scope="session")
def flat_cusp():
    """The flat model drawing 30 depth-1 starts per target dimension."""
    return load_scenario(dict(FLAT_CUSP, tolerances={"multistart_density": 30}))


@pytest.fixture(scope="session")
def flat_cusp_sparse():
    """The flat model drawing 10 depth-1 starts per target dimension."""
    return load_scenario(dict(FLAT_CUSP, tolerances={"multistart_density": 10}))
