"""Shared numerical routines: Newton solves, deduplication, eigenvalue signs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# halvings of the Newton step before a start is given up
LINE_SEARCH_HALVINGS = 12

# the line search tries the scales 1, 1/2, ..., 2**-(LINE_SEARCH_HALVINGS - 1)
# in rounds of 1, 2, 4 and the remaining 5: a lane takes the largest accepted
# scale of the first round that accepts one, which is the scale that trying
# them one by one reaches, in at most four residual rounds
_HALVING_ROUNDS = np.split(0.5 ** np.arange(LINE_SEARCH_HALVINGS), [1, 3, 7])

# Jacobian entries per call of a batched residual: a whole census of small
# systems fits in one call, while the stacked Jacobians and SVD factors of
# the larger augmented systems stay within a few hundred kilobytes
BATCH_ENTRIES = 1 << 14


# ``dedup_points`` measures a window of at most this many later points pair
# by pair: a depth-1 cloud's windows hold 0 or 1, a converged census's
# clusters hundreds
_DEDUP_PAIRS = 8

# why a Newton solve stopped, indexed by ``NewtonResult.stop``
STOP_REASONS = ("converged", "nonfinite_step", "line_search_failed", "iteration_cap")


@dataclass
class NewtonResult:
    """Outcome of ``newton`` (scalars) or of ``newton_batch`` (one entry or
    row per start)."""

    z: np.ndarray               # (d,) or (B, d)
    residual: float             # max-norm residual at z; (B,) from newton_batch
    iterations: int             # (B,) int from newton_batch
    stop: int                   # index into STOP_REASONS; (B,) from newton_batch
    jacobian: np.ndarray | None = None  # newton_batch: the Jacobians (B, r, d) at z

    @property
    def converged(self):
        return self.stop == STOP_REASONS.index("converged")


def _accepts(norm_try, norm, bar=np.nan, step=np.nan):
    """The damped Newton loop's test of a trial z + lambda * Delta, on floats
    or on stacks of them: its max-norm residual ``norm_try`` is below the
    current one ``norm``, or else the max-norm ``bar`` of its simplified
    Newton correction J(z)^+ F(z + lambda * Delta) is below the max-norm
    ``step`` of Delta (Deuflhard's natural monotonicity test, which does not
    weigh rows of F by their units).  ``bar`` defaults to NaN, not measured,
    which leaves the residual test alone.  Both tests refuse a NaN or
    infinite trial, since a max-norm is never negative."""
    return (norm_try < norm) | (bar < step)


def vecmat(v, A):
    """v^T A over leading stack axes: (..., m) and (..., m, n) give (..., n)."""
    return (v[..., None, :] @ A)[..., 0, :]


def min_norm_solve(A, b):
    """Minimal-norm least-squares solution of A x = b over leading stack axes.

    ``b`` holds one right side per matrix, (..., r), and x is (..., d); or
    several, (..., k, r), which share their matrix's inverse or SVD, and x
    is (..., k, d).

    Singular values at or below ``np.linalg.lstsq``'s default cutoff,
    eps * max(rows, cols) times the largest one, count as zero, so a stack
    gives what ``lstsq`` gives lane by lane.

    Each lane is solved through the inverse of one s x s matrix G, s the
    smaller side of A: G = A itself when A is square (x = A^-1 b), the Gram
    matrix A A^T when A is wide (x = A^T G^-1 b) and A^T A when it is tall
    (x = G^-1 A^T b).  The inverse is trusted below a bound on
    s * kappa_1(G), since kappa_2(G) <= s * kappa_1(G):

    - square, s * kappa_1(A) < 1 / (eps * s): kappa_2(A) stays below
      1 / (eps * s), so no singular value reaches the cutoff and the
      minimal-norm solution is A^-1 b;
    - rectangular, s * kappa_1(G) < eps^-1/2: kappa_2(A)^2 = kappa_2(G) stays
      below eps^-1/2, so A has full rank s well above the cutoff, and the
      normal equations' relative error, about eps * kappa_2(A)^2, stays
      below sqrt(eps).

    The other lanes, and the lanes whose G is exactly singular (``inv``
    raises), take the SVD.  A lane whose SVD does not converge gets NaN.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lead, (r, d) = A.shape[:-2], A.shape[-2:]
    shape = b.shape[:-1] + (d,)
    A, b = A.reshape(-1, r, d), b.reshape(-1, int(np.prod(b.shape[len(lead):-1])), r)
    s = min(r, d)
    if s == 0:
        return _svd_solve(A, b).reshape(shape)
    At = np.swapaxes(A, -1, -2)
    bt = np.swapaxes(b, -1, -2)
    G = A @ At if r < d else At @ A if r > d else A
    try:
        inv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        # getrf met an exactly zero pivot: those lanes, the ones of zero (or
        # non-finite) determinant, take the SVD through the gate below
        singular = ~(np.abs(np.linalg.det(G)) > 0)
        inv = np.full_like(G, np.nan)
        inv[~singular] = np.linalg.inv(G[~singular])
    x = inv @ (At @ bt if r > d else bt)
    x = np.swapaxes(At @ x if r < d else x, -1, -2)
    eps = np.finfo(float).eps
    bound = 1.0 / (eps * s) if r == d else eps ** -0.5
    # NaN or inf in kappa fails the test too
    svd = ~(s * _norm1(G) * _norm1(inv) < bound)
    if svd.any():
        x[svd] = _svd_solve(A[svd], b[svd])
    return x.reshape(shape)


def _norm1(A):
    return np.max(np.sum(np.abs(A), axis=-2), axis=-1)


def _svd_solve(A, b):
    """``min_norm_solve`` of an (m, r, d) stack, with right sides (m, k, r),
    by its SVD."""
    try:
        u, s, vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full(b.shape[:-1] + A.shape[-1:], np.nan)
        return np.concatenate([_svd_solve(A[i:i + 1], b[i:i + 1]) for i in range(len(A))])
    large = s > np.finfo(float).eps * max(A.shape[-2:]) * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=large)
    return ((b @ u) * inv[:, None, :]) @ vt


def batch_width(d):
    """Lanes per call for stacked work on d-dimensional systems.

    A lane carries about d**2 entries (its Jacobian, SVD factors and jets),
    so this many lanes keep a call within ``BATCH_ENTRIES``.
    """
    return max(1, BATCH_ENTRIES // max(1, d ** 2))


def newton_batch(F, Z0, tol=1e-12, max_iter=60, indexed=False):
    """Damped Newton on a stack of starts, all lanes in lockstep.

    ``F`` maps a (k, d) stack of iterates to stacked residuals (k, r) and
    Jacobians (k, r, d).  Every lane takes the minimal-norm step
    (``min_norm_solve``), halves it up to ``LINE_SEARCH_HALVINGS`` times
    until ``_accepts`` the trial, and stops on a residual at most ``tol``, a
    non-finite step, a failed line search or the iteration cap, as recorded
    lane by lane in ``NewtonResult.stop``.  A non-finite residual or
    Jacobian counts as a non-finite step.
    The halvings run in the stacked rounds of ``_HALVING_ROUNDS``: a round
    tries each of its scales on every lane still searching.  A trial whose
    residual is not below the current one, at its scale and at every larger
    scale of its round, then takes the natural test: its simplified Newton
    correction, ``min_norm_solve`` of the current Jacobian against the
    trial's residual, must be smaller in max norm than the step.  A lane
    whose residual drops at full step solves nothing more.
    Lanes only share the calls to ``F`` and the stacked step solves: each
    iteration, and each round of it, pools the lanes still at work across
    the whole stack into calls of at most ``batch_width(d)`` rows.
    With ``indexed``, ``F`` also receives, for each row of the stack, the
    row of ``Z0`` whose lane it belongs to, ``F(Z, rows)``, for systems whose
    equations differ by lane.
    """
    Z = np.array(Z0, dtype=float, ndmin=2)
    B, d = Z.shape
    width = batch_width(d)
    rounds = _rounds(width)
    rows = np.arange(B)
    call = F if indexed else (lambda Z_part, part: F(Z_part))
    iterations = np.full(B, max_iter, dtype=int)
    stop = np.full(B, STOP_REASONS.index("iteration_cap"))
    if B == 0:
        return NewtonResult(Z, np.zeros(0), iterations, stop)
    R = J = None
    for i in range(0, B, width):
        R_i, J_i = call(Z[i:i + width], rows[i:i + width])
        if R is None:
            R = np.empty((B,) + np.shape(R_i)[1:])
            J = np.empty((B,) + np.shape(J_i)[1:])
        R[i:i + width], J[i:i + width] = R_i, J_i
    norm = _max_abs(R)
    active = np.ones(B, dtype=bool)
    for it in range(1, max_iter + 1):
        _retire(active & (norm <= tol), "converged", it - 1, active, iterations, stop)
        lanes = np.flatnonzero(active)
        if lanes.size == 0:
            break
        steps = np.full((lanes.size, d), np.nan)
        for i in range(0, lanes.size, width):
            part = lanes[i:i + width]
            finite = np.isfinite(R[part]).all(axis=1) & np.isfinite(J[part]).all(axis=(1, 2))
            steps[i:i + width][finite] = min_norm_solve(J[part[finite]], -R[part[finite]])
        good = np.isfinite(steps).all(axis=1)
        _retire(lanes[~good], "nonfinite_step", it, active, iterations, stop)
        lanes, steps = lanes[good], steps[good]
        sizes = _max_abs(steps)
        for scales in rounds:
            if lanes.size == 0:
                break
            # lane j of a call tries its scales in rows j*k .. j*k + k - 1
            k = scales.size
            per = width // k
            ok = np.zeros(lanes.size, dtype=bool)
            for i in range(0, lanes.size, per):
                part = lanes[i:i + per]
                Z_try = (Z[part][:, None, :]
                         + scales[:, None] * steps[i:i + per][:, None, :]).reshape(-1, d)
                R_try, J_try = call(Z_try, np.repeat(part, k))
                norm_try = _max_abs(R_try).reshape(-1, k)
                took = _accepts(norm_try, norm[part][:, None])
                # the natural test, on the finite trials before a lane's first
                # residual drop of the round; a lane's trials share one solve
                # of its Jacobian, and those not in need solve zeros
                need = ~np.logical_or.accumulate(took, axis=1) & np.isfinite(norm_try)
                if need.any():
                    some = need.any(axis=1)
                    sides = np.where(need[:, :, None], R_try.reshape(need.shape + (-1,)), 0.0)
                    bar = np.full(took.shape, np.nan)
                    bar[some] = np.max(np.abs(min_norm_solve(J[part[some]], sides[some])), axis=-1)
                    bar[~need] = np.nan
                    took = _accepts(norm_try, norm[part][:, None], bar, sizes[i:i + per][:, None])
                hit = ok[i:i + per] = took.any(axis=1)
                row = (np.arange(part.size) * k + np.argmax(took, axis=1))[hit]
                lane = part[hit]
                Z[lane], R[lane], J[lane], norm[lane] = (Z_try[row], R_try[row], J_try[row],
                                                         norm_try.ravel()[row])
            lanes, steps, sizes = lanes[~ok], steps[~ok], sizes[~ok]
        _retire(lanes, "line_search_failed", it, active, iterations, stop)
    stop[active & (norm <= tol)] = STOP_REASONS.index("converged")
    return NewtonResult(Z, norm, iterations, stop, J)


@lru_cache(maxsize=None)
def _rounds(width):
    """The halving rounds of ``newton_batch`` at ``width`` rows per call: a
    round of more than ``width`` scales is split, so that every lane's
    trials of a round fit in one call.  Built once per width; read-only."""
    rounds = tuple(part for scales in _HALVING_ROUNDS
                   for part in np.array_split(scales, -(-scales.size // width)))
    for part in rounds:
        part.flags.writeable = False
    return rounds


def _retire(lanes, reason, it, active, iterations, stop):
    iterations[lanes] = it
    active[lanes] = False
    stop[lanes] = STOP_REASONS.index(reason)


def _max_abs(R):
    return np.max(np.abs(R), axis=1) if R.shape[1] else np.zeros(R.shape[0])


def newton(residual_fn, jacobian_fn, z0, tol=1e-12, max_iter=60):
    """Damped Newton on one system: ``newton_batch`` on a single lane.

    ``residual_fn`` and ``jacobian_fn`` take one point (d,); the result
    holds z (d,) and the residual, iterations and stop as Python scalars.
    """
    out = newton_batch(lambda Z: (np.array([residual_fn(z) for z in Z], dtype=float),
                                  np.array([jacobian_fn(z) for z in Z], dtype=float)),
                       z0, tol, max_iter)
    return NewtonResult(out.z[0], float(out.residual[0]), int(out.iterations[0]),
                        int(out.stop[0]))


def sign_normalize(v, tol=1e-12):
    """Flip v so its first component larger than tol in magnitude is positive.

    ``v`` is a vector or a stack of them along the last axis, each flipped
    on its own.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] == 0:
        return v
    big = np.abs(v) > tol
    lead = np.take_along_axis(v, np.argmax(big, axis=-1)[..., None], axis=-1)[..., 0]
    return np.where((big.any(axis=-1) & (lead < 0))[..., None], -v, v)


def dedup_points(points, radius):
    """Deterministic dedup: lexicographic sort then greedy radius filtering.

    Returns indices into ``points`` of the retained representatives, in the
    order of the sort.  The first point not yet dropped is kept, and drops every
    later point within ``radius`` of it.  Points come in ascending first
    coordinate, and a later point more than 2 * radius above in it is more
    than radius away even rounded, so it is not measured.

    One stacked pass measures the pairs of the windows of at most
    ``_DEDUP_PAIRS`` later points.  A point with no neighbour within
    ``radius`` there, and in no larger window, is kept and drops nothing, so
    the greedy loop visits only the kept points of the clusters.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return []
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    n = len(pts)
    ends = np.searchsorted(pts[:, 0], pts[:, 0] + 2 * radius, side="right")
    counts = np.maximum(ends - np.arange(n) - 1, 0)
    # a larger window goes to the loop whole, with its point
    wide = counts > _DEDUP_PAIRS
    c = np.where(wide, 0, counts)
    a = np.repeat(np.arange(n), c)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(c) - c, c)
    near = ~(np.linalg.norm(pts[b] - pts[a], axis=1) > radius)
    cover = (np.bincount(np.flatnonzero(wide) + 1, minlength=n + 1)
             - np.bincount(ends[wide], minlength=n + 1))
    clustered = wide | (np.cumsum(cover[:n]) > 0)
    clustered[a[near]] = clustered[b[near]] = True
    kept = ~clustered
    dropped = np.append(kept, False)        # the last entry stops the scan
    j = int(np.argmin(dropped))
    while j < n:
        kept[j] = True
        near = slice(j + 1, ends[j])
        dropped[near] |= ~(np.linalg.norm(pts[near] - pts[j], axis=1) > radius)
        j += 1 + int(np.argmin(dropped[j + 1:]))
    return order[kept].tolist()


def census(starts, out: NewtonResult, N, radius, hits=True):
    """The distinct roots and the deterministic counters of one multistart.

    ``out`` is the batched Newton over the starts that projected, from
    ``starts`` seeds.  Its converged lanes are deduplicated by their base
    points, the first N coordinates (``dedup_points``); the kept roots come
    back in dedup order.  With ``hits``, a converged lane hits the first
    kept root within ``radius``, and hits are listed largest first.
    ``stops`` counts the lanes by the reason they stopped.
    """
    found = out.z[out.converged]
    xs = found[:, :N]
    kept = dedup_points(xs, radius)
    counters = {
        "starts": int(starts),
        "projected": int(len(out.converged)),
        "converged": len(found),
        "iterations": int(np.sum(out.iterations)),
        "distinct": len(kept),
    }
    if hits:
        owner = np.full(len(xs), -1)
        for r, j in enumerate(kept):
            owner[(owner < 0) & (np.linalg.norm(xs - xs[j], axis=1) <= radius)] = r
        counters["hits"] = sorted(map(int, np.bincount(owner[owner >= 0],
                                                       minlength=len(kept))), reverse=True)
    counters["stops"] = dict(zip(STOP_REASONS, map(int, np.bincount(
        out.stop, minlength=len(STOP_REASONS)))))
    return found[kept], counters


def sign_counts(vals, zero_tol_factor=1e-6):
    """Counts of (positive, negative, near-zero) eigenvalues in spectra
    ``vals`` along the last axis, as int arrays over the leading axes.  An
    eigenvalue counts as zero when |lambda| < zero_tol_factor *
    max(|lambda|_max, 1), |lambda|_max being its own spectrum's."""
    scale = np.maximum(np.max(np.abs(vals), axis=-1, initial=0.0), 1.0)
    cut = zero_tol_factor * scale[..., None]
    return (np.sum(vals >= cut, axis=-1), np.sum(vals <= -cut, axis=-1),
            np.sum(np.abs(vals) < cut, axis=-1))


def eig_sign_counts(H, zero_tol_factor=1e-6):
    """``sign_counts`` of symmetric H, a matrix (three ints) or a stack of
    them (three int arrays), from one ``eigvalsh`` of its symmetric part."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    counts = sign_counts(np.linalg.eigvalsh(0.5 * (H + np.swapaxes(H, -1, -2))),
                         zero_tol_factor)
    if H.ndim == 2:
        return tuple(int(c) for c in counts)
    return counts
