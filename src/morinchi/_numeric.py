"""Shared numerical routines: Newton solves, null spaces, deduplication."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# halvings of the Newton step before a start is given up
LINE_SEARCH_HALVINGS = 12

# Jacobian entries per call of a batched residual: a whole census of small
# systems fits in one call, while the stacked Jacobians, SVD factors and
# third-derivative tensors of the larger augmented systems stay within a few
# hundred kilobytes
BATCH_ENTRIES = 1 << 14


@dataclass
class NewtonResult:
    z: np.ndarray
    residual: float
    converged: bool
    iterations: int


@dataclass
class BatchResult:
    """Lane-wise outcome of ``newton_batch``: one row (or entry) per start."""

    z: np.ndarray               # (B, d)
    residual: np.ndarray        # (B,)
    converged: np.ndarray       # (B,) bool
    iterations: np.ndarray      # (B,) int


def vecmat(v, A):
    """v^T A over leading stack axes: (..., m) and (..., m, n) give (..., n)."""
    return (v[..., None, :] @ A)[..., 0, :]


def min_norm_solve(A, b):
    """Minimal-norm least-squares solution of A x = b over leading stack axes.

    Singular values at or below ``np.linalg.lstsq``'s default cutoff,
    eps * max(rows, cols) times the largest one, count as zero, so a stack
    gives what ``lstsq`` gives lane by lane.  A lane whose SVD does not
    converge gets NaN.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        u, s, vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        if A.ndim == 2:
            return np.full(A.shape[-1], np.nan)
        return np.stack([min_norm_solve(Ai, bi) for Ai, bi in zip(A, b)])
    large = s > np.finfo(float).eps * max(A.shape[-2:]) * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=large)
    return vecmat(vecmat(b, u) * inv, vt)


def batch_width(d):
    """Lanes per call for stacked work on d-dimensional systems.

    A lane carries about d**2 entries (its Jacobian, SVD factors and jets),
    so this many lanes keep a call within ``BATCH_ENTRIES``.
    """
    return max(1, BATCH_ENTRIES // max(1, d ** 2))


def newton_batch(F, Z0, tol=1e-12, max_iter=60):
    """Damped Newton on a stack of starts, lane by lane.

    ``F`` maps a (k, d) stack of iterates to stacked residuals (k, r) and
    Jacobians (k, r, d).  Every lane follows ``newton`` with damping: the
    minimal-norm step, up to twelve halvings until the max-norm residual
    decreases, and the same stopping rules (converged, non-finite step,
    failed line search, ``max_iter``).  Lanes only share the calls to ``F``,
    which see at most ``BATCH_ENTRIES // d**2`` of them at a time.
    """
    Z0 = np.array(Z0, dtype=float, ndmin=2)
    width = batch_width(Z0.shape[1])
    parts = [_newton_lanes(F, Z0[i:i + width], tol, max_iter)
             for i in range(0, max(len(Z0), 1), width)]
    return BatchResult(*(np.concatenate([getattr(p, f) for p in parts])
                         for f in ("z", "residual", "converged", "iterations")))


def _newton_lanes(F, Z, tol, max_iter):
    B = Z.shape[0]
    converged = np.zeros(B, dtype=bool)
    iterations = np.full(B, max_iter, dtype=int)
    if B == 0:
        return BatchResult(Z, np.zeros(0), converged, iterations)
    R, J = F(Z)
    R = np.array(R, dtype=float)
    J = np.array(J, dtype=float)
    norm = _max_abs(R)
    active = np.ones(B, dtype=bool)
    for it in range(1, max_iter + 1):
        done = active & (norm <= tol)
        converged[done] = True
        iterations[done] = it - 1
        active &= ~done
        lanes = np.flatnonzero(active)
        if lanes.size == 0:
            break
        steps = np.full((lanes.size, Z.shape[1]), np.nan)
        finite = (np.isfinite(R[lanes]).all(axis=1)
                  & np.isfinite(J[lanes]).all(axis=(1, 2)))
        steps[finite] = min_norm_solve(J[lanes[finite]], -R[lanes[finite]])
        good = np.isfinite(steps).all(axis=1)
        iterations[lanes[~good]] = it
        active[lanes[~good]] = False
        lanes, steps = lanes[good], steps[good]
        scale = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            if lanes.size == 0:
                break
            Z_try = Z[lanes] + scale * steps
            R_try, J_try = F(Z_try)
            norm_try = _max_abs(R_try)
            ok = np.isfinite(norm_try) & (norm_try < norm[lanes])
            took = lanes[ok]
            Z[took], R[took], J[took], norm[took] = Z_try[ok], R_try[ok], J_try[ok], norm_try[ok]
            lanes, steps = lanes[~ok], steps[~ok]
            scale *= 0.5
        iterations[lanes] = it
        active[lanes] = False
    converged[active] = norm[active] <= tol
    return BatchResult(Z, norm, converged, iterations)


def _max_abs(R):
    return np.max(np.abs(R), axis=1) if R.shape[1] else np.zeros(R.shape[0])


def newton(residual_fn, jacobian_fn, z0, tol=1e-12, max_iter=60):
    """Damped Newton iteration on a square or rectangular system via least squares.

    Rectangular systems are solved in the minimal-norm / least-squares sense,
    which keeps iterates near the starting sheet of a positive-dimensional
    solution set.  The step is halved up to ``LINE_SEARCH_HALVINGS`` times
    until the max-norm residual decreases.
    """
    z = np.asarray(z0, dtype=float).copy()
    res = np.asarray(residual_fn(z), dtype=float)
    norm = float(np.max(np.abs(res))) if res.size else 0.0
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return NewtonResult(z, norm, True, it - 1)
        J = np.asarray(jacobian_fn(z), dtype=float)
        try:
            step = np.linalg.lstsq(J, -res, rcond=None)[0]
        except np.linalg.LinAlgError:
            return NewtonResult(z, norm, False, it)
        if not np.all(np.isfinite(step)):
            return NewtonResult(z, norm, False, it)
        scale = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            z_try = z + scale * step
            res_try = np.asarray(residual_fn(z_try), dtype=float)
            norm_try = float(np.max(np.abs(res_try)))
            if np.isfinite(norm_try) and (norm_try < norm or norm <= tol):
                break
            scale *= 0.5
        else:
            return NewtonResult(z, norm, False, it)
        z, res, norm = z_try, res_try, norm_try
    return NewtonResult(z, norm, norm <= tol, max_iter)


def nullspace(A, rtol=1e-9):
    """Orthonormal basis (columns) of the null space of A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vt = np.linalg.svd(A)
    cutoff = rtol * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > max(cutoff, np.finfo(float).tiny)))
    return vt[rank:].T


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

    Returns indices into ``points`` of the retained representatives.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return []
    order = np.lexsort(pts.T[::-1])
    kept: list[int] = []
    for idx in order:
        if not kept or np.all(np.linalg.norm(pts[kept] - pts[idx], axis=1) > radius):
            kept.append(int(idx))
    return kept


def multistart_counters(starts, out: BatchResult, xs, kept, radius) -> dict:
    """Deterministic counters of one multistart solve.

    ``out`` is the batched Newton over the starts that projected, ``xs`` the
    base points of its converged lanes and ``kept`` their representatives
    from ``dedup_points``.  A converged lane hits the first representative
    within ``radius``; hits are listed largest first.
    """
    xs = np.asarray(xs, dtype=float)
    owner = np.full(len(xs), -1)
    for r, j in enumerate(kept):
        owner[(owner < 0) & (np.linalg.norm(xs - xs[j], axis=1) <= radius)] = r
    hits = np.bincount(owner[owner >= 0], minlength=len(kept))
    return {
        "starts": int(starts),
        "projected": int(len(out.converged)),
        "converged": int(np.sum(out.converged)),
        "iterations": int(np.sum(out.iterations)),
        "distinct": len(kept),
        "hits": sorted((int(h) for h in hits), reverse=True),
    }


def eig_sign_counts(H, zero_tol_factor=1e-6):
    """Counts of (positive, negative, near-zero) eigenvalues of symmetric H.

    An eigenvalue counts as zero when |lambda| < zero_tol_factor * max(|lambda|_max, 1).
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    vals = np.linalg.eigvalsh(0.5 * (H + H.T))
    scale = max(float(np.max(np.abs(vals))) if vals.size else 0.0, 1.0)
    cut = zero_tol_factor * scale
    n_zero = int(np.sum(np.abs(vals) < cut))
    n_plus = int(np.sum(vals >= cut))
    n_minus = int(np.sum(vals <= -cut))
    return n_plus, n_minus, n_zero


def fd_jacobian(fn, z, step=1e-7):
    """Central-difference Jacobian of a vector function."""
    z = np.asarray(z, dtype=float)
    f0 = np.asarray(fn(z), dtype=float)
    J = np.empty((len(f0), len(z)))
    for i in range(len(z)):
        e = np.zeros(len(z))
        e[i] = step
        J[:, i] = (np.asarray(fn(z + e), dtype=float) - np.asarray(fn(z - e), dtype=float)) / (2 * step)
    return J
