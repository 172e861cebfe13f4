"""Implicit manifolds M = {x in R^N : g(x) = 0} and their tangent geometry.

Manifolds are always presented by polynomial constraints, never by charts.
The tangent space T_xM = ker Dg(x) is given by an orthonormal basis.  Every
quantity built from it (the inertia of T W T^T, the projector T^T T, the
det and parity of K^T W K) is invariant under a change of orthonormal
basis, so any basis will do; the one here is deterministic, which keeps
reports byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from ._numeric import newton_batch, plain_point, sign_normalize

RANK_TOL = 1e-8


class ManifoldError(ValueError):
    """Manifold construction or validation failure."""


class RegularityError(ManifoldError):
    """Constraint Jacobian loses rank on (a projection to) the manifold."""


class ProjectionError(ManifoldError):
    """Gauss-Newton projection failed to reach the manifold."""


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    checked: int
    min_singular_value: float
    failures: tuple


class ImplicitManifold:
    """Compact manifold presented as the common zero set of polynomial constraints.

    Compactness itself is asserted by the scenario author (``compact``) and is
    only spot-checked by sampling; there is no decision procedure for it.
    """

    def __init__(self, ambient_dim, constraints, intrinsic_dim, sample_seeds=(),
                 compact=True, sample_halfwidth=1.5):
        constraints = tuple(c.with_nvars(ambient_dim) for c in constraints)
        if intrinsic_dim < 1:
            raise ManifoldError("intrinsic dimension must be at least 1")
        if ambient_dim <= intrinsic_dim:
            raise ManifoldError("ambient dimension must exceed intrinsic dimension")
        if len(constraints) != ambient_dim - intrinsic_dim:
            raise ManifoldError(
                f"{ambient_dim - intrinsic_dim} constraints expected, got {len(constraints)}"
            )
        self.ambient_dim = int(ambient_dim)
        self.intrinsic_dim = int(intrinsic_dim)
        self.constraints = constraints
        self.sample_seeds = tuple(tuple(float(c) for c in s) for s in sample_seeds)
        self.compact = bool(compact)
        self.sample_halfwidth = float(sample_halfwidth)
        self._jet = ex.Jet(constraints, ambient_dim)

    # numeric evaluators; each takes a point (N,) or a stack (B, N)
    def g(self, x):
        return self._jet(x)[0]

    def jacobian(self, x):
        return self._jet(x)[1]

    def residual(self, x):
        return float(np.max(np.abs(self.g(x)))) if self.constraints else 0.0

    def __repr__(self):
        return (f"ImplicitManifold(N={self.ambient_dim}, m={self.intrinsic_dim}, "
                f"constraints={[ex.to_prefix(c) for c in self.constraints]})")


def project_points(M: ImplicitManifold, X0):
    """Gauss-Newton projection of a stack of ambient points onto M, lane by
    lane, to a max-norm residual of 1e-12 within 60 iterations.

    Returns ``newton_batch``'s ``NewtonResult``; rows that did not converge
    are left where the iteration stopped and are flagged in ``converged``.
    """

    def F(X):
        return M.g(X), M.jacobian(X)

    return newton_batch(F, X0, tol=1e-12, max_iter=60)


def project_to_manifold(M: ImplicitManifold, x0):
    """Gauss-Newton projection of an ambient point onto M: one lane of
    ``project_points``."""
    out = project_points(M, np.asarray(x0, dtype=float)[None])
    if not out.converged[0]:
        raise ProjectionError(f"projection stalled at residual {out.residual[0]:.3e}")
    return out.z[0]


def tangent_frame(M: ImplicitManifold, p):
    """Orthonormal basis of T_pM, as the rows of an (m, N) array, at a point
    on M.  One lane of ``tangent_frames``; raises that lane's error."""
    tangent, failures = tangent_frames(M, p)
    if failures:
        raise failures[0]
    return tangent[0]


def tangent_frames(M: ImplicitManifold, X):
    """Tangent bases at a point (N,) or at each point of a stack (B, N).

    The basis is the trailing m right-singular vectors of Dg, sign-normalized:
    an orthonormal basis of ker Dg = T_xM.  Returns the bases with a lane
    axis, (B, m, N) with B = 1 for a point, and a dict from lane to the first
    error ``tangent_frame`` raises there.  A lane off M gets a placeholder
    Jacobian so the other lanes can go on.
    """
    X = np.asarray(X, dtype=float)
    N, m = M.ambient_dim, M.intrinsic_dim
    residual = np.max(np.abs(M.g(X)), axis=-1).reshape(-1)
    J = M.jacobian(X).reshape(-1, N - m, N)
    X = X.reshape(-1, N)
    J = np.where(~(residual <= 1e-8)[:, None, None], np.eye(N - m, N), J)
    _, s, vt = np.linalg.svd(J)
    failures = regularity_failures(X, residual, s[:, -1])
    tangent = sign_normalize(vt[:, N - m:])
    test = np.max(np.abs(J @ np.swapaxes(tangent, -1, -2)), axis=(-2, -1))
    for i in np.flatnonzero(test > 1e-6):
        failures.setdefault(int(i), RegularityError(
            "tangent basis fails the constraint Jacobian test"))
    return tangent, failures


def regularity_failures(X, residual, smallest):
    """A dict from each failing lane of a stack X (B, N) to its first error:
    ``ManifoldError`` where the max-norm constraint residual is above 1e-8,
    else ``RegularityError`` where ``smallest``, the smallest singular value
    of Dg, is below ``RANK_TOL``."""
    failures = {}
    for i in np.flatnonzero(~(residual <= 1e-8)):
        failures[int(i)] = ManifoldError(f"point off the manifold (residual {residual[i]:.3e})")
    for i in np.flatnonzero(smallest < RANK_TOL):
        failures.setdefault(int(i), RegularityError(
            f"constraint Jacobian rank-deficient at {plain_point(X[i])}"))
    return failures


def sample_starts(M: ImplicitManifold, count, key):
    """Ambient starts (max(count, number of sample seeds), N): the sample
    seeds, then uniform draws in the box of half-width ``sample_halfwidth``
    from the generator keyed by ``key``."""
    seeds = np.array(M.sample_seeds, dtype=float).reshape(-1, M.ambient_dim)
    w = M.sample_halfwidth
    draws = np.random.default_rng(key).uniform(
        -w, w, (max(0, count - len(seeds)), M.ambient_dim))
    return np.concatenate((seeds, draws))


def validate_regularity(M: ImplicitManifold, count: int, seed: int) -> RegularityReport:
    """Project seeded random points onto M and check full constraint rank there.

    A point fails when the smallest singular value of Dg is below 1e-4.  The
    audit threshold is coarse on purpose: a double root passes the solver
    residual test while its gradient scales like sqrt(residual), so a tight
    threshold would miss it.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    proj = project_points(M, sample_starts(M, count, [int(seed), 11]))
    points = proj.z[proj.converged]
    if len(points) == 0:
        raise RegularityError("no random point could be projected onto the manifold")
    sv = np.linalg.svd(M.jacobian(points), compute_uv=False)[:, -1]
    failures = [tuple(map(float, p)) for p in points[sv < 1e-4]]
    return RegularityReport(
        ok=not failures,
        checked=len(points),
        min_singular_value=float(sv.min()),
        failures=tuple(failures),
    )
