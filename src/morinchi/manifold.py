"""Implicit manifolds M = {x in R^N : g(x) = 0} and their tangent geometry.

Manifolds are always presented by polynomial constraints, never by charts.
Tangent and normal frames are produced deterministically so point indices
and signs are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from ._numeric import newton_batch, sign_normalize

RANK_TOL = 1e-8


class ManifoldError(ValueError):
    """Manifold construction or validation failure."""


class RegularityError(ManifoldError):
    """Constraint Jacobian loses rank on (a projection to) the manifold."""


class ProjectionError(ManifoldError):
    """Gauss-Newton projection failed to reach the manifold."""


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal bases of T_pM (rows of ``tangent``) and its normal space.

    Frames of a stack of points carry a leading lane axis on every field.
    """

    point: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray

    def lane(self, i) -> "TangentFrame":
        return TangentFrame(self.point[i], self.tangent[i], self.normal[i])


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
                 chi_expected=None, compact=True, sample_halfwidth=1.5):
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
        self.chi_expected = chi_expected
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


def project_points(M: ImplicitManifold, X0, residual_tol=1e-12, max_iters=60):
    """Gauss-Newton projection of a stack of ambient points onto M, lane by lane.

    Returns the ``BatchResult``; rows that did not converge are left where
    the iteration stopped and are flagged in ``converged``.
    """

    def F(X):
        return M.g(X), M.jacobian(X)

    return newton_batch(F, X0, tol=residual_tol, max_iter=max_iters)


def project_to_manifold(M: ImplicitManifold, x0, residual_tol=1e-12, max_iters=60):
    """Gauss-Newton projection of an ambient point onto M."""
    out = project_points(M, np.asarray(x0, dtype=float)[None], residual_tol, max_iters)
    if not out.converged[0]:
        raise ProjectionError(f"projection stalled at residual {out.residual[0]:.3e}")
    return out.z[0]


def tangent_frame(M: ImplicitManifold, p) -> TangentFrame:
    """Deterministic orthonormal frames at a point satisfying the constraints.

    The tangent basis is the coordinate basis projected to ker Dg(p) and
    orthonormalized in fixed index order; the normal basis comes from the
    constraint gradients in declaration order.  One lane of ``tangent_frames``.
    """
    frame, failures = tangent_frames(M, p)
    if failures:
        raise failures[0]
    return frame.lane(0)


def _dot(a, b):
    """Lane-wise dot products of two (B, d) stacks, each summed as ``a[i] @ b[i]`` is."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def tangent_frames(M: ImplicitManifold, X):
    """``tangent_frame`` at a point (N,) or at each point of a stack (B, N).

    Returns the frames with a lane axis (B = 1 for a point; tangent (B, m, N),
    normal (B, c, N)) and a dict from lane to the first error ``tangent_frame``
    raises there.  A failing lane gets a placeholder frame so the other lanes
    can go on.
    """
    X = np.asarray(X, dtype=float)
    N, m = M.ambient_dim, M.intrinsic_dim
    residual = np.max(np.abs(M.g(X)), axis=-1).reshape(-1)
    J = M.jacobian(X).reshape(-1, N - m, N)
    X = X.reshape(-1, N)
    failures = {}

    def fail(lanes, error):
        for i in np.flatnonzero(lanes):
            failures.setdefault(int(i), error(int(i)))
        return lanes

    placeholder = np.eye(N - m, N)
    bad = fail(~(residual <= 1e-8), lambda i: ManifoldError(
        f"point off the manifold (residual {residual[i]:.3e})"))
    J = np.where(bad[:, None, None], placeholder, J)
    sv = np.linalg.svd(J, compute_uv=False)[:, -1]
    bad = fail(sv < RANK_TOL, lambda i: RegularityError(
        f"constraint Jacobian rank-deficient at {X[i]}"))
    J = np.where(bad[:, None, None], placeholder, J)

    with np.errstate(divide="ignore", invalid="ignore"):
        normal = np.empty_like(J)
        for r in range(N - m):
            v = J[:, r].copy()
            for q in normal[:, :r].transpose(1, 0, 2):
                v -= _dot(v, q)[:, None] * q
            norm = np.sqrt(_dot(v, v))
            fail(norm < RANK_TOL, lambda i: RegularityError(
                "constraint gradients numerically dependent"))
            normal[:, r] = v / norm[:, None]

        tangent = np.zeros((len(X), m, N))
        count = np.zeros(len(X), dtype=int)
        for i in range(N):
            if np.all(count == m):
                break
            v = np.zeros((len(X), N))
            v[:, i] = 1.0
            for q in normal.transpose(1, 0, 2):
                v -= _dot(v, q)[:, None] * q
            for j in range(int(count.max())):
                q = tangent[:, j]
                v = np.where((j < count)[:, None], v - _dot(v, q)[:, None] * q, v)
            norm = np.sqrt(_dot(v, v))
            take = np.flatnonzero((norm > 1e-6) & (count < m))
            tangent[take, count[take]] = v[take] / norm[take, None]
            count[take] += 1
    # the projections above do not depend on the signs of the basis vectors
    tangent = sign_normalize(tangent)
    fail(count != m, lambda i: RegularityError("could not complete a tangent basis"))
    test = np.max(np.abs(J @ np.swapaxes(tangent, -1, -2)), axis=(-2, -1))
    fail(test > 1e-6, lambda i: RegularityError(
        "tangent basis fails the constraint Jacobian test"))
    return TangentFrame(point=X, tangent=tangent, normal=normal), failures


def validate_regularity(M: ImplicitManifold, count: int, seed: int,
                        rank_tol=1e-4) -> RegularityReport:
    """Project seeded random points onto M and check full constraint rank there.

    The audit threshold is coarse on purpose: a double root passes the solver
    residual test while its gradient scales like sqrt(residual), so a tight
    threshold would miss it.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng([int(seed), 11])
    starts = [np.asarray(s, dtype=float) for s in M.sample_seeds]
    w = M.sample_halfwidth
    while len(starts) < count:
        starts.append(rng.uniform(-w, w, M.ambient_dim))
    proj = project_points(M, np.array(starts[: max(count, len(M.sample_seeds))]))
    points = proj.z[proj.converged]
    if len(points) == 0:
        raise RegularityError("no random point could be projected onto the manifold")
    sv = np.linalg.svd(M.jacobian(points), compute_uv=False)[:, -1]
    failures = [tuple(p) for p in points[sv < rank_tol]]
    return RegularityReport(
        ok=not failures,
        checked=len(points),
        min_singular_value=float(sv.min()),
        failures=tuple(failures),
    )


def standard_manifold(name: str, **params) -> ImplicitManifold:
    """Library of scenario manifolds with known Euler characteristic metadata.

    Names: ``sphere`` (param m), ``torus``, ``product_of_spheres`` (params a, b),
    and ``custom`` (ambient_dim, constraints as prefix strings, intrinsic_dim,
    optional chi_expected / compact / sample_seeds).
    """
    if name == "sphere":
        m = int(params["m"])
        n_amb = m + 1
        g = sum((ex.Expr.variable(i, n_amb) ** 2 for i in range(n_amb)),
                ex.Expr.constant(-1, n_amb))
        return ImplicitManifold(n_amb, [g], m, chi_expected=1 + (-1) ** m,
                                sample_seeds=[(1.0,) + (0.0,) * m])
    if name == "torus":
        # (x^2 + y^2 + z^2 + 3)^2 - 16 (x^2 + y^2) = 0, the R=2, r=1 torus
        v = [ex.Expr.variable(i, 3) for i in range(3)]
        rad = v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + 3
        g = rad**2 - 16 * (v[0] ** 2 + v[1] ** 2)
        return ImplicitManifold(3, [g], 2, chi_expected=0, sample_halfwidth=3.5,
                                sample_seeds=[(2.0, 0.0, 1.0), (1.0, 0.0, 0.0)])
    if name == "product_of_spheres":
        a, b = int(params["a"]), int(params["b"])
        n_amb = a + b + 2
        g1 = sum((ex.Expr.variable(i, n_amb) ** 2 for i in range(a + 1)),
                 ex.Expr.constant(-1, n_amb))
        g2 = sum((ex.Expr.variable(i, n_amb) ** 2 for i in range(a + 1, n_amb)),
                 ex.Expr.constant(-1, n_amb))
        chi = (1 + (-1) ** a) * (1 + (-1) ** b)
        seed_pt = (1.0,) + (0.0,) * a + (1.0,) + (0.0,) * b
        return ImplicitManifold(n_amb, [g1, g2], a + b, chi_expected=chi,
                                sample_seeds=[seed_pt])
    if name == "custom":
        constraints = [ex.parse_prefix(s, int(params["ambient_dim"]))
                       for s in params["constraints"]]
        return ImplicitManifold(
            int(params["ambient_dim"]),
            constraints,
            int(params["intrinsic_dim"]),
            sample_seeds=params.get("sample_seeds", ()),
            chi_expected=params.get("chi_expected"),
            compact=params.get("compact", True),
            sample_halfwidth=params.get("sample_halfwidth", 1.5),
        )
    raise ManifoldError(f"unknown manifold {name!r}")
