"""Singular stratification of f restricted to an implicit manifold.

A point is singular when some unit covector u annihilates the image of the
restricted differential; the solution set of the resulting Lagrange-type
system is the depth-1 closure.  Depth and the plus/minus split of odd-depth
strata are read off the kernel Hessian of <u, f> corrected by the constraint
multipliers.  For two-dimensional targets the depth-1 set is a union of
closed curves, traced by pseudo-arclength continuation; cusps are bracketed
by the sign of the kernel-Hessian determinant and refined by bisection.
The continuation routines (``land``, ``correct_in_plane``,
``curve_tangent``, ``bisect_on_curve``) also serve the Morse walk along the
fold curves in ``morse``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expr as ex
from ._numeric import (
    batch_width,
    dedup_points,
    eig_sign_counts,
    min_norm_solve,
    multistart_counters,
    newton,
    newton_batch,
    nullspace,
    sign_normalize,
    vecmat,
)
from .manifold import (  # noqa: F401  (project_to_manifold stays bound here for perfbench)
    RANK_TOL,
    ImplicitManifold,
    ManifoldError,
    RegularityError,
    project_points,
    project_to_manifold,
    tangent_frames,
    validate_regularity,
)


class ScenarioFormatError(ValueError):
    """Scenario file fails parsing or the theorem hypotheses."""


class MorinnessError(RuntimeError):
    """The map is not Morin at some located point (or the stratification failed)."""


class StratificationError(RuntimeError):
    """Structural failure while computing the singular set."""


@dataclass(frozen=True)
class Tolerances:
    residual: float = 1e-12
    dedup_radius: float = 1e-6
    eigen_zero: float = 1e-6
    correctness: float = 1e-8
    curve_step: float = 1e-2
    depth_slope: float = 1e-4
    max_resamples: int = 16
    multistart_density: int = 200

    @staticmethod
    def from_dict(d: dict) -> "Tolerances":
        base = Tolerances()
        unknown = set(d) - set(base.__dataclass_fields__)
        if unknown:
            raise ScenarioFormatError(f"unknown tolerance keys {sorted(unknown)}")
        kwargs = {}
        for name in base.__dataclass_fields__:
            if name not in d:
                continue
            try:
                value = type(getattr(base, name))(d[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioFormatError(f"tolerance {name!r}: {exc}") from exc
            if not math.isfinite(value):
                raise ScenarioFormatError(f"tolerance {name!r} must be finite, got {value}")
            # every tolerance is a threshold, radius, step or count that is
            # meaningless at zero or below
            if value <= 0:
                raise ScenarioFormatError(f"tolerance {name!r} must be positive, got {value}")
            kwargs[name] = value
        return Tolerances(**kwargs)

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class MorinScenario:
    """An implicit manifold together with map components and reproducibility data."""

    def __init__(self, name, manifold: ImplicitManifold, target_dim, components,
                 seed=0, tolerances: Tolerances | None = None, chi_expected=None):
        n = int(target_dim)
        m = manifold.intrinsic_dim
        if n < 1:
            raise ScenarioFormatError("target dimension must be at least 1")
        if m <= n:
            raise ScenarioFormatError(f"need dim M > target dimension, got m={m}, n={n}")
        if (m - n) % 2 == 0:
            raise ScenarioFormatError(f"hypothesis violated: m - n = {m - n} is even")
        if len(components) != n:
            raise ScenarioFormatError(f"{n} map components expected, got {len(components)}")
        self.name = str(name)
        self.manifold = manifold
        self.target_dim = n
        self.components = tuple(c.with_nvars(manifold.ambient_dim) for c in components)
        self.seed = int(seed)
        self.tolerances = tolerances or Tolerances()
        self.chi_expected = chi_expected if chi_expected is None else int(chi_expected)

        self._jet = None            # built on the first use of ``jet``
        self._third = None          # built on the first third_tensors call

    # shorthand dimensions
    @property
    def N(self):
        return self.manifold.ambient_dim

    @property
    def m(self):
        return self.manifold.intrinsic_dim

    @property
    def n(self):
        return self.target_dim

    @property
    def c(self):
        return self.N - self.m

    @property
    def jet(self) -> ex.Jet:
        """One jet of (f_1..f_n, g_1..g_c), built on first use.

        A call at a point (N,) or a stack (B, N) gives values, gradients and
        Hessians of the map and the constraints together; the evaluators
        below slice it.  The manifold keeps its own constraint jet for
        projections and frames.
        """
        if self._jet is None:
            self._jet = ex.Jet(list(self.components) + list(self.manifold.constraints),
                               self.N)
        return self._jet

    # numeric evaluators; each takes a point (N,) or a stack (B, N)
    def f(self, x):
        return self.jet(x)[0][..., :self.n]

    def Df(self, x):
        return self.jet(x)[1][..., :self.n, :]

    def Hf(self, x):
        return self.jet(x)[2][..., :self.n, :, :]

    def lagrangian_hessian(self, x, u, mu):
        """Ambient Hessian of <u, f> - <mu, g> at x (or at each point of a stack)."""
        H, n = self.jet(x)[2], self.n
        W = np.einsum("...l,...lij->...ij", np.asarray(u, dtype=float), H[..., :n, :, :])
        if self.c:
            W = W - np.einsum("...k,...kij->...ij", np.asarray(mu, dtype=float),
                              H[..., n:, :, :])
        return W

    def third_tensors(self, x):
        """Symmetric third-derivative tensors of (f_1..f_n, g_1..g_c) at x.

        ``x`` is a point or a stack; the evaluator is built on first use, so
        scenarios that never need third derivatives never differentiate
        three times.
        """
        if self._third is None:
            self._third = ex.ThirdJet(
                list(self.components) + list(self.manifold.constraints), self.N)
        T = self._third(x)
        return T[..., :self.n, :, :, :], T[..., self.n:, :, :, :]

    def __repr__(self):
        comps = [ex.to_prefix(c) for c in self.components]
        return f"MorinScenario({self.name!r}, m={self.m}, n={self.n}, f={comps})"


def load_scenario(source) -> MorinScenario:
    """Build a scenario from a JSON file path or an already-parsed dict."""
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioFormatError(f"cannot read scenario: {exc}") from exc
        default_name = Path(source).stem
    else:
        data = dict(source)
        default_name = "scenario"
    try:
        N = int(data["ambient_dim"])
        m = int(data["intrinsic_dim"])
        constraints = [ex.parse_prefix(s, N) for s in data["constraints"]]
        components = [ex.parse_prefix(s, N) for s in data["components"]]
        n = int(data["target_dim"])
        seed = int(data.get("seed", 0))
        chi = data.get("chi_expected")
        chi = None if chi is None else int(chi)
        halfwidth = float(data.get("sample_halfwidth", 1.5))
        sample_seeds = [tuple(float(c) for c in s) for s in data.get("sample_seeds", ())]
    except (KeyError, TypeError, ValueError, ex.ExprError) as exc:
        raise ScenarioFormatError(f"bad scenario fields: {exc}") from exc
    compact = data.get("compact", True)
    if not isinstance(compact, bool):
        raise ScenarioFormatError(f"compact must be true or false, got {compact!r}")
    if any(len(s) != N for s in sample_seeds):
        raise ScenarioFormatError(f"every sample seed needs ambient_dim = {N} coordinates")
    if not (math.isfinite(halfwidth) and halfwidth > 0):
        raise ScenarioFormatError(f"sample_halfwidth must be finite and positive, got {halfwidth}")
    try:
        manifold = ImplicitManifold(N, constraints, m, sample_seeds=sample_seeds,
                                    chi_expected=chi, compact=compact,
                                    sample_halfwidth=halfwidth)
    except ManifoldError as exc:
        raise ScenarioFormatError(str(exc)) from exc
    return MorinScenario(
        name=data.get("name", default_name),
        manifold=manifold,
        target_dim=n,
        components=components,
        seed=seed,
        tolerances=Tolerances.from_dict(data.get("tolerances", {})),
        chi_expected=chi,
    )


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticSignature:
    """Eigenvalue sign counts of the kernel Hessian, and the index parity."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def lambda_parity(self) -> str:
        return "even" if self.n_minus % 2 == 0 else "odd"


@dataclass
class StratumPoint:
    x: np.ndarray
    depth: int
    cokernel: np.ndarray
    multiplier: np.ndarray
    kernel_basis: np.ndarray            # columns span ker d(f|M)(x)
    signature: QuadraticSignature | None = None
    degenerate_direction: np.ndarray | None = None
    sign: str = "unsigned"              # plus | minus | unsigned
    residuals: dict = field(default_factory=dict)
    depth_verified: bool = True
    eig_slope: float | None = None


# -- the singular system ------------------------------------------------------


class SingularSystem:
    """The system {g = 0, Df^T u - Dg^T mu = 0, |u|^2 = 1} in z = (x, u, mu).

    Its solution set projects onto the depth-1 closure; the expected solution
    dimension is n - 1.  A fixed ``cokernel`` gives the reduced chart in
    z = (x, mu), without the normalization: with cokernel a it is the
    square system of the critical points of <a, f> on M.  For n = 1 the
    reduced chart with u = (1,) is the default, since the unit 0-sphere is
    the discrete set {+1, -1} and the two points give identical
    stratification data.
    """

    def __init__(self, scenario: MorinScenario, cokernel=None):
        self.S = scenario
        if cokernel is None and scenario.n == 1:
            cokernel = (1.0,)
        self.cokernel = None if cokernel is None else np.asarray(cokernel, dtype=float)
        self.reduced = self.cokernel is not None
        N, n, c = scenario.N, scenario.n, scenario.c
        self.dim_z = N + c if self.reduced else N + n + c
        self.n_eqs = c + N if self.reduced else c + N + 1
        self.solution_dim = n - 1
        self._memo = (None, None, None)

    # pack, unpack, evaluate, residual and jacobian take one point or a stack
    # of them; a fixed cokernel comes out of unpack unstacked and broadcasts

    def pack(self, x, u, mu):
        if self.reduced:
            return np.concatenate([x, mu], axis=-1)
        return np.concatenate([x, u, mu], axis=-1)

    def unpack(self, z):
        N, n = self.S.N, self.S.n
        z = np.asarray(z, dtype=float)
        if self.reduced:
            return z[..., :N], self.cokernel, z[..., N:]
        return z[..., :N], z[..., N:N + n], z[..., N + n:]

    def evaluate(self, z):
        """(residual, Jacobian) at z from one joint jet of (f, g).

        The last evaluation is memoized, keyed by the bytes and the shape of
        z, so a solver's residual and Jacobian at one iterate cost one jet
        call; the memoized arrays are read-only.
        """
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        memo = self._memo          # single read keeps the triple consistent
        if key == memo[0] and z.shape == memo[1]:
            return memo[2]
        S = self.S
        N, n, c = S.N, S.n, S.c
        x, u, mu = self.unpack(z)
        g, D, _ = S.jet(x)
        Df, Dg = D[..., :n, :], D[..., n:, :]
        parts = [g[..., n:], vecmat(u, Df) - vecmat(mu, Dg)]
        if not self.reduced:
            parts.append((u[..., None, :] @ u[..., :, None])[..., 0] - 1.0)
        R = np.concatenate(parts, axis=-1)
        J = np.zeros(x.shape[:-1] + (self.n_eqs, self.dim_z))
        J[..., :c, :N] = Dg
        J[..., c:c + N, :N] = S.lagrangian_hessian(x, u, mu)
        J[..., c:c + N, self.dim_z - c:] = -np.swapaxes(Dg, -1, -2)
        if not self.reduced:
            J[..., c:c + N, N:N + n] = np.swapaxes(Df, -1, -2)
            J[..., c + N, N:N + n] = 2 * u
        R.flags.writeable = J.flags.writeable = False
        self._memo = (key, z.shape, (R, J))
        return R, J

    def residual(self, z):
        return self.evaluate(z)[0]

    def jacobian(self, z):
        return self.evaluate(z)[1]


# -- pointwise stratum data ---------------------------------------------------


def _kernel_data(S: MorinScenario, x):
    """Orthonormal ambient kernel basis of d(f|M) at a corank-1 point.

    ``x`` is a point (N,) or a stack (B, N); a stack gives stacked bases
    (B, N, m - n + 1).  Every check runs lane by lane, and the error raised
    is the first failing lane's, as a loop over the points would raise it.
    """
    K, failures = _kernel_lanes(S, x)
    if failures:
        raise failures[min(failures)]
    return K[0] if np.ndim(x) == 1 else K


def _kernel_lanes(S: MorinScenario, x):
    """Kernel bases with a lane axis, and the error of each failing lane
    (a dict from lane to the first error ``_kernel_data`` reports there)."""
    frame, failures = tangent_frames(S.manifold, x)
    T = frame.tangent                        # (B, m, N)
    A = S.Df(x).reshape(-1, S.n, S.N) @ np.swapaxes(T, -1, -2)   # differential in the frame
    A[list(failures)] = 0.0                  # placeholder lanes, already failed
    svals = np.linalg.svd(A, compute_uv=False)
    scale = np.maximum(svals[:, 0], 1.0)
    corank = np.sum(svals < 1e-7 * scale[:, None], axis=1)
    for i in np.flatnonzero(corank == 0):
        failures.setdefault(int(i), StratificationError(
            "point is not singular (full-rank differential)"))
    for i in np.flatnonzero(corank > 1):
        failures.setdefault(int(i), MorinnessError(
            f"corank {corank[i]} > 1 at {frame.point[i]}: map is not Morin there"))
    # kernel in frame coordinates, then back to ambient; with full_matrices the
    # trailing right-singular vectors span the null space of the rank-(n-1) map
    _, _, vt = np.linalg.svd(A, full_matrices=True)
    K = np.swapaxes(T, -1, -2) @ np.swapaxes(vt[:, S.n - 1:], -1, -2)
    # deterministic column signs
    K = np.swapaxes(sign_normalize(np.swapaxes(K, -1, -2)), -1, -2)
    return K, failures


def _kernel_form(S: MorinScenario, x, u, mu, K=None):
    """The symmetrized kernel Hessian K^T W K of <u, f> - <mu, g>, W its
    ambient Hessian, at a point or at each point of a stack.  ``K`` defaults
    to the kernel basis at x."""
    if K is None:
        K = _kernel_data(S, x)
    HK = np.swapaxes(K, -1, -2) @ S.lagrangian_hessian(x, u, mu) @ K
    return 0.5 * (HK + np.swapaxes(HK, -1, -2))


def kernel_hessian(S: MorinScenario, p: StratumPoint) -> QuadraticSignature:
    """Sign counts of the kernel Hessian of <u, f> - <mu, g> at p.

    Rejects the scenario when more than one eigenvalue is numerically zero,
    since a corank-1 chain admits at most one degenerate kernel direction.
    """
    HK = _kernel_form(S, p.x, p.cokernel, p.multiplier, p.kernel_basis)
    n_plus, n_minus, n_zero = eig_sign_counts(HK, S.tolerances.eigen_zero)
    sig = QuadraticSignature(n_plus, n_minus, n_zero)
    if n_zero > 1:
        raise MorinnessError(
            f"kernel Hessian has {n_zero} near-zero eigenvalues at {p.x}: not Morin"
        )
    p.signature = sig
    if n_zero == 1:
        vals, vecs = np.linalg.eigh(HK)
        j = int(np.argmin(np.abs(vals)))
        p.degenerate_direction = sign_normalize(p.kernel_basis @ vecs[:, j])
    return sig


def sign_split(S: MorinScenario, p: StratumPoint) -> str:
    """Plus/minus split of odd-depth points by kernel-index parity.

    Well defined because m - n + 1 is even: flipping u complements the
    nondegenerate eigenvalue signs, which preserves the parity of the
    negative count.
    """
    if p.depth % 2 == 0:
        raise StratificationError("sign split applies to odd depths only")
    if p.signature is None:
        kernel_hessian(S, p)
    p.sign = "plus" if p.signature.n_minus % 2 == 0 else "minus"
    return p.sign


# -- solving ------------------------------------------------------------------


def _multistart_seeds(S: MorinScenario, count, tag):
    rng = np.random.default_rng([S.seed, 23, tag])
    pts = [np.asarray(s, dtype=float) for s in S.manifold.sample_seeds]
    w = S.manifold.sample_halfwidth
    while len(pts) < count:
        pts.append(rng.uniform(-w, w, S.N))
    return pts


def _initial_guesses(S: MorinScenario, system: SingularSystem, X0):
    """Project a stack of starts to M and estimate (u, mu) at each.

    u is the smallest left singular vector of Df restricted to the tangent
    space, sign-normalized; it does not depend on the tangent basis, so the
    basis is the one the SVD of Dg gives.  Starts whose projection fails, or
    that land where Dg is rank-deficient (where ``tangent_frame`` refuses),
    are dropped.
    """
    proj = project_points(S.manifold, X0)
    x = proj.z[proj.converged]
    D = S.jet(x)[1]
    _, s, vt = np.linalg.svd(D[:, S.n:])
    regular = s[:, -1] >= RANK_TOL
    x, D, tangent = x[regular], D[regular], vt[regular, S.c:]
    Df, Dg = D[:, :S.n], D[:, S.n:]
    U = np.linalg.svd(Df @ np.swapaxes(tangent, -1, -2))[0]
    u0 = sign_normalize(U[:, :, S.n - 1])
    mu0 = min_norm_solve(np.swapaxes(Dg, -1, -2), vecmat(u0, Df))
    return system.pack(x, u0, mu0)


def solve_stratum1(S: MorinScenario, density=None, stats=None) -> list[StratumPoint]:
    """Multistart Newton on the singular system, deduplicated by base point.

    All starts run as one lane-wise batched Newton.  Starts that fail to
    project or to converge are dropped; ``stats``, a dict when given,
    receives the counters of the solve (starts, projected, converged,
    iterations, distinct roots, hits per root).  An empty result on a
    compact manifold is an error: any map from a compact manifold with
    m > n must have singular points.
    """
    system = SingularSystem(S)
    tol = S.tolerances
    count = (density or tol.multistart_density) * S.n
    X0 = np.array(_multistart_seeds(S, count, tag=1))
    out = newton_batch(system.evaluate, _initial_guesses(S, system, X0),
                       tol=tol.residual, max_iter=30)
    solutions = out.z[out.converged]
    xs = system.unpack(solutions)[0]
    kept = dedup_points(xs, tol.dedup_radius)
    if stats is not None:
        stats.update(multistart_counters(len(X0), out, xs, kept, tol.dedup_radius))
    points = _points_from_solutions(S, system, solutions, kept)
    if not points and S.manifold.compact:
        raise StratificationError(
            "no singular points found on a compact manifold with m > n; "
            "the singular set cannot be empty"
        )
    return points


def _points_from_solutions(S, system, solutions, kept) -> list[StratumPoint]:
    """Stratum points at the kept solutions, in order; a point whose kernel
    data fails as a non-singular or irregular point is skipped.

    The kernel bases come from one stacked call (``batch_width`` lanes at a
    time); every other error raises at its point, as in a loop.
    """
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
        points.append(stratum_point(S, x, u, mu, system, K[j % width]))
    points.sort(key=lambda p: tuple(np.round(p.x, 9)))
    return points


def stratum_point(S, x, u, mu, system=None, K=None) -> StratumPoint:
    """Depth-1 stratum point at a solution (x, u, mu) of the singular system.

    (u, mu) is flipped as a pair so that the first cokernel entry above
    1e-12 in magnitude is positive: the stationarity equations are linear in
    the pair, so only a joint flip preserves them (and the Lagrangian Hessian
    built from them).  ``K``, when given, is the kernel basis at x.
    """
    u, mu = np.asarray(u, dtype=float), np.asarray(mu, dtype=float)
    lead = u[np.abs(u) > 1e-12]
    if lead.size and lead[0] < 0:
        u, mu = -u, -mu
    system = system or SingularSystem(S)
    res = float(np.max(np.abs(system.residual(system.pack(x, u, mu)))))
    if K is None:
        K = _kernel_data(S, x)
    p = StratumPoint(
        x=np.asarray(x, dtype=float),
        depth=1,
        cokernel=u,
        multiplier=mu,
        kernel_basis=K,
        residuals={"system": res},
    )
    kernel_hessian(S, p)
    if p.signature.n_zero == 0:
        # a nondegenerate kernel form already certifies depth 1
        sign_split(S, p)
    return p


# -- continuation on the solution curve (n = 2) ---------------------------------
#
# A predictor-corrector layout after Allgower & Georg, Introduction to
# Numerical Continuation Methods (SIAM 2003): a step along the tangent, then
# Newton back to the curve inside the plane normal to it (the trace starts
# that Newton from a second-order predictor).  The trace below and the Morse
# walk along the fold curves in ``morse`` share these routines.


def land(system, z):
    """Newton from z onto the solution set of ``system``."""
    return newton(system.residual, system.jacobian, z,
                  tol=system.S.tolerances.residual, max_iter=60)


def correct_in_plane(system, z_start, anchor, t):
    """Newton from z_start onto the solution set cut by the plane through
    ``anchor`` normal to t.  ``anchor`` None means z_start itself: the
    corrector of a predictor step along t."""
    anchor = z_start if anchor is None else anchor

    def res(w):
        return np.concatenate([system.residual(w), [t @ (w - anchor)]])

    def jac(w):
        return np.vstack([system.jacobian(w), t])

    return newton(res, jac, np.asarray(z_start, dtype=float),
                  tol=system.S.tolerances.residual, max_iter=40)


def curve_tangent(system, z, prev=None):
    """Unit tangent of the solution curve at z, oriented along ``prev`` when
    given and sign-normalized otherwise; a nullity other than 1 is rejected."""
    ns = nullspace(system.jacobian(z), rtol=1e-8)
    if ns.shape[1] != 1:
        raise MorinnessError(
            f"singular-set dimension audit failed: nullity {ns.shape[1]} != 1 "
            f"(solution variety is not a smooth curve here)"
        )
    t = ns[:, 0]
    if prev is not None and t @ prev < 0:
        t = -t
    return sign_normalize(t) if prev is None else t


def bisect_on_curve(system, za, zb, fa, value, gap):
    """Bisect a sign change of a scalar along the curve between za and zb.

    Every midpoint is landed on the curve and ``value(z, chord)`` is
    evaluated there, ``chord`` being the current bracket zb - za; ``fa`` is
    the value at za.  Stops at a landed midpoint whose value is exactly zero
    or whose bracket is shorter than ``gap``, and returns the bracket
    midpoint after 60 halvings.  Returns (z, number of midpoints landed).
    """
    for steps in range(1, 61):
        mid = land(system, 0.5 * (za + zb))
        if not mid.converged:
            raise StratificationError("bisection lost the curve")
        fm = value(mid.z, zb - za)
        if fm == 0.0 or np.linalg.norm(zb - za) < gap:
            return mid.z, steps
        if fa * fm < 0:
            zb = mid.z
        else:
            za, fa = mid.z, fm
    return 0.5 * (za + zb), steps


# -- depth classification -------------------------------------------------------


def _near_zero_eig(S, x, u, mu):
    """The smallest-magnitude eigenvalue of the kernel Hessian (signed)."""
    vals = np.linalg.eigvalsh(_kernel_form(S, x, u, mu))
    return float(vals[np.argmin(np.abs(vals))])


def degenerate_eigenvalue_slope(S: MorinScenario, p: StratumPoint):
    """Arc-length slope and curvature of the flattening kernel eigenvalue at p.

    Moving along the depth-1 curve in the direction of the degenerate kernel
    vector, the near-zero eigenvalue crosses zero; its slope is the intrinsic
    analog of the leading higher-order coefficient of the local normal form
    (6 for the standard depth-2 model), so a simple transversal crossing
    certifies depth 2.  The second-order variation separates deeper points
    from outright classification failures.
    """
    if p.degenerate_direction is None:
        raise StratificationError("no degenerate direction at this point")
    system = SingularSystem(S)
    z = system.pack(p.x, p.cokernel, p.multiplier)
    t = curve_tangent(system, z)
    # orient the curve tangent along the degenerate kernel direction
    x_dir = t[:S.N]
    align = float(x_dir @ p.degenerate_direction)
    if abs(align) < 1e-3 * np.linalg.norm(x_dir):
        raise MorinnessError(
            "degenerate kernel direction is not tangent to the singular curve"
        )
    if align < 0:
        t = -t
    delta = S.tolerances.curve_step / 4
    vals = []
    for s in (-delta, 0.0, delta):
        if s == 0.0:
            vals.append(_near_zero_eig(S, p.x, p.cokernel, p.multiplier))
            continue
        out = correct_in_plane(system, z + s * t, None, t)
        if not out.converged:
            raise StratificationError("could not sample the curve near the point")
        xx, uu, mm = system.unpack(out.z)
        if uu @ p.cokernel < 0:
            uu, mm = -uu, -mm
        vals.append(_near_zero_eig(S, xx, uu, mm))
    # measure per unit arc of the base curve in x-space, not of the lifted
    # curve in (x, u, mu)-space, matching the chart normal-form coefficient
    x_speed = float(np.linalg.norm(t[:S.N]))
    slope = (vals[2] - vals[0]) / (2 * delta * x_speed)
    curvature = (vals[2] - 2 * vals[1] + vals[0]) / (delta * x_speed) ** 2
    return slope, curvature


def classify_depth(S: MorinScenario, p: StratumPoint) -> int:
    """Depth of a located singular point.

    Depth 1 when the kernel Hessian is nondegenerate.  With exactly one flat
    direction, a transversal zero crossing of that eigenvalue along the
    singular curve certifies depth 2.  A vanishing slope with a nonzero
    second-order variation marks depth 3 and up, reported with
    depth_verified=False since those numerics are not certified here; when
    every tested order vanishes the classification fails with the measured
    values.
    """
    if p.signature is None:
        kernel_hessian(S, p)
    if p.signature.n_zero == 0:
        p.depth = 1
        return 1
    if S.n == 1:
        raise MorinnessError(
            "degenerate kernel Hessian with a 1-dimensional target: not Morin"
        )
    slope, curvature = degenerate_eigenvalue_slope(S, p)
    p.eig_slope = float(slope)
    thr = S.tolerances.depth_slope
    if abs(slope) > thr:
        p.depth = 2
        p.depth_verified = True
        return 2
    if abs(curvature) > thr:
        p.depth = 3
        p.depth_verified = False
        return 3
    raise StratificationError(
        f"depth classification failed at {np.round(p.x, 6)}: eigenvalue slope "
        f"{slope:.3e} and curvature {curvature:.3e} both below {thr:.1e}"
    )


# -- curve tracing (n = 2) ------------------------------------------------------


@dataclass
class Arc:
    sign: str


@dataclass
class FoldCurve:
    nodes: np.ndarray               # (K, dim_z) ordered along the curve
    closed: bool
    closure_error: float
    det_values: np.ndarray          # det of kernel Hessian per node
    parities: np.ndarray            # negative-eigenvalue parity per node (0/1)
    tangents: np.ndarray            # (K, dim_z) unit tangents, one orientation
    cusps: list = field(default_factory=list)       # StratumPoint, depth 2
    cusp_positions: list = field(default_factory=list)  # fractional node index
    arcs: list = field(default_factory=list)
    solver: dict = field(default_factory=dict)      # deterministic tracing counters

    def x_nodes(self, N):
        return self.nodes[:, :N]


def _node_metrics(S, system, z):
    """Determinant and negative-eigenvalue parity of the kernel Hessian at a
    node (dim_z,) or at each node of a stack (B, dim_z)."""
    vals = np.linalg.eigvalsh(_kernel_form(S, *system.unpack(z)))
    det = np.prod(vals, axis=-1)
    # strict sign count: near a cusp the crossing eigenvalue must contribute
    # its side's sign rather than falling into the zero bucket
    parity = np.sum(vals < 0, axis=-1) % 2
    if np.ndim(z) == 1:
        return float(det), int(parity)
    return det, parity


def trace_fold_curve(S: MorinScenario, z_start, max_steps=200000) -> FoldCurve:
    """Pseudo-arclength trace of one closed component of the singular curve.

    The cokernel may return to minus itself after one loop of the base curve;
    tracing continues until the full (x, u, mu) state closes, so each
    geometric point appears once or twice and duplicates are cleaned up by
    the caller via the base-point dedup radius.
    """
    system = SingularSystem(S)
    if system.solution_dim != 1:
        raise StratificationError("curve tracing requires a 1-dimensional stratum")
    h = S.tolerances.curve_step
    start = land(system, np.asarray(z_start, dtype=float))
    if not start.converged:
        raise StratificationError("could not land on the singular curve")
    z0 = start.z
    t = curve_tangent(system, z0)
    nodes = [z0]
    tangents = [t]
    half_steps = iterations = 0
    z, t_prev, closed, closure_error = z0, None, False, np.inf
    for step in range(max_steps):
        anchor = z + h * t
        # second-order predictor: the tangent's turn over the last step
        # estimates the curvature term (h^2/2) z''; the corrector plane stays
        # through z + h t, so the node is the same curve point either way
        start = anchor if t_prev is None else anchor + 0.5 * h * (t - t_prev)
        out = correct_in_plane(system, start, anchor, t)
        iterations += out.iterations
        if not out.converged:
            # halve the step locally rather than failing the whole trace
            half_steps += 1
            out = correct_in_plane(system, z + 0.5 * h * t, None, t)
            iterations += out.iterations
            if not out.converged:
                raise StratificationError("continuation corrector failed")
        z_new = out.z
        t_new = curve_tangent(system, z_new, prev=t)
        if step > 2 and np.linalg.norm(z_new - z0) < h:
            # land the returning branch on the plane through the start point
            snap = correct_in_plane(system, z_new, z0, tangents[0])
            iterations += snap.iterations
            closure_error = float(np.linalg.norm(snap.z - z0)) if snap.converged else np.inf
            closed = True
            break
        nodes.append(z_new)
        tangents.append(t_new)
        z, t, t_prev = z_new, t_new, t
    if not closed:
        raise StratificationError("trace did not close (open curve or step budget hit)")

    nodes = np.array(nodes)
    width = batch_width(system.dim_z)
    metrics = [_node_metrics(S, system, nodes[i:i + width])
               for i in range(0, len(nodes), width)]
    curve = FoldCurve(
        nodes=nodes,
        closed=True,
        closure_error=closure_error,
        det_values=np.concatenate([det for det, _ in metrics]),
        parities=np.concatenate([par for _, par in metrics]),
        tangents=np.array(tangents),
        solver={"nodes": len(nodes), "half_steps": half_steps,
                "corrector_iterations": iterations},
    )
    _locate_cusps(S, system, curve)
    _build_arcs(S, curve)
    return curve


def _locate_cusps(S, system, curve: FoldCurve):
    dets = curve.det_values
    K = len(dets)
    steps = 0
    for i in range(K):
        j = (i + 1) % K
        if dets[i] == 0.0:
            raise StratificationError("exact zero determinant at a trace node")
        if dets[i] * dets[j] > 0:
            continue
        z_cusp, n = bisect_on_curve(system, curve.nodes[i], curve.nodes[j], dets[i],
                                    lambda z, chord: _node_metrics(S, system, z)[0],
                                    gap=1e-14)
        steps += n
        landed = land(system, z_cusp)
        if not landed.converged:
            raise StratificationError("could not land on the singular curve at a cusp")
        x, u, mu = system.unpack(landed.z)
        p = stratum_point(S, x, u, mu, system)
        if p.signature.n_zero != 1:
            # determinant changed sign yet no flat direction: conditioning issue
            raise MorinnessError(f"inconsistent degeneracy at cusp candidate {x}")
        classify_depth(S, p)
        if p.depth != 2:
            raise MorinnessError(
                f"degenerate point at {x} is not a certified depth-2 point "
                f"(eigenvalue slope {p.eig_slope})"
            )
        curve.cusps.append(p)
        curve.cusp_positions.append(i + 0.5)
    curve.solver["bisection_steps"] = steps
    # a cokernel that returns to minus itself makes the trace cover the base
    # curve twice; cusp bookkeeping would then double-count, so fail loudly
    for i in range(len(curve.cusps)):
        for j in range(i + 1, len(curve.cusps)):
            if np.linalg.norm(curve.cusps[i].x - curve.cusps[j].x) < S.tolerances.dedup_radius:
                raise StratificationError(
                    "singular curve is doubly covered by its cokernel lift; "
                    "this configuration is not supported"
                )


def _build_arcs(S, curve: FoldCurve):
    K = len(curve.nodes)
    if not curve.cusps:
        # a whole circle of constant parity
        if len(set(curve.parities.tolist())) != 1:
            raise MorinnessError("kernel index parity changed without a cusp")
        sign = "plus" if curve.parities[0] == 0 else "minus"
        curve.arcs.append(Arc(sign=sign))
        return
    order = np.argsort(curve.cusp_positions)
    positions = [curve.cusp_positions[i] for i in order]
    curve.cusps = [curve.cusps[i] for i in order]
    curve.cusp_positions = positions
    n_cusps = len(positions)
    for a in range(n_cusps):
        b = (a + 1) % n_cusps
        start, end = positions[a], positions[b]
        node_ids = _nodes_between(K, start, end)
        if not node_ids:
            raise StratificationError("empty arc between adjacent cusps")
        par = {int(curve.parities[i]) for i in node_ids}
        if len(par) != 1:
            raise MorinnessError("parity not constant along an arc between cusps")
        sign = "plus" if par.pop() == 0 else "minus"
        curve.arcs.append(Arc(sign=sign))


def _nodes_between(K, start, end):
    """Integer node positions strictly between two cyclic fractional positions."""
    if end <= start:
        end += K
    ids = []
    i = int(np.ceil(start))
    while i < end:
        ids.append(i % K)
        i += 1
    return ids


# -- bundle ---------------------------------------------------------------------


@dataclass
class Stratification:
    scenario: MorinScenario
    points: list                    # depth-1 sample points (the dense cloud)
    curves: list                    # FoldCurve, only when n = 2
    cusps: list                     # depth-2 points in deterministic order
    audits: dict = field(default_factory=dict)

    def stratum_points(self, depth):
        if depth == 1:
            return self.points
        if depth == 2:
            return self.cusps
        return []


def compute_stratification(S: MorinScenario, regularity_count=20) -> Stratification:
    """Full stratification pipeline: regularity, depth-1 solve, tracing, audits."""
    report = validate_regularity(S.manifold, count=regularity_count, seed=S.seed)
    if not report.ok:
        raise RegularityError(
            f"manifold regularity audit failed at {report.failures[0]}"
        )
    solver = {}
    points = solve_stratum1(S, stats=solver)
    audits = {
        "regularity_min_singular_value": report.min_singular_value,
        "stratum1_count": len(points),
        "solver": {"depth1": solver},
    }

    curves: list = []
    cusps: list = []
    if S.n == 2:
        curves = _trace_all_curves(S, points)
        for curve in curves:
            cusps.extend(curve.cusps)
        cusps.sort(key=lambda p: tuple(np.round(p.x, 9)))
        _classify_cloud(S, points, cusps)
        audits["solver"]["curves"] = [curve.solver for curve in curves]
        audits["curve_count"] = len(curves)
        audits["closure_errors"] = [c.closure_error for c in curves]
        audits["cusp_count"] = len(cusps)
        audits["alternation_violations"] = _alternation_violations(curves)
    else:
        for p in points:
            if p.signature.n_zero != 0:
                raise MorinnessError(
                    f"degenerate singular point at {p.x} with n = {S.n}: not Morin "
                    f"or out of certified scope; scenario rejected"
                )
            p.depth = 1
            sign_split(S, p)
    if S.n > 2:
        nullities = _dimension_audit(S, points)
        audits["dimension_nullity"] = nullities
        if nullities and nullities != [S.n - 1]:
            raise MorinnessError(
                f"singular-set dimension audit failed: nullities {nullities}, "
                f"expected [{S.n - 1}]"
            )

    audits["nesting_max_residual"] = _nesting_audit(S, cusps)
    return Stratification(scenario=S, points=points, curves=curves, cusps=cusps,
                          audits=audits)


def _trace_all_curves(S, points):
    if not points:
        return []
    system = SingularSystem(S)
    curves = []
    h = S.tolerances.curve_step
    remaining = list(points)
    while remaining:
        p0 = remaining[0]
        z0 = system.pack(p0.x, p0.cokernel, p0.multiplier)
        curve = trace_fold_curve(S, z0)
        curves.append(curve)
        covered = curve.x_nodes(S.N)
        still = []
        for p in remaining:
            d = float(np.min(np.linalg.norm(covered - p.x, axis=1)))
            if d > 2 * h:
                still.append(p)
        if len(still) == len(remaining):
            raise StratificationError("trace did not cover its own starting point")
        remaining = still
    return curves


def _classify_cloud(S, points, cusps):
    for p in points:
        if p.signature.n_zero == 0:
            p.depth = 1
            sign_split(S, p)
        else:
            # a multistart point that landed on (or next to) a cusp
            near = min((float(np.linalg.norm(p.x - q.x)) for q in cusps), default=np.inf)
            if near > 10 * S.tolerances.dedup_radius:
                raise MorinnessError(
                    f"degenerate stratum point at {p.x} away from every detected cusp"
                )
            p.depth = 2
            p.sign = "unsigned"


def _alternation_violations(curves):
    bad = 0
    for curve in curves:
        k = len(curve.arcs)
        if k <= 1:
            continue
        for a in range(k):
            b = (a + 1) % k
            if curve.arcs[a].sign == curve.arcs[b].sign:
                bad += 1
    return bad


def _dimension_audit(S, points):
    system = SingularSystem(S)
    nullities = set()
    for p in points[: min(len(points), 10)]:
        z = system.pack(p.x, p.cokernel, p.multiplier)
        ns = nullspace(system.jacobian(z), rtol=1e-8)
        nullities.add(ns.shape[1])
    return sorted(nullities)


def _nesting_audit(S, cusps):
    """Depth-2 points must satisfy the depth-1 system within tolerance."""
    system = SingularSystem(S)
    worst = 0.0
    for p in cusps:
        z = system.pack(p.x, p.cokernel, p.multiplier)
        worst = max(worst, float(np.max(np.abs(system.residual(z)))))
    return worst
