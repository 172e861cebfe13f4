"""Singular stratification of f restricted to an implicit manifold.

A point is singular when some unit covector u annihilates the image of the
restricted differential; the solution set of the resulting Lagrange-type
system is the depth-1 closure.  Depth and the plus/minus split of odd-depth
strata are read off the kernel Hessian of <u, f> corrected by the constraint
multipliers.  For two-dimensional targets the depth-1 set is a union of
closed curves, traced by pseudo-arclength continuation; cusps are bracketed
by the sign of the kernel-Hessian determinant and refined by bisection.
Every curve operation takes a stack of points.  The continuation routines
(``correct_in_planes``, ``curve_tangents``, ``bisect_on_curve``) also serve
the Morse walk along the fold curves in ``morse``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expr as ex
from ._numeric import (
    BATCH_ENTRIES,
    STOP_REASONS,
    batch_width,
    dedup_points,
    eig_sign_counts,
    min_norm_solve,
    multistart_counters,
    newton,  # noqa: F401  (stays bound here for perfbench)
    newton_batch,
    sign_normalize,
    vecmat,
)
from .manifold import (  # noqa: F401  (project_to_manifold stays bound here for perfbench)
    ImplicitManifold,
    ManifoldError,
    RegularityError,
    project_points,
    project_to_manifold,
    sample_starts,
    tangent_frames,
    validate_regularity,
)


class ScenarioFormatError(ValueError):
    """Scenario file fails parsing or the theorem hypotheses."""


class MorinnessError(RuntimeError):
    """The map is not Morin at some located point (or the stratification failed)."""


class StratificationError(RuntimeError):
    """Structural failure while computing the singular set."""


def _whole_number(raw, what):
    """``raw`` as an int: a JSON integer, or a float with no fractional part.
    Booleans, strings and non-integral numbers are refused, never truncated."""
    if isinstance(raw, bool) or not (
            isinstance(raw, int) or isinstance(raw, float) and raw.is_integer()):
        raise ScenarioFormatError(f"{what} must be a whole number, got {raw!r}")
    return int(raw)


def _real_number(raw, what):
    """``raw`` as a finite float: a JSON integer or real number.  Booleans,
    strings and non-finite numbers are refused, never converted."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioFormatError(f"{what} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError as exc:
        raise ScenarioFormatError(f"{what}: {exc}") from exc
    if not math.isfinite(value):
        raise ScenarioFormatError(f"{what} must be a finite number, got {raw!r}")
    return value


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
            read = _whole_number if isinstance(getattr(base, name), int) else _real_number
            value = read(d[name], f"tolerance {name!r}")
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
        self._singular = None       # built on the first use of ``singular_block``
        self._augmented = None      # built on the first use of ``augmented_block``

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
        """Ambient Hessian of <u, f> - <mu, g> at x (or at each point of a
        stack): sum_r w_r H_r with w = (u, -mu) and H the Hessians of (f, g),
        one product over the flattened Hessians.  A fixed u or mu broadcasts
        over a stack of the other."""
        H = self.jet(x)[2]
        u, mu = np.asarray(u, dtype=float), np.asarray(mu, dtype=float)
        w = np.empty(max(u.shape[:-1], mu.shape[:-1], key=len) + (self.n + self.c,))
        w[..., :self.n] = u
        np.negative(mu, out=w[..., self.n:])
        W = vecmat(w, H.reshape(H.shape[:-2] + (-1,)))
        return W.reshape(W.shape[:-1] + H.shape[-2:])

    def _singular_rows(self, nvars):
        """The c + N + 1 residual entries of ``SingularSystem`` as exact
        expressions whose first N + n + c of ``nvars`` variables are z = (x, u, mu)."""
        N, n, c = self.N, self.n, self.c
        z = [ex.Expr.variable(i, nvars) for i in range(N + n + c)]
        f = [e.with_nvars(nvars) for e in self.components]
        g = [e.with_nvars(nvars) for e in self.manifold.constraints]
        R = g + [sum(z[N + l] * ex.differentiate(f[l], i) for l in range(n))
                 - sum(z[N + n + j] * ex.differentiate(g[j], i) for j in range(c))
                 for i in range(N)]
        R.append(sum(z[N + l] ** 2 for l in range(n)) - 1)
        return R

    @property
    def singular_block(self):
        """The full chart of ``SingularSystem`` as one ExprBlock over
        z = (x, u, mu), built on first use: the c + N + 1 residual entries,
        then every nonzero partial of them, whose (row, column) arrays come
        with it.  Each coefficient is exact until the block rounds it."""
        if self._singular is None:
            D = self.N + self.n + self.c
            self._singular = _block_with_partials(self._singular_rows(D), D, D)
        return self._singular

    @property
    def augmented_block(self):
        """The system of ``morse.StratumCriticalSystem`` as one ExprBlock over
        w = (x, u, mu, nu) followed by the covector a, built on first use: the
        singular rows F(z), the z-gradient of <a, f> - <nu, F>, then their
        nonzero partials in w, as in ``singular_block``."""
        if self._augmented is None:
            D, E = self.N + self.n + self.c, self.c + self.N + 1
            nv = D + E + self.n
            F = self._singular_rows(nv)
            L = (sum(ex.Expr.variable(D + E + l, nv) * f.with_nvars(nv)
                     for l, f in enumerate(self.components))
                 - sum(ex.Expr.variable(D + r, nv) * F[r] for r in range(E)))
            rows = F + [ex.differentiate(L, k) for k in range(D)]
            self._augmented = _block_with_partials(rows, nv, D + E)
        return self._augmented

    def third_tensors(self, x):
        """Symmetric third-derivative tensors of (f_1..f_n, g_1..g_c) at x.

        ``x`` is a point or a stack; the evaluator is built on first use.  No
        solver calls it: the augmented block differentiates exactly instead.
        """
        if self._third is None:
            self._third = ex.ThirdJet(
                list(self.components) + list(self.manifold.constraints), self.N)
        T = self._third(x)
        return T[..., :self.n, :, :, :], T[..., self.n:, :, :, :]

    def __repr__(self):
        comps = [ex.to_prefix(c) for c in self.components]
        return f"MorinScenario({self.name!r}, m={self.m}, n={self.n}, f={comps})"


def _block_with_partials(rows, nvars, ncols):
    """ExprBlock of ``rows`` then their nonzero partials in the first ``ncols``
    variables, with the (row, column) array of each partial."""
    partials = [(r, k, ex.differentiate(e, k)) for r, e in enumerate(rows) for k in range(ncols)]
    at, wrt, partials = zip(*(p for p in partials if not p[2].is_zero()))
    return ex.ExprBlock(list(rows) + list(partials), nvars), np.array(at), np.array(wrt)


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
        N = _whole_number(data["ambient_dim"], "ambient_dim")
        m = _whole_number(data["intrinsic_dim"], "intrinsic_dim")
        constraints = [ex.parse_prefix(s, N) for s in data["constraints"]]
        components = [ex.parse_prefix(s, N) for s in data["components"]]
        n = _whole_number(data["target_dim"], "target_dim")
        seed = _whole_number(data.get("seed", 0), "seed")
        chi = data.get("chi_expected")
        chi = None if chi is None else _whole_number(chi, "chi_expected")
        halfwidth = _real_number(data.get("sample_halfwidth", 1.5), "sample_halfwidth")
        sample_seeds = [tuple(_real_number(c, "a sample seed coordinate") for c in s)
                        for s in data.get("sample_seeds", ())]
    except (KeyError, TypeError, ValueError, ex.ExprError) as exc:
        raise ScenarioFormatError(f"bad scenario fields: {exc}") from exc
    compact = data.get("compact", True)
    if not isinstance(compact, bool):
        raise ScenarioFormatError(f"compact must be true or false, got {compact!r}")
    if any(len(s) != N for s in sample_seeds):
        raise ScenarioFormatError(f"every sample seed needs ambient_dim = {N} coordinates")
    if halfwidth <= 0:
        raise ScenarioFormatError(f"sample_halfwidth must be positive, got {halfwidth}")
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
    signature: QuadraticSignature
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
        # R is the head of one block evaluation and J is scattered from its
        # partials; a reduced chart inserts the cokernel as u and drops the
        # normalization row and the u columns
        self._block, rows, cols = scenario.singular_block
        src = c + N + 1 + np.arange(rows.size)
        if self.reduced:
            keep = (rows < c + N) & ((cols < N) | (cols >= N + n))
            rows, cols, src = rows[keep], np.where(cols < N, cols, cols - n)[keep], src[keep]
            self._free = np.r_[:N, N + n:N + n + c]
        self._src, self._dst = src, rows * self.dim_z + cols

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
        """(residual, Jacobian) at z from one call of the scenario's block.

        The last evaluation is memoized, keyed by the bytes and the shape of
        z, so a solver's residual and Jacobian at one iterate cost one block
        call; the memoized arrays are read-only.
        """
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        memo = self._memo          # single read keeps the triple consistent
        if key == memo[0] and z.shape == memo[1]:
            return memo[2]
        N, n, lead = self.S.N, self.S.n, z.shape[:-1]
        if self.reduced:
            full = np.empty(lead + (self._block.nvars,))
            full[..., N:N + n] = self.cokernel
            full[..., self._free] = z
            vals = self._block(full)
        else:
            vals = self._block(z)
        J = np.zeros(lead + (self.n_eqs * self.dim_z,))
        J[..., self._dst] = vals[..., self._src]
        R, J = vals[..., :self.n_eqs], J.reshape(lead + (self.n_eqs, self.dim_z))
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
    T, failures = tangent_frames(S.manifold, x)          # (B, m, N)
    A = S.Df(x).reshape(-1, S.n, S.N) @ np.swapaxes(T, -1, -2)   # differential in the frame
    A[list(failures)] = 0.0                  # placeholder lanes, already failed
    # with full_matrices the trailing right-singular vectors span the null
    # space of the rank-(n-1) map: the kernel in frame coordinates
    _, svals, vt = np.linalg.svd(A, full_matrices=True)
    scale = np.maximum(svals[:, 0], 1.0)
    corank = np.sum(svals < 1e-7 * scale[:, None], axis=1)
    for i in np.flatnonzero(corank == 0):
        failures.setdefault(int(i), StratificationError(
            "point is not singular (full-rank differential)"))
    for i in np.flatnonzero(corank > 1):
        failures.setdefault(int(i), MorinnessError(
            f"corank {corank[i]} > 1 at {np.reshape(x, (-1, S.N))[i]}: map is not Morin there"))
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


def _signatures(S: MorinScenario, HK, K, X):
    """Signatures of a stack of kernel forms HK (B, k, k), whose bases K
    (B, N, k) sit at the points X (B, N): the sign counts from one stacked
    ``eig_sign_counts``, the degenerate direction of each form with exactly
    one near-zero eigenvalue (its eigenvector, from ``eigh`` of those forms
    only, in the ambient space and sign-normalized, None elsewhere), and a
    dict from lane to the ``MorinnessError`` of a form with more than one,
    since a corank-1 chain admits at most one degenerate kernel direction.
    """
    counts = np.stack(eig_sign_counts(HK, S.tolerances.eigen_zero), axis=-1)
    signatures = [QuadraticSignature(*map(int, c)) for c in counts]
    failures = {int(j): MorinnessError(
        f"kernel Hessian has {counts[j, 2]} near-zero eigenvalues at {X[j]}: not Morin")
        for j in np.flatnonzero(counts[:, 2] > 1)}
    directions = [None] * len(HK)
    flat = np.flatnonzero(counts[:, 2] == 1)
    if flat.size:
        vals, vecs = np.linalg.eigh(HK[flat])
        pick = np.argmin(np.abs(vals), axis=-1)
        v = vecs[np.arange(flat.size), :, pick]
        for j, d in zip(flat, sign_normalize((K[flat] @ v[..., None])[..., 0])):
            directions[j] = d
    return signatures, directions, failures


# -- solving ------------------------------------------------------------------


def _multistart_seeds(S: MorinScenario, count, tag):
    """The multistart's ambient starts, from the generator keyed by the
    scenario seed, 23 and ``tag``."""
    return sample_starts(S.manifold, count, [S.seed, 23, tag])


def _initial_guesses(S: MorinScenario, system: SingularSystem, X0):
    """Project a stack of starts to M and estimate (u, mu) at each.

    u is the smallest left singular vector of Df restricted to the tangent
    space, sign-normalized; it does not depend on the tangent basis.  Starts
    whose projection fails, or where ``tangent_frames`` refuses (Dg
    rank-deficient), are dropped.
    """
    proj = project_points(S.manifold, X0)
    x = proj.z[proj.converged]
    tangent, failures = tangent_frames(S.manifold, x)
    regular = np.ones(len(x), dtype=bool)
    regular[list(failures)] = False
    x, tangent = x[regular], tangent[regular]
    Df, Dg = np.split(S.jet(x)[1], [S.n], axis=1)
    U = np.linalg.svd(Df @ np.swapaxes(tangent, -1, -2))[0]
    u0 = sign_normalize(U[:, :, S.n - 1])
    mu0 = min_norm_solve(np.swapaxes(Dg, -1, -2), vecmat(u0, Df))
    return system.pack(x, u0, mu0)


def solve_stratum1(S: MorinScenario, density=None, stats=None) -> list[StratumPoint]:
    """Multistart Newton on the singular system, deduplicated by base point.

    All starts run as one lane-wise batched Newton.  Starts that fail to
    project or to converge are dropped; ``stats``, a dict when given,
    receives the counters of the solve (starts, projected, converged,
    iterations, distinct roots, stop reasons, and for n = 1 hits per root:
    for n >= 2 the solutions form a curve or a surface, so every start lands
    on its own point and hits say nothing).  An empty result on a
    compact manifold is an error: any map from a compact manifold with
    m > n must have singular points.
    """
    system = SingularSystem(S)
    tol = S.tolerances
    count = (density or tol.multistart_density) * S.n
    X0 = _multistart_seeds(S, count, tag=1)
    out = newton_batch(system.evaluate, _initial_guesses(S, system, X0),
                       tol=tol.residual, max_iter=30)
    solutions = out.z[out.converged]
    xs = system.unpack(solutions)[0]
    kept = dedup_points(xs, tol.dedup_radius)
    if stats is not None:
        stats.update(multistart_counters(len(X0), out, xs, kept,
                                         tol.dedup_radius if S.n == 1 else None))
    points = _points_from_solutions(S, system, solutions, kept)
    if not points and S.manifold.compact:
        raise StratificationError(
            "no singular points found on a compact manifold with m > n; "
            "the singular set cannot be empty"
        )
    return points


def _points_from_solutions(S, system, solutions, kept) -> list[StratumPoint]:
    """Stratum points at the kept solutions, from one ``stratum_points``
    pass; a point whose kernel data fails as a non-singular or irregular
    point is skipped, and any other error raises at the first such point in
    kept order, as in a loop over the points."""
    points, failures = stratum_points(S, system, solutions[list(kept)])
    for lane in sorted(failures):
        if not isinstance(failures[lane], (StratificationError, RegularityError)):
            raise failures[lane]
    points = [p for p in points if p is not None]
    points.sort(key=lambda p: tuple(np.round(p.x, 9)))
    return points


def stratum_points(S, system, Z):
    """Depth-1 stratum points at a stack Z (B, dim_z) of solutions of the
    singular ``system``, ``batch_width`` lanes per stacked pass.

    At each lane (u, mu) is flipped as a pair so that the first cokernel
    entry above 1e-12 in magnitude is positive: the stationarity equations
    are linear in the pair, so only a joint flip preserves them (and the
    Lagrangian Hessian built from them).  A lane carries its max-norm
    residual, its kernel basis, its kernel-Hessian signature and degenerate
    direction (``_signatures``), and, when no eigenvalue is flat, its sign
    by kernel-index parity.  The sign is well defined because m - n + 1 is
    even: flipping u complements the nondegenerate eigenvalue signs, which
    preserves the parity of the negative count.  Returns the points, None at a failing lane, and a dict
    from lane to its error: the kernel basis's (``_kernel_lanes``), else the
    signature's.
    """
    Z = np.reshape(np.asarray(Z, dtype=float), (-1, system.dim_z))
    width = batch_width(system.dim_z)
    points, failures = [], {}
    for i in range(0, len(Z), width):
        part, errors = _stratum_lanes(S, system, Z[i:i + width])
        points += part
        failures.update((i + j, error) for j, error in errors.items())
    return points, failures


def _stratum_lanes(S, system, Z):
    """``stratum_points`` on one stack of at most ``batch_width`` lanes."""
    x, u, mu = system.unpack(Z)
    u = np.broadcast_to(u, (len(Z), S.n))
    big = np.abs(u) > 1e-12
    lead = np.take_along_axis(u, np.argmax(big, axis=1)[:, None], axis=1)[:, 0]
    flip = np.where(big.any(axis=1) & (lead < 0), -1.0, 1.0)[:, None]
    u, mu = u * flip, mu * flip
    # the joint flip negates the stationarity rows and keeps the others, so
    # the max-norm residual is taken at Z, in any chart
    res = np.max(np.abs(system.residual(Z)), axis=1)
    K, failures = _kernel_lanes(S, x)
    signatures, directions, flat = _signatures(S, _kernel_form(S, x, u, mu, K), K, x)
    for j, error in flat.items():
        failures.setdefault(j, error)
    points = []
    for j in range(len(Z)):
        if j in failures:
            points.append(None)
            continue
        sig = signatures[j]
        # a nondegenerate kernel form already certifies depth 1 and its sign
        sign = "unsigned" if sig.n_zero else ("plus", "minus")[sig.n_minus % 2]
        points.append(StratumPoint(x=x[j], depth=1, cokernel=u[j], multiplier=mu[j],
                                   kernel_basis=K[j], signature=sig, sign=sign,
                                   degenerate_direction=directions[j],
                                   residuals={"system": float(res[j])}))
    return points, failures


def stratum_point(S, x, u, mu, system=None) -> StratumPoint:
    """Depth-1 stratum point at a solution (x, u, mu) of the singular system:
    one lane of ``stratum_points``, raising that lane's error.  A ``system``
    whose fixed cokernel is not u gives way to the chart with cokernel u."""
    system = system or SingularSystem(S)
    u = np.asarray(u, dtype=float)
    if system.reduced and not np.array_equal(u, system.cokernel):
        system = SingularSystem(S, u)
    points, failures = stratum_points(S, system, system.pack(x, u, mu))
    if failures:
        raise failures[0]
    return points[0]


# -- continuation on the solution curve (n = 2) ---------------------------------
#
# A predictor-corrector layout after Allgower & Georg, Introduction to
# Numerical Continuation Methods (SIAM 2003): a step along the tangent t,
# then Newton back to the curve inside the plane normal to t (the trace starts
# that Newton from a second-order predictor).  Every routine takes a stack of
# points and every solve is ``newton_batch`` with its minimal-norm step:
# landing (the midpoints of ``bisect_on_curve``, all brackets at once, and the
# cusps it returns unlanded) solves the rectangular curve equations, the
# corrector (``correct_in_planes``) the curve equations bordered by each
# start's plane row.  The bordered matrix [J; t] is square, and nonsingular
# wherever the curve is smooth and t is not normal to it; there its inverse
# gives the step.  The trace's next tangent is the one [J(z_new); t] induces
# (the solution of [J; t] tau = e_last, normalized), oriented along t since
# t . tau = 1; the seeds of a trace, cusps, the Morse walk and an exactly
# singular bordered stack take it from the null space by SVD
# (``curve_tangents``).  The trace runs two lanes out of every seed, and two
# lanes that walk one arc toward each other stop where they meet, so each arc
# between neighbouring seeds is stepped once; a curve is read off its lanes
# with every other one reversed.  The trace audits the nullity of J at every
# node afterwards, in stacks.  The trace below and the Morse walk along the
# fold curves in ``morse`` share these routines.


def correct_in_planes(system, Z, anchors, normals):
    """Newton from each start of a stack (B, dim_z) onto the solution set cut
    by its own plane, start i by the plane through anchors[i] normal to
    normals[i]: one ``newton_batch`` on the bordered system, whose lanes each
    see their own plane row."""
    def bordered(W, rows):
        R, J = system.evaluate(W)
        t = normals[rows]
        plane = np.sum((W - anchors[rows]) * t, axis=1)
        return (np.concatenate((R, plane[:, None]), axis=1),
                np.concatenate((J, t[:, None, :]), axis=1))

    return newton_batch(bordered, Z, tol=system.S.tolerances.residual, max_iter=40,
                        indexed=True)


def _chain_tangents(system, Z, T, bordered):
    """Unit tangents at a stack of points Z induced by their bordered
    matrices [J(Z); T]: the solutions of [J(z); t] tau = e_last, normalized,
    so each points along its t.  ``batch_width`` points take one solve; a
    chunk with an exactly singular matrix takes its SVD null vectors
    instead (``curve_tangents`` along T), which reject a nullity other
    than 1."""
    width = batch_width(system.dim_z)
    out = np.empty_like(T)
    for i in range(0, len(Z), width):
        e_last = np.zeros(T[i:i + width].shape + (1,))
        e_last[:, -1] = 1.0
        try:
            tau = np.linalg.solve(bordered[i:i + width], e_last)[..., 0]
        except np.linalg.LinAlgError:
            out[i:i + width] = curve_tangents(system, Z[i:i + width], T[i:i + width])
            continue
        out[i:i + width] = tau / np.linalg.norm(tau, axis=1, keepdims=True)
    return out


def _nullities(system, Z, tangents=False):
    """Nullity of the Jacobian at each point of a stack (B, dim_z), by the
    rank rule of ``nullspace(J, rtol=1e-8)``; with ``tangents`` also the
    last right-singular vector of each, the null vector where the nullity
    is 1."""
    svd = np.linalg.svd(system.jacobian(Z), compute_uv=tangents)
    s = svd[1] if tangents else svd
    cutoff = np.maximum(1e-8 * s[:, :1], np.finfo(float).tiny)
    nullity = system.dim_z - np.sum(s > cutoff, axis=1)
    return (nullity, svd[2][:, -1]) if tangents else nullity


def _audit_curve_nullity(system, Z, tangents=False):
    """Reject the first point of a stack Z (in order) where the solution set
    is not a smooth curve, one stacked SVD per ``batch_width`` points; with
    ``tangents`` return the null vector of J at every point."""
    width = batch_width(system.dim_z)
    T = np.empty_like(Z) if tangents else None
    for i in range(0, len(Z), width):
        if tangents:
            nullity, T[i:i + width] = _nullities(system, Z[i:i + width], tangents=True)
        else:
            nullity = _nullities(system, Z[i:i + width])
        bad = np.flatnonzero(nullity != 1)
        if bad.size:
            raise MorinnessError(
                f"singular-set dimension audit failed: nullity {nullity[bad[0]]} != 1 "
                f"(solution variety is not a smooth curve here)"
            )
    return T


def curve_tangents(system, Z, prev=None):
    """Unit tangents of the solution curve at a stack of points Z (B, dim_z):
    the SVD null vectors of J, each oriented along its row of ``prev`` when
    given and sign-normalized otherwise; a nullity other than 1 is
    rejected."""
    T = _audit_curve_nullity(system, Z, tangents=True)
    if prev is None:
        return sign_normalize(T)
    return np.where((np.sum(T * prev, axis=1) < 0)[:, None], -T, T)


def bisect_on_curve(system, ZA, ZB, FA, value, gap):
    """Bisect sign changes of a scalar along the curve, all brackets in
    lockstep.

    Bracket i runs from ZA[i] to ZB[i], and FA[i] is the value at ZA[i].
    Each round lands the midpoints of the open brackets with one
    ``newton_batch`` and evaluates ``value(Z, chords)`` there, ``chords``
    being the current brackets ZB - ZA.  A bracket stops at a landed
    midpoint whose value is exactly zero or whose bracket is shorter than
    ``gap``, and returns its bracket midpoint after 60 halvings.  Returns
    the points (k, dim_z) and the number of midpoints landed per bracket.
    """
    ZA, ZB = np.array(ZA, dtype=float), np.array(ZB, dtype=float)
    FA = np.array(FA, dtype=float)
    Z = np.empty_like(ZA)
    steps = np.zeros(len(ZA), dtype=int)
    live = np.arange(len(ZA))
    for step in range(1, 61):
        if live.size == 0:
            break
        mid = newton_batch(system.evaluate, 0.5 * (ZA[live] + ZB[live]),
                           tol=system.S.tolerances.residual, max_iter=60)
        if not mid.converged.all():
            raise StratificationError("bisection lost the curve")
        chords = ZB[live] - ZA[live]
        fm = value(mid.z, chords)
        steps[live] = step
        done = (fm == 0.0) | (np.linalg.norm(chords, axis=1) < gap)
        Z[live[done]] = mid.z[done]
        right = ~done & (FA[live] * fm < 0)
        left = ~done & ~right
        ZB[live[right]] = mid.z[right]
        ZA[live[left]], FA[live[left]] = mid.z[left], fm[left]
        live = live[~done]
    Z[live] = 0.5 * (ZA[live] + ZB[live])
    return Z, steps


# -- depth classification -------------------------------------------------------


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
    t = curve_tangents(system, z[None])[0]
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
    starts = z + np.outer([-delta, delta], t)
    out = correct_in_planes(system, starts, starts, np.array([t, t]))
    if not out.converged.all():
        raise StratificationError("could not sample the curve near the point")
    # the smallest-magnitude kernel-Hessian eigenvalue (signed) below, at
    # and above p, each sample's (u, mu) on p's sheet
    x, u, mu = system.unpack(np.stack([out.z[0], z, out.z[1]]))
    flip = np.where(u @ p.cokernel < 0, -1.0, 1.0)[:, None]
    vals = np.linalg.eigvalsh(_kernel_form(S, x, u * flip, mu * flip))
    vals = vals[np.arange(3), np.argmin(np.abs(vals), axis=1)]
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
    closure_error: float
    det_values: np.ndarray          # det of kernel Hessian per node
    parities: np.ndarray            # negative-eigenvalue parity per node (0/1)
    tangents: np.ndarray            # (K, dim_z) unit tangents, one orientation
    cusps: list = field(default_factory=list)       # StratumPoint, depth 2
    cusp_positions: list = field(default_factory=list)  # fractional node index
    arcs: list = field(default_factory=list)
    solver: dict = field(default_factory=dict)      # deterministic tracing counters
    segments: np.ndarray | None = None  # node index of each segment's seed
    meetings: np.ndarray | None = None  # node index where each segment's reversed piece starts
    members: np.ndarray | None = None   # the trace's seeds this curve passes

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


def trace_fold_curve(lanes, q, max_steps=200000) -> FoldCurve:
    """Pseudo-arclength trace of the closed component of the singular curve
    through seed q of a ``_Lanes`` run, from all of the run's seeds at once.

    Each seed starts two lanes, along +t and -t, and two lanes that walk one
    arc toward each other stop where they meet.  The curve is the cycle of
    lane pieces from seed q along its sign-normalized tangent, a lane
    forward from its seed, then the lane it met reversed back to that lane's
    seed, until the full (x, u, mu) state closes; a trace that does not
    close raises.  The cokernel may return to minus itself after one loop of
    the base curve; the cycle then covers it twice, so each geometric point
    appears once or twice and duplicates are cleaned up by the caller via
    the base-point dedup radius.  ``closure_error`` is the largest distance
    of a snapped arrival from the node it arrived at, and ``members`` lists
    the seeds the cycle passes.  The lanes of curves traced before from the
    same run keep their steps.  ``max_steps`` bounds the lockstep steps of
    the run.
    """
    system = lanes.system
    S = system.S
    fields, checked = lanes.cycle(q, max_steps)
    # every node and every lane's arrival, in trace order, before any metric
    _audit_curve_nullity(system, checked)
    nodes = fields["nodes"]
    width = batch_width(system.dim_z)
    metrics = [_node_metrics(S, system, nodes[i:i + width])
               for i in range(0, len(nodes), width)]
    curve = FoldCurve(det_values=np.concatenate([det for det, _ in metrics]),
                      parities=np.concatenate([par for _, par in metrics]), **fields)
    _locate_cusps(S, system, curve)
    _build_arcs(S, curve)
    return curve


class _Lanes:
    """Two lanes per seed of a trace, advanced in lockstep until they meet.

    Lane 2q starts at seed q along its SVD tangent t_q, lane 2q + 1 along
    -t_q.  Each ``step`` moves every active lane by the trace's predictor
    and one batched corrector, with a local half step for a lane whose
    corrector fails; a lane that fails even then ends the trace.  Two lanes
    that walk one arc toward each other meet in the step in which they pass
    each other, within h = curve_step (``_meetings``).  A lane's node counts
    as it is or as its sheet image sigma(z) = (x, -u, -mu), since seeds are
    sign-normalized and can sit on either sheet of the lifted curve.  A
    meeting stops both lanes in the same step; their steps are not nodes,
    and each is snapped onto the normal plane of the other lane's last
    node, which stays in the curve.  ``cycle`` reads a curve off
    the meetings as (lane, flip, reversed) pieces, flip meaning the lane
    enters it as its sheet image: a lane forward from its seed, the lane it
    met reversed back to that lane's seed, then that lane's sibling out of
    the same seed, until it is back at its first lane on its own sheet.
    """

    def __init__(self, system, seeds):
        self.system, self.h, self.seeds = system, system.S.tolerances.curve_step, seeds
        k, d = seeds.shape
        T = curve_tangents(system, seeds)
        self.sigma = np.where(np.arange(d) < system.S.N, 1.0, -1.0)
        lanes = 2 * k
        self.z = np.repeat(seeds, 2, axis=0)
        self.t = np.repeat(T, 2, axis=0) * np.tile([1.0, -1.0], k)[:, None]
        self.t_prev = self.t.copy()
        self.count = 0                          # lockstep steps taken
        # x-distance a lane may still move before another lane's node can come within h
        self.budget = np.full(lanes, -1.0)
        self.active = np.ones(lanes, dtype=bool)
        self.partner = np.full(lanes, -1)       # the lane met
        self.flip = np.zeros(lanes, dtype=bool)   # met as its sheet image
        self.last = np.zeros((lanes, d))        # the meeting step's point, unsnapped
        self.snap_error = np.zeros(lanes)
        self.iterations = np.zeros(lanes, dtype=int)
        self.half_steps = np.zeros(lanes, dtype=int)
        self.stops = np.zeros((lanes, len(STOP_REASONS)), dtype=int)
        self.history = [(np.arange(lanes), self.z.copy(), self.t.copy())]

    def cycle(self, q, max_steps):
        """Step until the cycle from lane 2q closes.  Returns its
        ``FoldCurve`` fields, and for the nullity audit its nodes with the
        two arrivals of each meeting where its pieces join."""
        path, lane, flip = [], 2 * q, False
        while True:
            while self.partner[lane] < 0:
                if self.count >= max_steps:
                    self._fail("trace did not close (open curve or step budget hit)")
                self.step()
            met, flip_met = int(self.partner[lane]), flip != self.flip[lane]
            path += [(lane, flip, False), (met, flip_met, True)]
            lane, flip = met ^ 1, flip_met
            if lane == 2 * q and not flip:
                return self._fields(path)

    def _fields(self, path):
        lanes = np.array([lane for lane, _, _ in path])
        flips = np.array([flip for _, flip, _ in path])
        used = np.flatnonzero(np.bincount(lanes))
        Z, T, rows = self._take(used)
        # a reversed piece runs from the lane's last node back to, but not
        # onto, its seed, which starts the next piece
        pieces = [rows[lane][:0:-1] if back else rows[lane] for lane, _, back in path]
        sizes = [len(r) for r in pieces]
        order = np.concatenate(pieces)
        nodes, tangents = Z[order], T[order]
        tangents[np.repeat([back for *_, back in path], sizes)] *= -1.0
        flipped = np.repeat(flips, sizes)
        nodes[flipped] *= self.sigma
        tangents[flipped] *= self.sigma
        starts = np.cumsum([0] + sizes[:-1])
        arrivals = self.last[lanes] * np.where(flips[:, None], self.sigma, 1.0)
        # each lane's nodes but its seed, counted once also where a doubly
        # covered curve takes the lane twice
        lane_steps = len(Z) - len(used)
        fields = {
            "nodes": nodes, "tangents": tangents, "segments": starts[0::2],
            "meetings": starts[1::2],
            "closure_error": float(np.max(self.snap_error[lanes])),
            "members": np.flatnonzero(np.bincount(lanes // 2)),
            "solver": {"nodes": len(nodes), "segments": len(path) // 2,
                       "lane_steps": lane_steps,
                       "half_steps": int(np.sum(self.half_steps[lanes])),
                       "corrector_iterations": int(np.sum(self.iterations[lanes])),
                       "stops": dict(zip(STOP_REASONS,
                                         map(int, np.sum(self.stops[lanes], axis=0))))},
        }
        return fields, np.insert(nodes, np.repeat(starts[1::2], 2), arrivals, axis=0)

    def _take(self, lanes):
        """Nodes and tangents of ``lanes`` in step order, and each lane's rows
        of them in a dict; the history keeps the other lanes' only."""
        mine = np.zeros(len(self.active), dtype=bool)
        mine[lanes] = True
        where, Z, T, rest = [], [], [], []
        self.history.reverse()
        while self.history:
            ids, z, t = self.history.pop()
            keep = mine[ids]
            if not keep.all():
                rest.append((ids[~keep], z[~keep], t[~keep]))
                ids, z, t = ids[keep], z[keep], t[keep]
            where.append(ids)
            Z.append(z)
            T.append(t)
        self.history = rest
        where = np.concatenate(where)
        order = np.argsort(where, kind="stable")    # each lane's nodes stay in step order
        bounds = np.searchsorted(where[order], lanes)
        ends = np.searchsorted(where[order], lanes, side="right")
        rows = {lane: order[b:e] for lane, b, e in zip(lanes.tolist(), bounds, ends)}
        return np.concatenate(Z), np.concatenate(T), rows

    def _fail(self, message):
        """Audit every node the lanes have traced, in step order, then raise
        ``message``."""
        if self.history:
            _audit_curve_nullity(self.system, np.concatenate([z for _, z, _ in self.history]))
        raise StratificationError(message)

    def _correct(self, lanes, Z, anchors, normals):
        out = correct_in_planes(self.system, Z, anchors, normals)
        self.iterations[lanes] += out.iterations
        np.add.at(self.stops, (lanes, out.stop), 1)
        return out

    def step(self):
        self.count += 1
        A = np.flatnonzero(self.active)
        z, t, h = self.z[A], self.t[A], self.h
        anchor = z + h * t
        # second-order predictor: the tangent's turn over the last step
        # estimates the curvature term (h^2/2) z''; the corrector plane stays
        # through z + h t, so the node is the same curve point either way
        out = self._correct(A, anchor + 0.5 * h * (t - self.t_prev[A]), anchor, t)
        z_new, bordered = out.z, out.jacobian       # [J(z_new); t] on a converged lane
        retry = np.flatnonzero(~out.converged)
        if retry.size:
            # halve the step locally rather than failing the lane
            half = z[retry] + 0.5 * h * t[retry]
            again = self._correct(A[retry], half, half, t[retry])
            self.half_steps[A[retry]] += 1
            if not again.converged.all():
                self._fail("continuation corrector failed")
            z_new[retry], bordered[retry] = again.z, again.jacobian
        a, b, flip = self._meetings(A, z, t, z_new)
        if a.size:
            sheet = np.where(flip[:, None], self.sigma, 1.0)
            P = z[b] * sheet
            snap = self._correct(A[a], z_new[a], P, t[b] * sheet)
            self.snap_error[A[a]] = np.where(
                snap.converged, np.linalg.norm(snap.z - P, axis=1), np.inf)
            self.partner[A[a]], self.flip[A[a]], self.last[A[a]] = A[b], flip, z_new[a]
            self.active[A[a]] = False
            going = self.active[A]
            A, t, z_new, bordered = A[going], t[going], z_new[going], bordered[going]
        t_new = _chain_tangents(self.system, z_new, t, bordered)
        self.history.append((A, z_new, t_new))
        self.z[A], self.t_prev[A], self.t[A] = z_new, t, t_new

    def _meetings(self, A, z, t, z_new):
        """The lanes of A that meet in the step z -> z_new: index pairs
        (a, b) into A, each pair both ways round, and whether b is met as
        its sheet image.

        Lane i meets lane j when they pass each other head on: before the
        step z[i] is ahead of j's node z[j] along j's tangent t[j], after it
        z_new[i] is not ahead of j's new point z_new[j], and z[i] is within
        h of z[j] or z_new[i] of z_new[j].  Both lanes move, so a gap
        between them of up to 2h closes in one step.  j's node counts as it
        is or as its sheet image, whichever is nearer z[i] (they differ in
        (u, mu) only).  A lane takes the first such passing
        along its step.  Pairs that took each other meet first, then the
        others in lane order while both lanes are free.

        Either distance within h puts z_new[i] within h plus the farthest
        step of any lane of z[j] in x, and a node and its sheet image share
        x, so the search runs over base points.  A lane searches only once
        its budget is spent: the x-distance to the nearest other node at
        its last search, less h, less the x-distance it has moved since and
        the farthest any lane has moved in each step since, bounds how far
        every other node still is.  A search takes ``BATCH_ENTRIES``
        distances at a time, summed coordinate by coordinate.
        """
        h, N, n = self.h, self.system.S.N, len(A)
        moved = np.linalg.norm(z_new[:, :N] - z[:, :N], axis=1)
        farthest = float(np.max(moved))
        self.budget[A] -= moved + farthest
        due = np.flatnonzero(self.budget[A] < 0)
        columns = z[:, :N].T.copy()                 # base points, by coordinate
        rows = max(1, BATCH_ENTRIES // n)
        lanes, targets = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        for i in range(0, due.size, rows):
            block = due[i:i + rows]
            near = 0.0
            for j, column in enumerate(columns):
                d = column - z_new[block, j, None]
                near = near + d * d
            near[np.arange(block.size), block] = np.inf
            self.budget[A[block]] = np.sqrt(np.min(near, axis=1)) - h - farthest
            r, q = np.nonzero(near < (h + farthest) ** 2)
            lanes.append(block[r])
            targets.append(q)
        lane, q = np.concatenate(lanes), np.concatenate(targets)
        if not lane.size:
            return lane, lane, lane.astype(bool)
        # of a node and its sheet image, the one nearer z[i] in (u, mu)
        flip = np.sum(z[lane, N:] * z[q, N:], axis=1) < 0
        sheet = np.where(flip[:, None], self.sigma, 1.0)
        before, after = z[lane] - z[q] * sheet, z_new[lane] - z_new[q] * sheet
        close = np.minimum(np.linalg.norm(before, axis=1), np.linalg.norm(after, axis=1)) < h
        T = t[q] * sheet
        d0, d1 = np.sum(before * T, axis=1), np.sum(after * T, axis=1)
        met = close & (d0 > 0) & (d1 <= 0)
        lane, q, flip, d0, d1 = lane[met], q[met], flip[met], d0[met], d1[met]
        # the first passing along the step; ties go to the lower target
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


def _locate_cusps(S, system, curve: FoldCurve):
    dets = curve.det_values
    if np.any(dets == 0.0):
        raise StratificationError("exact zero determinant at a trace node")
    brackets = np.flatnonzero(~(dets * np.roll(dets, -1) > 0))
    Z, steps = bisect_on_curve(system, curve.nodes[brackets],
                               curve.nodes[(brackets + 1) % len(dets)], dets[brackets],
                               lambda Z, chords: _node_metrics(S, system, Z)[0], gap=1e-14)
    # after all 60 halvings the bisection may return its unlanded bracket
    # midpoint; a bracket that stopped sooner returns a landed midpoint
    full = steps == 60
    landed = newton_batch(system.evaluate, Z[full], tol=S.tolerances.residual, max_iter=60)
    if not landed.converged.all():
        raise StratificationError("could not land on the singular curve at a cusp")
    Z[full] = landed.z
    points, failures = stratum_points(S, system, Z)
    for j, (i, p) in enumerate(zip(brackets.tolist(), points)):
        if j in failures:
            raise failures[j]
        if p.signature.n_zero != 1:
            # determinant changed sign yet no flat direction: conditioning issue
            raise MorinnessError(f"inconsistent degeneracy at cusp candidate {p.x}")
        classify_depth(S, p)
        if p.depth != 2:
            raise MorinnessError(
                f"degenerate point at {p.x} is not a certified depth-2 point "
                f"(eigenvalue slope {p.eig_slope})"
            )
        curve.cusps.append(p)
        curve.cusp_positions.append(i + 0.5)
    curve.solver["bisection_steps"] = int(np.sum(steps))
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
    end = end if end > start else end + K
    return [i % K for i in range(math.ceil(start), math.ceil(end))]


# -- bundle ---------------------------------------------------------------------


@dataclass
class Stratification:
    scenario: MorinScenario
    points: list                    # depth-1 sample points (the dense cloud)
    curves: list                    # FoldCurve, only when n = 2
    cusps: list                     # depth-2 points in deterministic order
    audits: dict = field(default_factory=dict)

    def stratum_points(self, depth):
        return {1: self.points, 2: self.cusps}.get(depth, [])


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
    """Every curve through the depth-1 cloud from one run of lanes: one
    ``trace_fold_curve`` per curve, each from the first point not yet on a
    curve, continuing the run the curves before it stepped."""
    if not points:
        return []
    system = SingularSystem(S)
    lanes = _Lanes(system, np.array([system.pack(p.x, p.cokernel, p.multiplier)
                                     for p in points]))
    on_curve = np.zeros(len(points), dtype=bool)
    curves = []
    while not on_curve.all():
        curves.append(trace_fold_curve(lanes, int(np.argmin(on_curve))))
        on_curve[curves[-1].members] = True
    return curves


def _classify_cloud(S, points, cusps):
    # nondegenerate points already carry depth 1 and their sign (stratum_point)
    for p in points:
        if p.signature.n_zero != 0:
            # a multistart point that landed on (or next to) a cusp
            near = min((float(np.linalg.norm(p.x - q.x)) for q in cusps), default=np.inf)
            if near > 10 * S.tolerances.dedup_radius:
                raise MorinnessError(
                    f"degenerate stratum point at {p.x} away from every detected cusp"
                )
            p.depth = 2
            p.sign = "unsigned"


def _alternation_violations(curves):
    """Cyclically adjacent arcs of one sign, over every curve of two or more arcs."""
    return sum(a.sign == b.sign for c in curves if len(c.arcs) > 1
               for a, b in zip(c.arcs, c.arcs[1:] + c.arcs[:1]))


def _dimension_audit(S, points):
    system = SingularSystem(S)
    Z = [system.pack(p.x, p.cokernel, p.multiplier) for p in points[:10]]
    return sorted(set(_nullities(system, np.array(Z)).tolist())) if Z else []


def _nesting_audit(S, cusps):
    """Depth-2 points must satisfy the depth-1 system within tolerance."""
    system = SingularSystem(S)
    worst = 0.0
    for p in cusps:
        z = system.pack(p.x, p.cokernel, p.multiplier)
        worst = max(worst, float(np.max(np.abs(system.residual(z)))))
    return worst
