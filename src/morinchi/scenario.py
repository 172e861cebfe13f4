"""Scenarios: an implicit manifold, a polynomial map on it and its tolerances.

A scenario file is JSON with prefix-notation polynomials; ``load_scenario``
reads one and refuses every malformed field or violated hypothesis with a
``ScenarioFormatError``.  ``MorinScenario`` keeps the jet of the map and the
constraints and the two polynomial blocks the solvers evaluate, each built
on first use; ``BlockChart`` reads a system off one of those blocks.  The
error types of a rejected map live here too, so every layer can raise them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr as ex
from ._numeric import vecmat
from .manifold import ImplicitManifold, ManifoldError


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
        if not isinstance(d, dict):
            raise ScenarioFormatError(
                f"tolerances must be an object of named tolerances, got {d!r}")
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
        self.seed = seed
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
        self.tolerances = tolerances or Tolerances()
        self.chi_expected = chi_expected if chi_expected is None else int(chi_expected)

        self._jet = None            # built on the first use of ``jet``
        self._third = None          # built on the first third_tensors call
        self._singular = None       # built on the first use of ``singular_block``
        self._augmented = None      # built on the first use of ``augmented_block``

    @property
    def seed(self):
        """The root seed of every seeded generator of a run."""
        return self._seed

    @seed.setter
    def seed(self, value):
        # the seeded generators refuse a negative key with an untyped error
        seed = int(value)
        if seed < 0:
            raise ScenarioFormatError(f"seed must be non-negative, got {seed}")
        self._seed = seed

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
        then every nonzero partial of them (``_block_with_partials``).  Each
        coefficient is exact until the block rounds it."""
        if self._singular is None:
            D = self.N + self.n + self.c
            self._singular = _block_with_partials(self._singular_rows(D), D, D)
        return self._singular

    @property
    def augmented_block(self):
        """The system of ``strata.StratumCriticalSystem`` as one ExprBlock over
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
        """Symmetric third-derivative tensors of (f_1..f_n, g_1..g_c) at x:
        the Hessians of one ``Jet`` of their gradients, built on first use.

        ``x`` is a point or a stack.  No solver calls it: the augmented block
        differentiates exactly instead.
        """
        if self._third is None:
            self._third = ex.Jet([ex.differentiate(e, i)
                                  for e in self.components + self.manifold.constraints
                                  for i in range(self.N)], self.N)
        H = self._third(x)[2]
        T = H.reshape(H.shape[:-3] + (-1, self.N) + H.shape[-2:])
        return T[..., :self.n, :, :, :], T[..., self.n:, :, :, :]

    def __repr__(self):
        comps = [ex.to_prefix(c) for c in self.components]
        return f"MorinScenario({self.name!r}, m={self.m}, n={self.n}, f={comps})"


def _block_with_partials(rows, nvars, ncols):
    """ExprBlock of ``rows`` then their nonzero partials in the first ``ncols``
    variables, with the number of rows and the (row, column) array of each
    partial."""
    partials = [(r, k, ex.differentiate(e, k)) for r, e in enumerate(rows) for k in range(ncols)]
    at, wrt, partials = zip(*(p for p in partials if not p[2].is_zero()))
    return (ex.ExprBlock(list(rows) + list(partials), nvars), len(rows),
            np.array(at), np.array(wrt))


class BlockChart:
    """The first ``n_eqs`` rows of a block from ``_block_with_partials`` as a
    system in the block's variables but the fixed inputs ``fixed``, which
    fill the contiguous slots from ``at`` on.

    ``evaluate`` takes one point or a stack (..., dim_z) and returns the
    residual (..., n_eqs) and the Jacobian (..., n_eqs, dim_z): it fills the
    fixed slots, calls the block once and scatters the kept partials into J.
    ``tol`` is the residual tolerance of the system's solves.
    """

    def __init__(self, block, n_eqs, tol, fixed=(), at=0):
        self._block, head, rows, cols = block
        self.fixed = np.asarray(fixed, dtype=float)
        self._at, k = at, self.fixed.size
        self.n_eqs, self.dim_z, self.tol = n_eqs, self._block.nvars - k, tol
        # a partial of a row past n_eqs or in a fixed slot's column is
        # dropped, and the columns past the fixed slots move down by their number
        keep = (rows < n_eqs) & ((cols < at) | (cols >= at + k))
        cols = np.where(cols < at, cols, cols - k)
        self._src = (head + np.arange(rows.size))[keep]
        self._dst = (rows * self.dim_z + cols)[keep]

    def evaluate(self, z):
        z = np.asarray(z, dtype=float)
        lead, at = z.shape[:-1], self._at
        if self.fixed.size:
            full = np.empty(lead + (self._block.nvars,))
            full[..., :at] = z[..., :at]
            full[..., at:at + self.fixed.size] = self.fixed
            full[..., at + self.fixed.size:] = z[..., at:]
            z = full
        vals = self._block(z)
        J = np.zeros(lead + (self.n_eqs * self.dim_z,))
        J[..., self._dst] = vals[..., self._src]
        return vals[..., :self.n_eqs], J.reshape(lead + (self.n_eqs, self.dim_z))


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
                                    compact=compact, sample_halfwidth=halfwidth)
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
