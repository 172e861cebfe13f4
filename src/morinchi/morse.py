"""Morse data of generic linear functionals on the singular strata.

A unit covector a turns the map into the scalar function h = <a, f>.  For
almost every a, h and its restrictions to every stratum closure are Morse;
this module locates the critical points stratum by stratum, computes their
indices through reduced Hessians, classifies boundary critical points as
correct or not, determines the side a correct gradient points into, and
certifies that each non-correct boundary point cancels against its paired
interior critical point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numeric import (
    batch_width,
    dedup_points,
    eig_sign_counts,
    min_norm_solve,
    multistart_counters,
    newton,  # noqa: F401  (stays bound here for perfbench)
    newton_batch,
    nullspace,
    vecmat,
)
from .continuation import bisect_on_curve, correct_in_planes, curve_tangents
from .manifold import project_points, tangent_frame, tangent_frames
from .scenario import BlockChart, MorinScenario, StratificationError
from .strata import SingularSystem, Stratification, _multistart_seeds, stratum_points


class GenericityFailure(RuntimeError):
    """The sampled covector violates one of the genericity properties."""


class GenericityExhausted(RuntimeError):
    """No covector passed the genericity audit within the resample budget."""


class MorseAuditError(RuntimeError):
    """A structural Morse-theory identity failed numerically."""


# -- covectors -----------------------------------------------------------------


@dataclass(frozen=True)
class Covector:
    a: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if abs(np.linalg.norm(self.a) - 1.0) > 1e-12:
            raise ValueError("covector must be a unit vector")


def sample_covector(n: int, seed) -> Covector:
    """Deterministic unit covector from a seed (gaussian direction, normalized).

    The same seed always yields the same vector; distinct seeds yield distinct
    vectors except on a measure-zero set of collisions.
    """
    seed_key = [int(s) for s in np.atleast_1d(seed)]
    rng = np.random.default_rng([7, *seed_key])
    v = rng.standard_normal(int(n))
    norm = np.linalg.norm(v)
    while norm < 1e-12:
        v = rng.standard_normal(int(n))
        norm = np.linalg.norm(v)
    return Covector(a=v / norm, seed=seed_key[-1])


# -- records -------------------------------------------------------------------


@dataclass
class CriticalRecord:
    """A critical point of h restricted to a stratum (or stratum closure)."""

    x: np.ndarray
    stratum_depth: int              # depth of the stratum containing x
    on_closure_of: int              # the closure the criticality refers to
    morse_index: int
    index_basis_dim: int
    correct: bool | None = None
    inward_into: str = "n/a"        # plus-stratum | minus-stratum | n/a
    eta_sign: int | None = None
    residual: float = 0.0
    seed: int = 0
    fold_sign: str | None = None    # plus/minus membership of x when depth 1
    closure_index: int | None = None  # index of h on the 1-dim closure (cusps)


@dataclass
class PerturbationCertificate:
    """Pairing of a non-correct boundary point with its interior partner."""

    p: np.ndarray
    p_tilde: np.ndarray
    eps: float
    sign_xnk: int                   # side of the partner: +1 plus arc, -1 minus arc
    det_sign_closure: int
    det_sign_boundary: int
    boundary_index: int             # index of h on the boundary stratum (0-dim: 0)
    interior_index: int             # index of h on the closure at the partner
    cancels: bool
    chi_contribution: int           # added to chi of EACH signed closure


@dataclass
class MorseData:
    covector: Covector
    k0_records: list
    stratum_records: dict           # depth -> list[CriticalRecord]
    boundary_records: list          # cusps as critical points of the closure
    certificates: list
    audits: dict = field(default_factory=dict)


# -- k = 0: critical points of h on M itself ------------------------------------


def _index_or_fail(H, zero_tol, what):
    n_plus, n_minus, n_zero = eig_sign_counts(H, zero_tol)
    if n_zero:
        raise GenericityFailure(f"degenerate reduced Hessian at {what}")
    return n_minus


def _k0_starts(S: MorinScenario, a) -> tuple:
    """(number of seeds, stacked (x, lam) starts of the seeds that project to M).

    lam is the least-squares multiplier of the stationarity equation at x.
    """
    X0 = _multistart_seeds(S, S.tolerances.multistart_density * (S.n + 1), tag=2)
    proj = project_points(S.manifold, X0)
    x = proj.z[proj.converged]
    D = S.jet(x)[1]
    lam0 = min_norm_solve(np.swapaxes(D[:, S.n:], -1, -2), vecmat(a, D[:, :S.n]))
    return len(X0), np.concatenate([x, lam0], axis=1)


def _k0_records(S: MorinScenario, a: Covector, stats=None) -> list:
    """Critical points of h on M from one batched multistart solve of the
    singular system with its cokernel fixed to a, in (x, lam).

    ``stats``, a dict when given, receives the counters of the solve.
    """
    sys0 = SingularSystem(S, a.a)
    tol = S.tolerances
    starts, Z0 = _k0_starts(S, a.a)
    out = newton_batch(sys0.evaluate, Z0, tol=tol.residual, max_iter=30)
    found, residuals = out.z[out.converged], out.residual[out.converged]
    xs = found[:, :S.N]
    kept = dedup_points(xs, tol.dedup_radius)
    if stats is not None:
        stats.update(multistart_counters(starts, out, xs, kept, tol.dedup_radius))
    if not kept:
        raise GenericityFailure("no critical points of the functional found on M")
    Z, residuals = found[kept], residuals[kept]
    x, lam = Z[:, :S.N], Z[:, S.N:]
    # the reduced Hessians on M, in stacked tangent frames
    T, frame_failures = tangent_frames(S.manifold, x)
    _, index, flat = eig_sign_counts(
        T @ S.lagrangian_hessian(x, a.a, lam) @ np.swapaxes(T, -1, -2), tol.eigen_zero)
    # every critical point of h lies on the depth-1 stratum with cokernel a
    points, failures = stratum_points(S, sys0, Z)
    records = []
    for j, p in enumerate(points):
        # each point's checks in the order of a loop over the points
        if j in frame_failures:
            raise frame_failures[j]
        if flat[j]:
            raise GenericityFailure(f"degenerate reduced Hessian at k=0 point {np.round(x[j], 6)}")
        if j in failures:
            raise failures[j]
        if p.signature.n_zero:
            raise GenericityFailure(
                f"critical point of the functional sits on the depth-2 closure at {x[j]}"
            )
        records.append(CriticalRecord(
            x=x[j],
            stratum_depth=1,
            on_closure_of=0,
            morse_index=int(index[j]),
            index_basis_dim=S.m,
            correct=None,
            residual=float(residuals[j]),
            seed=a.seed,
            fold_sign=p.sign,
        ))
    records.sort(key=lambda r: tuple(np.round(r.x, 9)))
    return records


# -- on-stratum critical points: the augmented Lagrange system -------------------


class StratumCriticalSystem(BlockChart):
    """Critical points of h(z) = <a, f(x)> on the singular solution manifold.

    Unknowns w = (z, nu) where z solves the singular system F(z) = 0 and nu
    are the multipliers of the stationarity condition grad h = DF^T nu.
    Residual and exact Jacobian are one call of the scenario's
    ``augmented_block`` with a in its covector slots.  Every method but
    ``reduced_hessian`` takes one point or a stack of them.
    """

    def __init__(self, S: MorinScenario, a):
        self.S = S
        self.a = np.asarray(a, dtype=float)
        self.base = SingularSystem(S)
        if self.base.reduced:
            raise StratificationError("augmented system needs target dimension >= 2")
        self.D = self.base.dim_z
        self.E = self.base.n_eqs
        super().__init__(S.augmented_block, self.D + self.E, S.tolerances.residual,
                         fixed=self.a, at=self.D + self.E)

    def initial_nu(self, z):
        """Least-squares nu of grad h = DF^T nu at z, from the block at nu = 0
        (where the stationarity rows are grad h), ``batch_width`` lanes a call."""
        E, D = self.E, self.D
        W = np.concatenate([z, np.zeros(np.shape(z)[:-1] + (E,))], axis=-1)
        flat, width = W.reshape(-1, D + E), batch_width(D + E)
        nu = np.empty((len(flat), E))
        for i in range(0, len(flat), width):
            R, J = self.evaluate(flat[i:i + width])
            nu[i:i + width] = min_norm_solve(np.swapaxes(J[:, :E, :D], -1, -2), R[:, E:])
        return nu.reshape(W.shape[:-1] + (E,))

    def reduced_hessian(self, z, nu):
        """The Hessian of the Lagrangian, J[E:, :D], on the kernel of DF at one point."""
        J = self.evaluate(np.concatenate([z, nu]))[1]
        B = nullspace(J[:self.E, :self.D], rtol=1e-8)
        return B.T @ J[self.E:, :self.D] @ B


def _polish_stratum_critical(S, a, Z):
    """Newton on the augmented system of h = <a, f> from a stack Z (B, dim_z)
    of points of the depth-1 set, each with its least-squares nu, as one
    batched solve.  Returns the system and the ``newton_batch`` result."""
    sysc = StratumCriticalSystem(S, a)
    out = newton_batch(sysc.evaluate, np.concatenate([Z, sysc.initial_nu(Z)], axis=1),
                       tol=S.tolerances.residual)
    return sysc, out


def _stratum_records(S, a, W, residuals, sysc) -> list:
    """Records of a stack W of critical points w = (z, nu) of h on the
    depth-1 stratum, their stratum data from one ``stratum_points`` pass.
    Each point's checks raise in the order of a loop over the points: its
    reduced Hessian's, then its stratum data's."""
    Z = W[:, :sysc.D]
    points, failures = stratum_points(S, sysc.base, Z)
    records = []
    for j, p in enumerate(points):
        x = Z[j, :S.N]
        index = _index_or_fail(sysc.reduced_hessian(Z[j], W[j, sysc.D:]),
                               S.tolerances.eigen_zero, f"stratum critical point {np.round(x, 6)}")
        if j in failures:
            raise failures[j]
        records.append(CriticalRecord(
            x=x,
            stratum_depth=1,
            on_closure_of=1,
            morse_index=int(index),
            index_basis_dim=S.n - 1,
            correct=None,
            residual=float(residuals[j]),
            seed=a.seed,
            fold_sign=p.sign,
        ))
    return records


def _curve_phi_values(S, a, curve):
    """Derivative of h along the curve at every node, in the trace's orientation."""
    X = curve.x_nodes(S.N)
    width = batch_width(curve.nodes.shape[1])
    Df = np.concatenate([S.Df(X[i:i + width]) for i in range(0, len(X), width)])
    return np.einsum("l,kli,ki->k", a, Df, curve.tangents[:, :S.N])


def _cusp_near(S, cusps, x):
    """Index of the first cusp close enough to x to count as a hit, or None."""
    radius = max(10 * S.tolerances.dedup_radius, 1e-5)
    return next((ci for ci, cp in enumerate(cusps) if np.linalg.norm(cp.x - x) < radius),
                None)


def _critical_points_on_curves(S, a: Covector, strat: Stratification):
    """Zeros of dh/ds on every traced curve; cusps come back separately.

    The zeros away from every cusp are polished in one batched solve.  The
    cusp itself solves the augmented system, so a polish that slid into it
    is a cusp hit, not an interior critical point.
    """
    system = SingularSystem(S)
    zeros = [np.zeros((0, system.dim_z))]

    def dh_ds(Z, chords):
        T = curve_tangents(system, Z, prev=chords)
        return np.einsum("l,kli,ki->k", a.a, S.Df(Z[:, :S.N]), T[:, :S.N])

    for curve in strat.curves:
        phis = _curve_phi_values(S, a.a, curve)
        if np.any(phis == 0.0):
            raise GenericityFailure("exact zero derivative at a trace node")
        brackets = np.flatnonzero(~(phis * np.roll(phis, -1) > 0))
        zeros.append(bisect_on_curve(system, curve.nodes[brackets],
                                     curve.nodes[(brackets + 1) % len(phis)],
                                     phis[brackets], dh_ds, gap=1e-13)[0])
    Z = np.concatenate(zeros)
    hits = [_cusp_near(S, strat.cusps, z[:S.N]) for z in Z]
    cusp_hits = {hit: z for hit, z in zip(hits, Z) if hit is not None}
    sysc, out = _polish_stratum_critical(S, a.a, Z[[hit is None for hit in hits]])
    if not out.converged.all():
        raise GenericityFailure("stratum critical point failed to polish")
    fold = []
    for j, w in enumerate(out.z):
        hit = _cusp_near(S, strat.cusps, w[:S.N])
        if hit is None:
            fold.append(j)
        else:
            cusp_hits[hit] = w[:sysc.D]
    kept = [fold[i] for i in dedup_points(out.z[fold, :S.N], S.tolerances.dedup_radius)]
    records = _stratum_records(S, a, out.z[kept], out.residual[kept], sysc)
    records.sort(key=lambda r: tuple(np.round(r.x, 9)))
    return records, cusp_hits


def _critical_points_on_surface(S, a: Covector, strat: Stratification, stats=None):
    """Multistart solve on a stratum of dimension >= 2, seeded by the point cloud.

    Every point of the cloud is polished at once (``_polish_stratum_critical``).
    ``stats``, a dict when given, receives the counters of the polish.
    """
    tol = S.tolerances
    system = SingularSystem(S)
    Z = np.array([system.pack(p.x, p.cokernel, p.multiplier)
                  for p in strat.points]).reshape(-1, system.dim_z)
    sysc, out = _polish_stratum_critical(S, a.a, Z)
    found, residuals = out.z[out.converged], out.residual[out.converged]
    kept = dedup_points(found[:, :S.N], tol.dedup_radius)
    if stats is not None:
        stats.update(multistart_counters(len(Z), out, found[:, :S.N], kept, tol.dedup_radius))
    if len(found) == 0:
        raise GenericityFailure("no critical points found on the singular surface")
    records = _stratum_records(S, a, found[kept], residuals[kept], sysc)
    records.sort(key=lambda r: tuple(np.round(r.x, 9)))
    return records


def critical_points_on_stratum(S: MorinScenario, a: Covector, k: int,
                               strat: Stratification | None = None, stats=None):
    """Critical records of h on the depth-k stratum (k = 0 means M itself).

    ``stats`` (a dict, when given) receives the counters of the k=0 census
    or, for n >= 3, of the polish on the fold surface.
    k = 1 with n = 2 is refused: ``_critical_points_on_curves`` walks the
    fold curves for it and also returns the cusp hits.
    """
    if k == 0:
        return _k0_records(S, a, stats)
    if k != 1:
        raise StratificationError("only the depth-1 stratum carries critical solves")
    if S.n == 2:
        raise StratificationError(
            "depth-1 critical points for n = 2 come from the walk along the fold curves")
    if strat is None:
        raise ValueError("stratification required for stratum-level solves")
    if S.n == 1:
        records = []
        for p in strat.points:
            records.append(CriticalRecord(
                x=p.x, stratum_depth=1, on_closure_of=1,
                morse_index=0, index_basis_dim=0,
                residual=p.residuals.get("system", 0.0), seed=a.seed,
                fold_sign=p.sign,
            ))
        return records
    return _critical_points_on_surface(S, a, strat, stats)


# -- correctness, eta, xi ---------------------------------------------------------


def _tangential_gradient_on_M(S, a, x):
    T = tangent_frame(S.manifold, x)
    return T.T @ (T @ (S.Df(x).T @ a))


def _gradient_scale(S, a, x):
    return float(np.linalg.norm(a)) * max(1.0, float(np.linalg.norm(S.Df(x))))


def classify_correctness(S: MorinScenario, a: Covector, rec: CriticalRecord,
                         closure_depth: int, point=None, boundary_critical=False):
    """Correctness of a critical point with respect to the given closure.

    Correct means the gradient of h restricted to the closure manifold does
    not vanish at the point.  For closure depth 1, ``point`` is the located
    stratum point at rec.x.  When the point is known to be a critical point
    of the boundary restriction, the numeric verdict is cross-checked
    against the structural dichotomy: points two levels deeper than the
    closure are correct, points one level deeper are not.
    """
    x = rec.x
    thr = S.tolerances.correctness * _gradient_scale(S, a.a, x)
    if closure_depth == 0:
        grad_norm = float(np.linalg.norm(_tangential_gradient_on_M(S, a.a, x)))
    elif closure_depth == 1:
        # the located point is already on the curve
        system = SingularSystem(S)
        z = system.pack(point.x, point.cokernel, point.multiplier)
        tx = curve_tangents(system, z[None])[0, :S.N]
        grad_norm = abs(float((S.Df(point.x).T @ a.a) @ tx)) / max(np.linalg.norm(tx), 1e-12)
    else:
        raise StratificationError("correctness beyond closure depth 1 is out of scope")
    verdict = bool(grad_norm > thr)
    expected = None
    if boundary_critical:
        if rec.stratum_depth == closure_depth + 2:
            expected = True
        elif rec.stratum_depth == closure_depth + 1:
            expected = False
    if expected is not None and verdict != expected:
        raise MorseAuditError(
            f"correctness dichotomy violated at {np.round(x, 6)}: numeric "
            f"gradient {grad_norm:.3e} vs threshold {thr:.3e}, expected "
            f"{'correct' if expected else 'non-correct'}"
        )
    rec.correct = verdict
    return rec


def eta_sign(S: MorinScenario, a: Covector, p) -> int:
    """Sign of the factor linking the closure gradient of h to the gradient of
    the next degeneracy function at a depth-2 point (closure depth 0).

    Both gradients live in the orthogonal complement of the kernel inside
    the tangent space and must be parallel; the sign is normalized so the
    leading coefficient of the local chain (the flattening-eigenvalue slope
    along the degenerate direction) is positive.
    """
    if p.degenerate_direction is None or p.eig_slope is None:
        raise StratificationError("eta needs a classified depth-2 point")
    x, v = p.x, p.degenerate_direction
    T = tangent_frame(S.manifold, x)
    w_l = _tangential_gradient_on_M(S, a.a, x)
    W = S.lagrangian_hessian(x, p.cokernel, p.multiplier)
    w_d = T.T @ (T @ (W @ v))
    nl, nd = np.linalg.norm(w_l), np.linalg.norm(w_d)
    if nl < 1e-10 or nd < 1e-10:
        raise MorseAuditError(f"vanishing gradient in the eta comparison at {x}")
    cosang = float(w_l @ w_d) / (nl * nd)
    angle = float(np.arccos(np.clip(abs(cosang), -1.0, 1.0)))
    if angle > 1e-4:
        raise MorseAuditError(
            f"closure gradient and degeneracy gradient not parallel at "
            f"{np.round(x, 6)} (angle {angle:.2e} rad)"
        )
    return int(np.sign(cosang) * np.sign(p.eig_slope))


# -- the index-parity audit --------------------------------------------------------


@dataclass
class ParityAudit:
    checked: int
    violations: list

    @property
    def ok(self):
        return not self.violations


def check_fold_index_parity(S: MorinScenario, a: Covector, k0_records,
                            stratum_records) -> ParityAudit:
    """Ambient vs on-stratum Morse index parities at every k = 0 critical point.

    On the plus side the parities agree, on the minus side they differ by one;
    a violation is a hard failure of either the numerics or the hypotheses.
    The audit applies for n >= 2: with n = 1 the kernel of d(f|M) is all of
    T_xM and m is even, so the parities agree by construction.
    """
    violations = []
    for rec in k0_records:
        partner = min(stratum_records, key=lambda r: float(np.linalg.norm(r.x - rec.x)),
                      default=None)
        if partner is None or np.linalg.norm(partner.x - rec.x) > 1e-6:
            violations.append((tuple(map(float, rec.x)), "no on-stratum partner"))
            continue
        on_idx = partner.morse_index
        if rec.fold_sign == "plus":
            ok = (rec.morse_index - on_idx) % 2 == 0
        else:
            ok = (rec.morse_index - on_idx) % 2 == 1
        if not ok:
            violations.append((tuple(map(float, rec.x)),
                               f"ambient {rec.morse_index} vs stratum {on_idx} "
                               f"on {rec.fold_sign}"))
    return ParityAudit(checked=len(k0_records), violations=violations)


# -- cusp boundary records and perturbation certificates ----------------------------


def _curve_context_at(S, p):
    """(system, the cusp's z, curve tangent t oriented into the plus arc, and
    the arc samples at -t and +t, curve_step/2 away along the curve).  The
    cusp was landed when it was located, so z is its packed (x, u, mu)."""
    system = SingularSystem(S)
    z = system.pack(p.x, p.cokernel, p.multiplier)
    t = curve_tangents(system, z[None])[0]
    delta = S.tolerances.curve_step / 2
    starts = z + np.outer([-delta, delta], t)
    out = correct_in_planes(system, starts, starts, np.array([t, t]))
    if not out.converged.all():
        raise StratificationError("could not sample the two arcs at a cusp")
    samples, signs = list(out.z), []
    points, failures = stratum_points(S, system, out.z)
    for j, q in enumerate(points):
        if j in failures:
            raise failures[j]
        if q.signature.n_zero:
            raise StratificationError("arc sample at a cusp is not a fold point")
        signs.append(q.sign)
    if signs[0] == signs[1]:
        raise MorseAuditError(f"arcs adjacent to the cusp at {p.x} carry equal signs")
    if signs[1] != "plus":
        t, samples = -t, samples[::-1]
    return system, z, t, samples


def perturbation_certificate(S: MorinScenario, a: Covector, p) -> PerturbationCertificate:
    """Pair a non-correct cusp with the unique nearby interior critical point.

    The construction follows the local picture: adding eps times the inward
    coordinate makes the cusp a correct boundary point whose gradient points
    into the plus side, and moves the old interior criticality to a fold
    point on the side determined by the closure Hessian sign.
    """
    system, z_c, t, (z_minus, z_plus) = _curve_context_at(S, p)
    h = [float(a.a @ S.f(z[:S.N])) for z in (z_minus, z_c, z_plus)]
    h2 = (h[0] - 2 * h[1] + h[2]) / (S.tolerances.curve_step / 2) ** 2
    thr = S.tolerances.correctness * _gradient_scale(S, a.a, p.x)
    if abs(h2) < thr:
        raise GenericityFailure(f"degenerate closure Hessian at the cusp {p.x}")
    interior_index = 1 if h2 < 0 else 0
    # eps halved up to seven times; the first candidate that converges and
    # is separated from the cusp is the partner
    eps = 1e-4 * abs(h2) * 0.5 ** np.arange(8)
    starts = z_c + np.outer(-eps / h2, t)
    out = correct_in_planes(system, starts, starts, np.tile(t, (len(eps), 1)))
    separated = out.converged & (np.linalg.norm(out.z[:, :S.N] - p.x, axis=1)
                                 > S.tolerances.dedup_radius)
    if not separated.any():
        raise StratificationError(f"no separated interior partner at the cusp {p.x}")
    k = int(np.argmax(separated))
    tilde, eps = out.z[k], float(eps[k])
    x_t = tilde[:S.N]
    (q,), failures = stratum_points(S, system, tilde[None])
    if failures:
        raise failures[0]
    if q.signature.n_zero:
        raise StratificationError("interior partner is not a fold point")
    sign_xnk = 1 if q.sign == "plus" else -1
    det_sign_closure = 1 if h2 > 0 else -1
    det_sign_boundary = -1          # -eps times the (empty) boundary Hessian
    predicted = (-1) ** (0 + 1) * (-1) ** interior_index
    return PerturbationCertificate(
        p=p.x,
        p_tilde=x_t,
        eps=eps,
        sign_xnk=sign_xnk,
        det_sign_closure=det_sign_closure,
        det_sign_boundary=det_sign_boundary,
        boundary_index=0,
        interior_index=interior_index,
        cancels=(sign_xnk == predicted),
        chi_contribution=1 if interior_index == 0 else 0,
    )


def _boundary_records(S, a: Covector, strat: Stratification, cusp_hits):
    """Cusps as critical points of h on the depth-1 closure (all non-correct).

    The index of h on the closure at a cusp is the index of its certified
    interior partner, so the certificate supplies it.
    """
    records = []
    certificates = []
    eta_checks = []
    for ci, p in enumerate(strat.cusps):
        if ci not in cusp_hits:
            raise MorseAuditError(
                f"cusp at {np.round(p.x, 6)} is not a critical point of the "
                f"restricted functional (boundary-criticality equivalence fails)"
            )
        cert = perturbation_certificate(S, a, p)
        closure_index = cert.interior_index
        rec = CriticalRecord(
            x=p.x, stratum_depth=2, on_closure_of=1,
            morse_index=0, index_basis_dim=0,
            residual=p.residuals.get("system", 0.0), seed=a.seed,
            closure_index=closure_index,
        )
        classify_correctness(S, a, rec, closure_depth=1, point=p, boundary_critical=True)
        rec.eta_sign = eta_sign(S, a, p)
        # closure-gradient on M is nonzero at a cusp: correct for closure depth 0
        rec0 = CriticalRecord(
            x=p.x, stratum_depth=2, on_closure_of=0,
            morse_index=closure_index, index_basis_dim=1,
            residual=rec.residual, seed=a.seed,
        )
        classify_correctness(S, a, rec0, closure_depth=0, boundary_critical=True)
        eta_checks.append({
            "x": tuple(p.x),
            "eta": rec.eta_sign,
            "closure_index": closure_index,
            "identity_ok": rec.eta_sign == -((-1) ** closure_index),
        })
        records.append(rec)
        certificates.append(cert)
    return records, certificates, eta_checks


# -- assembly and the genericity loop -------------------------------------------------


def compute_morse_data(S: MorinScenario, strat: Stratification, a: Covector) -> MorseData:
    k0_solver, surface_solver = {}, {}
    k0 = critical_points_on_stratum(S, a, 0, stats=k0_solver)
    audits = {"k0_solver": k0_solver, "surface_solver": surface_solver}
    if S.n == 2:
        k1, cusp_hits = _critical_points_on_curves(S, a, strat)
        boundary, certs, eta_checks = _boundary_records(S, a, strat, cusp_hits)
    else:
        k1 = critical_points_on_stratum(S, a, 1, strat, stats=surface_solver)
        boundary, certs, eta_checks = [], [], []
    audits["eta_checks"] = eta_checks
    audits["parity"] = check_fold_index_parity(S, a, k0, k1) if S.n > 1 else None
    audits["separation"] = _boundary_equivalence_audit(S, k0, k1, strat)
    audits["block_hessian_ok"] = all(c["identity_ok"] for c in eta_checks)
    return MorseData(
        covector=a,
        k0_records=k0,
        stratum_records={1: k1},
        boundary_records=boundary,
        certificates=certs,
        audits=audits,
    )


@dataclass
class SeparationAudit:
    matched: int
    max_distance: float
    unmatched_k0: list
    unmatched_k1: list

    @property
    def ok(self):
        return not self.unmatched_k0 and not self.unmatched_k1


def _boundary_equivalence_audit(S, k0_records, k1_records, strat) -> SeparationAudit:
    """Critical points of h on M and interior critical points of h on the
    depth-1 stratum must be the same set, point for point."""
    used = set()
    max_d = 0.0
    unmatched_k0 = []
    for rec in k0_records:
        best_j, best_d = None, np.inf
        for j, r1 in enumerate(k1_records):
            if j in used:
                continue
            d = float(np.linalg.norm(r1.x - rec.x))
            if d < best_d:
                best_j, best_d = j, d
        if best_j is None or best_d > 1e-6:
            unmatched_k0.append(tuple(map(float, rec.x)))
        else:
            used.add(best_j)
            max_d = max(max_d, best_d)
    unmatched_k1 = [tuple(map(float, r.x))
                    for j, r in enumerate(k1_records) if j not in used]
    return SeparationAudit(
        matched=len(used),
        max_distance=max_d,
        unmatched_k0=unmatched_k0,
        unmatched_k1=unmatched_k1,
    )


@dataclass
class GenericityAudit:
    ok: bool
    failures: list
    attempt: int


def validate_genericity(S: MorinScenario, a: Covector, strat: Stratification,
                        data: MorseData, attempt: int = 0) -> GenericityAudit:
    """Checks the almost-every-covector properties on the computed Morse data.

    Nondegeneracy failures raise during computation; this audit re-checks the
    set-level properties and collects anything that should trigger resampling
    with the next seed.
    """
    failures = []
    sep = data.audits["separation"]
    if not sep.ok:
        failures.append(
            f"boundary-criticality equivalence: unmatched {sep.unmatched_k0} "
            f"{sep.unmatched_k1}"
        )
    for rec in data.k0_records:
        for cusp in strat.cusps:
            if np.linalg.norm(rec.x - cusp.x) < 10 * S.tolerances.dedup_radius:
                failures.append("critical point of h collides with a cusp at "
                                f"{tuple(map(float, rec.x))}")
    parity = data.audits["parity"]
    if parity is not None and not parity.ok:
        failures.append(f"index parity: {parity.violations}")
    if not data.audits["block_hessian_ok"]:
        failures.append("block Hessian sign identity failed at a cusp")
    for cert in data.certificates:
        if not cert.cancels:
            failures.append(f"perturbation pair at {tuple(map(float, cert.p))} does not cancel")
    return GenericityAudit(ok=not failures, failures=failures, attempt=attempt)


def run_with_genericity(S: MorinScenario, strat: Stratification):
    """Sample covectors until the genericity audit passes, within the budget."""
    history = []
    for attempt in range(S.tolerances.max_resamples):
        a = sample_covector(S.n, [S.seed, attempt])
        try:
            data = compute_morse_data(S, strat, a)
        except (GenericityFailure, MorseAuditError) as exc:
            history.append(f"attempt {attempt}: {exc}")
            continue
        audit = validate_genericity(S, a, strat, data, attempt)
        if audit.ok:
            return a, data, audit, history
        history.append(f"attempt {attempt}: {'; '.join(audit.failures)}")
    raise GenericityExhausted(
        f"no covector passed the genericity audit in "
        f"{S.tolerances.max_resamples} attempts: {history}"
    )
