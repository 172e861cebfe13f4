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
from .manifold import project_points, tangent_frame
from .strata import (
    MorinScenario,
    SingularSystem,
    Stratification,
    StratificationError,
    _multistart_seeds,
    bisect_on_curve,
    correct_in_plane,
    curve_tangent,
    land,
    stratum_point,
)


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


def _reduced_hessian_on_M(S, x, a, lam):
    frame = tangent_frame(S.manifold, x)
    W = S.lagrangian_hessian(x, a, lam)
    return frame.tangent @ W @ frame.tangent.T


def _index_or_fail(H, zero_tol, what):
    n_plus, n_minus, n_zero = eig_sign_counts(H, zero_tol)
    if n_zero:
        raise GenericityFailure(f"degenerate reduced Hessian at {what}")
    return n_minus


def _k0_starts(S: MorinScenario, a) -> tuple:
    """(number of seeds, stacked (x, lam) starts of the seeds that project to M).

    lam is the least-squares multiplier of the stationarity equation at x.
    """
    X0 = np.array(_multistart_seeds(S, S.tolerances.multistart_density * (S.n + 1), tag=2))
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
    records = []
    for idx in kept:
        z, res = found[idx], residuals[idx]
        x, lam = z[:S.N], z[S.N:]
        Hred = _reduced_hessian_on_M(S, x, a.a, lam)
        index = _index_or_fail(Hred, tol.eigen_zero, f"k=0 point {np.round(x, 6)}")
        # every critical point of h lies on the depth-1 stratum with cokernel a
        p = stratum_point(S, x, a.a, lam)
        if p.signature.n_zero:
            raise GenericityFailure(
                f"critical point of the functional sits on the depth-2 closure at {x}"
            )
        rec = CriticalRecord(
            x=np.asarray(x, dtype=float),
            stratum_depth=1,
            on_closure_of=0,
            morse_index=int(index),
            index_basis_dim=S.m,
            correct=None,
            residual=float(res),
            seed=a.seed,
            fold_sign=p.sign,
        )
        records.append(rec)
    records.sort(key=lambda r: tuple(np.round(r.x, 9)))
    return records


# -- on-stratum critical points: the augmented Lagrange system -------------------


class StratumCriticalSystem:
    """Critical points of h(z) = <a, f(x)> on the singular solution manifold.

    Unknowns (z, nu) where z solves the singular system F(z) = 0 and nu are
    the multipliers of the stationarity condition grad h = DF^T nu.  The
    Jacobian is analytic; the only second-derivative data it needs beyond
    the Hessians are the third derivative tensors of f and g.  Every
    method but ``reduced_hessian`` takes one point or a stack of them.
    """

    def __init__(self, S: MorinScenario, a):
        self.S = S
        self.a = np.asarray(a, dtype=float)
        self.base = SingularSystem(S)
        if self.base.reduced:
            raise StratificationError("augmented system needs target dimension >= 2")
        self.D = self.base.dim_z
        self.E = self.base.n_eqs

    def grad_h(self, z):
        S = self.S
        x, _, _ = self.base.unpack(z)
        g = np.zeros(x.shape[:-1] + (self.D,))
        g[..., :S.N] = vecmat(self.a, S.Df(x))
        return g

    def hess_lagrangian(self, z, nu):
        """A = hess_z h - sum_r nu_r hess_z F_r, in (x, u, mu) block form."""
        S = self.S
        N, n, c = S.N, S.n, S.c
        x, u, mu = self.base.unpack(z)
        nu_g, nu_s, nu_n = nu[..., :c], nu[..., c:c + N], nu[..., c + N]
        H = S.jet(x)[2]
        Hf, Hg = H[..., :n, :, :], H[..., n:, :, :]
        T3f, T3g = S.third_tensors(x)
        A = np.zeros(x.shape[:-1] + (self.D, self.D))
        Axx = np.einsum("l,...lpq->...pq", self.a, Hf)
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
        return A

    def evaluate(self, w):
        """(residual, Jacobian) at w; both read one evaluation of the base system."""
        z, nu = w[..., :self.D], w[..., self.D:]
        F, DF = self.base.evaluate(z)
        R = np.concatenate([F, self.grad_h(z) - vecmat(nu, DF)], axis=-1)
        J = np.zeros(w.shape[:-1] + (self.E + self.D, self.D + self.E))
        J[..., :self.E, :self.D] = DF
        J[..., self.E:, :self.D] = self.hess_lagrangian(z, nu)
        J[..., self.E:, self.D:] = -np.swapaxes(DF, -1, -2)
        return R, J

    def residual(self, w):
        return self.evaluate(w)[0]

    def jacobian(self, w):
        return self.evaluate(w)[1]

    def initial_nu(self, z):
        return min_norm_solve(np.swapaxes(self.base.jacobian(z), -1, -2), self.grad_h(z))

    def reduced_hessian(self, z, nu):
        B = nullspace(self.base.jacobian(z), rtol=1e-8)
        A = self.hess_lagrangian(z, nu)
        return B.T @ A @ B


def _polish_stratum_critical(S, a, z_guess):
    sysc = StratumCriticalSystem(S, a)
    w0 = np.concatenate([z_guess, sysc.initial_nu(z_guess)])
    out = newton_batch(sysc.evaluate, w0, tol=S.tolerances.residual)
    if not out.converged[0]:
        return None
    w = out.z[0]
    return w[:sysc.D], w[sysc.D:], out.residual[0], sysc


def _stratum_record(S, a, z, nu, res, sysc) -> CriticalRecord:
    x, u, mu = sysc.base.unpack(z)
    Hred = sysc.reduced_hessian(z, nu)
    index = _index_or_fail(Hred, S.tolerances.eigen_zero,
                           f"stratum critical point {np.round(x, 6)}")
    p = stratum_point(S, x, u, mu)
    return CriticalRecord(
        x=np.asarray(x, dtype=float),
        stratum_depth=p.depth,
        on_closure_of=1,
        morse_index=int(index),
        index_basis_dim=S.n - 1,
        correct=None,
        residual=float(res),
        seed=a.seed,
        fold_sign=p.sign if p.depth == 1 else None,
    )


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
    """Zeros of dh/ds on every traced curve; cusps come back separately."""
    system = SingularSystem(S)
    tol = S.tolerances
    fold_zeros = []
    cusp_hits = {}

    def dh_ds(z, chord):
        t = curve_tangent(system, z, prev=chord / np.linalg.norm(chord))
        return float((S.Df(z[:S.N]).T @ a.a) @ t[:S.N])

    for curve in strat.curves:
        phis = _curve_phi_values(S, a.a, curve)
        K = len(phis)
        for i in range(K):
            j = (i + 1) % K
            if phis[i] == 0.0:
                raise GenericityFailure("exact zero derivative at a trace node")
            if phis[i] * phis[j] > 0:
                continue
            z_star, _ = bisect_on_curve(system, curve.nodes[i], curve.nodes[j], phis[i],
                                        dh_ds, gap=1e-13)
            hit = _cusp_near(S, strat.cusps, z_star[:S.N])
            if hit is None:
                polished = _polish_stratum_critical(S, a.a, z_star)
                if polished is None:
                    raise GenericityFailure("stratum critical point failed to polish")
                # the cusp itself solves the augmented system; a polish that
                # slid into it is a cusp hit, not an interior critical point
                z_star = polished[0]
                hit = _cusp_near(S, strat.cusps, z_star[:S.N])
                if hit is None:
                    fold_zeros.append(polished)
                    continue
            cusp_hits[hit] = z_star
    records = []
    if fold_zeros:
        xs = np.array([sysc.base.unpack(z)[0] for z, _, _, sysc in fold_zeros])
        for idx in dedup_points(xs, tol.dedup_radius):
            z, nu, res, sysc = fold_zeros[idx]
            records.append(_stratum_record(S, a, z, nu, res, sysc))
    records.sort(key=lambda r: tuple(np.round(r.x, 9)))
    return records, cusp_hits


def _critical_points_on_surface(S, a: Covector, strat: Stratification):
    """Multistart solve on a stratum of dimension >= 2, seeded by the point cloud.

    Every point of the cloud is polished at once, as one batched Newton.
    """
    tol = S.tolerances
    sysc = StratumCriticalSystem(S, a.a)
    Z = np.array([sysc.base.pack(p.x, p.cokernel, p.multiplier)
                  for p in strat.points]).reshape(-1, sysc.D)
    out = newton_batch(sysc.evaluate, np.concatenate([Z, sysc.initial_nu(Z)], axis=1),
                       tol=tol.residual)
    found, residuals = out.z[out.converged], out.residual[out.converged]
    if len(found) == 0:
        raise GenericityFailure("no critical points found on the singular surface")
    records = []
    for idx in dedup_points(found[:, :S.N], tol.dedup_radius):
        w, res = found[idx], residuals[idx]
        records.append(_stratum_record(S, a, w[:sysc.D], w[sysc.D:], res, sysc))
    records.sort(key=lambda r: tuple(np.round(r.x, 9)))
    return records


def critical_points_on_stratum(S: MorinScenario, a: Covector, k: int,
                               strat: Stratification | None = None, stats=None):
    """Critical records of h on the depth-k stratum (k = 0 means M itself).

    For k = 0, ``stats`` (a dict, when given) receives the census counters.
    For k = 1 and n = 2, use ``_critical_points_on_curves``, which also
    returns the cusp hits.
    """
    if k == 0:
        return _k0_records(S, a, stats)
    if k != 1:
        raise StratificationError("only the depth-1 stratum carries critical solves")
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
    return _critical_points_on_surface(S, a, strat)


# -- correctness, eta, xi ---------------------------------------------------------


def _tangential_gradient_on_M(S, a, x):
    frame = tangent_frame(S.manifold, x)
    w = S.Df(x).T @ a
    return frame.tangent.T @ (frame.tangent @ w)


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
        system = SingularSystem(S)
        landed = land(system, system.pack(point.x, point.cokernel, point.multiplier))
        if not landed.converged:
            raise StratificationError(f"could not land on the singular curve at {np.round(x, 6)}")
        t = curve_tangent(system, landed.z)
        tx = t[:S.N]
        xl = landed.z[:S.N]
        grad_norm = abs(float((S.Df(xl).T @ a.a) @ tx)) / max(np.linalg.norm(tx), 1e-12)
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
    frame = tangent_frame(S.manifold, x)
    w_l = _tangential_gradient_on_M(S, a.a, x)
    W = S.lagrangian_hessian(x, p.cokernel, p.multiplier)
    w_d = frame.tangent.T @ (frame.tangent @ (W @ v))
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
            violations.append((tuple(rec.x), "no on-stratum partner"))
            continue
        on_idx = partner.morse_index
        if rec.fold_sign == "plus":
            ok = (rec.morse_index - on_idx) % 2 == 0
        else:
            ok = (rec.morse_index - on_idx) % 2 == 1
        if not ok:
            violations.append((tuple(rec.x),
                               f"ambient {rec.morse_index} vs stratum {on_idx} "
                               f"on {rec.fold_sign}"))
    return ParityAudit(checked=len(k0_records), violations=violations)


# -- cusp boundary records and perturbation certificates ----------------------------


def _curve_context_at(S, p):
    """(system, landed cusp, curve tangent t oriented into the plus arc, and
    the arc samples at -t and +t, curve_step/2 away along the curve)."""
    system = SingularSystem(S)
    landed = land(system, system.pack(p.x, p.cokernel, p.multiplier))
    if not landed.converged:
        raise StratificationError(f"could not land on the singular curve at the cusp {p.x}")
    t = curve_tangent(system, landed.z)
    delta = S.tolerances.curve_step / 2
    samples, signs = [], []
    for s in (-delta, delta):
        out = correct_in_plane(system, landed.z + s * t, None, t)
        if not out.converged:
            raise StratificationError("could not sample the two arcs at a cusp")
        q = stratum_point(S, *system.unpack(out.z))
        if q.depth != 1:
            raise StratificationError("arc sample at a cusp is not a fold point")
        samples.append(out.z)
        signs.append(q.sign)
    if signs[0] == signs[1]:
        raise MorseAuditError(f"arcs adjacent to the cusp at {p.x} carry equal signs")
    if signs[1] != "plus":
        t, samples = -t, samples[::-1]
    return system, landed.z, t, samples


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
    eps = 1e-4 * abs(h2)
    tilde = None
    for _ in range(8):
        s_tilde = -eps / h2
        out = correct_in_plane(system, z_c + s_tilde * t, None, t)
        if out.converged:
            x_t = out.z[:S.N]
            if np.linalg.norm(x_t - p.x) > S.tolerances.dedup_radius:
                tilde = out.z
                break
        eps *= 0.5
    if tilde is None:
        raise StratificationError(f"no separated interior partner at the cusp {p.x}")
    q = stratum_point(S, *system.unpack(tilde))
    if q.depth != 1:
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
    k0_solver = {}
    k0 = critical_points_on_stratum(S, a, 0, stats=k0_solver)
    audits = {"k0_solver": k0_solver}
    if S.n == 2:
        k1, cusp_hits = _critical_points_on_curves(S, a, strat)
        boundary, certs, eta_checks = _boundary_records(S, a, strat, cusp_hits)
    else:
        k1 = critical_points_on_stratum(S, a, 1, strat)
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
            unmatched_k0.append(tuple(rec.x))
        else:
            used.add(best_j)
            max_d = max(max_d, best_d)
    unmatched_k1 = [tuple(r.x) for j, r in enumerate(k1_records) if j not in used]
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
                failures.append(f"critical point of h collides with a cusp at {tuple(rec.x)}")
    parity = data.audits["parity"]
    if parity is not None and not parity.ok:
        failures.append(f"index parity: {parity.violations}")
    if not data.audits["block_hessian_ok"]:
        failures.append("block Hessian sign identity failed at a cusp")
    for cert in data.certificates:
        if not cert.cancels:
            failures.append(f"perturbation pair at {tuple(cert.p)} does not cancel")
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
