"""Morse data of generic linear functionals on the singular strata.

A unit covector a turns the map into the scalar function h = <a, f>.  For
almost every a, h and its restrictions to every stratum closure are Morse;
this module locates the critical points stratum by stratum and computes
their indices through reduced Hessians.  The boundary of a signed depth-1
closure is the depth-2 stratum, one level deeper than the closure, so every
boundary critical point in scope is a non-correct cusp; a correct one would
sit at depth 3, which is rejected.  ``_boundary_records`` checks this
dichotomy at every cusp and certifies that the cusp cancels against its
paired interior critical point.  What the proof reads at a cusp apart from the
covector (the curve tangent, the plus and minus arcs beside it, the
degenerate kernel direction and the slope of the flattening kernel
eigenvalue) is the cusp's chart, computed once when the cusp is located
(``strata._chart_cusps``); a covector attempt costs a cusp only its partner
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numeric import (
    batch_width,
    census,
    dedup_points,
    eig_sign_counts,
    newton,  # noqa: F401  (stays bound here for perfbench)
    newton_batch,
    sorted_by_x,
)
from .continuation import correct_in_planes
from .manifold import tangent_frame, tangent_frames
from .scenario import MorinnessError, MorinScenario, StratificationError
from .strata import (
    SingularSystem,
    Stratification,
    StratumCriticalSystem,
    chart_starts,
    cusp_near,
    multistart_starts,
    secant_starts,
    stratum_points,
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
    return Covector(a=v / norm)


# -- records -------------------------------------------------------------------


@dataclass
class CriticalRecord:
    """A critical point of h restricted to a stratum (or stratum closure)."""

    x: np.ndarray
    morse_index: int
    fold_sign: str | None = None    # plus/minus membership of x when depth 1
    correct: bool | None = None     # set at cusps: non-correct for the closure
    eta_sign: int | None = None


@dataclass
class PerturbationCertificate:
    """Pairing of a non-correct boundary point with its interior partner."""

    p: np.ndarray
    p_tilde: np.ndarray
    eps: float
    sign_xnk: int                   # side of the partner: +1 plus arc, -1 minus arc
    interior_index: int             # index of h on the closure at the partner
    cancels: bool
    chi_contribution: int           # added to chi of EACH signed closure


@dataclass
class MorseData:
    covector: Covector
    k0_records: list
    k1_records: list                # interior critical points on the depth-1 stratum
    boundary_records: list          # cusps as critical points of the closure
    certificates: list
    audits: dict = field(default_factory=dict)


# -- k = 0: critical points of h on M itself ------------------------------------


def _k0_records(S: MorinScenario, a: Covector, stats=None) -> list:
    """Critical points of h on M from one batched multistart solve of the
    singular system with its cokernel fixed to a, in (x, lam).

    ``stats``, a dict when given, receives the counters of the ``census``.
    """
    sys0 = SingularSystem(S, a.a)
    tol = S.tolerances
    starts, Z0 = multistart_starts(S, sys0, tol.multistart_density * (S.n + 1), tag=2)
    out = newton_batch(sys0.evaluate, Z0, tol=tol.residual, max_iter=30)
    Z, counters = census(starts, out, S.N, tol.dedup_radius)
    if stats is not None:
        stats.update(counters)
    if not len(Z):
        raise GenericityFailure("no critical points of the functional found on M")
    x, lam = Z[:, :S.N], Z[:, S.N:]
    # the reduced Hessians on M, in stacked tangent frames
    T, failures = tangent_frames(S.manifold, x)
    _, index, flat = eig_sign_counts(
        T @ S.lagrangian_hessian(x, a.a, lam) @ np.swapaxes(T, -1, -2), tol.eigen_zero)
    for j in np.flatnonzero(flat):
        failures.setdefault(int(j), GenericityFailure(
            f"degenerate reduced Hessian at k=0 point {np.round(x[j], 6)}"))
    # every critical point of h lies on the depth-1 stratum with cokernel a
    return _records(S, sys0, Z, index, failures, lambda x: GenericityFailure(
        f"critical point of the functional sits on the depth-2 closure at {x}"))


def _records(S, system, Z, index, failures, flat) -> list:
    """Critical records at a stack Z of roots in the chart of the singular
    ``system``, with Morse indices ``index``, their stratum data from one
    ``stratum_points`` pass, sorted by rounded x.

    Each point's checks raise in the order of a loop over the points: its
    index error (``failures``, a dict from lane to error), then its stratum
    data's, then ``flat(x)`` where its kernel form is flat.
    """
    points, errors = stratum_points(S, system, Z)
    records = []
    for j, p in enumerate(points):
        error = failures.get(j, errors.get(j))
        if error is None and p.signature.n_zero:
            error = flat(p.x)
        if error is not None:
            raise error
        records.append(CriticalRecord(x=p.x, morse_index=int(index[j]), fold_sign=p.sign))
    return sorted_by_x(records)


# -- on-stratum critical points: the augmented Lagrange system -------------------


def _polish_stratum_critical(S, a, Z):
    """Newton on the augmented system of h = <a, f> from a stack Z (B, dim_z)
    of points of the depth-1 set, each with its least-squares nu, as one
    batched solve.  Returns the system and the ``newton_batch`` result."""
    sysc = StratumCriticalSystem(S, a)
    out = newton_batch(sysc.evaluate, sysc.start(Z), tol=S.tolerances.residual)
    return sysc, out


def _stratum_records(S, W, sysc) -> list:
    """Records (``_records``) of a stack W of critical points w = (z, nu) of
    h on the depth-1 stratum, their indices from their reduced Hessians.

    A point whose kernel form is flat is a depth-2 point away from every
    located cusp: the walk along a fold curve takes the points near a cusp
    as cusp hits, and for n = 3 the stratification's slices locate no cusp
    (``strata._refuse_cusp_curves``).
    """
    Z = W[:, :sysc.D]
    _, index, flat = eig_sign_counts(sysc.reduced_hessian(W), S.tolerances.eigen_zero)
    failures = {int(j): GenericityFailure(
        f"degenerate reduced Hessian at stratum critical point {np.round(Z[j, :S.N], 6)}")
        for j in np.flatnonzero(flat)}
    return _records(S, sysc.base, Z, index, failures, lambda x: MorinnessError(
        f"critical point of the functional at {np.round(x, 6)} is a depth-2 point away "
        f"from every located cusp" + ("; cusp curves for n = 3 are not supported"
                                     if S.n == 3 else "")))


def _curve_phi_values(S, a, curve):
    """Derivative of h along the curve at every node, in the trace's orientation."""
    X = curve.nodes[:, :S.N]
    width = batch_width(curve.nodes.shape[1])
    Df = np.concatenate([S.Df(X[i:i + width]) for i in range(0, len(X), width)])
    return np.einsum("l,kli,ki->k", a, Df, curve.tangents[:, :S.N])


def _critical_points_on_curves(S, a: Covector, strat: Stratification):
    """Critical points of h on every traced curve, as records, and the set of
    the indices of the cusps they hit.

    Each sign change of dh/ds between nodes b and b + 1 of a curve is one
    start: the secant point where the linear interpolant of dh/ds vanishes
    (``secant_starts``).  All starts polish in one batched solve
    (``_polish_stratum_critical``).  A cusp solves the augmented system too,
    so a root near a located cusp (``cusp_near``) is a cusp hit, not an
    interior critical point.
    """
    starts = [np.zeros((0, SingularSystem(S).dim_z))]
    for curve in strat.curves:
        phis = _curve_phi_values(S, a.a, curve)
        if np.any(phis == 0.0):
            raise GenericityFailure("exact zero derivative at a trace node")
        starts.append(secant_starts(curve, phis)[1])
    sysc, out = _polish_stratum_critical(S, a.a, np.concatenate(starts))
    if not out.converged.all():
        raise GenericityFailure("stratum critical point failed to polish")
    hits = [cusp_near(S, strat.cusps, w[:S.N]) for w in out.z]
    fold = [j for j, hit in enumerate(hits) if hit is None]
    kept = [fold[i] for i in dedup_points(out.z[fold, :S.N], S.tolerances.dedup_radius)]
    return _stratum_records(S, out.z[kept], sysc), {hit for hit in hits if hit is not None}


def _critical_points_on_surface(S, a: Covector, strat: Stratification, stats=None):
    """Critical records of h on a fold surface (n >= 3), from a multistart of
    the square system of the critical points of h on M.

    At a fold point h|Sigma is critical exactly where h|M is (the fold
    normal form), so the multistart solves ``SingularSystem(S, a)`` in
    (x, lam), one lane from each depth-1 point with its least-squares lam
    (``chart_starts``).  Its starts are points on Sigma, not the random
    points on M of the k=0 census, so the separation audit still compares two
    censuses.  ``stats``, a dict when given, receives the counters of the
    ``census``.  Each distinct root, packed with cokernel a, is one lane of
    ``_polish_stratum_critical``, whose reduced Hessian gives its index on
    the stratum.
    """
    sys0 = SingularSystem(S, a.a)
    x = np.array([p.x for p in strat.points]).reshape(-1, S.N)
    out = newton_batch(sys0.evaluate, chart_starts(S, sys0, x), tol=S.tolerances.residual,
                       max_iter=30)
    roots, counters = census(len(x), out, S.N, S.tolerances.dedup_radius)
    if stats is not None:
        stats.update(counters)
    if not len(roots):
        raise GenericityFailure("no critical points found on the singular surface")
    system = SingularSystem(S)
    x, _, lam = sys0.unpack(roots)
    sysc, polished = _polish_stratum_critical(
        S, a.a, system.pack(x, np.broadcast_to(a.a, (len(x), S.n)), lam))
    if not polished.converged.all():
        raise GenericityFailure("stratum critical point failed to polish")
    return _stratum_records(S, polished.z, sysc)


def critical_points_on_stratum(S: MorinScenario, a: Covector, k: int,
                               strat: Stratification | None = None, stats=None):
    """Critical records of h on the depth-k stratum (k = 0 means M itself).

    ``stats`` (a dict, when given) receives the counters of the k=0 census
    or, for n >= 3, of the census on the fold surface
    (``_critical_points_on_surface``).
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
        return [CriticalRecord(x=p.x, morse_index=0, fold_sign=p.sign) for p in strat.points]
    return _critical_points_on_surface(S, a, strat, stats)


# -- gradients and eta ---------------------------------------------------------


def _tangential_gradient_on_M(S, a, x):
    T = tangent_frame(S.manifold, x)
    return T.T @ (T @ (S.Df(x).T @ a))


def _gradient_scale(S, a, x):
    return float(np.linalg.norm(a)) * max(1.0, float(np.linalg.norm(S.Df(x))))


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


def check_fold_index_parity(pairs) -> ParityAudit:
    """Ambient vs on-stratum Morse index parities at every matched pair of a
    k = 0 critical point and its partner on the depth-1 stratum
    (``SeparationAudit.pairs``).

    On the plus side the parities agree, on the minus side they differ by one;
    a violation is a hard failure of either the numerics or the hypotheses.
    A point without a partner is left to the separation audit.  The audit
    applies for n >= 2: with n = 1 the kernel of d(f|M) is all of T_xM and m
    is even, so the parities agree by construction.
    """
    violations = [(tuple(map(float, rec.x)),
                   f"ambient {rec.morse_index} vs stratum {partner.morse_index} "
                   f"on {rec.fold_sign}")
                  for rec, partner in pairs
                  if (rec.morse_index - partner.morse_index) % 2
                  != int(rec.fold_sign != "plus")]
    return ParityAudit(checked=len(pairs), violations=violations)


# -- cusp boundary records and perturbation certificates ----------------------------


def perturbation_certificate(S: MorinScenario, a: Covector, p) -> PerturbationCertificate:
    """Pair a non-correct cusp with the unique nearby interior critical point.

    The construction follows the local picture: adding eps times the inward
    coordinate makes the cusp a correct boundary point whose gradient points
    into the plus side, and moves the old interior criticality to a fold
    point on the side determined by the closure Hessian sign.  The curve
    tangent into the plus arc and the two arc samples come from the cusp's
    chart (``strata._chart_cusps``), so only the partner is solved here.
    """
    system = SingularSystem(S)
    z_c = system.pack(p.x, p.cokernel, p.multiplier)
    t, (z_minus, z_plus) = p.arc_tangent, p.arc_samples
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
    predicted = -(-1) ** interior_index     # det sign of closure Hessian times -eps
    return PerturbationCertificate(
        p=p.x,
        p_tilde=x_t,
        eps=eps,
        sign_xnk=sign_xnk,
        interior_index=interior_index,
        cancels=(sign_xnk == predicted),
        chi_contribution=1 if interior_index == 0 else 0,
    )


def _dichotomy_violation(x, grad_norm, thr, expected):
    return MorseAuditError(
        f"correctness dichotomy violated at {np.round(x, 6)}: numeric "
        f"gradient {grad_norm:.3e} vs threshold {thr:.3e}, expected {expected}"
    )


def _boundary_records(S, a: Covector, strat: Stratification, cusp_hits):
    """Cusps as critical points of h on the depth-1 closure, with their
    perturbation certificates, one of each per cusp.

    A cusp is one level deeper than the depth-1 closure, so it is a
    non-correct boundary point: h's derivative along the curve vanishes
    there, and the certified interior partner supplies the closure index.
    Two levels deeper than M, it is correct for M: h's tangential gradient
    on M does not vanish.  Both halves of this dichotomy are checked against
    the correctness threshold; a failure raises ``MorseAuditError``.
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
        thr = S.tolerances.correctness * _gradient_scale(S, a.a, p.x)
        # the curve tangent at the located cusp, from its chart
        tx = p.arc_tangent[:S.N]
        along = abs(float((S.Df(p.x).T @ a.a) @ tx)) / max(np.linalg.norm(tx), 1e-12)
        if along > thr:
            raise _dichotomy_violation(p.x, along, thr, "non-correct")
        eta = eta_sign(S, a, p)
        on_M = float(np.linalg.norm(_tangential_gradient_on_M(S, a.a, p.x)))
        if on_M <= thr:
            raise _dichotomy_violation(p.x, on_M, thr, "correct")
        eta_checks.append({
            "x": tuple(p.x),
            "eta": eta,
            "closure_index": closure_index,
            "identity_ok": eta == -((-1) ** closure_index),
        })
        records.append(CriticalRecord(x=p.x, morse_index=0, correct=False, eta_sign=eta))
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
    audits["separation"] = sep = _boundary_equivalence_audit(k0, k1)
    audits["parity"] = check_fold_index_parity(sep.pairs) if S.n > 1 else None
    audits["block_hessian_ok"] = all(c["identity_ok"] for c in eta_checks)
    return MorseData(
        covector=a,
        k0_records=k0,
        k1_records=k1,
        boundary_records=boundary,
        certificates=certs,
        audits=audits,
    )


@dataclass
class SeparationAudit:
    pairs: list                     # (k = 0 record, its depth-1 partner)
    unmatched_k0: list
    unmatched_k1: list

    @property
    def matched(self):
        return len(self.pairs)

    @property
    def max_distance(self):
        return max((float(np.linalg.norm(r1.x - r0.x)) for r0, r1 in self.pairs),
                   default=0.0)

    @property
    def ok(self):
        return not self.unmatched_k0 and not self.unmatched_k1


def _boundary_equivalence_audit(k0_records, k1_records) -> SeparationAudit:
    """Critical points of h on M and interior critical points of h on the
    depth-1 stratum must be the same set, point for point.  Each k = 0 point
    in turn takes the nearest depth-1 point not yet taken, within 1e-6."""
    free = list(k1_records)
    pairs, unmatched_k0 = [], []
    for rec in k0_records:
        d = [float(np.linalg.norm(r1.x - rec.x)) for r1 in free]
        j = int(np.argmin(d)) if d else None
        if j is None or d[j] > 1e-6:
            unmatched_k0.append(tuple(map(float, rec.x)))
        else:
            pairs.append((rec, free.pop(j)))
    return SeparationAudit(pairs=pairs, unmatched_k0=unmatched_k0,
                           unmatched_k1=[tuple(map(float, r.x)) for r in free])


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
        if cusp_near(S, strat.cusps, rec.x) is not None:
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
