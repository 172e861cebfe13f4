"""Singular stratification of f restricted to an implicit manifold.

A point is singular when some unit covector u annihilates the image of the
restricted differential; the solution set of the resulting Lagrange-type
system is the depth-1 closure.  Depth and the plus/minus split of odd-depth
strata are read off the kernel Hessian of <u, f> corrected by the constraint
multipliers.  Every reading of it takes the spectra of one stacked
``eigvalsh`` (``_kernel_spectra``), split by sign with the one counting rule
``_numeric.sign_counts``.  For two-dimensional targets the depth-1 set is a
union of closed curves, traced in lockstep lanes by the routines of
``continuation``; cusps are bracketed by the sign of the kernel-Hessian
determinant, and each is polished from its bracket as a critical point on
the curve (``StratumCriticalSystem``, the augmented system of the critical
points of h = <a, f> on the singular set, which ``morse`` polishes for
every covector too).  Each located cusp gets its chart, from one
two-sided sample of the curve per cusp and one spectra pass over the
samples and the cusp: the tangent into the plus arc, the two arc samples,
the degenerate kernel direction and the slope of the flattening
eigenvalue, which certifies depth 2.  Every curve operation takes a stack
of points.  For three-dimensional targets, slices of the target through
cloud points of the minority sign, each an n = 2 scenario stratified the
same way, look for cusp curves on the fold surface
(``_refuse_cusp_curves``).  The scenario types come from ``scenario``.
``load_scenario``, ``Tolerances``, ``newton`` and ``project_to_manifold``
stay bound here, though nothing here calls them, because the benchmark's
tracer (``perfbench/tracing.py``) rebinds or reads them in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._numeric import (
    BATCH_ENTRIES,
    STOP_REASONS,
    batch_width,
    census,
    dedup_points,
    min_norm_solve,
    newton,  # noqa: F401  (stays bound here for perfbench)
    newton_batch,
    sign_counts,
    sign_normalize,
    sorted_by_x,
    vecmat,
)
from .continuation import (
    audit_bordered,
    audit_nullity,
    chain_tangents,
    correct_in_planes,
    curve_tangents,
    nullities,
)
from .expr import to_prefix
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
from .scenario import (  # noqa: F401  (load_scenario and Tolerances stay bound here for perfbench)
    BlockChart,
    MorinnessError,
    MorinScenario,
    StratificationError,
    Tolerances,
    load_scenario,
)


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticSignature:
    """Eigenvalue sign counts of the kernel Hessian."""

    n_plus: int
    n_minus: int
    n_zero: int


@dataclass
class StratumPoint:
    x: np.ndarray
    depth: int
    cokernel: np.ndarray
    multiplier: np.ndarray
    kernel_basis: np.ndarray            # columns span ker d(f|M)(x)
    signature: QuadraticSignature
    sign: str = "unsigned"              # plus | minus | unsigned
    residuals: dict = field(default_factory=dict)
    # at a cusp, from its chart (``_chart_cusps``)
    degenerate_direction: np.ndarray | None = None   # ambient, sign-normalized
    eig_slope: float | None = None
    arc_tangent: np.ndarray | None = None    # curve tangent in z, into the plus arc
    arc_samples: np.ndarray | None = None    # (minus, plus) arc samples in z


# -- the singular system ------------------------------------------------------


class SingularSystem(BlockChart):
    """The system {g = 0, Df^T u - Dg^T mu = 0, |u|^2 = 1} in z = (x, u, mu).

    Its solution set projects onto the depth-1 closure; the expected solution
    dimension is n - 1.  A fixed ``cokernel`` gives the reduced chart in
    z = (x, mu), without the normalization: with cokernel a it is the
    square system of the critical points of <a, f> on M.  For n = 1 the
    reduced chart with u = (1,) is the default, since the unit 0-sphere is
    the discrete set {+1, -1} and the two points give identical
    stratification data.  Both charts read the scenario's ``singular_block``;
    the reduced one holds its cokernel in the u slots and drops the
    normalization row.
    """

    def __init__(self, scenario: MorinScenario, cokernel=None):
        self.S = scenario
        if cokernel is None and scenario.n == 1:
            cokernel = (1.0,)
        self.reduced = cokernel is not None
        self.cokernel = np.asarray(cokernel, dtype=float) if self.reduced else None
        N, c = scenario.N, scenario.c
        super().__init__(scenario.singular_block, c + N if self.reduced else c + N + 1,
                         scenario.tolerances.residual,
                         fixed=self.cokernel if self.reduced else (), at=N)

    # pack, unpack and evaluate take one point or a stack of them; a fixed
    # cokernel comes out of unpack unstacked and broadcasts

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


class StratumCriticalSystem(BlockChart):
    """Critical points of h(z) = <a, f(x)> on the singular solution manifold.

    Unknowns w = (z, nu) where z solves the singular system F(z) = 0 and nu
    are the multipliers of the stationarity condition grad h = DF^T nu.
    Residual and exact Jacobian are one call of the scenario's
    ``augmented_block`` with a in its covector slots.  Every method takes
    one point or a stack of them but ``reduced_hessian``, which takes a
    stack.
    """

    def __init__(self, S: MorinScenario, a):
        self.S = S
        self.base = SingularSystem(S)
        if self.base.reduced:
            raise StratificationError("augmented system needs target dimension >= 2")
        self.D = self.base.dim_z
        self.E = self.base.n_eqs
        super().__init__(S.augmented_block, self.D + self.E, S.tolerances.residual,
                         fixed=a, at=self.D + self.E)

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

    def start(self, z):
        """The polish start w0 = (z, nu0) at z, nu0 its ``initial_nu``."""
        return np.concatenate([z, self.initial_nu(z)], axis=-1)

    def reduced_hessian(self, W):
        """The Hessians of the Lagrangian, J[E:, :D], on the kernels of DF at
        a stack W (B, D + E), in the null space bases of ``audit_nullity``:
        a point where DF has a nullity other than n - 1, so that the
        solution set is not a smooth (n - 1)-manifold there, is refused."""
        J = self.evaluate(W)[1]
        k = self.S.n - 1
        V = audit_nullity(J[:, :self.E, :self.D], dim=k, k=k)
        return V @ J[:, self.E:, :self.D] @ np.swapaxes(V, -1, -2)


# -- pointwise stratum data ---------------------------------------------------


def _kernel_lanes(S: MorinScenario, x):
    """Orthonormal ambient kernel bases of d(f|M) at a stack of corank-1
    points (B, N), as (B, N, m - n + 1), and a dict from each failing lane
    to its first error.  Every check runs lane by lane."""
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


def _kernel_form(S: MorinScenario, x, u, mu, K):
    """The symmetrized kernel Hessian K^T W K of <u, f> - <mu, g>, W its
    ambient Hessian, at a point or at each point of a stack."""
    HK = np.swapaxes(K, -1, -2) @ S.lagrangian_hessian(x, u, mu) @ K
    return 0.5 * (HK + np.swapaxes(HK, -1, -2))


def _kernel_spectra(S: MorinScenario, x, u, mu):
    """The kernel bases K (``_kernel_lanes``), the kernel forms HK
    (``_kernel_form``) and their ascending eigenvalues, from one stacked
    ``eigvalsh``, at a stack of points x (B, N), with the dict of failing
    lanes.  Every reading of the kernel Hessian starts here."""
    K, failures = _kernel_lanes(S, x)
    HK = _kernel_form(S, x, u, mu, K)
    return K, HK, np.linalg.eigvalsh(HK), failures


def _signature_counts(S: MorinScenario, vals, x, failures):
    """The (n_plus, n_minus, n_zero) rows (B, 3) of a stack of kernel
    spectra at the points x; a lane with more than one near-zero eigenvalue
    gets its ``MorinnessError`` in ``failures``, unless it failed before,
    since a corank-1 chain admits at most one degenerate kernel direction."""
    counts = np.stack(sign_counts(vals, S.tolerances.eigen_zero), axis=-1)
    for j in np.flatnonzero(counts[:, 2] > 1):
        failures.setdefault(int(j), MorinnessError(
            f"kernel Hessian has {counts[j, 2]} near-zero eigenvalues at {x[j]}: not Morin"))
    return counts


# -- solving ------------------------------------------------------------------


def _multistart_seeds(S: MorinScenario, count, tag):
    """The multistart's ambient starts, from the generator keyed by the
    scenario seed, 23 and ``tag``."""
    return sample_starts(S.manifold, count, [S.seed, 23, tag])


def multistart_starts(S: MorinScenario, system: SingularSystem, count, tag):
    """The number of seeds drawn for a multistart of ``system``, and the
    starts (x, u, mu) in its chart of those that project to M.

    The seeds come from ``_multistart_seeds``.  A seed whose projection
    fails, or where ``tangent_frames`` refuses (Dg rank-deficient), is
    dropped; (u, mu) at the others come from ``chart_starts``.  The smallest
    left singular vector of Df on the tangent space does not depend on the
    tangent basis.
    """
    X0 = _multistart_seeds(S, count, tag)
    proj = project_points(S.manifold, X0)
    x = proj.z[proj.converged]
    tangent, failures = tangent_frames(S.manifold, x)
    regular = np.ones(len(x), dtype=bool)
    regular[list(failures)] = False
    return len(X0), chart_starts(S, system, x[regular], tangent[regular])


def chart_starts(S: MorinScenario, system: SingularSystem, x, tangent=None):
    """Starts (x, u, mu) in the chart of ``system`` at a stack x (B, N) of
    points on M: u is the fixed cokernel of a reduced chart, else the
    smallest left singular vector of Df on the tangent frames ``tangent``,
    sign-normalized; mu is the least-squares multiplier of the stationarity
    equation Df^T u = Dg^T mu for that u."""
    Df, Dg = np.split(S.jet(x)[1], [S.n], axis=1)
    if system.reduced:
        u = system.cokernel
    else:
        u = sign_normalize(np.linalg.svd(Df @ np.swapaxes(tangent, -1, -2))[0][:, :, S.n - 1])
    mu = min_norm_solve(np.swapaxes(Dg, -1, -2), vecmat(u, Df))
    return system.pack(x, u, mu)


def solve_stratum1(S: MorinScenario, stats=None) -> list[StratumPoint]:
    """Multistart Newton on the singular system, deduplicated by base point.

    All starts run as one lane-wise batched Newton.  Starts that fail to
    project or to converge are dropped; ``stats``, a dict when given,
    receives the counters of the ``census`` (for n = 1 with hits per root:
    for n >= 2 the solutions form a curve or a surface, so every start lands
    on its own point and hits say nothing).  An empty result on a
    compact manifold is an error: any map from a compact manifold with
    m > n must have singular points.
    """
    system = SingularSystem(S)
    tol = S.tolerances
    starts, Z0 = multistart_starts(S, system, tol.multistart_density * S.n, tag=1)
    out = newton_batch(system.evaluate, Z0, tol=tol.residual, max_iter=30)
    roots, counters = census(starts, out, S.N, tol.dedup_radius, hits=S.n == 1)
    if stats is not None:
        stats.update(counters)
    points = _points_from_solutions(S, system, roots)
    if not points and S.manifold.compact:
        raise StratificationError(
            "no singular points found on a compact manifold with m > n; "
            "the singular set cannot be empty"
        )
    return points


def _points_from_solutions(S, system, Z) -> list[StratumPoint]:
    """Stratum points at a stack Z of kept solutions, from one
    ``stratum_points`` pass; a point whose kernel data fails as a
    non-singular or irregular point is skipped, and any other error raises
    at the first such point in the order of Z, as in a loop over the
    points."""
    points, failures = stratum_points(S, system, Z)
    for lane in sorted(failures):
        if not isinstance(failures[lane], (StratificationError, RegularityError)):
            raise failures[lane]
    return sorted_by_x([p for p in points if p is not None])


def stratum_points(S, system, Z):
    """Depth-1 stratum points at a stack Z (B, dim_z) of solutions of the
    singular ``system``, ``batch_width`` lanes per stacked pass.

    At each lane (u, mu) is flipped as a pair so that the first cokernel
    entry above 1e-12 in magnitude is positive: the stationarity equations
    are linear in the pair, so only a joint flip preserves them (and the
    Lagrangian Hessian built from them).  A lane carries its max-norm
    residual, its kernel basis, its kernel-Hessian signature
    (``_signature_counts`` of ``_kernel_spectra``), and, when no eigenvalue
    is flat, its sign by kernel-index parity.  The sign is well defined
    because m - n + 1 is even: flipping u complements the nondegenerate
    eigenvalue signs, which preserves the parity of the negative count.
    Returns the points, None at a failing lane, and a dict from lane to its
    error: the kernel basis's (``_kernel_lanes``), else the signature's.
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
    res = np.max(np.abs(system.evaluate(Z)[0]), axis=1)
    K, _, vals, failures = _kernel_spectra(S, x, u, mu)
    counts = _signature_counts(S, vals, x, failures)
    points = []
    for j, (count, r) in enumerate(zip(counts.tolist(), res.tolist())):
        if j in failures:
            points.append(None)
            continue
        sig = QuadraticSignature(*count)
        # a nondegenerate kernel form already certifies depth 1 and its sign
        sign = "unsigned" if sig.n_zero else ("plus", "minus")[sig.n_minus % 2]
        points.append(StratumPoint(x=x[j], depth=1, cokernel=u[j], multiplier=mu[j],
                                   kernel_basis=K[j], signature=sig, sign=sign,
                                   residuals={"system": r}))
    return points, failures


# -- curve tracing (n = 2) ------------------------------------------------------


@dataclass
class FoldCurve:
    nodes: np.ndarray               # (K, dim_z) ordered along the curve
    closure_error: float
    det_values: np.ndarray          # det of kernel Hessian per node: plus where > 0
    tangents: np.ndarray            # (K, dim_z) unit tangents, one orientation
    cusps: list = field(default_factory=list)       # StratumPoint, depth 2
    solver: dict = field(default_factory=dict)      # deterministic tracing counters
    segments: np.ndarray | None = None  # node index of each segment's seed
    meetings: np.ndarray | None = None  # node index where each segment's reversed piece starts
    members: np.ndarray | None = None   # the trace's seeds this curve passes


def _node_metrics(S, system, Z):
    """Determinant of the kernel Hessian at each node of a stack Z
    (B, dim_z).  A failing lane raises, the first one's error first, as a
    loop over the nodes would.  For a nonzero determinant its sign is
    (-1) to the number of negative eigenvalues, so it carries the node's
    fold sign: plus where it is positive."""
    _, _, vals, failures = _kernel_spectra(S, *system.unpack(Z))
    if failures:
        raise failures[min(failures)]
    return np.prod(vals, axis=-1)


MAX_LOCKSTEP_STEPS = 200000     # the lanes' step budget, the backstop for an open curve


def trace_fold_curve(lanes, q) -> FoldCurve:
    """Pseudo-arclength trace of the closed component of the singular curve
    through seed q of a ``_Lanes`` run, from all of the run's seeds at once.

    Each seed starts two lanes, along +t and -t, and two lanes that walk one
    arc toward each other stop where they meet.  The first curve read from a
    run steps it, every lane until it has met another, and then snaps every
    meeting in one call (``_Lanes.run``), so later curves only read it.  The curve is the cycle of lane pieces from
    seed q along its sign-normalized tangent, a lane forward from its seed,
    then the lane it met reversed back to that lane's seed, until the full
    (x, u, mu) state closes.  The cokernel may return to minus itself after
    one loop of the base curve; the cycle then covers it twice, so each
    geometric point appears once or twice and duplicates are cleaned up by
    the caller via the base-point dedup radius.  ``closure_error`` is the
    largest distance of a snapped arrival from the node it arrived at, and
    ``members`` lists the seeds the cycle passes.  A trace whose closure
    error is above the dedup radius, or infinite where a snap failed, did not
    close and is refused.
    """
    lanes.run()
    system = lanes.system
    S = system.S
    fields = lanes.cycle(q)
    if not fields["closure_error"] <= S.tolerances.dedup_radius:
        raise StratificationError(
            f"trace did not close: a snapped arrival is {fields['closure_error']:.3e} "
            f"from its node, above the dedup radius {S.tolerances.dedup_radius:.1e}")
    nodes = fields["nodes"]
    width = batch_width(system.dim_z)
    dets = [_node_metrics(S, system, nodes[i:i + width]) for i in range(0, len(nodes), width)]
    curve = FoldCurve(det_values=np.concatenate(dets), **fields)
    _locate_cusps(S, system, curve)
    return curve


class _Lanes:
    """Two lanes per seed of a trace, run in lockstep until they meet, then
    read curve by curve.

    Lane 2q starts at seed q along its SVD tangent t_q, lane 2q + 1 along
    -t_q.  Each ``step`` moves every active lane by the trace's predictor
    and one batched corrector, with a local half step for a lane whose
    corrector fails; a lane that fails even then ends the trace.  The step
    audits the nullity of J at every point it makes (``audit_bordered``),
    from the corrector's own bordered matrices, before any meeting, and
    keeps each lane's last nonzero sign of det [J; t]: a lane whose sign
    flips has passed a crossing of the singular set, and the map is refused
    there.  Two lanes that walk one arc toward each other meet in the step
    in which they pass each other, from a gap below 2h, h = curve_step
    (``_meetings``).  A lane's node counts as it is or as its sheet image
    sigma(z) = (x, -u, -mu), since seeds are sign-normalized and can sit on
    either sheet of the lifted curve.  A meeting stops both lanes in the
    same step; their steps are not nodes, and each is snapped onto the
    normal plane of the other lane's last node, which stays in the curve.
    The step only records each snap's start, anchor and normal
    (``snaps``); nothing in a later step reads a snap.

    ``run`` steps until every lane has met another, then corrects every
    snap in one call, indexes the nodes by lane and drops the per-step
    history and snap rows.  A lane gets the same bits in that call as in a
    call of its step's snaps alone, since a lane's bits do not depend on
    the lanes that share its call (``expr.ExprBlock``).  ``cycle`` reads a
    curve off the meetings as (lane, flip, reversed) pieces, flip meaning
    the lane enters it as its sheet image: a lane forward from its seed,
    the lane it met reversed back to that lane's seed, then that lane's
    sibling out of the same seed, until it is back at its first lane on its
    own sheet.
    """

    def __init__(self, system, seeds):
        self.system, self.h = system, system.S.tolerances.curve_step
        k, d = seeds.shape
        T = curve_tangents(system, seeds)
        self.sigma = np.where(np.arange(d) < system.S.N, 1.0, -1.0)
        lanes = 2 * k
        self.z = np.repeat(seeds, 2, axis=0)
        self.t = np.repeat(T, 2, axis=0) * np.tile([1.0, -1.0], k)[:, None]
        self.t_prev = self.t.copy()
        self.count = 0                          # lockstep steps taken
        self.active = np.ones(lanes, dtype=bool)
        self.partner = np.full(lanes, -1)       # the lane met
        self.flip = np.zeros(lanes, dtype=bool)   # met as its sheet image
        self.sign = np.zeros(lanes)             # last nonzero sign of det [J; t]
        self.snap_error = np.zeros(lanes)
        self.iterations = np.zeros(lanes, dtype=int)
        self.half_steps = np.zeros(lanes, dtype=int)
        self.stops = np.zeros((lanes, len(STOP_REASONS)), dtype=int)
        self.history = [(np.arange(lanes), self.z.copy(), self.t.copy())]
        self.snaps = []     # (lanes, starts, anchors, normals) of each step's meetings

    def run(self):
        """Step until every lane has met another, at most
        ``MAX_LOCKSTEP_STEPS`` steps, snap every meeting in one corrector
        call, then index the nodes and tangents of the steps by lane:
        ``rows[bounds[i]:bounds[i + 1]]`` are lane i's rows of Z and T, in
        step order.  Once run, it does nothing."""
        if self.history is None:
            return
        while self.active.any():
            if self.count >= MAX_LOCKSTEP_STEPS:
                raise StratificationError(
                    "trace did not close (open curve or step budget hit)")
            self.step()
        if self.snaps:
            lanes, Z, P, normals = map(np.concatenate, zip(*self.snaps))
            snap = self._correct(lanes, Z, P, normals)
            self.snap_error[lanes] = np.where(
                snap.converged, np.linalg.norm(snap.z - P, axis=1), np.inf)
        self.snaps = None
        ids = np.concatenate([lanes for lanes, _, _ in self.history])
        self.Z = np.concatenate([z for _, z, _ in self.history])
        self.T = np.concatenate([t for _, _, t in self.history])
        self.history = None
        self.rows = np.argsort(ids, kind="stable")  # each lane's nodes stay in step order
        self.bounds = np.r_[0, np.cumsum(np.bincount(ids, minlength=len(self.active)))]

    def cycle(self, q):
        """The ``FoldCurve`` fields of the cycle from lane 2q of the run."""
        path, lane, flip = [], 2 * q, False
        while True:
            met, flip_met = int(self.partner[lane]), flip != self.flip[lane]
            path += [(lane, flip, False), (met, flip_met, True)]
            lane, flip = met ^ 1, flip_met
            if lane == 2 * q and not flip:
                return self._fields(path)

    def _fields(self, path):
        lanes = np.array([lane for lane, _, _ in path])
        flips = np.array([flip for _, flip, _ in path])
        rows = [self.rows[self.bounds[lane]:self.bounds[lane + 1]] for lane in lanes]
        # a reversed piece runs from the lane's last node back to, but not
        # onto, its seed, which starts the next piece
        pieces = [r[:0:-1] if back else r for r, (_, _, back) in zip(rows, path)]
        sizes = [len(r) for r in pieces]
        order = np.concatenate(pieces)
        nodes, tangents = self.Z[order], self.T[order]
        tangents[np.repeat([back for *_, back in path], sizes)] *= -1.0
        flipped = np.repeat(flips, sizes)
        nodes[flipped] *= self.sigma
        tangents[flipped] *= self.sigma
        starts = np.cumsum([0] + sizes[:-1])
        # each lane's nodes but its seed, counted once also where a doubly
        # covered curve takes the lane twice
        used = np.flatnonzero(np.bincount(lanes))
        lane_steps = int(np.sum(np.diff(self.bounds)[used])) - len(used)
        return {
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
                raise StratificationError("continuation corrector failed")
            z_new[retry], bordered[retry] = again.z, again.jacobian
        # every node, and every meeting's arrival before it is snapped
        sign, last = audit_bordered(bordered), self.sign[A]
        crossed = np.flatnonzero(sign * last < 0)
        if crossed.size:
            i, N = crossed[0], self.system.S.N
            raise MorinnessError(
                f"lane {A[i]} passes a crossing of the singular set between "
                f"{z[i, :N].tolist()} and {z_new[i, :N].tolist()}: det [J; t] changes "
                f"sign, so the singular set is not a fold curve there")
        self.sign[A] = np.where(sign == 0.0, last, sign)
        a, b, flip = self._meetings(A, z, t, z_new)
        if a.size:
            sheet = np.where(flip[:, None], self.sigma, 1.0)
            self.snaps.append((A[a], z_new[a], z[b] * sheet, t[b] * sheet))
            self.partner[A[a]], self.flip[A[a]] = A[b], flip
            self.active[A[a]] = False
            going = self.active[A]
            A, t, z_new, bordered = A[going], t[going], z_new[going], bordered[going]
        t_new = chain_tangents(self.system, z_new, t, bordered)
        self.history.append((A, z_new, t_new))
        self.z[A], self.t_prev[A], self.t[A] = z_new, t, t_new

    def _meetings(self, A, z, t, z_new):
        """The lanes of A that meet in the step z -> z_new: index pairs
        (a, b) into A, each pair both ways round, and whether b is met as
        its sheet image.

        Lane i meets lane j when they pass each other head on: before the
        step z[i] is ahead of j's node z[j] along j's tangent t[j] and
        within 2h of it, and after it z_new[i] is not ahead of j's new point
        z_new[j].  Both lanes move by about h, so a gap between them of up
        to 2h closes in one step.  j's node counts as it is or as its sheet
        image, whichever is nearer z[i] (they differ in (u, mu) only).  A
        lane takes the first such passing along its step.  Pairs that took
        each other meet first, then the others in lane order while both
        lanes are free.

        A gap below r = 2h puts z[i] within r of z[j] in x, and a node and
        its sheet image share x, so the search runs over base points.  A
        pair within r is within r in every coordinate, so with the nodes
        sorted by the coordinate of largest spread, a node's candidates are
        the later nodes within r of it there: each pair is one candidate,
        and a rounded distance below r is inside the rounded window, so they
        are the same pairs as over all nodes.  Their x-distances are taken
        ``BATCH_ENTRIES`` at a time, summed coordinate by coordinate.  A
        pair within r is then tested both ways round, from one difference:
        j's from i is exactly -sigma (or -1) times i's from j.  The mutual
        pairs are taken at once; only the lanes whose choice is not mutual,
        rare in a trace, go through the loop.
        """
        r, N, n = 2 * self.h, self.system.S.N, len(A)
        x = z[:, :N]
        c = int(np.argmax(x.max(axis=0) - x.min(axis=0)))
        order = np.argsort(x[:, c], kind="stable")
        keys = x[order, c]
        counts = np.searchsorted(keys, keys + r, side="right") - np.arange(1, n + 1)
        ends = np.cumsum(counts)            # candidates up to each node's last
        starts = ends - counts
        total = int(ends[-1])
        if not total:
            return ends[:0], ends[:0], ends[:0].astype(bool)
        columns = x[order].T
        pairs = []
        for e in range(0, total, BATCH_ENTRIES):
            entry = np.arange(e, min(e + BATCH_ENTRIES, total))
            a = np.searchsorted(ends, entry, side="right")
            b = entry + a + 1 - starts[a]       # node a's candidates follow it
            near = 0.0
            for column in columns:
                d = column[b] - column[a]
                near = near + d * d
            hit = near < r ** 2
            pairs += [a[hit], b[hit]]
        a, b = order[np.concatenate(pairs[0::2])], order[np.concatenate(pairs[1::2])]
        # of a node and its sheet image, the one nearer the other node in (u, mu)
        flip = (z[a, N:] * z[b, N:]).sum(axis=1) < 0
        sheet = np.where(flip[:, None], self.sigma, 1.0)
        before = z[a] - z[b] * sheet
        close = np.linalg.norm(before, axis=1) < r
        if not close.any():
            return a[:0], a[:0], flip[:0]
        a, b, flip, sheet, before = a[close], b[close], flip[close], sheet[close], before[close]
        after = z_new[a] - z_new[b] * sheet
        # b's differences from a are exactly -sheet times a's from b, so its
        # products with a's tangent on b's sheet are minus those with t[a]
        T = t[b] * sheet
        d0 = np.concatenate(((before * T).sum(axis=1), -(before * t[a]).sum(axis=1)))
        d1 = np.concatenate(((after * T).sum(axis=1), -(after * t[a]).sum(axis=1)))
        lane, q, flip = np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((flip, flip))
        met = (d0 > 0) & (d1 <= 0)
        lane, q, flip, d0, d1 = lane[met], q[met], flip[met], d0[met], d1[met]
        # the first passing along the step; ties go to the lower target
        order = np.lexsort((q, d0 / (d0 - d1), lane))
        lane, q, flip = lane[order], q[order], flip[order]
        first = np.ones(lane.size, dtype=bool)
        first[1:] = lane[1:] != lane[:-1]
        lane, q, flip = lane[first], q[first], flip[first]
        choice = np.full(n, -1)
        choice[lane] = q
        mutual = choice[q] == lane
        free = np.ones(n, dtype=bool)
        free[lane[mutual]] = False
        # a lane whose choice is not mutual is in no mutual pair
        later = np.zeros(lane.size, dtype=bool)
        for i in np.flatnonzero(~mutual):
            if free[lane[i]] and free[q[i]]:
                free[lane[i]] = free[q[i]] = False
                later[i] = True
        kept = np.concatenate((np.flatnonzero(mutual & (lane < q)), np.flatnonzero(later)))
        x, y, f = lane[kept], q[kept], flip[kept]
        return np.concatenate((x, y)), np.concatenate((y, x)), np.concatenate((f, f))


def secant_starts(curve, values):
    """The node b of each sign change of ``values``, one nonzero value per
    node of a traced curve, between the cyclically adjacent nodes b and
    b + 1, and the secant point of each, where the linear interpolant of the
    values vanishes: the start of the polish of a critical point there."""
    b = np.flatnonzero(~(values * np.roll(values, -1) > 0))
    c = (b + 1) % len(values)
    lam = (values[b] / (values[b] - values[c]))[:, None]
    return b, (1 - lam) * curve.nodes[b] + lam * curve.nodes[c]


def _locate_cusps(S, system, curve: FoldCurve):
    """The cusps of a traced curve, in node order, each by one polish from
    its determinant bracket.

    Each sign change of the kernel-Hessian determinant between nodes b and
    b + 1 is one start: the secant point where the linear interpolant of
    the determinant vanishes (``secant_starts``).  Along a fold curve Df t is parallel to u⊥,
    the covector orthogonal to the cokernel u, and Df t vanishes at a cusp;
    so h = <u⊥, f>, u⊥ = (-u_2, u_1)/|u| at the start, has a nondegenerate
    critical point on the curve there and no other one nearby (with a = u
    it would be degenerate).  The start polishes on the augmented system of
    that h (``StratumCriticalSystem``), one ``newton_batch`` per cusp, whose
    iterations add up to the curve's ``cusp_iterations``.

    The brackets are every cyclic sign change of the determinant, so its
    sign, the fold sign of a node, is constant from one bracket to the next:
    a closed curve with k cusps has k arcs of alternating sign, k/2 of each,
    and a curve without cusps is one circle of the sign of node 0.
    """
    dets = curve.det_values
    if np.any(dets == 0.0):
        raise StratificationError("exact zero determinant at a trace node")
    brackets, starts = secant_starts(curve, dets)
    Z = np.empty_like(starts)
    iterations = 0
    for j, z in enumerate(starts):
        u = system.unpack(z)[1]
        sysc = StratumCriticalSystem(S, np.array([-u[1], u[0]]) / np.linalg.norm(u))
        out = newton_batch(sysc.evaluate, sysc.start(z[None]), tol=S.tolerances.residual)
        if not out.converged[0]:
            raise StratificationError(
                f"could not polish the cusp in the determinant bracket after node {brackets[j]}")
        Z[j] = out.z[0, :system.dim_z]
        iterations += int(out.iterations[0])
    points, failures = stratum_points(S, system, Z)
    for j, p in enumerate(points):
        if j in failures:
            raise failures[j]
        if p.signature.n_zero != 1:
            # determinant changed sign yet no flat direction: conditioning issue
            raise MorinnessError(f"inconsistent degeneracy at cusp candidate {p.x}")
    _chart_cusps(S, system, points)
    curve.cusps = points
    curve.solver["cusp_iterations"] = iterations
    # a cokernel that returns to minus itself makes the trace cover the base
    # curve twice; cusp bookkeeping would then double-count, so fail loudly
    if len(dedup_points([p.x for p in points], S.tolerances.dedup_radius)) < len(points):
        raise StratificationError(
            "singular curve is doubly covered by its cokernel lift; "
            "this configuration is not supported"
        )


def _chart_cusps(S, system, cusps):
    """Certify depth 2 at located cusps, and store on each the geometry the
    Morse theory reads there, for all of them in stacked form.

    At a cusp p, packed as z = (x, u, mu), the curve tangent t comes from one
    ``curve_tangents`` call for all cusps, and the arc samples at
    z -+ (curve_step/2) t from one ``correct_in_planes`` call of two lanes
    per cusp.  One ``_kernel_spectra`` pass over the (minus sample, cusp,
    plus sample) triples gives the rest.  Both samples must be fold points,
    of opposite signs: p keeps t oriented into the plus arc
    (``arc_tangent``) and the (minus, plus) samples (``arc_samples``).  The
    degenerate direction (``degenerate_direction``) is the eigenvector of
    the cusp's flat kernel eigenvalue, from ``eigh`` of the cusp forms only,
    in the ambient space and sign-normalized.  Moving along the curve in
    that direction, the flat eigenvalue crosses zero; its slope per unit
    arc of the base curve in x-space, from the eigenvalues nearest zero at
    the minus sample, the cusp and the plus sample, is the intrinsic analog
    of the leading coefficient of the local normal form (6 for the standard
    depth-2 model).  A slope above ``depth_slope`` certifies depth 2
    (``eig_slope``); the refusal of one at or below it reports the second
    difference too, which separates deeper points.  The checks raise at the
    first failing cusp in the given order.
    """
    if not cusps:
        return
    Z = np.array([system.pack(p.x, p.cokernel, p.multiplier) for p in cusps])
    k, d = Z.shape
    T = curve_tangents(system, Z)
    delta = S.tolerances.curve_step / 2
    normals = np.repeat(T, 2, axis=0)
    starts = np.repeat(Z, 2, axis=0) + np.tile([-delta, delta], k)[:, None] * normals
    out = correct_in_planes(system, starts, starts, normals)
    # the samples were corrected from z, so they are on the cusp's sheet,
    # and a sample's flatness and kernel-index parity do not depend on it
    x, u, mu = system.unpack(np.stack([out.z[0::2], Z, out.z[1::2]], axis=1).reshape(-1, d))
    K, HK, vals, failures = _kernel_spectra(S, x, u, mu)
    counts = _signature_counts(S, vals, x, failures).reshape(k, 3, 3)
    cusp_vals, vecs = np.linalg.eigh(HK[1::3])
    v = vecs[np.arange(k), :, np.argmin(np.abs(cusp_vals), axis=-1)]
    directions = sign_normalize((K[1::3] @ v[..., None])[..., 0])
    vals = vals[np.arange(3 * k), np.argmin(np.abs(vals), axis=1)].reshape(k, 3)
    x_arc = delta * np.linalg.norm(T[:, :S.N], axis=1)
    slopes = (vals[:, 2] - vals[:, 0]) / (2 * x_arc)
    curvatures = (vals[:, 2] - 2 * vals[:, 1] + vals[:, 0]) / x_arc ** 2
    thr = S.tolerances.depth_slope
    for j, p in enumerate(cusps):
        t, pair = T[j], out.z[2 * j:2 * j + 2]
        align = float(t[:S.N] @ directions[j])
        if abs(align) < 1e-3 * np.linalg.norm(t[:S.N]):
            raise MorinnessError(f"degenerate kernel direction at the cusp {p.x} is not "
                                 f"tangent to the singular curve")
        if not out.converged[2 * j:2 * j + 2].all():
            raise StratificationError(f"could not sample the two arcs at the cusp {p.x}")
        for lane in (0, 2):
            if 3 * j + lane in failures:
                raise failures[3 * j + lane]
            if counts[j, lane, 2]:
                raise StratificationError("arc sample at a cusp is not a fold point")
        slope = slopes[j] if align > 0 else -slopes[j]
        if not abs(slope) > thr:
            raise MorinnessError(
                f"degenerate point at {p.x} is not a certified depth-2 point: eigenvalue "
                f"slope {slope:.3e} and curvature {curvatures[j]:.3e}, slope not above {thr:.1e}")
        # kernel-index parity of the (minus, plus) samples: 0 on a plus arc
        minus, plus = counts[j, [0, 2], 1] % 2
        if minus == plus:
            raise MorinnessError(f"arcs adjacent to the cusp at {p.x} carry equal signs")
        p.depth, p.eig_slope, p.degenerate_direction = 2, float(slope), directions[j]
        p.arc_tangent, p.arc_samples = (t, pair) if plus == 0 else (-t, pair[::-1])


# -- bundle ---------------------------------------------------------------------


@dataclass
class Stratification:
    scenario: MorinScenario
    points: list                    # depth-1 sample points (the dense cloud)
    curves: list                    # FoldCurve, only when n = 2
    cusps: list                     # depth-2 points in deterministic order
    audits: dict = field(default_factory=dict)


def compute_stratification(S: MorinScenario) -> Stratification:
    """Full stratification pipeline: regularity, depth-1 solve, tracing,
    audits, and for n = 3 the slices that look for cusp curves."""
    report = validate_regularity(S.manifold, count=20, seed=S.seed)
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
        cusps = sorted_by_x(cusps)
        _classify_cloud(S, points, cusps)
        audits["solver"]["curves"] = [curve.solver for curve in curves]
        audits["curve_count"] = len(curves)
        audits["closure_errors"] = [c.closure_error for c in curves]
        audits["cusp_count"] = len(cusps)
        # the cusps bracket every sign change of a nonzero determinant, so
        # the arcs of a closed curve alternate by construction
        audits["alternation_violations"] = None
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
    if S.n == 3:
        _refuse_cusp_curves(S, points)

    # depth-2 points must satisfy the depth-1 system: the largest full-chart
    # residual stratum_points recorded at a cusp
    audits["nesting_max_residual"] = max((p.residuals["system"] for p in cusps), default=0.0)
    return Stratification(scenario=S, points=points, curves=curves, cusps=cusps,
                          audits=audits)


def _trace_all_curves(S, points):
    """Every curve through the depth-1 cloud from one run of lanes: one
    ``trace_fold_curve`` per curve, each from the first point not yet on a
    curve; the first one runs the lanes, and every one reads the run."""
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


def cusp_near(S, cusps, x):
    """Index of the first of ``cusps`` within 10 ``dedup_radius`` of x, or
    None: the one rule for a point that sits at a located cusp."""
    radius = 10 * S.tolerances.dedup_radius
    return next((i for i, p in enumerate(cusps) if np.linalg.norm(p.x - x) < radius), None)


def _classify_cloud(S, points, cusps):
    # nondegenerate points already carry depth 1 and their sign (stratum_points)
    for p in points:
        if p.signature.n_zero != 0:
            # a multistart point that landed on (or next to) a cusp
            if cusp_near(S, cusps, p.x) is None:
                raise MorinnessError(
                    f"degenerate stratum point at {p.x} away from every detected cusp"
                )
            p.depth = 2
            p.sign = "unsigned"


def _dimension_audit(S, points):
    system = SingularSystem(S)
    Z = [system.pack(p.x, p.cokernel, p.multiplier) for p in points[:10]]
    return sorted(set(nullities(system.evaluate(np.array(Z))[1]).tolist())) if Z else []


# -- slices of the target (n = 3) -------------------------------------------------


SLICES = 3      # the slices drawn through the minority sign of an n = 3 cloud


def _slice(S: MorinScenario, k, minority):
    """Slice k of an n = 3 scenario through a point p of ``minority``: the
    scenario of f on M' = M cut by <b, f> = c, an n = 2 map, and p.

    b is a unit vector rounded to 1/64 and p is drawn from ``minority``,
    both from the generator keyed by the scenario seed, 29 and k; c is
    <b, f(p)> rounded to 2^-20.  So the constraint <b, f> - c is exact, and
    the slice's own regularity audit checks that it cuts M transversally.
    The slice keeps the two components of f other than the one of largest
    |b_i|, and p is its sample seed.
    """
    rng = np.random.default_rng([S.seed, 29, k])
    v = rng.standard_normal(S.n)
    b = [Fraction(round(64 * t), 64) for t in v / np.linalg.norm(v)]
    p = minority[int(rng.integers(len(minority)))]
    c = Fraction(round(float(np.array(b, dtype=float) @ S.f(p.x)) * 2 ** 20), 2 ** 20)
    level = sum(bi * fi for bi, fi in zip(b, S.components)) - c
    drop = max(range(S.n), key=lambda i: abs(b[i]))
    M = S.manifold
    cut = ImplicitManifold(S.N, M.constraints + (level,), S.m - 1, sample_seeds=[p.x],
                           compact=M.compact, sample_halfwidth=M.sample_halfwidth)
    keep = [f for i, f in enumerate(S.components) if i != drop]
    return MorinScenario(f"{S.name}-slice-{k}", cut, S.n - 1, keep, seed=S.seed,
                         tolerances=S.tolerances), p


def _refuse_cusp_curves(S: MorinScenario, points):
    """Refuse an n = 3 map when a slice of its target finds a cusp curve.

    A hyperplane <b, y> = c transverse to f cuts M in a compact M' on which
    f is an n = 2 map, whose singular set is the fold set cut by M' and
    whose cusps are the points where M' meets the cusp curves of f.  A cusp
    curve separates the plus and minus parts of the fold surface, so a
    slice through a point of the minority sign crosses one unless its fold
    curve stays in that sign.  When the depth-1 cloud carries both signs,
    up to ``SLICES`` slices (``_slice``) run through ``compute_stratification``;
    the first that locates a cusp raises ``MorinnessError`` naming it.  A
    slice that refuses for any other reason is no evidence either way, and
    the next one runs.  A cloud of one sign takes no slice, so a cusp curve
    whose minority region no cloud point reaches goes undetected.
    """
    minus = [p for p in points if p.sign == "minus"]
    plus = [p for p in points if p.sign == "plus"]
    if not minus or not plus:
        return
    minority = minus if len(minus) <= len(plus) else plus
    for k in range(SLICES):
        try:
            cut, p = _slice(S, k, minority)
            cusps = compute_stratification(cut).cusps
        except (ManifoldError, MorinnessError, StratificationError):
            continue
        if cusps:
            raise MorinnessError(
                f"the fold surface carries a cusp curve: the slice "
                f"{to_prefix(cut.manifold.constraints[-1])} = 0 through the depth-1 point "
                f"{(np.round(p.x, 6) + 0.0).tolist()} has a cusp at "
                f"{(np.round(cusps[0].x, 6) + 0.0).tolist()}; cusp curves for n = 3 are not "
                f"supported")
