"""Spans and counts around the layers of the morinchi pipeline, from outside it.

The tracer wraps the public functions of each module (plus the few private
helpers that bound a roadmap stage) by rebinding the names that the calling
modules imported, and puts every original object back when it is removed.
Nothing under ``src/`` knows it is being traced.

A span is (request, id, parent, name, start, end).  Spans of one pipeline
share the request id.  A span's self time is its duration minus the time its
child spans cover.  High-frequency leaves (jet evaluations, tangent frames,
third-derivative tensors) are aggregated only; every other span is kept in
memory and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Spans that bound a pipeline stage.  A stage's time is the duration of its
# spans minus the stage spans nested in them (layer spans do not count).
STAGE_OF = {
    "manifold.regularity": "regularity audit",
    "strata.solve1": "depth-1 multistart",
    "strata.trace": "curve tracing with cusp location",
    "morse.k0": "k=0 census",
    "morse.on_stratum": "on-stratum critical points",
    # compute_morse_data's own work outside the other stages is the curve
    # walk and the cusp hits, i.e. on-stratum work
    "morse.data": "on-stratum critical points",
    "morse.cusps": "cusp certificates",
    "euler.report": "report assembly",
}
STAGES = tuple(dict.fromkeys(STAGE_OF.values()))
OTHER_STAGE = "other (sign split, genericity audits, glue)"
STAGE_SPANS = frozenset(STAGE_OF) | {"pipeline", "strata.stratify", "morse.genericity",
                                     "morse.audit"}


class Tracer:
    """Records spans and counts; installs and removes the wrappers."""

    def __init__(self):
        self.request = None
        self.spans = []                      # (request, id, parent, name, start, end)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.counts = Counter()
        self.patched = []                    # (owner, attribute, original)
        self._stack = []                     # open spans: [id, name, child time]
        self._next_id = 0

    # -- recording -------------------------------------------------------------

    def call(self, name, fn, args, kwargs, keep=True):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            total = self.totals[name]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            if keep:
                self.spans.append((self.request, sid, parent[0] if parent else None,
                                   name, start, end))

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name):
        return self.totals[name][2] if name in self.totals else 0.0

    def stage_times(self):
        """Seconds per roadmap stage, plus the rest of the pipeline time."""
        by_id = {s[1]: s for s in self.spans}
        own = {s[1]: s[5] - s[4] for s in self.spans if s[3] in STAGE_SPANS}
        for sid in own:
            parent = by_id[sid][2]
            while parent is not None and parent not in own:
                parent = by_id[parent][2]
            if parent is not None:
                span = by_id[sid]
                own[parent] -= span[5] - span[4]
        stages = dict.fromkeys(STAGES + (OTHER_STAGE,), 0.0)
        for sid, seconds in own.items():
            stages[STAGE_OF.get(by_id[sid][3], OTHER_STAGE)] += seconds
        return stages

    # -- wrapping ----------------------------------------------------------------

    def patch(self, definer, attr, make_wrapper, modules):
        """Rebind ``attr`` to one wrapper in ``definer`` and in every module of
        ``modules`` that imported the same object."""
        original = vars(definer)[attr]
        owners = [definer] + [m for m in modules
                              if m is not definer and vars(m).get(attr) is original]
        wrapper = functools.wraps(original)(make_wrapper(original))
        for owner in owners:
            setattr(owner, attr, wrapper)
            self.patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            install(self)
            yield self
        finally:
            self.restore()


def _timed(tr, name, keep=True, count=None):
    """Wrapper factory: a span, and optionally a count taken from the result."""

    def make(fn):
        def wrapper(*args, **kwargs):
            parent = tr.parent_name()
            out = tr.call(name, fn, args, kwargs, keep)
            if count is not None:
                count(tr.counts, out, parent)
            return out
        return wrapper

    return make


def _counted(tr, count):
    """Wrapper factory: no span, only a count taken from the result."""

    def make(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(tr.counts, out, tr.parent_name())
            return out
        return wrapper

    return make


def _newton(tr):
    def make(fn):
        def wrapper(residual_fn, jacobian_fn, z0, *args, **kwargs):
            counts = tr.counts

            def residual(z):
                counts["newton.residual_evals"] += 1
                return residual_fn(z)

            parent = tr.parent_name()
            out = tr.call("numeric.newton", fn, (residual, jacobian_fn, z0) + args, kwargs)
            counts["newton.iterations"] += out.iterations
            counts["newton.converged"] += out.converged
            # by direct parent: a stage's own solves, not the projections in it
            counts[f"converged@{parent}"] += out.converged
            return out
        return wrapper

    return make


def _critical_points(tr):
    """critical_points_on_stratum: k = 0 is the census on M, k = 1 the stratum."""

    def make(fn):
        def wrapper(S, a, k, *args, **kwargs):
            name = "morse.k0" if k == 0 else "morse.on_stratum"
            records = tr.call(name, fn, (S, a, k) + args, kwargs)
            tr.counts[f"distinct@{name}"] += len(records)
            return records
        return wrapper

    return make


def install(tr: Tracer):
    """Wrap every traced name, in every morinchi module that binds it."""
    import morinchi
    from morinchi import _numeric, cli, euler, expr, manifold, morse, strata

    modules = (morinchi, _numeric, cli, euler, expr, manifold, morse, strata)

    def patch(definer, attr, make_wrapper):
        tr.patch(definer, attr, make_wrapper, modules)

    def one(key):
        def count(counts, out, parent):
            counts[key] += 1
        return count

    def starts(counts, out, parent):
        counts[f"starts@{parent}"] += len(out)

    def curve(counts, out, parent):
        counts["strata.trace_nodes"] += len(out.nodes)
        counts["strata.cusps"] += len(out.cusps)

    def points(counts, out, parent):
        counts["distinct@strata.solve1"] += len(out)

    def curve_records(counts, out, parent):
        counts["distinct@morse.on_stratum"] += len(out[0])

    # layers
    patch(expr.ExprBlock, "__call__", _timed(tr, "expr.jet", keep=False))
    patch(strata.MorinScenario, "third_tensors",
          _timed(tr, "strata.third_tensors", keep=False))
    patch(_numeric, "newton", _newton(tr))
    patch(manifold, "project_to_manifold", _timed(tr, "manifold.project"))
    patch(manifold, "tangent_frame", _timed(tr, "manifold.tangent_frame", keep=False))
    patch(strata, "_multistart_seeds", _counted(tr, starts))
    patch(morse, "_polish_stratum_critical", _counted(tr, one("morse.polishes")))
    patch(morse, "sample_covector", _counted(tr, one("morse.attempts")))
    patch(morse, "perturbation_certificate", _timed(tr, "morse.certificate"))
    # stages
    patch(strata, "load_scenario", _timed(tr, "strata.load"))
    patch(cli, "run_pipeline", _timed(tr, "pipeline"))
    patch(strata, "compute_stratification", _timed(tr, "strata.stratify"))
    patch(manifold, "validate_regularity", _timed(tr, "manifold.regularity"))
    patch(strata, "solve_stratum1", _timed(tr, "strata.solve1", count=points))
    patch(strata, "trace_fold_curve", _timed(tr, "strata.trace", count=curve))
    patch(morse, "run_with_genericity", _timed(tr, "morse.genericity"))
    patch(morse, "compute_morse_data", _timed(tr, "morse.data"))
    patch(morse, "critical_points_on_stratum", _critical_points(tr))
    patch(morse, "_critical_points_on_curves",
          _timed(tr, "morse.on_stratum", count=curve_records))
    patch(morse, "_boundary_records", _timed(tr, "morse.cusps"))
    patch(morse, "check_fold_index_parity", _timed(tr, "morse.audit"))
    patch(morse, "validate_genericity", _timed(tr, "morse.audit"))
    patch(euler, "build_report", _timed(tr, "euler.report"))
