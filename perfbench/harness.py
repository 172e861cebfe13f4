"""Closed-loop benchmark of the morinchi verification pipeline.

One process, one client: pipelines run one after another, each one
``strata.load_scenario`` followed by ``cli.run_pipeline`` and a check of the
report against the reference strata table.  A workload is a list of bundled
scenarios; a pass runs each of them once, with root seeds drawn from the
workload seed.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from morinchi import cli, strata
from morinchi.strata import Tolerances

from checkout import BLAS_THREAD_VARS, ROOT
from speed import SpeedProbe
from tracing import OTHER_STAGE, STAGES, Tracer

HERE = Path(__file__).resolve().parent
SCENARIOS = Path(strata.__file__).resolve().parent / "scenarios"
TABLE_KEYS = ("k", "sign", "chi_morse_boundary", "chi_oracle", "arcs", "circles", "points")

# Loading takes milliseconds, so set-up is timed over a few rounds before
# every pipeline; the median then spans the whole run, like the pipelines.
SETUP_ROUNDS = 10

# A run never starts a pipeline that would end past this, so it exits well
# within three minutes even on a machine three times slower than the reference.
DEADLINE_S = 150.0

# The unchanged program refuses (exit 2) on about 1.3% of s4-height root
# seeds.  A run that refuses more than this share of its pipelines, or never
# verifies one of its scenarios, is not correct.
MAX_REFUSED_SHARE = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple
    tolerances: dict = field(default_factory=dict)   # overrides of the scenario file
    pass_s: float = 10.0         # seconds of one pass on the reference machine

    def passes_in(self, seconds: float) -> int:
        """Passes a run of ``seconds`` makes: fixed, so a seed fixes the pipelines."""
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {w.name: w for w in (
    Workload("fold-census", ("s2-height", "torus-height", "s4-height"), pass_s=10.5),
    # a quarter of the default curve step, as users set it for smooth curves.csv
    Workload("fold-curves", ("s3-proj", "s3-cusps"), {"curve_step": 2.5e-3}, pass_s=13.5),
    Workload("fold-surface", ("s4-proj",), pass_s=5.9),
)}

# documented exit codes of ``morinchi run`` for the typed failures; only
# GenericityExhausted is a refusal, every other one is a wrong answer on these
# known-good scenarios
TYPED_ERRORS = (
    ((cli.ScenarioFormatError,), cli.EXIT_FORMAT),
    ((cli.RegularityError, cli.ProjectionError), cli.EXIT_REGULARITY),
    ((cli.MorinnessError, cli.StratificationError), cli.EXIT_MORIN),
    ((cli.GenericityExhausted,), cli.EXIT_GENERICITY),
    ((cli.MorseAuditError,), cli.EXIT_IDENTITY),
)


@dataclass
class Outcome:
    scenario: str
    seed: int
    load_s: float
    verify_s: float
    failure: str | None          # None when the report is verified and matches
    report_json: str | None
    wrong: bool = False          # every failure but the exit-2 refusal
    speed: float = 1.0           # machine speed during the pipeline (speed.py)

    @property
    def reference_s(self) -> float:
        """``verify_s`` on the reference machine."""
        return self.verify_s * self.speed

    @property
    def refused(self) -> bool:
        return self.failure is not None and not self.wrong


def load_reference(path=HERE / "reference.json") -> dict:
    return json.loads(Path(path).read_text())


def passes(workload: Workload, seed: int):
    """Endless sequence of passes; pass i is the same for the same seed."""
    rng = random.Random(seed)
    while True:
        yield [(name, rng.randrange(1_000_000)) for name in workload.scenarios]


def load(workload: Workload, name: str, root_seed: int):
    S = strata.load_scenario(SCENARIOS / f"{name}.json")
    S.seed = root_seed
    if workload.tolerances:
        S.tolerances = Tolerances.from_dict({**S.tolerances.as_dict(), **workload.tolerances})
    return S


def check_report(report, expected: dict) -> str | None:
    """Why the report is wrong, or None when it is verified and matches the reference.

    chi and the strata table are compared with the reference whatever
    ``all_ok`` says, so a program that computes a wrong answer and flags it
    is caught the same as one that does not.
    """
    if report.chi_M_morse != report.chi_M_expected or report.chi_M_morse != expected["chi_M"]:
        return (f"chi_M_morse {report.chi_M_morse}, expected {report.chi_M_expected} "
                f"(reference {expected['chi_M']})")
    table = [{k: row[k] for k in TABLE_KEYS} for row in report.strata_table]
    if table != expected["strata"]:
        return f"strata table {table} differs from the reference"
    if not report.all_ok:
        return "all_ok is false"
    return None


def run_checked(workload: Workload, name: str, root_seed: int, reference: dict,
                probe: SpeedProbe | None = None) -> Outcome:
    """One pipeline, from loading the scenario to a checked report.

    With a ``probe`` installed, its samples' time is taken out of the
    pipeline's and the outcome carries the machine speed during it.
    """
    if probe:
        probe.reset()
    t0 = t1 = perf_counter()
    busy_load = 0.0
    failure = text = None
    wrong = False
    try:
        S = load(workload, name, root_seed)
        t1 = perf_counter()
        busy_load = probe.busy_s if probe else 0.0
        report, _, _ = cli.run_pipeline(S)
        text = report.to_json()
        failure = check_report(report, reference[name])
        wrong = failure is not None
    except Exception as exc:     # every failure is counted, typed or not
        code = next((c for types, c in TYPED_ERRORS if isinstance(exc, types)), None)
        kind = "untyped" if code is None else f"exit {code}"
        failure = f"{kind} {type(exc).__name__}: {exc}"
        wrong = not isinstance(exc, cli.GenericityExhausted)
    t2 = perf_counter()
    if not probe:
        return Outcome(name, root_seed, t1 - t0, t2 - t1, failure, text, wrong)
    busy = probe.busy_s
    return Outcome(name, root_seed, t1 - t0 - busy_load, t2 - t1 - (busy - busy_load),
                   failure, text, wrong, probe.speed())


def setup_round(workload: Workload, probe: SpeedProbe | None = None) -> float:
    """Seconds to load every scenario of the workload once."""
    if probe:
        probe.reset()
    t0 = perf_counter()
    for name in workload.scenarios:
        load(workload, name, 0)
    return perf_counter() - t0 - (probe.busy_s if probe else 0.0)


def timed_run(workload: Workload, seed: int, seconds: float, reference: dict,
              probe: SpeedProbe | None = None):
    """Untraced closed loop over the passes a run of ``seconds`` makes.

    The pass count depends on ``seconds`` only, so a seed fixes the
    pipelines of a run; a pipeline that would end past ``DEADLINE_S`` is not
    started.  Returns the outcomes and the set-up round times.
    """
    outcomes, setup = [], []
    longest = {}
    start = perf_counter()
    for _, batch in zip(range(workload.passes_in(seconds)), passes(workload, seed)):
        for name, root_seed in batch:
            if outcomes and perf_counter() - start + longest.get(name, 0.0) > DEADLINE_S:
                return outcomes, setup
            setup += [setup_round(workload, probe) for _ in range(SETUP_ROUNDS)]
            o = run_checked(workload, name, root_seed, reference, probe)
            longest[name] = max(longest.get(name, 0.0), o.load_s + o.verify_s)
            outcomes.append(o)
    return outcomes, setup


def end_to_end_metrics(outcomes, setup, reference: bool = True) -> dict:
    """Times on the reference machine (wall times if not ``reference``), medians over the run.

    Pipeline times count only verified pipelines, so failing fast is no gain.
    Set-up rounds take milliseconds, too short to sample, so they are
    converted at the run's median pipeline speed; set-up and pipelines
    alternate, so that speed spans the rounds.
    """
    by_scenario = {}
    for o in outcomes:
        by_scenario.setdefault(o.scenario, []).append(o)
    medians = []
    for runs in by_scenario.values():
        # a scenario that never verified makes the run incorrect; time it anyway
        verified = [o for o in runs if o.failure is None] or runs
        medians.append(statistics.median(o.reference_s if reference else o.verify_s
                                         for o in verified))
    return {
        # one pass: every scenario of the workload once
        "verify_s": sum(medians),
        # the scenario the wall-clock gates find slowest; a median, because the
        # maximum of single pipelines grows with how many the run makes
        "slowest_verify_s": max(medians),
        "setup_s": statistics.median(setup) * (statistics.median(o.speed for o in outcomes)
                                               if reference else 1.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload: Workload, seed: int, reference: dict,
               probe: SpeedProbe | None = None):
    """The first pass untraced, then the same pipelines traced.

    Returns both passes' outcomes and the tracer.  A traced report that
    differs from its untraced twin is a wrong answer.  With a ``probe``,
    both passes carry the machine speed, so their reference times differ by
    the cost of tracing; the spans then include the probe's samples.
    """
    batch = next(passes(workload, seed))
    plain = [run_checked(workload, name, s, reference, probe) for name, s in batch]
    tracer = Tracer()
    traced = []
    with tracer.installed():
        for request, (name, s) in enumerate(batch):
            tracer.request = request
            traced.append(run_checked(workload, name, s, reference, probe))
    for p, t in zip(plain, traced):
        if t.failure is None and t.report_json != p.report_json:
            t.failure = "tracing changed report.json"
            t.wrong = True
    return plain, traced, tracer


def layer_metrics(tr: Tracer, overhead_s: float) -> dict:
    C = tr.counts
    stages = tr.stage_times()

    def ratio(a, b):
        return a / b if b else 0.0

    newton = tr.calls("numeric.newton")
    solve1_starts = C["starts@strata.solve1"]
    k0_starts = C["starts@morse.k0"]
    return {
        "expr.jet_calls": tr.calls("expr.jet"),
        "expr.jet_self_s": tr.self_s("expr.jet"),
        "expr.jet_us": 1e6 * ratio(tr.self_s("expr.jet"), tr.calls("expr.jet")),
        "strata.third_tensors_calls": tr.calls("strata.third_tensors"),
        "strata.third_tensors_s": tr.total_s("strata.third_tensors"),
        "numeric.newton_calls": newton,
        "numeric.newton_iterations": C["newton.iterations"],
        "numeric.newton_residual_evals": C["newton.residual_evals"],
        "numeric.newton_converged_ratio": ratio(C["newton.converged"], newton),
        "numeric.newton_self_s": tr.self_s("numeric.newton"),
        "numeric.newton_ms_per_start": 1e3 * ratio(tr.total_s("numeric.newton"), newton),
        "manifold.regularity_s": tr.total_s("manifold.regularity"),
        "manifold.project_calls": tr.calls("manifold.project"),
        "manifold.project_s": tr.total_s("manifold.project"),
        "manifold.tangent_frame_calls": tr.calls("manifold.tangent_frame"),
        "strata.solve1_s": tr.total_s("strata.solve1"),
        "strata.solve1_starts": solve1_starts,
        "strata.solve1_converged_ratio": ratio(C["converged@strata.solve1"], solve1_starts),
        "strata.solve1_distinct_ratio": ratio(C["distinct@strata.solve1"], solve1_starts),
        "strata.trace_s": tr.total_s("strata.trace"),
        "strata.trace_nodes": C["strata.trace_nodes"],
        "strata.trace_ms_per_node": 1e3 * ratio(tr.total_s("strata.trace"),
                                                C["strata.trace_nodes"]),
        "strata.cusps": C["strata.cusps"],
        "morse.k0_s": tr.total_s("morse.k0"),
        "morse.k0_starts": k0_starts,
        "morse.k0_converged_ratio": ratio(C["converged@morse.k0"], k0_starts),
        "morse.k0_distinct_ratio": ratio(C["distinct@morse.k0"], k0_starts),
        "morse.on_stratum_s": stages["on-stratum critical points"],
        "morse.on_stratum_polishes": C["morse.polishes"],
        "morse.on_stratum_distinct_ratio": ratio(C["distinct@morse.on_stratum"],
                                                 C["morse.polishes"]),
        "morse.certificate_calls": tr.calls("morse.certificate"),
        "morse.certificate_s": tr.total_s("morse.certificate"),
        "morse.audit_s": tr.total_s("morse.audit"),
        "morse.attempts": C["morse.attempts"],
        "euler.report_s": tr.total_s("euler.report"),
        "trace.overhead_s": overhead_s,
    }


def correct(outcomes) -> bool:
    """No wrong answer, few refusals, and every scenario verified at least once."""
    refused = sum(o.refused for o in outcomes)
    verified = {o.scenario for o in outcomes if o.failure is None}
    return (not any(o.wrong for o in outcomes)
            and refused <= MAX_REFUSED_SHARE * len(outcomes)
            and verified == {o.scenario for o in outcomes})


def result(outcomes, values: dict, wanted: list) -> dict:
    """The result object: every metric listed in ``wanted``, with its unit.

    ``failed`` counts every pipeline without a verified, matching report.
    """
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(o.failure is not None for o in outcomes)
    return {"correct": correct(outcomes),
            "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def machine(workload: Workload, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": workload.name,
        "workload_seed": seed,
        "closed_loop": "1 process, 1 client, pipelines one after another",
    }


def stage_lines(stages: dict) -> list:
    total = sum(stages.values())
    top = max(STAGES, key=stages.get)
    lines = [f"stages (traced pass, {total:.3f} s of pipeline time; most: {top})"]
    for name in STAGES + (OTHER_STAGE,):
        share = stages[name] / total if total else 0.0
        lines.append(f"  {name:<45} {stages[name]:9.4f} s {100 * share:6.1f} %")
    return lines


def write_trace(path: Path, context: dict, tracer: Tracer, metrics: dict, outcomes):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "context": context,
        "pipelines": [{"request": i, "scenario": o.scenario, "seed": o.seed,
                       "verify_s": o.verify_s, "failure": o.failure}
                      for i, o in enumerate(outcomes)],
        "stages_s": tracer.stage_times(),
        "metrics": metrics,
        "counts": dict(sorted(tracer.counts.items())),
        "totals": {name: {"calls": c, "total_s": t, "self_s": s}
                   for name, (c, t, s) in sorted(tracer.totals.items())},
        "span_fields": ["request", "id", "parent", "name", "start", "end"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc) + "\n")


def trace_path(workload: Workload, seed: int) -> Path:
    return ROOT / ".bench_out" / f"trace-{workload.name}-seed{seed}.json"
