"""Self-tests of the benchmark: its checks can fail, tracing changes nothing,
and counts repeat exactly.

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's default test run: they
run whole pipelines and take about a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import checkout

checkout.prepare()

import harness  # noqa: E402
import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from morinchi import cli, expr, morse, strata  # noqa: E402

# n = 1 point strata and one traced fold curve, at the scenario's own step
SMALL = harness.Workload("small", ("s2-height", "s3-proj"))
CUSPS = harness.Workload("cusps", ("s3-cusps",))
SPEC = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
EXACT = ("_calls", "_starts", "_iterations", "_residual_evals", "strata.trace_nodes",
         "strata.cusps", "morse.attempts", "morse.on_stratum_polishes")


def test_reference_matches_and_a_corrupted_one_fails():
    reference = harness.load_reference()
    workload = harness.Workload("s2", ("s2-height",))
    good, _ = harness.timed_run(workload, 3, 0, reference)
    assert [o.failure for o in good] == [None]

    corrupted = copy.deepcopy(reference)
    corrupted["s2-height"]["strata"][0]["points"] += 1
    bad, _ = harness.timed_run(workload, 3, 0, corrupted)
    result = harness.result(bad, {}, [])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "differs from the reference" in bad[0].failure

    corrupted = copy.deepcopy(reference)
    corrupted["s2-height"]["chi_M"] = 0
    bad, _ = harness.timed_run(workload, 3, 0, corrupted)
    assert bad[0].failure.startswith("chi_M_morse 2")


def test_documented_refusal_counts_as_failed_and_is_bounded():
    # at root seed 181633 the depth-1 multistart misses the fold point of
    # s4-height at -e0, so every covector fails the boundary-criticality audit
    workload = harness.Workload("s4", ("s4-height",), {"max_resamples": 1})
    o = harness.run_checked(workload, "s4-height", 181633, harness.load_reference())
    assert o.failure.startswith("exit 2 GenericityExhausted") and o.refused
    verified = [harness.Outcome("s4-height", s, 0.01, 1.0, None, None) for s in range(3)]
    result = harness.result([o] + verified, {}, [])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 1)
    # alone, the refusal leaves the scenario unverified
    assert harness.result([o], {}, [])["correct"] is False
    # and its time stays out of the pipeline means
    o.verify_s = 0.5
    assert harness.end_to_end_metrics([o] + verified, [0.1])["verify_s"] == 1.0


def test_a_wrong_program_is_not_correct(monkeypatch):
    reference = harness.load_reference()
    workload = harness.Workload("s2", ("s2-height",), {"max_resamples": 1})
    original = morse.critical_points_on_stratum

    def drop_one(S, a, k, *args, **kwargs):
        records = original(S, a, k, *args, **kwargs)
        return records[:-1] if k == 0 else records

    # the program's own audits catch the missing critical point and refuse
    monkeypatch.setattr(morse, "critical_points_on_stratum", drop_one)
    o = harness.run_checked(workload, "s2-height", 3, reference)
    assert o.failure.startswith("exit 2 GenericityExhausted")
    assert harness.result([o], {}, [])["correct"] is False
    monkeypatch.undo()

    # a report whose chi is off is wrong even when it flags itself with all_ok false
    build = cli.build_report

    def off_by_two(*args, **kwargs):
        report = build(*args, **kwargs)
        return dataclasses.replace(report, chi_M_morse=report.chi_M_morse + 2,
                                   chi_expected_ok=False)

    monkeypatch.setattr(cli, "build_report", off_by_two)
    o = harness.run_checked(workload, "s2-height", 3, reference)
    assert o.wrong and o.failure.startswith("chi_M_morse 4")
    assert harness.result([o], {}, [])["correct"] is False


def test_tracing_leaves_report_bytes_and_module_names_unchanged():
    reference = harness.load_reference()
    before = {name: vars(strata)[name] for name in ("solve_stratum1", "newton",
                                                     "project_to_manifold")}
    call = vars(expr.ExprBlock)["__call__"]

    plain, traced, tracer = harness.traced_run(CUSPS, 5, reference)
    assert tracer.calls("pipeline") == 1 and tracer.calls("morse.certificate") == 2
    assert len(tracer.patched) > 30
    for owner, attr, original in tracer.patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert {name: vars(strata)[name] for name in before} == before
    assert vars(expr.ExprBlock)["__call__"] is call
    assert vars(morse)["newton"] is vars(strata)["newton"]

    (name, seed), = next(harness.passes(CUSPS, 5))
    repeat = harness.run_checked(CUSPS, name, seed, reference)
    assert [o.failure for o in plain + traced + [repeat]] == [None] * 3
    assert plain[0].report_json == traced[0].report_json == repeat.report_json


def test_speed_probe_changes_no_report_and_is_removed():
    reference = harness.load_reference()
    workload = harness.Workload("s2", ("s2-height",))
    handler = signal.getsignal(signal.SIGALRM)
    plain = harness.run_checked(workload, "s2-height", 3, reference)
    with SpeedProbe() as probe:
        probed = harness.run_checked(workload, "s2-height", 3, reference, probe)
        assert probe.samples                    # the kernel ran during the pipeline
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probed.failure is None and probed.report_json == plain.report_json
    assert math.isfinite(probed.speed) and probed.speed > 0
    assert probed.reference_s == probed.verify_s * probed.speed


def test_a_seed_fixes_the_pipelines_of_a_run():
    census = harness.WORKLOADS["fold-census"]
    assert [census.passes_in(s) for s in (0, 10, 36, 60)] == [1, 1, 3, 6]

    def first(seed, n):
        return [p for _, p in zip(range(n), harness.passes(census, seed))]

    assert first(4, 3) == first(4, 3) != first(5, 3)


def test_counts_repeat_exactly():
    reference = harness.load_reference()
    runs = []
    for _ in range(2):
        _, traced, tracer = harness.traced_run(SMALL, 7, reference)
        assert [o.failure for o in traced] == [None, None]
        metrics = harness.layer_metrics(tracer, 0.0)
        runs.append({k: v for k, v in metrics.items() if k.endswith(EXACT)})
    assert runs[0] == runs[1]
    assert runs[0]["strata.trace_nodes"] > 0 and runs[0]["expr.jet_calls"] > 0
    assert runs[0]["strata.solve1_starts"] == 200 * 1 + 200 * 2


def test_stage_time_excludes_nested_stages_only():
    tr = tracing.Tracer()
    tr.spans = [
        (0, 0, None, "pipeline", 0.0, 10.0),
        (0, 1, 0, "strata.stratify", 0.0, 6.0),
        (0, 2, 1, "strata.solve1", 1.0, 5.0),
        (0, 3, 2, "numeric.newton", 1.0, 4.0),     # a layer, not a stage
        (0, 4, 0, "morse.data", 6.0, 9.5),
        (0, 5, 4, "morse.k0", 6.0, 8.0),
        (0, 6, 0, "euler.report", 9.5, 10.0),
    ]
    stages = tr.stage_times()
    assert stages["depth-1 multistart"] == 4.0
    assert stages["k=0 census"] == 2.0
    assert stages["on-stratum critical points"] == 1.5
    assert stages["report assembly"] == 0.5
    assert stages[tracing.OTHER_STAGE] == 2.0        # stratify 2.0 + pipeline 0.0
    assert sum(stages.values()) == 10.0


def test_metric_names_match_benchmark_json():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert list(harness.layer_metrics(tracing.Tracer(), 0.0)) == per_layer
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    outcome = harness.Outcome("s2-height", 0, 0.1, 1.0, None, None)
    assert list(harness.end_to_end_metrics([outcome], [0.1])) == end_to_end
    layers = json.loads((Path(__file__).parent / "layers.json").read_text())
    assert set(layers) == {"about", "map"}      # stages live in tracing.STAGES only
    assert sorted(m for entry in layers["map"] for m in entry["metrics"]) == sorted(per_layer)
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert set(harness.load_reference()) >= {s for w in harness.WORKLOADS.values()
                                             for s in w.scenarios}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fold-census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert run.stdout == ""
