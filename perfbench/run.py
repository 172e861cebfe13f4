"""Benchmark of the morinchi verification pipeline.

    python3 perfbench/run.py --workload fold-census --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it runs the workload's
pipelines in a closed loop, as many passes as fill about ``--seconds``
seconds on the reference machine, and reports the end-to-end metrics of
``BENCHMARK.json`` in reference-machine seconds (``speed.py``).  With
``--trace 1`` it runs one pass untraced and the same pass traced, prints where
the time went per roadmap stage, writes the spans to ``.bench_out/`` and
reports the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys

import checkout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        checkout.prepare()
    except checkout.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # numpy is imported only now, after the BLAS thread pin
    import harness
    from speed import SpeedProbe

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    reference = harness.load_reference()
    context = harness.machine(workload, args.seed)
    print("context " + json.dumps(context))

    if args.trace:
        with SpeedProbe() as probe:
            plain, traced, tracer = harness.traced_run(workload, args.seed, reference, probe)
        outcomes = plain + traced
        overhead = sum(o.reference_s for o in traced) - sum(o.reference_s for o in plain)
        values = harness.layer_metrics(tracer, overhead)
        wanted = spec["per_layer"]
        for line in harness.stage_lines(tracer.stage_times()):
            print(line)
    else:
        with SpeedProbe() as probe:
            outcomes, setup = harness.timed_run(workload, args.seed, args.seconds,
                                                reference, probe)
        values = harness.end_to_end_metrics(outcomes, setup)
        wanted = spec["end_to_end"]
        wall = harness.end_to_end_metrics(outcomes, setup, reference=False)
        print("wall times " + json.dumps({k: wall[k] for k in ("verify_s", "slowest_verify_s",
                                                                "setup_s")}))

    for o in outcomes:
        mark = ("ok" if o.failure is None
                else f"{'WRONG' if o.wrong else 'REFUSED'}: {o.failure}")
        print(f"pipeline {o.scenario} seed {o.seed}: load {o.load_s:.4f} s, "
              f"verify {o.verify_s:.3f} s wall, speed {o.speed:.4f}, "
              f"{o.reference_s:.3f} s reference, {mark}")
    result = harness.result(outcomes, values, wanted)
    if args.trace:
        path = harness.trace_path(workload, args.seed)
        harness.write_trace(path, context, tracer, result["metrics"], traced)
        print(f"spans written to {path.relative_to(checkout.ROOT)}")
    print(f"failed_fraction {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} pipelines)")
    for name, m in result["metrics"].items():
        print(f"{name:<36} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
