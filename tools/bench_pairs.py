"""Alternating parent/change pairs of perfbench runs, written to a BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --seed 50000 --out BENCH_x.json

Run from the root of a git checkout.  Both sides run from their own copy of
committed files (``git archive`` of ``--parent`` and of ``--change``, HEAD by
default) with the same perfbench, the change side's, so the two sides differ
in ``src/`` only.  For each workload, each of ten pairs i runs
``perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` on both
sides, the parent first when i is even and the change first when i is odd;
S is ``--seed`` plus 100 times the workload's position plus i.  Each side's end-to-end
metrics are kept in reference seconds (the result line) and in wall seconds
(the "wall times" line): the reference conversion times a fixed kernel
while the pipeline runs, so a change can move it, and wall seconds show the
raw times beside it.  The summary of each metric gives the median and the
quartiles (``statistics.quantiles(n=4, method="inclusive")``) of each side,
the number of pairs in which the change is lower, and the relative change
of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

WORKLOADS = ("fold-census", "fold-curves", "fold-surface")
METRICS = ("verify_s", "slowest_verify_s", "setup_s", "peak_rss_mb")
WALL = ("verify_s", "slowest_verify_s", "setup_s")
PAIRS = 10
SECONDS = 30    # perfbench's run length


def export(rev, into: Path, perfbench_rev=None):
    """The committed files of ``rev`` under ``into``, with ``perfbench/``
    taken from ``perfbench_rev`` when given."""
    def unpack(tree, paths=()):
        data = subprocess.run(["git", "archive", tree, *paths], check=True,
                              capture_output=True).stdout
        with tarfile.open(fileobj=BytesIO(data)) as tar:
            # the data filter exists from Python 3.10.12 and 3.11.4; git
            # archive output of the local repository is trusted either way
            if hasattr(tarfile, "data_filter"):
                tar.extractall(into, filter="data")
            else:
                tar.extractall(into)
    unpack(rev)
    if perfbench_rev is not None:
        shutil.rmtree(into / "perfbench")
        unpack(perfbench_rev, ["perfbench"])


def cpu():
    """The CPU model named in /proc/cpuinfo, else the platform's machine type."""
    try:
        with open("/proc/cpuinfo") as info:
            return next(line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.machine()


def sha(rev):
    return subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(root: Path, workload, seed):
    """One perfbench run: its metrics in reference and wall units."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                         cwd=root, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    wall = json.loads(next(line for line in lines if line.startswith("wall times "))[11:])
    row = {name: round(result["metrics"][name]["value"], 5) for name in METRICS}
    row.update({f"wall_{name}": round(wall[name], 5) for name in WALL})
    row.update(attempted=result["attempted"], failed=result["failed"],
               correct=result["correct"])
    return row


def summary(pairs):
    def stats(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}
    out = {}
    for name in METRICS + tuple(f"wall_{name}" for name in WALL):
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        a, b = stats(parent), stats(change)
        out[name] = {"parent": a, "change": b,
                     "change_lower_in": sum(c < p for p, c in zip(parent, change)),
                     "relative_change": round(b["median"] / a["median"] - 1, 4)}
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    out["failed"]["attempted"] = sum(p["parent"]["attempted"] for p in pairs)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="git revision of the change side")
    parser.add_argument("--seed", type=int, required=True, help="first seed of the first workload")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", default="", help="the gain the change claims, if any")
    parser.add_argument("--note", default="", help="what the round measured")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.change, roots["change"])
        export(args.parent, roots["parent"], perfbench_rev=args.change)
        workloads = {}
        for w, workload in enumerate(WORKLOADS):
            pairs = []
            for i in range(PAIRS):
                seed = args.seed + 100 * w + i
                first = "parent" if i % 2 == 0 else "change"
                pair = {"seed": seed, "first": first}
                for side in (first, "change" if first == "parent" else "parent"):
                    pair[side] = run_once(roots[side], workload, seed)
                pairs.append(pair)
                print(f"{workload} seed {seed}: verify_s {pair['parent']['verify_s']} -> "
                      f"{pair['change']['verify_s']}", file=sys.stderr)
            workloads[workload] = {"summary": summary(pairs), "pairs": pairs}

    import numpy as np
    doc = {
        "what": "perfbench, parent commit against this change: alternating pairs per workload",
        "command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {SECONDS} --trace 0",
        "script": "python3 tools/bench_pairs.py " + " ".join(map(shlex.quote, argv)),
        "units": {**{name: "reference s" for name in WALL}, "peak_rss_mb": "MB",
                  **{f"wall_{name}": "wall s" for name in WALL}},
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of each side",
        "pairing": "pair i runs the parent first when i is even and the change first when i "
                   "is odd; each side runs from its own copy of committed files with the "
                   "change's perfbench",
        "parent": sha(args.parent),
        "change": sha(args.change),
        "machine": {"cpu": cpu(), "vcpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": 1},
        "claim": args.claim,
        "rounds": [{"label": "final", "note": args.note,
                    "seeds": f"{args.seed}+100*workload+pair", "workloads": workloads}],
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
