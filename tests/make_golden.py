"""The integers of the comparison runs, and the script that writes them to
``tests/golden.json``.

A comparison run is ``cli.run`` of one scenario with one root seed.  Of each
run the file keeps the exit code, every int, bool, str and null leaf of
``report.json`` (keyed by its path, ``/``-joined keys and list indices) and
the number of data rows of each CSV.  Floats stay out: they may move in
their last digits when a solve changes, while the integers (chi tables,
counts, indices, signs, verdicts, stop reasons) must not.  A run that
exits without artifacts records its exit code alone.

The runs: the six bundled scenarios at root seeds 0-4, s3-proj and s3-cusps
at the benchmark's curve step 2.5e-3 at seeds 0-4, and s4-height at seed
181633 with one covector attempt, a documented refusal (exit 2).

    PYTHONPATH=src python3 tests/make_golden.py      # rewrite tests/golden.json

The ``golden`` tests (``tests/test_golden.py``) compare fresh runs with it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from importlib.resources import files
from pathlib import Path

from morinchi.cli import RunConfig, run

GOLDEN = Path(__file__).resolve().parent / "golden.json"
BUNDLED = ("s2-height", "s3-cusps", "s3-proj", "s4-height", "s4-proj", "torus-height")
FINE_STEP = 2.5e-3
CSVS = ("strata.csv", "critical.csv", "curves.csv")

# run id -> (scenario name, curve_step override or None, seed, max_resamples or None)
RUNS = {
    **{f"{name}/seed-{seed}": (name, None, seed, None)
       for name in BUNDLED for seed in range(5)},
    **{f"{name}@{FINE_STEP}/seed-{seed}": (name, FINE_STEP, seed, None)
       for name in ("s3-proj", "s3-cusps") for seed in range(5)},
    "s4-height/seed-181633/max-resamples-1": ("s4-height", None, 181633, 1),
}


def integer_leaves(node, path=""):
    """The int, bool, str and null leaves of a JSON value, by path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {} if isinstance(node, float) else {path: node}
    out = {}
    for key, value in items:
        out.update(integer_leaves(value, f"{path}/{key}"))
    return out


def run_integers(run_id, workdir):
    """Run ``run_id`` of ``RUNS`` with artifacts under ``workdir`` (a
    directory that exists) and return its record."""
    name, step, seed, max_resamples = RUNS[run_id]
    scenario = files("morinchi").joinpath(f"scenarios/{name}.json")
    if step is not None:
        data = json.loads(scenario.read_text())
        data["tolerances"] = {**data.get("tolerances", {}), "curve_step": step}
        scenario = Path(workdir) / f"{name}-{step}.json"
        scenario.write_text(json.dumps(data))
    out = Path(workdir) / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(RunConfig(scenario=str(scenario), seed=seed, out_dir=str(out),
                             max_resamples=max_resamples))
    record = {"exit": code}
    if (out / "report.json").is_file():
        record["report"] = integer_leaves(json.loads((out / "report.json").read_text()))
        rows = {}
        for csv_name in CSVS:
            with open(out / csv_name, newline="") as fh:
                rows[csv_name] = sum(1 for _ in csv.reader(fh)) - 1
        record["csv_rows"] = rows
    return record


def main():
    golden = {}
    for run_id in RUNS:
        with tempfile.TemporaryDirectory() as workdir:
            golden[run_id] = run_integers(run_id, workdir)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    leaves = sum(len(r.get("report", {})) for r in golden.values())
    print(f"{GOLDEN.name}: {len(golden)} runs, {leaves} report leaves")


if __name__ == "__main__":
    main()
