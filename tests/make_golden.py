"""The integers of the comparison runs, and the script that writes them to
``tests/golden.json``.

A comparison run is ``cli.run`` of one scenario with one root seed.  Of each
run the file keeps the exit code, every int, bool, str and null leaf of
``report.json`` (keyed by its path, ``/``-joined keys and list indices) and
the number of data rows of each CSV.  Floats stay out: they may move in
their last digits when a solve changes, while the integers (chi tables,
counts, indices, signs, verdicts, stop reasons) must not.  A run that
exits without artifacts records its exit code alone.

The runs: the seven bundled scenarios at root seeds 0-4, s3-proj and s3-cusps
at the benchmark's curve step 2.5e-3 at seeds 0-4, and s4-height at seed
181633 with one covector attempt, a documented refusal (exit 2).

    PYTHONPATH=src python3 tests/make_golden.py      # rewrite tests/golden.json

The ``golden`` tests (``tests/test_golden.py``) compare fresh runs with it.

With ``--artifacts DIR`` the script leaves ``tests/golden.json`` alone and
writes, for each run, its exit code (``exit_code``), ``report.json`` and the
three CSVs under ``DIR/<run id>/``.  Run it once with ``PYTHONPATH`` set to
each of two checkouts' ``src``; ``diff -r`` of the two directories then
checks that every exit code and every artifact is byte-identical:

    PYTHONPATH=../before/src python3 tests/make_golden.py --artifacts /tmp/before
    PYTHONPATH=src python3 tests/make_golden.py --artifacts /tmp/after
    diff -r /tmp/before /tmp/after

A change that is meant to move floats only is checked with ``--compare``
instead of ``diff -r``:

    python3 tests/make_golden.py --compare /tmp/before /tmp/after

It prints every difference other than a float's (an exit code, an artifact
or a report leaf present on one side only, an int, bool, str or null leaf,
a CSV row count, a CSV cell that is not a float) and exits 1 if there is
one.  For each kind of artifact it prints how many floats moved, with the
largest absolute and relative change.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from importlib.resources import files
from pathlib import Path

from morinchi.cli import RunConfig, _data_rows, run

GOLDEN = Path(__file__).resolve().parent / "golden.json"
BUNDLED = ("s2-height", "s2xs2-height", "s3-cusps", "s3-proj", "s4-height", "s4-proj",
           "torus-height")
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


def leaves(node, path=""):
    """The leaves of a JSON value, by path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, value in items:
        out.update(leaves(value, f"{path}/{key}"))
    return out


def integer_leaves(node, path=""):
    """The int, bool, str and null leaves of a JSON value, by path."""
    return {key: value for key, value in leaves(node, path).items()
            if not isinstance(value, float)}


def run_integers(run_id, workdir, out=None):
    """Run ``run_id`` of ``RUNS`` with its scratch files under ``workdir`` (a
    directory that exists) and its artifacts in ``out`` (``workdir/out`` by
    default), and return its record."""
    name, step, seed, max_resamples = RUNS[run_id]
    scenario = files("morinchi").joinpath(f"scenarios/{name}.json")
    if step is not None:
        data = json.loads(scenario.read_text())
        data["tolerances"] = {**data.get("tolerances", {}), "curve_step": step}
        scenario = Path(workdir) / f"{name}-{step}.json"
        scenario.write_text(json.dumps(data))
    out = Path(workdir) / "out" if out is None else Path(out)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(RunConfig(scenario=str(scenario), seed=seed, out_dir=str(out),
                             max_resamples=max_resamples))
    record = {"exit": code}
    if (out / "report.json").is_file():
        record["report"] = integer_leaves(json.loads((out / "report.json").read_text()))
        record["csv_rows"] = {csv_name: _data_rows(out / csv_name) for csv_name in CSVS}
    return record


def _csv_float(cell):
    """The value of a CSV cell that holds a float, else None.  The CSVs
    write floats with ``repr``, so a cell that parses as an int holds an
    int."""
    try:
        int(cell)
    except ValueError:
        try:
            return float(cell)
        except ValueError:
            return None
    return None


def _artifact_values(path):
    """The values of one artifact file, keyed by place: the exit code, every
    report leaf by path, every CSV cell by "row:column" with the row count.
    A report leaf is its JSON value, a CSV cell its float or else its text,
    and the exit code and the row count are text."""
    text = path.read_text()
    if path.name == "exit_code":
        return {"code": text.strip()}
    if path.name == "report.json":
        return leaves(json.loads(text))
    rows = list(csv.reader(io.StringIO(text)))
    cells = {"rows": str(len(rows))}
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            value = _csv_float(cell)
            cells[f"{i}:{j}"] = cell if value is None else value
    return cells


def compare(before, after):
    """The differences other than a float's between two ``--artifacts``
    directories, as lines, and per kind of artifact the floats that moved:
    (compared, moved, largest absolute change, largest relative change)."""
    before, after = Path(before), Path(after)
    names = {p.relative_to(before) for p in before.rglob("*") if p.is_file()}
    names |= {p.relative_to(after) for p in after.rglob("*") if p.is_file()}
    differences, moved = [], {}
    for name in sorted(names):
        if not ((before / name).is_file() and (after / name).is_file()):
            side = "before" if (before / name).is_file() else "after"
            differences.append(f"{name}: only {side}")
            continue
        old, new = _artifact_values(before / name), _artifact_values(after / name)
        stats = moved.setdefault(name.name, [0, 0, 0.0, 0.0])
        for key in sorted(set(old) | set(new), key=str):
            a, b = old.get(key), new.get(key)
            if isinstance(a, float) and isinstance(b, float):
                stats[0] += 1
                if a == b or (math.isnan(a) and math.isnan(b)):
                    continue
                change = abs(b - a) if math.isfinite(b - a) else math.inf
                stats[1] += 1
                stats[2] = max(stats[2], change)
                stats[3] = max(stats[3], change / max(abs(a), abs(b))
                               if math.isfinite(change) else math.inf)
            elif key not in old or key not in new or (type(a), a) != (type(b), b):
                differences.append(f"{name}: {key}: {a!r} -> {b!r}")
    return differences, {kind: tuple(stats) for kind, stats in sorted(moved.items())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifacts", metavar="DIR",
                        help="write each run's exit code, report.json and CSVs under "
                             "DIR/<run id>/ instead of rewriting tests/golden.json")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --artifacts directories float by float "
                             "and exit 1 on any other difference")
    args = parser.parse_args(argv)
    if args.compare is not None:
        for directory in args.compare:
            if not Path(directory).is_dir():
                parser.error(f"{directory} is not a directory")
        differences, moved = compare(*args.compare)
        for kind, (count, changed, absolute, relative) in moved.items():
            print(f"{kind}: {changed} of {count} floats moved, largest change "
                  f"{absolute:.1e} absolute, {relative:.1e} relative")
        for line in differences:
            print(line)
        print(f"{len(differences)} differences other than a float's")
        return 1 if differences else 0
    golden = {}
    for run_id in RUNS:
        out = None if args.artifacts is None else Path(args.artifacts) / run_id
        with tempfile.TemporaryDirectory() as workdir:
            golden[run_id] = run_integers(run_id, workdir, out)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            (out / "exit_code").write_text(f"{golden[run_id]['exit']}\n")
    if args.artifacts is not None:
        print(f"{args.artifacts}: artifacts of {len(golden)} runs")
        return
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    leaves = sum(len(r.get("report", {})) for r in golden.values())
    print(f"{GOLDEN.name}: {len(golden)} runs, {leaves} report leaves")


if __name__ == "__main__":
    sys.exit(main())
