"""Fresh comparison runs against the integers in ``tests/golden.json``
(``tests/make_golden.py``): a change that is meant to keep every report the
same keeps every recorded leaf, exit code and CSV row count, and every run
that writes artifacts passes ``morinchi check``.  About 10 s for all runs;
deselected by default, selected with ``-m golden``.  The tests of
``make_golden.py --compare`` run one comparison run and are not deselected."""

from __future__ import annotations

import csv
import json
import shutil

import pytest

from morinchi.cli import check
from tests.make_golden import GOLDEN, RUNS, compare, main, run_integers


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.golden
@pytest.mark.parametrize("run_id", list(RUNS))
def test_run_keeps_its_golden_integers(golden, run_id, tmp_path):
    want = golden[run_id]
    got = run_integers(run_id, tmp_path)
    assert got["exit"] == want["exit"]
    assert got.get("csv_rows") == want.get("csv_rows")
    fresh, kept = got.get("report", {}), want.get("report", {})
    # bool is an int to ==, so the type is compared too
    differ = {path: (kept.get(path), fresh.get(path)) for path in sorted(set(fresh) | set(kept))
              if path not in fresh or path not in kept
              or (type(fresh[path]), fresh[path]) != (type(kept[path]), kept[path])}
    assert not differ, differ
    if "report" in got:
        assert check(tmp_path / "out") == []


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One comparison run's artifacts, laid out as ``--artifacts`` writes them."""
    root = tmp_path_factory.mktemp("artifacts")
    run_id = "s3-proj/seed-0"
    record = run_integers(run_id, tmp_path_factory.mktemp("work"), root / run_id)
    (root / run_id / "exit_code").write_text(f"{record['exit']}\n")
    return root, root / run_id


def _copy(artifacts, tmp_path):
    root, run = artifacts
    shutil.copytree(root, tmp_path / "after")
    return root, tmp_path / "after" / run.relative_to(root)


def test_compare_of_a_directory_with_itself_finds_nothing(artifacts, capsys):
    root, _ = artifacts
    assert main(["--compare", str(root), str(root)]) == 0
    differences, moved = compare(root, root)
    assert differences == []
    assert set(moved) == {"exit_code", "report.json", "strata.csv", "critical.csv", "curves.csv"}
    assert moved["curves.csv"][0] > 0 and all(m[1:] == (0, 0.0, 0.0) for m in moved.values())
    assert "0 differences other than a float's" in capsys.readouterr().out


def test_compare_reports_a_nudged_float(artifacts, tmp_path, capsys):
    root, run = _copy(artifacts, tmp_path)
    rows = list(csv.reader((run / "curves.csv").read_text().splitlines()))
    det = float(rows[1][-2])
    rows[1][-2] = repr(det * (1 + 1e-12))
    with (run / "curves.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    differences, moved = compare(root, tmp_path / "after")
    assert differences == []
    assert moved["curves.csv"][1] == 1
    assert moved["curves.csv"][2] == pytest.approx(abs(det) * 1e-12, rel=1e-3)
    assert moved["curves.csv"][3] == pytest.approx(1e-12, rel=1e-3)
    assert main(["--compare", str(root), str(tmp_path / "after")]) == 0
    assert "curves.csv: 1 of " in capsys.readouterr().out


def test_compare_fails_on_a_changed_integer(artifacts, tmp_path, capsys):
    root, run = _copy(artifacts, tmp_path)
    report = json.loads((run / "report.json").read_text())
    report["audits"]["stratum1_count"] += 1
    (run / "report.json").write_text(json.dumps(report))
    differences, _ = compare(root, tmp_path / "after")
    assert len(differences) == 1 and "/audits/stratum1_count" in differences[0]
    assert main(["--compare", str(root), str(tmp_path / "after")]) == 1
    assert "1 differences other than a float's" in capsys.readouterr().out
