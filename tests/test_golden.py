"""Fresh comparison runs against the integers in ``tests/golden.json``
(``tests/make_golden.py``): a change that is meant to keep every report the
same keeps every recorded leaf, exit code and CSV row count.  About 10 s for
all runs; deselected by default, selected with ``-m golden``."""

from __future__ import annotations

import json

import pytest

from tests.make_golden import GOLDEN, RUNS, run_integers


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
