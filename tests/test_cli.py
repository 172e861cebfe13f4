from __future__ import annotations

import ast
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from morinchi.cli import (
    EXIT_CHECK,
    EXIT_FORMAT,
    EXIT_GENERICITY,
    EXIT_MORIN,
    EXIT_OK,
    EXIT_REGULARITY,
    RunConfig,
    check,
    explain,
    list_scenarios,
    main,
    run,
)
import morinchi
from morinchi import cli
from morinchi._numeric import STOP_REASONS
from tests.conftest import CUSP_CURVE_PROBE, scenario_path


def write_scenario(tmp_path, data, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def test_run_s2_height(tmp_path):
    code = run(RunConfig(scenario=str(scenario_path("s2-height")), out_dir=str(tmp_path)))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["identity_lhs"] == 2
    assert report["identity_rhs"] == 2
    assert report["all_ok"] is True
    assert (tmp_path / "strata.csv").exists()
    assert (tmp_path / "critical.csv").exists()
    assert (tmp_path / "curves.csv").exists()


def test_genericity_refusal_prints_points_as_plain_floats(tmp_path, capsys):
    # with this root seed the first covector leaves a depth-1 point unmatched
    code = main(["run", "--scenario", str(scenario_path("s4-height")), "--seed", "181633",
                 "--max-resamples", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_GENERICITY
    assert "genericity exhausted" in err and "unmatched [(-1.0" in err
    assert "np.float64(" not in err


@pytest.mark.parametrize("name, tolerance, value, code, before", [
    ("s3-cusps", "dedup_radius", 0.5, EXIT_MORIN, "no separated interior partner at the cusp "),
    ("s3-cusps", "depth_slope", 1000.0, EXIT_MORIN, "degenerate point at "),
    ("s3-proj", "eigen_zero", 0.9, EXIT_GENERICITY,
     "degenerate reduced Hessian at stratum critical point "),
])
def test_refusals_print_points_that_read_back(tmp_path, capsys, name, tolerance, value, code,
                                              before):
    # a point in a refusal is a list of plain floats, which pastes back as a
    # Python literal; numpy's array format has no commas
    data = json.loads(Path(str(scenario_path(name))).read_text())
    data["tolerances"] = {**data.get("tolerances", {}), tolerance: value}
    path = write_scenario(tmp_path, data)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == code
    points = re.findall(re.escape(before) + r"(\[[^\]]*\])", capsys.readouterr().err)
    assert points
    for point in points:
        x = ast.literal_eval(point)
        assert len(x) == 4 and all(type(c) is float for c in x)


def test_run_rejects_even_codimension(tmp_path, capsys):
    bad = write_scenario(tmp_path, {
        "name": "bad", "ambient_dim": 4, "intrinsic_dim": 3,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) (^ x3 2) -1)"],
        "target_dim": 1, "components": ["x0"],
    })
    assert run(RunConfig(scenario=str(bad), out_dir=str(tmp_path))) == EXIT_FORMAT
    assert "even" in capsys.readouterr().err


def test_run_rejects_unparsable_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run(RunConfig(scenario=str(bad), out_dir=str(tmp_path))) == EXIT_FORMAT


def test_run_rejects_irregular_constraint(tmp_path, capsys):
    bad = write_scenario(tmp_path, {
        "name": "double-root", "ambient_dim": 3, "intrinsic_dim": 2,
        "constraints": ["(^ (+ (^ x0 2) (^ x1 2) (^ x2 2) -1) 2)"],
        "target_dim": 1, "components": ["x2"],
        "sample_seeds": [[1.0, 0.0, 0.0]],
    })
    assert run(RunConfig(scenario=str(bad), out_dir=str(tmp_path))) == EXIT_REGULARITY


def test_run_rejects_non_morin_map(tmp_path, capsys, monkeypatch):
    # the even component makes the degenerate locus a crossing, not a fold;
    # a lane refuses it in the step that passes it, long before the step
    # budget of an open curve
    from morinchi import strata
    step, runs = strata._Lanes.step, []

    def counted(lanes):
        runs.append(lanes)
        step(lanes)

    monkeypatch.setattr(strata._Lanes, "step", counted)
    bad = write_scenario(tmp_path, {
        "name": "non-morin", "ambient_dim": 4, "intrinsic_dim": 3,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) (^ x3 2) -1)"],
        "target_dim": 2,
        "components": ["x0", "(+ x1 (* 3 x1 (^ x2 2)))"],
    })
    assert run(RunConfig(scenario=str(bad), out_dir=str(tmp_path))) == EXIT_MORIN
    assert 0 < runs[-1].count < 100
    err = capsys.readouterr().err
    assert "passes a crossing of the singular set" in err and "np.float64(" not in err


def test_equal_arc_signs_at_a_cusp_exit_66_before_any_covector(tmp_path, capsys, monkeypatch):
    # every fold point of s3-cusps reads "plus", so the two arcs beside each
    # cusp carry equal signs: the map is rejected where the cusp is charted,
    # with no covector sampled, not after the whole resample budget
    from morinchi import morse, strata
    counts, sampled = strata.sign_counts, []
    sample = morse.sample_covector

    def all_plus(vals, tol):
        # every negative count reads even, the odd one moved to the positives
        n_plus, n_minus, n_zero = counts(vals, tol)
        return n_plus + n_minus % 2, n_minus - n_minus % 2, n_zero

    def counted(n, seed):
        sampled.append(seed)
        return sample(n, seed)

    monkeypatch.setattr(strata, "sign_counts", all_plus)
    monkeypatch.setattr(morse, "sample_covector", counted)
    code = main(["run", "--scenario", str(scenario_path("s3-cusps")), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_MORIN and sampled == []
    assert "arcs adjacent to the cusp at [" in err and "carry equal signs" in err


def test_a_slice_finds_the_cusp_curve_and_exits_66(tmp_path, capsys, monkeypatch):
    # the fold surface carries both signs, so slices through minority points
    # run as n = 2 maps; a slice's cusp is a point of the cusp curve, and the
    # map is refused in its stratification, before any census on the fold
    # surface (which at seed 2 never landed on the curve, and the run ended
    # in all_ok)
    from morinchi import morse
    census, surveyed = morse._critical_points_on_surface, []
    monkeypatch.setattr(morse, "_critical_points_on_surface",
                        lambda *args: surveyed.append(args) or census(*args))
    path = write_scenario(tmp_path, CUSP_CURVE_PROBE)
    point = r"\[-?[0-9.]+(, -?[0-9.]+){4}\]"
    for seed in range(5):
        code = main(["run", "--scenario", str(path), "--seed", str(seed),
                     "--out", str(tmp_path / str(seed))])
        err = capsys.readouterr().err
        assert code == EXIT_MORIN and surveyed == [], (seed, err)
        assert re.fullmatch(
            rf"stratification rejected: the fold surface carries a cusp curve: the slice "
            rf"\(.*\) = 0 through the depth-1 point {point} has a cusp at {point}; cusp "
            rf"curves for n = 3 are not supported\n", err), err


def test_module_run_writes_nothing_to_stderr():
    src = str(Path(morinchi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-m", "morinchi.cli", "list"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == EXIT_OK
    assert "s2-height" in out.stdout
    assert out.stderr == ""


def test_exit_codes_documented():
    from morinchi import cli
    assert (cli.EXIT_OK, cli.EXIT_GENERICITY, cli.EXIT_IDENTITY, cli.EXIT_CHECK,
            cli.EXIT_FORMAT, cli.EXIT_REGULARITY, cli.EXIT_MORIN) == (0, 2, 3, 4, 64, 65, 66)


def test_exit_identity_on_wrong_expected_chi(tmp_path):
    bad = write_scenario(tmp_path, {
        "name": "wrong-chi", "ambient_dim": 3, "intrinsic_dim": 2,
        "constraints": ["(+ (^ x0 2) (^ x1 2) (^ x2 2) -1)"],
        "target_dim": 1, "components": ["x2"],
        "chi_expected": 5,
        "sample_seeds": [[1.0, 0.0, 0.0]],
    })
    from morinchi.cli import EXIT_IDENTITY
    assert run(RunConfig(scenario=str(bad), out_dir=str(tmp_path))) == EXIT_IDENTITY
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["identity_ok"] is True          # the theorem itself holds
    assert report["chi_expected_ok"] is False     # the scenario metadata does not
    assert report["all_ok"] is False


def test_exit_genericity_when_budget_exhausted(tmp_path, monkeypatch):
    from morinchi import cli as cli_mod
    from morinchi.morse import GenericityExhausted

    def boom(S):
        raise GenericityExhausted("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "run_pipeline", boom)
    from morinchi.cli import EXIT_GENERICITY
    code = cli_mod.run(RunConfig(scenario=str(scenario_path("s2-height")),
                                 out_dir=str(tmp_path)))
    assert code == EXIT_GENERICITY


def test_list_scenarios_table():
    table = list_scenarios()
    lines = table.splitlines()
    names = {line.split()[0] for line in lines[2:]}
    assert {"s2-height", "torus-height", "s3-proj", "s4-height",
            "s3-cusps", "s4-proj", "s2xs2-height"} <= names
    for line in lines[2:]:
        assert len(line.split()) >= 4


def test_list_scenarios_with_empty_custom_dir(tmp_path):
    table = list_scenarios(str(tmp_path))
    assert "s2-height" in table


def test_list_of_a_missing_dir_exits_64(tmp_path, capsys):
    # a mistyped --dir listed the bundled table alone and exited 0
    missing = tmp_path / "missing"
    assert main(["list", "--dir", str(missing)]) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenario error: {missing} is not a directory\n"


def test_explain_passing_report(tmp_path):
    run(RunConfig(scenario=str(scenario_path("s2-height")), out_dir=str(tmp_path)))
    text = explain(tmp_path / "report.json")
    assert "closed-manifold identity: 2 = 2 [ok]" in text
    # both follow from the checked identity by arithmetic and read null
    implied = "not applicable (follows from the closed-manifold identity)"
    assert f"mod-2 congruence of closure characteristics: {implied}" in text
    assert f"fold-only equality: {implied}" in text
    assert "VIOLATED" not in text
    assert "boundary telescoping: not applicable (no depth-3 strata in scope)" in text
    # with n = 1 both routes count the same points, and the parities agree by construction
    assert "route agreement (morse vs cell counting): not applicable" in text
    assert "index-parity audit: not applicable (n = 1)" in text


def test_explain_cusp_report(tmp_path):
    run(RunConfig(scenario=str(scenario_path("s3-cusps")), out_dir=str(tmp_path)))
    text = explain(tmp_path / "report.json")
    assert "closed-manifold identity: 0 = 0 [ok]" in text
    assert "fold-only equality: not applicable (follows from" in text
    assert "route agreement (morse vs cell counting): [ok]" in text
    assert "index-parity audit: ok (" in text
    # the depth-1 starts sample a curve, so their single hits raise no warning
    assert "depth-1 system: 400 starts" in text and "warning" not in text


def test_explain_missing_report(tmp_path):
    with pytest.raises(FileNotFoundError):
        explain(tmp_path / "nope.json")


@pytest.mark.parametrize("field, value", [
    ("seed", "abc"),
    ("chi_expected", "x"),
    ("sample_halfwidth", "wide"),
    ("sample_halfwidth", "inf"),
    ("sample_seeds", [["a", 0, 0]]),
    ("sample_seeds", [[1.0, 0.0, 0.0], [0.0, 1.0]]),   # two coordinates on R^3
    ("compact", "false"),
    ("compact", 0),
    # a whole-number field is never truncated or read from a boolean or a
    # string (2.5 became seed 2, true seed 1 and 2.9 chi_expected 2)
    ("seed", 2.5),
    ("seed", True),
    ("seed", "2"),
    ("chi_expected", 2.9),
    # a real-valued field is never read from a string or a boolean ("2"
    # became halfwidth 2.0, and [true, "0", 0] the seed (1.0, 0.0, 0.0))
    ("sample_halfwidth", "2"),
    ("sample_halfwidth", True),
    ("sample_halfwidth", 0),
    ("sample_halfwidth", 10 ** 400),
    ("sample_seeds", [[True, 0, 0]]),
    ("sample_seeds", [[1, "0", 0]]),
])
def test_malformed_scenario_field_exits_64(tmp_path, capsys, field, value):
    data = json.loads(scenario_path("s2-height").read_text())
    data[field] = value
    path = write_scenario(tmp_path, data)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_FORMAT
    assert "scenario error" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("content", ["{}", "[]", '"report"'])
def test_explain_of_json_that_is_not_a_report_exits_64(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_text(content)
    assert main(["explain", str(path)]) == EXIT_FORMAT
    assert "not a morinchi report" in capsys.readouterr().err


def test_list_of_a_dir_with_a_broken_scenario_exits_64(tmp_path, capsys):
    data = json.loads(scenario_path("s2-height").read_text())
    del data["intrinsic_dim"]
    write_scenario(tmp_path, data, name="no-dim.json")
    assert main(["list", "--dir", str(tmp_path)]) == EXIT_FORMAT
    assert "no-dim.json: not a scenario file" in capsys.readouterr().err


def test_reports_byte_identical_across_runs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(RunConfig(scenario=str(scenario_path("s2-height")),
                             out_dir=str(d))) == EXIT_OK
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "strata.csv").read_bytes() == (d2 / "strata.csv").read_bytes()
    assert (d1 / "critical.csv").read_bytes() == (d2 / "critical.csv").read_bytes()
    assert (d1 / "curves.csv").read_bytes() == (d2 / "curves.csv").read_bytes()


def test_csv_columns(tmp_path):
    run(RunConfig(scenario=str(scenario_path("s3-cusps")), out_dir=str(tmp_path)))
    with open(tmp_path / "strata.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["x0", "x1", "x2", "x3", "k", "sign", "residual"]
    with open(tmp_path / "critical.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["x0", "x1", "x2", "x3", "k", "index", "correct",
                      "inward_into", "eta_sign"]
    with open(tmp_path / "curves.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["curve", "node", "x0", "x1", "x2", "x3",
                       "det_kernel_hessian", "parity"]
    assert len(rows) > 100


def test_main_subcommands(tmp_path, capsys):
    assert main(["list"]) == EXIT_OK
    assert "s2-height" in capsys.readouterr().out
    code = main(["run", "--scenario", str(scenario_path("s2-height")),
                 "--out", str(tmp_path), "--seed", "3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "chi(M) = 2" in out
    assert main(["explain", str(tmp_path / "report.json")]) == EXIT_OK
    capsys.readouterr()
    assert main(["explain", str(tmp_path / "missing.json")]) == EXIT_FORMAT


def test_seed_override_changes_covector_not_chis(tmp_path):
    reports = []
    for seed in (0, 5):
        d = tmp_path / f"seed{seed}"
        assert run(RunConfig(scenario=str(scenario_path("s3-cusps")),
                             out_dir=str(d), seed=seed)) == EXIT_OK
        reports.append(json.loads((d / "report.json").read_text()))
    assert reports[0]["identity_lhs"] == reports[1]["identity_lhs"]
    assert reports[0]["identity_rhs"] == reports[1]["identity_rhs"]
    for row0, row1 in zip(reports[0]["strata"], reports[1]["strata"]):
        assert row0["chi_morse_boundary"] == row1["chi_morse_boundary"]


def test_tolerance_override_roundtrip(tmp_path):
    code = run(RunConfig(scenario=str(scenario_path("s2-height")),
                         out_dir=str(tmp_path), tol_residual=1e-11,
                         max_resamples=8))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tolerances"]["residual"] == 1e-11
    assert report["tolerances"]["max_resamples"] == 8


@pytest.mark.parametrize("source", ["option", "scenario"])
@pytest.mark.parametrize("name", ["s2-height", "s3-cusps", "s4-proj"])
def test_a_loose_residual_tolerance_exits_65_with_its_message(tmp_path, capsys, name, source):
    # the tangent frames refuse a point whose residual is above 1e-8; a
    # residual tolerance looser than that ended in an untyped ManifoldError
    args = ["run", "--out", str(tmp_path / "out")]
    if source == "option":
        args += ["--scenario", str(scenario_path(name)), "--tol-residual", "1e-6"]
    else:
        data = json.loads(Path(str(scenario_path(name))).read_text())
        data["tolerances"] = {**data.get("tolerances", {}), "residual": 1e-6}
        args += ["--scenario", str(write_scenario(tmp_path, data))]
    assert main(args) == EXIT_REGULARITY
    assert "point off the manifold" in capsys.readouterr().err


@pytest.mark.parametrize("tolerances", [
    {"residual": "abc"},
    {"residual": None},
    {"eigen_zero": float("nan")},
    {"correctness": float("inf")},
    {"multistart_density": "many"},
    {"max_resamples": float("inf")},
    {"curve_step": 0},
    {"curve_step": -0.01},
    {"dedup_radius": 0.0},
    {"multistart_density": 0},
    {"max_resamples": -1},
    # non-positive thresholds: a negative residual made the multistart find
    # nothing (exit 66), the others ran to a verdict
    {"residual": -1e-12},
    {"correctness": -1},
    {"eigen_zero": 0},
    {"depth_slope": 0.0},
    # a boolean is not a number (true became 1.0 and s2-height ended in exit
    # 66), and a count is never truncated (2.5 became 2)
    {"residual": True},
    {"max_resamples": True},
    {"max_resamples": 2.5},
    {"multistart_density": 150.7},
    {"max_resamples": "8"},
    # nor a real-valued one from a string ("1e-10" became 1e-10)
    {"residual": "1e-10"},
    {"curve_step": "0.01"},
    # a tolerances value that is no object: a number, null and a list of
    # pairs raised a TypeError (exit 1), and an empty list read as the defaults
    5,
    None,
    [["residual", 1]],
    [],
])
def test_malformed_tolerances_exit_64(tmp_path, capsys, tolerances):
    data = json.loads(Path(str(scenario_path("s2-height"))).read_text())
    data["tolerances"] = tolerances
    path = write_scenario(tmp_path, data)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_FORMAT
    assert "tolerance" in capsys.readouterr().err


def test_a_trace_that_does_not_close_exits_66_as_such(tmp_path, capsys):
    # at a step of 0.5 the lanes of s3-cusps meet about 1 apart, or a snap
    # fails; such a curve went on to cusp location and was refused as doubly
    # covered
    data = json.loads(Path(str(scenario_path("s3-cusps"))).read_text())
    data["tolerances"] = {**data.get("tolerances", {}), "curve_step": 0.5}
    path = write_scenario(tmp_path, data)
    for seed in (0, 1, 2):
        code = main(["run", "--scenario", str(path), "--seed", str(seed),
                     "--out", str(tmp_path / f"out-{seed}")])
        err = capsys.readouterr().err
        assert code == EXIT_MORIN
        assert "trace did not close" in err and "doubly covered" not in err


def test_negative_root_seed_on_the_command_line_exits_64(tmp_path, capsys):
    # the seeded generators refuse a negative key: a negative root seed is a
    # scenario error, not an untyped ValueError
    code = main(["run", "--scenario", str(scenario_path("s2-height")), "--seed=-1",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_FORMAT
    assert "seed must be non-negative, got -1" in err


def test_negative_root_seed_in_a_scenario_exits_64(tmp_path, capsys):
    data = json.loads(Path(str(scenario_path("s2-height"))).read_text())
    data["seed"] = -3
    path = write_scenario(tmp_path, data)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert "seed must be non-negative, got -3" in err


# the default-seed hits of every bundled scenario: depth-1 hits are reported
# for n = 1 only, k=0 hits always, surface hits for n = 3
DEFAULT_HITS = {
    "s2-height": {"depth1": [101, 98], "k0": [204, 195]},
    "s2xs2-height": {"depth1": [55, 51, 48, 45], "k0": [113, 98, 95, 93]},
    "torus-height": {"depth1": [85, 60, 20, 15], "k0": [161, 159, 38, 18]},
    "s4-height": {"depth1": [60, 47, 27, 17, 14, 12, 8, 8, 6, 1],
                  "k0": [97, 69, 52, 51, 51, 46, 18, 9, 4, 3]},
    "s3-proj": {"k0": [315, 285]},
    "s3-cusps": {"k0": [265, 235, 52, 43]},
    "s4-proj": {"k0": [434, 366], "surface": [320, 280]},
}


@pytest.mark.parametrize("name", list(DEFAULT_HITS))
def test_hits_are_reported_where_the_roots_are_isolated(tmp_path, name):
    assert run(RunConfig(scenario=str(scenario_path(name)), out_dir=str(tmp_path))) == EXIT_OK
    solver = json.loads((tmp_path / "report.json").read_text())["audits"]["solver"]
    assert {stage: solver[stage]["hits"] for stage in ("depth1", "k0", "surface")
            if "hits" in solver.get(stage, {})} == DEFAULT_HITS[name]


def test_explain_prints_solver_counters(tmp_path):
    # on s4-height one fold point is reached by a single depth-1 start
    assert run(RunConfig(scenario=str(scenario_path("s4-height")), out_dir=str(tmp_path))) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["audits"]["solver"]) == {"depth1", "k0"}
    assert check(tmp_path) == []
    text = explain(tmp_path / "report.json")
    assert "depth-1 system: 200 starts, 200 projected, 200 converged" in text
    assert "k=0 census: 400 starts" in text
    assert "warning: a depth-1 system root was reached by only one start" in text


def test_explain_prints_fold_surface_counters_and_stop_reasons(tmp_path):
    assert run(RunConfig(scenario=str(scenario_path("s4-proj")), out_dir=str(tmp_path))) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    solver = report["audits"]["solver"]
    assert set(solver) == {"depth1", "k0", "surface"}
    # the depth-1 solutions of n = 3 form a surface, so there are no hits to count
    assert "hits" not in solver["depth1"] and "hits" in solver["surface"]
    assert check(tmp_path) == []
    surface = solver["surface"]
    text = explain(tmp_path / "report.json")
    assert f"fold-surface census: {surface['starts']} starts" in text
    assert f"    stops: {surface['stops']['converged']} converged, " in text
    assert "warning" not in text


def test_report_counts_curve_tracing_work(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(RunConfig(scenario=str(scenario_path("s3-cusps")), out_dir=str(d))) == EXIT_OK
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    (c,) = json.loads((d1 / "report.json").read_text())["audits"]["solver"]["curves"]
    assert set(c) == {"nodes", "segments", "lane_steps", "half_steps", "corrector_iterations",
                      "stops", "cusp_iterations"}
    assert list(c["stops"]) == list(STOP_REASONS)
    assert check(d1) == []
    text = explain(d1 / "report.json")
    assert (f"curve 0: {c['nodes']} nodes in {c['segments']} segments, "
            f"{c['lane_steps']} lane steps, "
            f"{c['corrector_iterations']} corrector iterations, {c['half_steps']} half-step "
            f"fallbacks, {c['cusp_iterations']} cusp polish iterations\n"
            f"    stops: {c['stops']['converged']} converged, 0 nonfinite step, "
            f"0 line search failed, 0 iteration cap") in text


def test_bad_max_resamples_rejected(tmp_path, capsys):
    assert main(["run", "--scenario", str(scenario_path("s2-height")), "--out", str(tmp_path),
                 "--max-resamples", "0"]) == EXIT_FORMAT
    assert "max_resamples" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_an_output_directory_that_cannot_be_made_exits_64_before_the_pipeline(
        tmp_path, capsys, monkeypatch, sub):
    # --out an existing file, or a directory below one: refused before any
    # stratification, with one line and no artifact
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    monkeypatch.setattr(cli, "run_pipeline", lambda S: pytest.fail("the pipeline ran"))
    code = main(["run", "--scenario", str(scenario_path("s2-height")),
                 "--out", str(blocker / sub)])
    err = capsys.readouterr().err
    assert code == EXIT_FORMAT
    assert err.startswith(f"output error: cannot create directory {blocker / sub}")
    assert err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


def test_an_unclosed_paren_in_a_scenario_exits_64(tmp_path, capsys):
    # the parser's "unexpected end of expression", not an IndexError
    data = json.loads(scenario_path("s2-height").read_text())
    data["constraints"] = ["("]
    path = write_scenario(tmp_path, data)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and "unexpected end of expression" in err
    assert not (tmp_path / "report.json").exists()


def test_an_artifact_that_cannot_be_written_exits_64(tmp_path, capsys):
    # the directory exists, but report.json in it is a directory
    (tmp_path / "report.json").mkdir()
    code = main(["run", "--scenario", str(scenario_path("s2-height")), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_FORMAT
    assert err.startswith(f"output error: cannot write {tmp_path / 'report.json'}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def good_runs(tmp_path_factory):
    """The artifacts of s3-cusps (a curve with two cusps) and s4-proj (a fold
    surface), which between them meet every relation of ``check``."""
    out = {}
    for name in ("s3-cusps", "s4-proj"):
        out[name] = tmp_path_factory.mktemp(name)
        assert run(RunConfig(scenario=str(scenario_path(name)), out_dir=str(out[name]))) == EXIT_OK
    return out


def _edit_audits(out, path, change):
    report = json.loads((out / "report.json").read_text())
    *keys, last = [int(k) if k.isdigit() else k for k in path.split("/")]
    node = report["audits"]
    for key in keys:
        node = node[key]
    node[last] = change(node[last])
    (out / "report.json").write_text(json.dumps(report, indent=2))


def _drop_last_row(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


# each edit breaks one relation of check and no other: a path under "audits"
# and the change of its value, or a CSV that loses its last row
BROKEN_RELATIONS = [
    pytest.param("s3-cusps", "closure_errors/0", lambda v: 1e-9, "closure error 1e-09 above 1e-10",
                 id="closure"),
    pytest.param("s3-cusps", "nesting_max_residual", lambda v: 1e-8, "nesting residual",
                 id="nesting"),
    pytest.param("s4-proj", "dimension_nullity", lambda v: [1], "dimension nullity",
                 id="nullity"),
    pytest.param("s3-cusps", "strata.csv", None, "strata.csv has", id="strata-rows"),
    pytest.param("s3-cusps", "critical.csv", None, "critical.csv has", id="critical-rows"),
    pytest.param("s3-cusps", "curves.csv", None, "curves.csv has", id="curves-rows"),
    pytest.param("s3-cusps", "eta_checks", lambda v: v[1:], "1 eta checks for 2 cusps",
                 id="eta-per-cusp"),
    pytest.param("s3-cusps", "solver/curves/0/cusp_iterations", lambda v: 1,
                 "1 cusp iterations for 2 cusps", id="cusp-iterations"),
    pytest.param("s3-cusps", "eta_checks/0/identity_ok", lambda v: False,
                 "an eta identity fails", id="eta-identity"),
    pytest.param("s3-cusps", "certificates_cancel", lambda v: False,
                 "the certificates do not cancel", id="certificates"),
    pytest.param("s3-cusps", "solver/curves/0/corrector_iterations", lambda v: 0,
                 "curve 0: corrector iterations 0 not >= nodes", id="corrector"),
    pytest.param("s3-cusps", "solver/curves/0/lane_steps", lambda v: 10 ** 9,
                 "curve 0: lane steps 1000000000 not in", id="lane-steps-above-nodes"),
    pytest.param("s3-cusps", "solver/curves/0/lane_steps", lambda v: 0,
                 "curve 0: lane steps 0 not in", id="no-lane-steps"),
    pytest.param("s3-cusps", "solver/curves/0/stops/iteration_cap", lambda v: v + 1,
                 "curve 0: 2612 converged stops of 2613 stops", id="curve-stops"),
    pytest.param("s3-cusps", "solver/curves/0/stops", lambda v: dict.fromkeys(v, 0),
                 "curve 0: 0 converged stops, not more than", id="curve-stops-above-segments"),
    pytest.param("s3-cusps", "solver/k0/starts", lambda v: 0, "k0: 0 starts for",
                 id="starts-below-projected"),
    pytest.param("s3-cusps", "solver/k0/stops/iteration_cap", lambda v: v + 1,
                 "k0: 601 stops for 600 projected", id="census-stops"),
    pytest.param("s3-cusps", "solver/k0/stops",
                 lambda v: {**v, "converged": v["converged"] - 1,
                            "line_search_failed": v["line_search_failed"] + 1},
                 "k0: 594 converged stops for 595 converged", id="census-converged-stops"),
    pytest.param("s3-cusps", "solver/k0/hits/0", lambda v: v + 1,
                 "k0: 596 hits for 595 converged", id="hits-sum"),
    pytest.param("s3-cusps", "solver/k0/distinct", lambda v: v + 1,
                 "k0: 4 hit counts for 5 distinct roots", id="hits-per-root"),
    pytest.param("s4-proj", "solver/surface/starts", lambda v: v + 1,
                 "surface: 601 starts for 600 depth-1 points", id="surface-starts"),
    pytest.param("s4-proj", "solver/surface",
                 lambda c: {**c, "distinct": c["distinct"] + 1,
                            "hits": c["hits"][:-1] + [c["hits"][-1] - 1, 1]},
                 "surface: 3 distinct roots for 2 depth-1 critical points",
                 id="surface-distinct"),
]


@pytest.mark.parametrize("name, target, change, relation", BROKEN_RELATIONS)
def test_check_names_the_one_broken_relation_and_exits_4(
        good_runs, tmp_path, capsys, name, target, change, relation):
    out = tmp_path / "run"
    shutil.copytree(good_runs[name], out)
    if change is None:
        _drop_last_row(out / target)
    else:
        _edit_audits(out, target, change)
    failed = check(out)
    assert len(failed) == 1 and relation in failed[0], failed
    assert main(["check", str(good_runs[name]), str(out)]) == EXIT_CHECK
    assert capsys.readouterr().out == (f"{good_runs[name]}: every relation holds\n"
                                       f"{out}: {failed[0]}\n")


def test_check_of_a_good_run_changes_nothing(good_runs, capsys):
    for out in good_runs.values():
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        text = explain(out / "report.json")
        assert main(["check", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"{out}: every relation holds\n"
        assert explain(out / "report.json") == text
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("artifact", ["report.json", "strata.csv", "curves.csv"])
def test_check_of_a_missing_artifact_exits_64(good_runs, tmp_path, capsys, artifact):
    out = tmp_path / "run"
    shutil.copytree(good_runs["s3-cusps"], out)
    (out / artifact).unlink()
    assert main(["check", str(out)]) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read ") and str(out / artifact) in captured.err
    assert captured.err.count("\n") == 1
