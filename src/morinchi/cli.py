"""Command line entry points: run a scenario, list bundled ones, explain a
report, check a run's artifacts.

Exit codes for ``run``: 0 all identities hold, 2 genericity budget exhausted,
3 an identity or hard audit failed, 64 scenario parse or hypothesis error,
an output directory that cannot be created (checked before the pipeline
runs) or an artifact that cannot be written, 65 manifold regularity
failure, 66 stratification rejected (the map is not Morin at the required
depths, or the singular set could not be computed).

Exit codes for ``check``, which reads the artifacts of finished runs: 0
every relation between them holds (see ``check``), 4 one fails, a code that
``run`` never returns, 64 a ``report.json`` or CSV that cannot be read or a
report that lacks a field.

Reproducibility: one non-negative root seed drives everything.  Derived
generators use fixed purpose tags (regularity sampling 11, multistart 23,
covectors 7 with the resample attempt appended), so a report is
byte-identical across runs for the same scenario, seed, and tolerances.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

from .euler import EulerReport, build_report
# ProjectionError and RegularityError stay bound here for perfbench
from .manifold import ManifoldError, ProjectionError, RegularityError  # noqa: F401
from .morse import GenericityExhausted, MorseAuditError, run_with_genericity
from .scenario import (
    MorinnessError,
    ScenarioFormatError,
    StratificationError,
    Tolerances,
    load_scenario,
)
from .strata import compute_stratification

EXIT_OK = 0
EXIT_GENERICITY = 2
EXIT_IDENTITY = 3
EXIT_CHECK = 4
EXIT_FORMAT = 64
EXIT_REGULARITY = 65
EXIT_MORIN = 66


@dataclass
class RunConfig:
    scenario: str
    seed: int | None = None
    out_dir: str = "."
    tol_residual: float | None = None
    max_resamples: int | None = None


def _apply_config(S, config: RunConfig):
    overrides = {}
    if config.tol_residual is not None:
        overrides["residual"] = config.tol_residual
    if config.max_resamples is not None:
        overrides["max_resamples"] = config.max_resamples
    if overrides:
        merged = S.tolerances.as_dict()
        merged.update(overrides)
        S.tolerances = Tolerances.from_dict(merged)
    if config.seed is not None:
        S.seed = config.seed
    return S


def run_pipeline(S):
    """Stratify, loop the genericity audit, assemble the report."""
    strat = compute_stratification(S)
    a, data, audit, history = run_with_genericity(S, strat)
    report = build_report(S, strat, data, attempt=audit.attempt, history=history)
    return report, strat, data


def run(config: RunConfig) -> int:
    """Execute the full pipeline for one scenario and write the artifacts."""
    try:
        S = load_scenario(config.scenario)
        S = _apply_config(S, config)
    except ScenarioFormatError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create directory {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_FORMAT
    try:
        report, strat, data = run_pipeline(S)
    except ManifoldError as exc:
        print(f"regularity failure: {exc}", file=sys.stderr)
        return EXIT_REGULARITY
    except (MorinnessError, StratificationError) as exc:
        print(f"stratification rejected: {exc}", file=sys.stderr)
        return EXIT_MORIN
    except GenericityExhausted as exc:
        print(f"genericity exhausted: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except MorseAuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_IDENTITY

    artifacts = (
        ("report.json", lambda path: path.write_text(report.to_json())),
        ("strata.csv", lambda path: _write_strata_csv(path, S, strat)),
        ("critical.csv", lambda path: _write_critical_csv(path, S, data)),
        ("curves.csv", lambda path: _write_curves_csv(path, S, strat)),
    )
    for name, write in artifacts:
        try:
            write(out / name)
        except OSError as exc:
            print(f"output error: cannot write {out / name}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_FORMAT

    print(_verdict_line(report))
    return EXIT_OK if report.all_ok else EXIT_IDENTITY


def _verdict_line(report: EulerReport) -> str:
    mark = "ok" if report.all_ok else "FAILED"
    return (f"{report.scenario}: chi(M) = {report.identity_lhs}, signed strata sum = "
            f"{report.identity_rhs} [{mark}]")


def _write_strata_csv(path, S, strat):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(S.N)] + ["k", "sign", "residual"])
        for p in list(strat.points) + list(strat.cusps):
            w.writerow([repr(float(c)) for c in p.x]
                       + [p.depth, p.sign, repr(float(p.residuals.get("system", 0.0)))])


def _write_critical_csv(path, S, data):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(S.N)]
                   + ["k", "index", "correct", "inward_into", "eta_sign"])
        rows = ([(r, 0) for r in data.k0_records]
                + [(r, 1) for r in data.k1_records]
                + [(r, 1) for r in data.boundary_records])
        # no boundary point in scope is correct, so none has an inward side
        for r, k in rows:
            w.writerow([repr(float(c)) for c in r.x]
                       + [k, r.morse_index,
                          "" if r.correct is None else str(bool(r.correct)),
                          "n/a",
                          "" if r.eta_sign is None else r.eta_sign])


def _write_curves_csv(path, S, strat):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["curve", "node"] + [f"x{i}" for i in range(S.N)]
                   + ["det_kernel_hessian", "parity"])
        for ci, curve in enumerate(strat.curves):
            for ni, z in enumerate(curve.nodes):
                w.writerow([ci, ni] + [repr(float(c)) for c in z[:S.N]]
                           + [repr(float(curve.det_values[ni])),
                              int(curve.det_values[ni] < 0)])


def bundled_scenarios():
    root = files("morinchi").joinpath("scenarios")
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append(entry)
    return out


def list_scenarios(extra_dir=None) -> str:
    """Table of bundled (and optionally user-supplied) scenarios.

    A directory that does not exist, or a file in it that is not a scenario
    (unreadable, not JSON, or without its dimensions), raises
    ScenarioFormatError.
    """
    rows = []
    sources = list(bundled_scenarios())
    if extra_dir:
        if not Path(extra_dir).is_dir():
            raise ScenarioFormatError(f"{extra_dir} is not a directory")
        sources += sorted(Path(extra_dir).glob("*.json"))
    for src in sources:
        try:
            data = json.loads(src.read_text())
            rows.append((
                data.get("name", src.name),
                data["intrinsic_dim"],
                data["target_dim"],
                data.get("chi_expected", "?"),
                data.get("description", ""),
            ))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ScenarioFormatError(f"{src}: not a scenario file ({exc!r})") from exc
    header = f"{'name':<14} {'m':>2} {'n':>2} {'chi':>4}  description"
    lines = [header, "-" * len(header)]
    for name, m, n, chi, desc in rows:
        lines.append(f"{name:<14} {m:>2} {n:>2} {chi:>4}  {desc}")
    return "\n".join(lines)


def _read_report(report_path):
    try:
        return json.loads(Path(report_path).read_text())
    except (OSError, ValueError) as exc:
        raise FileNotFoundError(f"cannot read report: {exc}") from exc


def _data_rows(csv_path) -> int:
    try:
        with open(csv_path, newline="") as fh:
            return sum(1 for _ in csv.reader(fh)) - 1
    except (OSError, ValueError, csv.Error) as exc:
        raise FileNotFoundError(f"cannot read {csv_path}: {exc}") from exc


def check(out_dir) -> list:
    """The relations between the artifacts of a run in ``out_dir`` that fail,
    one line each; an empty list when every one holds.

    Every node of a traced curve but a segment's seed is corrected, so it
    costs a corrector iteration, and every corrector solve converges, more
    of them than the curve has segments; the lanes step each arc once, so a
    curve's lane steps are at least one and at most its nodes.  In every
    census (the depth-1 solve, the k=0 census and the fold-surface polish)
    no more starts are projected than made, each projected start stops for
    one reason, and every converged start that the census counts hits
    exactly one of the distinct roots; the fold-surface polish starts once
    from each depth-1 point and its distinct roots are the depth-1 critical
    points.  strata.csv holds one row per depth-1 point and per cusp,
    critical.csv one per critical point on M, on the depth-1 stratum and at
    a cusp, and curves.csv one per traced node.  Every cusp has its eta check, and its
    polish from a start off it takes at least one Newton iteration; every
    eta identity holds and every certificate cancels.  Every traced curve
    closes within 1e-10, every cusp satisfies the depth-1 system within
    1e-9, and for n >= 3 the sampled depth-1 points have nullity n - 1 and
    no other.

    A report or CSV that cannot be read raises FileNotFoundError; a report
    that lacks a field raises KeyError or TypeError.
    """
    out = Path(out_dir)
    report = _read_report(out / "report.json")
    audits = report["audits"]
    solver = audits["solver"]
    curves = solver.get("curves", [])
    cusps = audits.get("cusp_count", 0)
    eta = audits["eta_checks"]
    failed = []

    def need(holds, relation):
        if not holds:
            failed.append(relation)

    closure = max(audits.get("closure_errors") or [0.0])
    need(closure <= 1e-10, f"closure error {closure!r} above 1e-10")
    nesting = audits["nesting_max_residual"]
    need(nesting <= 1e-9, f"nesting residual {nesting!r} above 1e-9")
    if report["n"] >= 3:
        need(audits["dimension_nullity"] == [report["n"] - 1],
             f"dimension nullity {audits['dimension_nullity']} is not [n - 1] = "
             f"[{report['n'] - 1}]")
    for name, want, per in (
            ("strata.csv", audits["stratum1_count"] + cusps, "depth-1 point and cusp"),
            ("critical.csv", audits["k0_count"] + audits["stratum1_critical_count"] + cusps,
             "critical point"),
            ("curves.csv", sum(c["nodes"] for c in curves), "traced node")):
        rows = _data_rows(out / name)
        need(rows == want, f"{name} has {rows} rows for {want}, one per {per}")
    if "cusp_count" in audits:
        need(len(eta) == cusps, f"{len(eta)} eta checks for {cusps} cusps")
        iterations = sum(c["cusp_iterations"] for c in curves)
        need(iterations >= cusps, f"{iterations} cusp iterations for {cusps} cusps")
    need(all(c["identity_ok"] is True for c in eta), "an eta identity fails")
    need(audits["certificates_cancel"] is True, "the certificates do not cancel")
    for i, c in enumerate(curves):
        stops = sum(c["stops"].values())
        need(c["corrector_iterations"] >= c["nodes"] - c["segments"] > 0,
             f"curve {i}: corrector iterations {c['corrector_iterations']} not >= nodes "
             f"{c['nodes']} - segments {c['segments']} > 0")
        need(0 < c["lane_steps"] <= c["nodes"],
             f"curve {i}: lane steps {c['lane_steps']} not in (0, nodes {c['nodes']}]")
        need(c["stops"]["converged"] == stops,
             f"curve {i}: {c['stops']['converged']} converged stops of {stops} stops")
        need(c["stops"]["converged"] > c["segments"],
             f"curve {i}: {c['stops']['converged']} converged stops, not more than "
             f"{c['segments']} segments")
    for stage in ("depth1", "k0", "surface"):
        c = solver.get(stage)
        if not c:
            continue
        # projected >= converged follows from the two stop relations
        stops = sum(c["stops"].values())
        need(c["starts"] >= c["projected"],
             f"{stage}: {c['starts']} starts for {c['projected']} projected")
        need(stops == c["projected"], f"{stage}: {stops} stops for {c['projected']} projected")
        need(c["stops"]["converged"] == c["converged"],
             f"{stage}: {c['stops']['converged']} converged stops for {c['converged']} "
             f"converged")
        # only the depth-1 solve for n >= 2 reports no hits
        if stage != "depth1" or "hits" in c:
            need(sum(c["hits"]) == c["converged"],
                 f"{stage}: {sum(c['hits'])} hits for {c['converged']} converged")
            need(len(c["hits"]) == c["distinct"],
                 f"{stage}: {len(c['hits'])} hit counts for {c['distinct']} distinct roots")
    surface = solver.get("surface")
    if surface:
        need(surface["starts"] == audits["stratum1_count"],
             f"surface: {surface['starts']} starts for {audits['stratum1_count']} "
             f"depth-1 points")
        need(surface["distinct"] == audits["stratum1_critical_count"],
             f"surface: {surface['distinct']} distinct roots for "
             f"{audits['stratum1_critical_count']} depth-1 critical points")
    return failed


def explain(report_path) -> str:
    """Human-readable digest of a run report."""
    data = _read_report(report_path)
    lines = []
    ok = lambda flag: "ok" if flag else "VIOLATED"  # noqa: E731
    lines.append(f"scenario {data['scenario']} (m={data['m']}, n={data['n']}, "
                 f"seed {data['seed']}, covector attempt {data['genericity_seed_used']})")
    lines.append("")
    lines.append("per-stratum Euler characteristics:")
    lines.append(f"  {'k':>2} {'sign':<8} {'morse':>6} {'oracle':>7} "
                 f"{'arcs':>5} {'circles':>8} {'points':>7}")
    for row in data["strata"]:
        oracle = "-" if row["chi_oracle"] is None else row["chi_oracle"]
        morse = "-" if row["chi_morse_boundary"] is None else row["chi_morse_boundary"]
        lines.append(f"  {row['k']:>2} {row['sign']:<8} {morse:>6} {oracle:>7} "
                     f"{row['arcs']:>5} {row['circles']:>8} {row['points']:>7}")
    lines.append("")
    lines.append(f"closed-manifold identity: {data['identity_lhs']} = "
                 f"{data['identity_rhs']} [{ok(data['identity_ok'])}]")
    implied = "follows from the closed-manifold identity"
    for key, label, why in (("mod2_congruence_ok",
                             "mod-2 congruence of closure characteristics", implied),
                            ("fold_equality_ok", "fold-only equality", implied),
                            ("telescoping_ok", "boundary telescoping",
                             "no depth-3 strata in scope"),
                            ("route_agreement_ok", "route agreement (morse vs cell counting)",
                             "one route only unless n = 2")):
        verdict = f"not applicable ({why})" if data[key] is None else f"[{ok(data[key])}]"
        lines.append(f"{label}: {verdict}")
    if data["chi_M_expected"] is not None:
        lines.append(f"expected chi(M) = {data['chi_M_expected']}: "
                     f"[{ok(data['chi_expected_ok'])}]")
    audits = data.get("audits", {})
    if audits.get("parity_violations"):
        lines.append("index-parity audit: VIOLATED at "
                     f"{audits['parity_violations']}")
    elif audits.get("parity_checked", 0) is None:
        lines.append("index-parity audit: not applicable (n = 1)")
    else:
        lines.append(f"index-parity audit: ok "
                     f"({audits.get('parity_checked', 0)} points)")
    if not audits.get("certificates_cancel", True):
        lines.append("perturbation-pair cancellation: VIOLATED")
    solver = audits.get("solver", {})
    if solver:
        lines.append("multistart Newton (accepted covector for k=0 and the fold surface):")
    # hits are reported only where the roots are isolated: the depth-1
    # solutions form a curve or surface when n >= 2
    for stage, label in (("depth1", "depth-1 system"), ("k0", "k=0 census"),
                         ("surface", "fold-surface polish")):
        c = solver.get(stage)
        if not c:
            continue
        hits = f", hits {c['hits']}" if "hits" in c else ""
        lines.append(f"  {label}: {c['starts']} starts, {c['projected']} projected, "
                     f"{c['converged']} converged in {c['iterations']} iterations, "
                     f"{c['distinct']} distinct roots{hits}")
        if "stops" in c:
            lines.append("    stops: " + ", ".join(f"{k} {reason.replace('_', ' ')}"
                                                   for reason, k in c["stops"].items()))
        if 1 in c.get("hits", ()):
            lines.append(f"  warning: a {label} root was reached by only one start; "
                         f"other roots may have been missed")
    if solver.get("curves"):
        lines.append("curve continuation:")
    for i, c in enumerate(solver.get("curves", ())):
        lines.append(f"  curve {i}: {c['nodes']} nodes in {c['segments']} segments, "
                     f"{c['lane_steps']} lane steps, "
                     f"{c['corrector_iterations']} corrector iterations, {c['half_steps']} "
                     f"half-step fallbacks, {c['cusp_iterations']} cusp polish iterations")
        lines.append("    stops: " + ", ".join(f"{k} {reason.replace('_', ' ')}"
                                               for reason, k in c["stops"].items()))
    gen = audits.get("genericity", {})
    if gen.get("history"):
        lines.append("resampled covectors before acceptance:")
        for item in gen["history"]:
            lines.append(f"  - {item}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="morinchi",
        description="Stratify a polynomial map on an implicit compact manifold "
                    "and machine-check the Euler characteristic identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full verification pipeline")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the root seed")
    p_run.add_argument("--out", default=".", help="output directory for artifacts")
    p_run.add_argument("--tol-residual", type=float, default=None)
    p_run.add_argument("--max-resamples", type=int, default=None)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.add_argument("--dir", default=None, help="also list scenarios in a directory")

    p_explain = sub.add_parser("explain", help="pretty-print a run report")
    p_explain.add_argument("report", help="path to report.json")

    p_check = sub.add_parser("check", help="check the relations between a run's artifacts")
    p_check.add_argument("out_dirs", nargs="+", metavar="OUT_DIR",
                         help="directory with a run's report.json and CSVs")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(RunConfig(
            scenario=args.scenario,
            seed=args.seed,
            out_dir=args.out,
            tol_residual=args.tol_residual,
            max_resamples=args.max_resamples,
        ))
    if args.command == "list":
        try:
            print(list_scenarios(args.dir))
        except ScenarioFormatError as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return EXIT_FORMAT
        return EXIT_OK
    try:
        if args.command == "explain":
            print(explain(args.report))
            return EXIT_OK
        failed = {out: check(out) for out in args.out_dirs}
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FORMAT
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # valid JSON that lacks or mistypes a report field
        print(f"not a morinchi report: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    for out, lines in failed.items():
        print("\n".join(f"{out}: {line}" for line in lines) or f"{out}: every relation holds")
    return EXIT_CHECK if any(failed.values()) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
