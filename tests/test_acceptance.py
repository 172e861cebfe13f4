"""Acceptance criteria for the verification toolkit.

Each test prints one pass/fail line.  Tolerances are pinned here and nowhere
else: integer identities are exact, curve closure within 1e-6, gradient
cross-checks within 1e-6 relative, set matchings within 1e-6, and the wall
clock bounds are 10 s for the 1-dimensional targets and 60 s for the
2-dimensional ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from morinchi import expr as ex
from morinchi.euler import build_report
from morinchi.morse import run_with_genericity
from morinchi.strata import compute_stratification
from tests.conftest import bundled

ALL_SCENARIOS = ["s2-height", "torus-height", "s3-proj", "s4-height",
                 "s3-cusps", "s4-proj"]
SEEDS = [0, 1, 2, 3, 4]


def _run(name, seed=0):
    S = bundled(name)
    S.seed = seed
    t0 = time.time()
    strat = compute_stratification(S)
    a, data, audit, hist = run_with_genericity(S, strat)
    report = build_report(S, strat, data, audit.attempt, hist)
    elapsed = time.time() - t0
    return S, strat, data, report, elapsed


@pytest.fixture(scope="module")
def base_runs():
    return {name: _run(name) for name in ALL_SCENARIOS}


@pytest.fixture(scope="module")
def seeded_runs():
    out = {}
    for name in ALL_SCENARIOS:
        out[name] = {seed: _run(name, seed) for seed in SEEDS}
    return out


def _line(tag, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    return ok


def test_criterion_1_identity_one_dimensional_targets(base_runs):
    expected = {"s2-height": (2, 2, 0), "torus-height": (0, 2, 2),
                "s4-height": (2, 6, 4)}
    ok = True
    for name, (chi, plus, minus) in expected.items():
        S, strat, data, report, elapsed = base_runs[name]
        table = {(r["k"], r["sign"]): r["chi_morse_boundary"]
                 for r in report.strata_table}
        good = (report.identity_lhs == chi
                and report.identity_rhs == chi
                and table[(1, "plus")] == plus
                and table[(1, "minus")] == minus
                and report.identity_ok
                and elapsed < 10.0)
        if name == "s4-height":
            good = good and len(data.k0_records) >= 6
        ok &= _line(f"criterion 1 ({name})", good,
                    f"{report.identity_lhs} = {table[(1, 'plus')]} - "
                    f"{table[(1, 'minus')]}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_fold_circle(base_runs):
    S, strat, data, report, elapsed = base_runs["s3-proj"]
    curve = strat.curves[0] if strat.curves else None
    good = (len(strat.curves) == 1
            and curve.closure_error <= 1e-6
            and len(strat.cusps) == 0
            and report.identity_lhs == 0
            and report.identity_rhs == 0
            and report.identity_ok
            and elapsed < 60.0)
    assert _line("criterion 2 (s3-proj fold circle)", good,
                 f"curves=1, closure={curve.closure_error:.2e}, cusps=0, "
                 f"0 = 0 - 0, {elapsed:.1f}s")


def test_criterion_3_cusp_scenario(base_runs):
    S, strat, data, report, elapsed = base_runs["s3-cusps"]
    table = {(r["k"], r["sign"]): r for r in report.strata_table}
    routes_agree = all(
        row["chi_oracle"] is None or row["chi_oracle"] == row["chi_morse_boundary"]
        for row in report.strata_table if row["sign"] in ("plus", "minus")
    )
    good = (len(strat.cusps) >= 2
            and strat.audits["alternation_violations"] is None
            and report.identity_lhs == 0
            and report.identity_ok
            and routes_agree
            and report.route_agreement_ok
            and elapsed < 60.0)
    assert _line("criterion 3 (s3-cusps)", good,
                 f"cusps={len(strat.cusps)}, arcs alternate by construction, "
                 f"0 = {table[(1, 'plus')]['chi_morse_boundary']} - "
                 f"{table[(1, 'minus')]['chi_morse_boundary']}, "
                 f"oracle agreement={routes_agree}, {elapsed:.1f}s")


def test_criterion_4_mod2_congruence(base_runs):
    # chi+ - chi- and chi+ + chi- have the same parity: the congruence holds
    # wherever the closed-manifold identity does, and reads null
    ok = True
    for name in ALL_SCENARIOS:
        report = base_runs[name][3]
        ok &= _line(f"criterion 4 mod-2 ({name})",
                    report.identity_ok is True and report.mod2_congruence_ok is None,
                    "follows from the closed-manifold identity")
    assert ok


def test_criterion_5_fold_equality(base_runs):
    # the fold-only equality chi(M) = chi+ - chi- is the closed-manifold
    # identity itself, with cusps (s3-cusps) or without: it reads null
    ok = True
    for name in ALL_SCENARIOS:
        report = base_runs[name][3]
        ok &= _line(f"criterion 5 fold equality ({name})",
                    report.identity_ok is True and report.fold_equality_ok is None,
                    "follows from the closed-manifold identity")
    assert ok


def test_criterion_6_lemma_audits(seeded_runs):
    ok = True
    for name in ALL_SCENARIOS:
        for seed in SEEDS:
            S, strat, data, report, _ = seeded_runs[name][seed]
            # the parity audit does not apply with n = 1 and must not report
            parity = data.audits["parity"]
            parity_ok = parity is None if S.n == 1 else parity.ok
            sep = data.audits["separation"]
            good = (parity_ok
                    and sep.ok
                    and sep.max_distance <= 1e-6
                    and report.genericity_seed_used < S.tolerances.max_resamples)
            if not good:
                ok &= _line(f"criterion 6 ({name}, seed {seed})", False,
                            f"parity={parity_ok} separation={sep.ok}")
    ok &= _line("criterion 6 (index parity, separation, resample budget)", ok,
                f"{len(ALL_SCENARIOS)} scenarios x {len(SEEDS)} seeds")
    assert ok


def test_criterion_7_sign_machinery(seeded_runs):
    ok = True
    cusps_checked = 0
    certs_checked = 0
    for name in ALL_SCENARIOS:
        for seed in SEEDS:
            S, strat, data, report, _ = seeded_runs[name][seed]
            for chk in data.audits["eta_checks"]:
                cusps_checked += 1
                if not chk["identity_ok"]:
                    ok = False
            for cert in data.certificates:
                certs_checked += 1
                if not cert.cancels:
                    ok = False
    ok &= cusps_checked >= 2 and certs_checked >= 2
    assert _line("criterion 7 (eta identity and certificate cancellation)", ok,
                 f"{cusps_checked} eta checks, {certs_checked} certificates")


def _rational_point(rng, n):
    return tuple(Fraction(int(rng.integers(-64, 65)), 64) for _ in range(n))


def test_criterion_8a_gradient_cross_check():
    ok = True
    worst = 0.0
    for name in ALL_SCENARIOS:
        S = bundled(name)
        rng = np.random.default_rng([99, S.seed])
        exprs = list(S.components) + list(S.manifold.constraints)
        for e in exprs:
            grads = ex.gradient(e)
            def f(pt, e=e):
                return ex.evaluate(e, pt)
            for _ in range(100):
                pt = _rational_point(rng, S.N)
                ptf = np.array([float(c) for c in pt])
                for i in range(S.N):
                    sym = float(ex.evaluate(grads[i], pt))
                    step = np.zeros(S.N)
                    step[i] = 1e-5
                    fd = (f(ptf + step) - f(ptf - step)) / 2e-5
                    err = abs(sym - fd) / max(1.0, abs(sym))
                    worst = max(worst, err)
                    if err > 1e-6:
                        ok = False
    assert _line("criterion 8a (symbolic vs finite-difference gradients)", ok,
                 f"worst relative error {worst:.2e} over 100 points per scenario")


def test_criterion_8b_seed_independence(seeded_runs):
    ok = True
    for name in ALL_SCENARIOS:
        chis = []
        for seed in SEEDS:
            report = seeded_runs[name][seed][3]
            table = tuple((r["k"], r["sign"], r["chi_morse_boundary"])
                          for r in report.strata_table)
            chis.append((report.chi_M_morse, report.identity_rhs, table))
        if len(set(chis)) != 1:
            ok = False
            _line(f"criterion 8b ({name})", False, f"{chis}")
    assert _line("criterion 8b (chi values independent of the seed)", ok,
                 f"{len(SEEDS)} accepted seeds per scenario")


@pytest.mark.parametrize("name", ["torus-height", "s3-cusps"])
def test_reports_do_not_depend_on_the_tangent_basis(monkeypatch, name):
    # every lane's tangent basis turned by one fixed orthogonal matrix: the
    # inertias, projectors and kernel dets the pipeline reads are invariant
    from morinchi import manifold, strata

    def summary():
        S, strat, data, report, _ = _run(name)
        table = [(r["k"], r["sign"], r["chi_morse_boundary"], r["chi_oracle"])
                 for r in report.strata_table]
        chi = (report.chi_M_morse, report.identity_lhs, report.identity_rhs,
               report.all_ok, table)
        points = [(p.depth, p.sign) for p in strat.points]
        indices = [r.morse_index for r in data.k0_records]
        cusps = [len(c.cusps) for c in strat.curves]
        dets = np.concatenate([c.det_values for c in strat.curves] or [np.zeros(0)])
        return S, chi, points, indices, cusps, dets

    S, *want = summary()
    q = np.linalg.qr(np.random.default_rng(11).standard_normal((S.m, S.m)))[0]
    frames = manifold.tangent_frames

    def turned(M, X):
        T, failures = frames(M, X)
        return q @ T, failures

    monkeypatch.setattr(manifold, "tangent_frames", turned)
    monkeypatch.setattr(strata, "tangent_frames", turned)
    _, *got = summary()
    assert got[:4] == want[:4]
    assert got[4].shape == want[4].shape
    assert np.all(np.abs(got[4] - want[4]) <= 1e-9 * np.abs(want[4]))
    assert _line(f"tangent-basis invariance ({name})", True,
                 f"{len(want[2])} k=0 indices, {len(want[4])} curve nodes")
