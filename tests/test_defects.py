"""Runs that used to verify with a wrong chi, and the census guard of the
s4-height depth-1 solve.

Each probe is a bundled scenario times a global factor, built here with
exact ``Fraction`` factors and without ``chi_expected``:

- *f/1000*: each component of torus-height or s2-height is written as
  ``(* 1/1000 ...)``;
- *sphere 1000*: s2-height on the sphere of radius 1000, with the bundled
  seeds and ``sample_halfwidth`` (default seeds) or with both multiplied by
  1000 (scaled seeds);
- *sphere 1/1000*: the same on the sphere of radius 1/1000.

A damped Newton that accepted a trial step only on a drop of its max-norm
residual let most k=0 starts crawl on these.  The first four ended in
``all_ok`` with chi 1; on the small sphere every covector left the pole
(0, 0, -1/1000) unmatched, and the run was refused (exit 2).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from morinchi.cli import run_pipeline
from morinchi.scenario import load_scenario
from morinchi.strata import solve_stratum1
from tests.conftest import scenario_path

R = Fraction(1000)


def _data(name):
    data = json.loads(scenario_path(name).read_text())
    del data["chi_expected"]
    return data


def f_scaled(name, factor):
    """The bundled scenario with every component multiplied by ``factor``."""
    data = _data(name)
    data["components"] = [f"(* {factor} {c})" for c in data["components"]]
    return data


def sphere(radius, scaled_seeds):
    """s2-height on the sphere of ``radius`` (a ``Fraction``), its seeds and
    ``sample_halfwidth`` multiplied by it when ``scaled_seeds``."""
    data = _data("s2-height")
    data["constraints"] = [f"(+ (^ x0 2) (^ x1 2) (^ x2 2) -{radius ** 2})"]
    if scaled_seeds:
        data["sample_seeds"] = [[float(radius * Fraction(c)) for c in s]
                                for s in data["sample_seeds"]]
        data["sample_halfwidth"] = float(radius * Fraction(data.get("sample_halfwidth", 1.5)))
    return data


# each probe's scenario data and its true chi, by a name that CI also uses
# for the scenario files it writes
PROBES = {
    "torus-height-f-over-1000": (lambda: f_scaled("torus-height", 1 / R), 0),
    "s2-height-f-over-1000": (lambda: f_scaled("s2-height", 1 / R), 2),
    "sphere-1000-scaled-seeds": (lambda: sphere(R, True), 2),
    "sphere-1000-default-seeds": (lambda: sphere(R, False), 2),
    "sphere-1-over-1000-scaled-seeds": (lambda: sphere(1 / R, True), 2),
    "sphere-1-over-1000-default-seeds": (lambda: sphere(1 / R, False), 2),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("probe", list(PROBES))
def test_a_scaled_scenario_verifies_with_the_true_chi(probe, seed):
    build, chi = PROBES[probe]
    S = load_scenario(build())
    S.seed = seed
    report = run_pipeline(S)[0]
    assert (report.all_ok, report.chi_M_morse) == (True, chi)


def test_the_probes_are_the_bundled_problems_times_exact_factors():
    torus = f_scaled("torus-height", 1 / R)
    assert torus["components"] == ["(* 1/1000 x0)"]
    M = load_scenario(sphere(R, True)).manifold
    assert M.sample_seeds == ((1000.0, 0.0, 0.0), (0.0, 0.0, 1000.0))
    assert M.sample_halfwidth == 1500.0
    assert sphere(1 / R, False)["constraints"] == ["(+ (^ x0 2) (^ x1 2) (^ x2 2) -1/1000000)"]


# -- census guard ---------------------------------------------------------------

# root seeds of the guard, from random.Random(1) as the benchmark draws them,
# and the depth-1 misses of s4-height over them with the residual-only trial
# test (one of its ten fold points not found)
GUARD_SEEDS = 1500
GUARD_MISSES = 29


@pytest.mark.census
def test_the_s4_height_depth1_solve_misses_no_more_roots_than_before():
    draw = random.Random(1)
    S = load_scenario(scenario_path("s4-height"))
    misses = 0
    for _ in range(GUARD_SEEDS):
        S.seed = draw.randrange(1_000_000)
        misses += len(solve_stratum1(S)) < 10
    assert misses <= GUARD_MISSES
