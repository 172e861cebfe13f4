"""Singular stratification of polynomial maps on implicit compact manifolds.

The package locates the corank-1 singular strata of a polynomial map
f: M -> R^n restricted to an implicitly defined compact manifold M with
dim M - n odd, splits the odd-depth strata by the parity of the kernel
quadratic form, runs Morse theory (with boundary corrections) on every
stratum, and machine-checks the resulting Euler characteristic identities
against independent point/arc/circle counting oracles.

Entry points: ``load_scenario`` to read a scenario file, ``run_pipeline``
for the full verification, or the ``morinchi`` command line tool.  The
modules hold the layers: ``expr`` (polynomials and their evaluators),
``manifold``, ``scenario`` (scenario files, tolerances and the polynomial
blocks), ``continuation`` (curve tracing over any system), ``strata``,
``morse``, ``euler`` and ``cli``.
"""

from .cli import run_pipeline
from .scenario import load_scenario

__all__ = ["load_scenario", "run_pipeline", "__version__"]

__version__ = "0.1.0"
