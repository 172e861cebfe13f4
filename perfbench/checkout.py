"""Locate the morinchi sources of the checkout and pin BLAS to one thread.

The benchmark must measure the code of the checkout it sits in, never an
installed copy, and must fail when that code is missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One process, one client: every BLAS backend numpy may load gets one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The checkout holds no morinchi sources to benchmark."""


def prepare() -> Path:
    """Pin BLAS threads and put the checkout's ``src`` first on ``sys.path``.

    Call before numpy is imported, or the thread pin has no effect.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "morinchi" / "__init__.py").is_file():
        raise CheckoutError(f"no morinchi sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import morinchi

    if Path(morinchi.__file__).resolve().parent != SRC / "morinchi":
        raise CheckoutError(f"morinchi imported from {morinchi.__file__}, not {SRC}")
    return SRC
