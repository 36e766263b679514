"""Bayesian low-rank adaptation with exact low-rank predictive sampling.

Core pieces: a float64 tensor engine with a reverse-mode tape
(:mod:`balora.tensor`), adapter layers with input-adaptive Gaussian
posteriors (:mod:`balora.adapter`), the KL-regularized training objective
(:mod:`balora.variational`), Monte Carlo uncertainty quantification
(:mod:`balora.uncertainty`), synthetic tasks and baselines
(:mod:`balora.tasks`), and a CLI (:mod:`balora.cli`, with the commands
in :mod:`balora.commands`). The package exports ``Rng``, ``Tensor`` and
``backward``; the tape has no switch to turn off. Importing the package
loads no numpy: the exports load their modules on first use, so that
``balora --help`` answers from argparse alone.
"""

import os
import re
import sys

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BALORA_THREADS=n pins the BLAS to n threads. The BLAS reads its thread
# variables once, when numpy loads, and nothing here loads numpy.
_threads = os.environ.get("BALORA_THREADS", "")
if re.fullmatch("[1-9][0-9]*", _threads) and "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, _threads))


def blas_pinned() -> bool:
    """Whether the BLAS runs on one thread: every BLAS thread variable is 1,
    as ``BALORA_THREADS=1`` sets them before numpy loads."""
    return all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)


def __getattr__(name: str):
    """``Rng``, ``Tensor`` and ``backward``, imported on first use (PEP 562)."""
    if name == "Rng":
        from .rng import Rng
        return Rng
    if name in ("Tensor", "backward"):
        from . import tensor
        return getattr(tensor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["Rng", "Tensor", "backward", "__version__"]
