"""Cooperative energy-based / translator pairs with cycle consistency.

Two generator networks map between domains X and Y; an energy model per
domain refines their outputs with short-run Langevin dynamics, and each
generator learns from its own refined outputs while a cycle loss keeps the
round trip near the identity.
"""

import os as _os
import sys as _sys

# COOPFORGE_THREADS caps BLAS worker threads; the single-thread default keeps
# reductions deterministic. Must be set before numpy first loads, which is why
# it lives ahead of the imports below. Explicitly set *_NUM_THREADS vars win.
_threads = _os.environ.get("COOPFORGE_THREADS", "1")
if not (_threads.isdigit() and int(_threads) > 0):
    _threads = "1"
_blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")  # read once, when numpy loads
_late = [v for v in _blas if v not in _os.environ]
for _var in _blas + ("NUMEXPR_NUM_THREADS",):
    _os.environ.setdefault(_var, _threads)
if _late and "numpy" in _sys.modules:
    import warnings as _warnings

    _warnings.warn(
        f"numpy was imported before coopforge, so COOPFORGE_THREADS={_threads} does not cap its BLAS "
        f"threads ({', '.join(_late)} set too late); import coopforge first or export them before starting Python",
        RuntimeWarning,
        stacklevel=2,
    )

from .tensor import Tensor, Graph, backward, grad_check

__version__ = "0.1.0"

__all__ = ["Tensor", "Graph", "backward", "grad_check", "__version__"]
