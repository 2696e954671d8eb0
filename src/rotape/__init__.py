"""rotape: pseudo-spectral solver and verification harness for the
vertically viscous rotating primitive equations on T^2 x (0,1).

numpy's OpenBLAS starts a pool of worker threads when numpy loads, one per
CPU.  rotape's only BLAS calls are small matrix-vector products and
`polyfit`'s least squares, too small to use the pool, but starting it costs
about 0.1 s of CPU in every fresh process: each run, sweep, lemma check and
test child.  So when importing rotape is what loads numpy, and the caller
has set none of OpenBLAS's thread variables, numpy loads with one BLAS
thread, the rule that `spectral._WORKERS = 1` keeps for the FFT.  The
variable is removed again at once, so child processes inherit the caller's
environment unchanged; a caller's own thread setting always wins, and a
numpy that is already loaded is left as it is.
"""

import os
import sys

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(k in os.environ for k in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (OpenBLAS reads the variable as it loads)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .grid import GridSpec  # noqa: E402
from .norms import NormSpec  # noqa: E402
from .spectral import SpectralField  # noqa: E402

__all__ = ["GridSpec", "NormSpec", "SpectralField"]
__version__ = "0.1.0"
