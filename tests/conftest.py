"""Tier-1 runs with one BLAS thread, as CI does: with OpenBLAS's default
threads the first 256 x 256 complex SVD of a process (the d = 16 commutant)
takes about 1 s instead of 0.03 s.  pytest imports this module before any
test module, so before numpy loads; a value already in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
