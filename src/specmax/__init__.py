"""specmax: extremal nonregular graphs of near-maximal degree.

Constructions of the extremal families, exact quotient characteristic
polynomials, Perron eigenpairs, local switching, exhaustive small-order
searches, and the verification suites that decide every check.
"""

import os

# One BLAS thread unless the caller chose (this must precede numpy's import):
# the eigensolves are small, and a threaded BLAS on busy cores spun 15-130 ms
# per solve at n = 30-300 on a 2-core machine, against about 1 ms.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
