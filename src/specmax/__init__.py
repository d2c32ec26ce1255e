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

from .graphs import (
    CapabilityError,
    Graph,
    Graph6ParseError,
    canonical_form,
    graph6_decode,
    graph6_encode,
)
from .intpoly import IntPolynomial, char_poly, compare_max_real_roots, max_real_root
from .spectral import ConvergenceError, PerronPair, perron, perron_all
from .partition import QuotientSpec, quotient
from .families import (
    ComplementProfile,
    NamedQuotient,
    build_case2,
    build_family,
    build_from_profile,
    build_g,
    build_g2_1,
    build_h1,
    build_h2,
    named_quotient,
)
from .switching import SwitchMove, apply
from .enumeration import EnumSpec, ExtremalReport, enumerate_graphs, extremal_search

__version__ = "0.1.0"
