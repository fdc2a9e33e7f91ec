"""Exact rank-distribution engine for random binary search trees.

Submodules:

* residues   -- word-size primes and the exact maps to and from residues
* plring     -- exact kernel: rationals and the (1-x)^b log(1/(1-x))^c ring
* genfun     -- generating-function recurrences, the constants c_k, f_k, g_k, alpha_0
* oracle     -- exact finite-n dynamic programs (ground truth)
* montecarlo -- seeded tree simulation and empirical estimates
* conjecture -- denominator factorizations and structure checks
* checks     -- verification criteria, each defined once
* cli        -- batch front end (constants/bounds/oracle/simulate/factor/verify)

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless the caller
set it; it takes effect only if numpy was not imported first.
"""

import os

# OpenBLAS reads this once, when numpy loads; its second thread costs CPU in
# every run and saves no wall time in the residue maps (see residues)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .plring import DivergentIntegral, PLExpr, Rational
from .genfun import InternalInconsistency

__all__ = [
    "PLExpr",
    "Rational",
    "DivergentIntegral",
    "InternalInconsistency",
]

__version__ = "0.1.0"
