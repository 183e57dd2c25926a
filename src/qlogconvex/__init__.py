"""Exact-arithmetic q-log-convexity toolkit for Domb and Narayana-type families."""

# set before the submodule imports: verification reads it at import time
__version__ = "0.1.0"

from .exactcore import BinomialCache, binom
from .polynomials import (
    IntervalSign,
    Poly,
    sign_constant_on,
    sturm_chain,
    sturm_count_roots,
)
from .families import (
    DOMB_ARRAY,
    NARAYANA_ARRAY,
    TriangularArray,
    domb_number,
    family_poly,
)
from .criteria import (
    criterion_c2_sweep,
    log_convex_check,
    op_L,
    q_log_convex_direct,
    root_monotonicity_check,
    single_crossing,
)
from .proofpolys import PsiBundle, ThetaBundle, build_psi, build_psi_nn, build_theta
from .verification import (
    Certificate,
    ClaimRecord,
    VerificationConfig,
    chan_partial_sum,
    factorization_check,
    identity_grid_check,
    run_full_verification,
    verify_claims,
    verify_prop31,
    verify_prop32,
    verify_prop33,
)

__all__ = [
    "BinomialCache", "binom",
    "IntervalSign", "Poly", "sign_constant_on", "sturm_chain", "sturm_count_roots",
    "DOMB_ARRAY", "NARAYANA_ARRAY", "TriangularArray", "domb_number", "family_poly",
    "criterion_c2_sweep", "log_convex_check", "op_L", "q_log_convex_direct",
    "root_monotonicity_check", "single_crossing",
    "PsiBundle", "ThetaBundle", "build_psi", "build_psi_nn", "build_theta",
    "Certificate", "ClaimRecord", "VerificationConfig", "chan_partial_sum",
    "factorization_check", "identity_grid_check", "run_full_verification",
    "verify_claims", "verify_prop31", "verify_prop32", "verify_prop33",
    "__version__",
]
