"""Exact witness-subset covers for sumsets in F_q^n.

For subsets S, T of F_q^n this package constructs S* within S and T* within
T such that (S* + T) union (S + T*) equals S + T, with |S*| + |T*| bounded
by an explicit monomial-counting budget, and certifies every inequality used
along the way.  Brute-force oracles and consequence checkers (progression-free
sets, matching-only sum-free families) provide independent ground truth at
desk scale.

The package re-exports the function `decompose` under its module's name, so
`sumsetcover.decompose` and `import sumsetcover.decompose as m` give the
function; `importlib.import_module("sumsetcover.decompose")` gives the module.
"""

from .cover import LineCover, line_cover, maximum_matching
from .decompose import (
    Check,
    Decomposition,
    DecompositionCertificate,
    PipelineRun,
    bound_checks,
    certify,
    choose_degree,
    decompose,
    degree_bound,
    run_pipeline,
    symmetric_subset,
    symmetric_witness,
    verify_decomposition,
)
from .errors import (
    BoundViolated,
    DegreeTooHigh,
    DimensionMismatch,
    EnumerationTooLarge,
    ParseError,
    PreconditionFailed,
    SearchTooLarge,
    SumsetCoverError,
    ValidationError,
)
from .field import (
    DEFAULT_ENUM_CAP,
    FieldVector,
    PointSet,
    all_points,
    check_space,
    complement,
    is_prime,
    random_pairs,
    sum_index,
    sumset,
)
from .linalg import matrix_rank, null_space, rref
from .monomials import (
    CountTable,
    Monomial,
    capset_bound_M,
    count_m,
    degree_counts,
    enumerate_monomials,
    eval_monomial,
    growth_estimate,
    monomial_key,
)
from .oracle import (
    DEFAULT_SEARCH_CAP,
    CapsetReport,
    OracleResult,
    OrderedPairFamily,
    SumfreeReport,
    check_capset_bound,
    check_sumfree_bound,
    greedy_decomposition,
    is_ap_free,
    is_matching_sumfree,
    oracle_checks,
    oracle_min_decomposition,
)
from .summatrix import (
    ClpCertificate,
    Polynomial,
    clp_decompose,
    eval_poly,
    poly_degree,
    poly_from_terms,
)
from .vanishing import PolySubspace, build_vanishing_space, sum_pivots

__version__ = "0.1.0"
