"""Spanning structures in dense uniform hypergraphs.

Exact degree queries, Hamilton ell-path and ell-cycle solvers, random
balanced partitions with degree-event tracking, partition-respecting
cycle stitching, F-factor search and counting, absorbing-path decision
procedures, and directed-rounding counting bounds.  Everything is
exhaustive and exact at desk scale; nothing approximates silently.
"""

from .absorb import AbsorberConfig, can_absorb, classify_set
from .bounds import (
    CountBound,
    RationalBracket,
    count_bound_from_exact,
    exp_neg_bracket,
    expected_random_count,
    log_bracket,
    multinomial,
    log_growth_bound,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    DivisibilityError,
    InvalidQueryError,
    InvalidStructureError,
    SpancountError,
)
from .factors import (
    FactorDecomposition,
    FactorSpec,
    count_f_factors,
    factor_census,
    factor_lower_bound,
    find_f_factor,
    matching_count_closed_form,
    matching_zero_cycle_relation,
    partition_multiplicity_bound,
    perfect_matching,
    single_edge_spec,
    stitch_factor,
    verify_decomposition,
)
from .hypergraphs import (
    GoodnessSpec,
    Hypergraph,
    complete,
    dirac_threshold,
    empty,
    gen_random,
)
from .partition import (
    BisectionTrace,
    GoodnessReport,
    GoodProbabilityEstimate,
    HypergeometricParams,
    Partition,
    SizeVector,
    block_size_tree,
    check_good,
    check_good_factor,
    degree_meets_threshold,
    derive_seed,
    estimate_good_probability,
    hypergeometric_tail_bound,
    random_bisection,
    sample_hypergeometric,
    size_vector,
    wilson_interval,
)
from .paths import (
    EllCycle,
    EllPath,
    EndPair,
    PowerCycle,
    clique_graph,
    enumerate_hamilton_ell_cycles,
    find_clique,
    find_hamilton_ell_path,
    validate_ell_cycle,
    validate_ell_path,
    validate_power_cycle,
)
from .stitch import (
    RespectingCertificate,
    is_respecting,
    lower_bound_count,
    respecting_multiplicity,
    stitch_cycle,
    stitch_power_cycle,
)

__version__ = "1.0.0"
