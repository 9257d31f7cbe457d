"""Double cosets of the block centralizer H <= S_2m, the exact identity
between the class measure and the Ewens(1/2) distribution, and the
weighted-sum machinery behind the density bounds."""

from .errors import ResourceLimitError
from .partitions import (
    Partition,
    enumerate_partitions,
    hardy_ramanujan,
    iter_counts,
    iter_partitions,
    partition_count,
)
from .perm import (
    Permutation,
    compose,
    conjugate,
    cycle_string,
    cycle_type,
    disjoint_cycles,
    from_cycles,
    identity,
    inverse,
    one_line_string,
    parse_permutation,
)
from .cosets import (
    CosetClass,
    EvenSupportReduction,
    OrbitClass,
    TCParts,
    base_involution,
    canonical_rep,
    coset_class,
    double_coset_size,
    enumerate_H,
    enumerate_double_cosets,
    intersection_subgroup,
    is_in_H,
    partition_of,
    predicted_intersection_order,
    reduce_to_even_support,
    tc_decompose,
    wreath_model,
)
from .ewens import (
    SampleReport,
    coset_probability,
    esf_density,
    f_of,
    good_probability_exact,
    good_probability_mc,
    sample_partition,
)
from .series import (
    TailBoundResult,
    TruncatedSeries,
    W_at_one,
    W_direct,
    W_one_closed,
    W_series_coeffs,
    asymptotic_diagnostic,
    jensen_check,
    left_tail_bound,
    right_tail_bound,
)

__version__ = "0.1.0"
