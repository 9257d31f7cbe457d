"""Double cosets of the block centralizer H <= S_2m, the exact identity
between the class measure and the Ewens(1/2) distribution, and the
weighted-sum machinery behind the density bounds."""

from .errors import ResourceLimitError
from .partitions import (
    Partition,
    enumerate_partitions,
    iter_counts,
    partition_count,
)
from .perm import (
    Permutation,
    compose,
    cycle_string,
    disjoint_cycles,
    from_cycles,
    identity,
    parse_permutation,
)
from .cosets import (
    CosetClass,
    EvenSupportReduction,
    OrbitClass,
    canonical_rep,
    coset_class,
    double_coset_size,
    enumerate_double_cosets,
    partition_of,
    predicted_intersection_order,
    reduce_to_even_support,
    wreath_model,
)
from .ewens import (
    SampleReport,
    coset_probability,
    esf_density,
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
