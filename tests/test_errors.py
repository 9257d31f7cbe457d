"""Every real parameter of the library goes through one check,
``errors._finite``, and every integer parameter through another,
``errors._integer``.  A value that is not finite in float64, text, or
one that ``float`` refuses (None), is a ValueError that names the
parameter, never an OverflowError or a TypeError.  A value that
``operator.index`` refuses (2.5, 3.0, "3", None) is a ValueError that
names the parameter, never a TypeError or a silent truncation, and a
numpy integer gives the result of the equal int.  Neither message prints
the value."""
import math
import re
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from coset_ewens import cli, cosets, ewens, partitions, series
from coset_ewens import (
    Partition,
    ResourceLimitError,
    W_at_one,
    W_direct,
    W_one_closed,
    W_series_coeffs,
    asymptotic_diagnostic,
    canonical_rep,
    coset_class,
    coset_probability,
    double_coset_size,
    enumerate_double_cosets,
    enumerate_partitions,
    esf_density,
    from_cycles,
    good_probability_exact,
    good_probability_mc,
    identity,
    iter_counts,
    jensen_check,
    left_tail_bound,
    parse_permutation,
    partition_count,
    partition_of,
    reduce_to_even_support,
    right_tail_bound,
    sample_partition,
)
from coset_ewens.cosets import intersection_subgroup, is_in_H
from coset_ewens.errors import _finite, _integer
from coset_ewens.ewens import f_leq_threshold
from coset_ewens.partitions import iter_partitions
from coset_ewens.rng import uniform01_array
from coset_ewens.series import (
    W_coefficient,
    default_alpha_grid,
    default_right_beta,
    log_W_direct,
    log_W_one_closed,
)

# Fraction(10**5000, 3) also has more digits than str() prints by default
NOT_FINITE = [math.nan, math.inf, -math.inf, Fraction(10**400, 3), Fraction(10**5000, 3),
              Decimal("Infinity"), Decimal("NaN")]
NOT_FINITE_IDS = ["nan", "inf", "-inf", "past-float64", "past-str-limit",
                  "decimal-inf", "decimal-nan"]

# entry -> (the parameter's name, a call with x in its place)
ENTRIES = {
    "W_series_coeffs": ("beta", lambda x: W_series_coeffs(x, 5)),
    "W_coefficient": ("beta", lambda x: W_coefficient(x, 5)),
    "W_at_one": ("beta", lambda x: W_at_one(x)),
    "asymptotic_diagnostic": ("beta", lambda x: asymptotic_diagnostic(x, [10])),
    "W_direct": ("beta", lambda x: W_direct(x, 5)),
    "log_W_direct": ("beta", lambda x: log_W_direct(x, 5)),
    "right_tail_bound-beta": ("beta", lambda x: right_tail_bound(10, 1.0, [0.5, x])),
    "right_tail_bound-c": ("c", lambda x: right_tail_bound(10, x, 0.5)),
    "left_tail_bound-c": ("c", lambda x: left_tail_bound(10, x)),
    "left_tail_bound-alpha": ("alpha", lambda x: left_tail_bound(10, 1.0, [0.5, x])),
    "good_probability_exact": ("c", lambda x: good_probability_exact(10, x)),
    "good_probability_mc": ("c", lambda x: good_probability_mc(10, x, 16, 0)),
    "sample_partition": ("theta", lambda x: sample_partition(10, x, 0)),
    "default_right_beta": ("t", lambda x: default_right_beta(10, x)),
    "jensen_check-alpha": ("alpha", lambda x: jensen_check(x, 1.5, 0.5, 5)),
    "jensen_check-beta": ("beta", lambda x: jensen_check(0.5, x, 0.5, 5)),
}


@pytest.mark.parametrize("x", NOT_FINITE, ids=NOT_FINITE_IDS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_not_finite_is_value_error_naming_the_parameter(entry, x):
    name, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(x)


@pytest.mark.parametrize("entry", ENTRIES)
def test_not_real_is_value_error_naming_the_parameter(entry):
    name, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got NoneType$"):
        call(None)


@pytest.mark.parametrize("x", ["2", b"2"], ids=["str", "bytes"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_text_is_not_a_real(entry, x):
    # float() would parse it; _integer refuses "3" alike
    name, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {type(x).__name__}$"):
        call(x)


@pytest.mark.parametrize("theta", NOT_FINITE + [Decimal("1e400")],
                         ids=NOT_FINITE_IDS + ["decimal-past-float64"])
def test_esf_density_exact_theta_of_any_size(theta):
    # exact arithmetic: an int, a Fraction or a finite Decimal need not fit in float64
    lam = Partition.parse("1^2 3^1")
    if isinstance(theta, Fraction) or isinstance(theta, Decimal) and theta.is_finite():
        p = esf_density(lam, theta)
        assert isinstance(p, Fraction) and 0 < p < 1
        assert p == esf_density(lam, Fraction(theta))
    else:
        with pytest.raises(ValueError, match="^theta must be finite"):
            esf_density(lam, theta)


def test_esf_density_finite_decimal_theta_is_exact():
    lam = Partition.parse("1^2 3^1")
    assert esf_density(lam, Decimal("0.1")) == esf_density(lam, Fraction(1, 10))


def test_right_tail_bound_scalar_fraction_beta_is_a_one_point_grid():
    assert right_tail_bound(10, 1.0, Fraction(1, 2)) == right_tail_bound(10, 1.0, [0.5])


@pytest.mark.parametrize("bound", [left_tail_bound, right_tail_bound])
def test_zero_d_array_is_a_one_point_grid(bound):
    assert bound(10, 1.0, np.array(0.5)) == bound(10, 1.0, [0.5])
    # np.ndim reads an iterator as a scalar, so it is one point, and not a real one
    with pytest.raises(ValueError, match="must be a real number, got generator$"):
        bound(10, 1.0, (x for x in [0.5]))


def test_finite_values_are_float_of_them():
    for x in (0.1, -2.5, 3, Fraction(1, 3), Fraction(10**300, 7), 10**300):
        assert _finite(x, "x") == float(x)


NOT_INTEGER = [2.5, Fraction(5, 2), np.float64(3.0), "3", None]
NOT_INTEGER_IDS = ["float", "fraction", "whole-np-float64", "str", "none"]

_G = identity(6)  # an element of S_2m at m = 3
_LAM = Partition.parse("1^1 2^1")  # a class of m = 3

# entry -> (the integer parameter's name, a call with x in its place)
INTEGER_ENTRIES = {
    "Partition-part": ("part", lambda x: Partition(((x, 1),), 3)),
    "Partition-multiplicity": ("multiplicity", lambda x: Partition(((1, x),), 3)),
    "Partition-m": ("m", lambda x: Partition(((1, 3),), x)),
    "from_parts": ("part", lambda x: Partition.from_parts([1, x])),
    "from_multiplicities-part": ("part", lambda x: Partition.from_multiplicities({x: 1})),
    "from_multiplicities-multiplicity":
        ("multiplicity", lambda x: Partition.from_multiplicities({1: x})),
    "iter_counts": ("m", lambda x: next(iter_counts(x))),
    "iter_partitions": ("m", lambda x: next(iter_partitions(x))),
    "enumerate_partitions": ("m", enumerate_partitions),
    "partition_count": ("m", partition_count),
    "identity": ("n", identity),
    "from_cycles": ("n", lambda x: from_cycles(x, [])),
    "from_cycles-symbol": ("symbol", lambda x: from_cycles(3, [(1, x)])),
    "parse_permutation": ("n", lambda x: parse_permutation("()", x)),
    "is_in_H": ("m", lambda x: is_in_H(_G, x)),
    "partition_of": ("m", lambda x: partition_of(_G, x)),
    "reduce_to_even_support": ("m", lambda x: reduce_to_even_support(_G, x)),
    "intersection_subgroup": ("m", lambda x: intersection_subgroup(_G, x)),
    "enumerate_double_cosets": ("m", enumerate_double_cosets),
    "canonical_rep": ("m", lambda x: canonical_rep(_LAM, x)),
    "double_coset_size": ("m", lambda x: double_coset_size(_LAM, x)),
    "coset_class": ("m", lambda x: coset_class(_LAM, x)),
    "coset_probability": ("m", lambda x: coset_probability(_LAM, x)),
    "f_leq_threshold-f": ("f", lambda x: f_leq_threshold(x, 3, 1)),
    "f_leq_threshold-m": ("m", lambda x: f_leq_threshold(6, x, 1)),
    "good_probability_exact": ("m", lambda x: good_probability_exact(x, 2)),
    "good_probability_mc-m": ("m", lambda x: good_probability_mc(x, 2, 16, 0)),
    "good_probability_mc-samples": ("samples", lambda x: good_probability_mc(10, 2, x, 0)),
    "good_probability_mc-seed": ("seed", lambda x: good_probability_mc(10, 2, 16, x)),
    "sample_partition-m": ("m", lambda x: sample_partition(x, 0.5, 0)),
    "sample_partition-seed": ("seed", lambda x: sample_partition(10, 0.5, x)),
    "uniform01_array": ("seed", lambda x: uniform01_array(x, np.arange(3))),
    "W_one_closed": ("m", W_one_closed),
    "log_W_one_closed": ("m", log_W_one_closed),
    "W_series_coeffs": ("M", lambda x: W_series_coeffs(1, x)),
    "coefficient": ("k", lambda x: W_series_coeffs(1, 5).coefficient(x)),
    "W_coefficient": ("m", lambda x: W_coefficient(1.5, x)),
    "W_direct": ("m", lambda x: W_direct(1, x)),
    "log_W_direct": ("m", lambda x: log_W_direct(1.5, x)),
    "jensen_check": ("m", lambda x: jensen_check(0.5, 1.5, 0.5, x)),
    "left_tail_bound": ("m", lambda x: left_tail_bound(x, 1.0)),
    "right_tail_bound": ("m", lambda x: right_tail_bound(x, 1.0, 0.5)),
    "default_right_beta": ("m", default_right_beta),
    "default_alpha_grid": ("points", default_alpha_grid),
    "asymptotic_diagnostic": ("m", lambda x: asymptotic_diagnostic(1.5, [10, x])),
}


@pytest.mark.parametrize("x", NOT_INTEGER, ids=NOT_INTEGER_IDS)
@pytest.mark.parametrize("entry", INTEGER_ENTRIES)
def test_not_integer_is_value_error_naming_the_parameter(entry, x):
    name, call = INTEGER_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {type(x).__name__}$"):
        call(x)


@pytest.mark.parametrize("cast", [np.int64, np.uint16])
def test_numpy_integers_give_the_results_of_ints(cast):
    assert good_probability_exact(cast(50), 2) == good_probability_exact(50, 2)
    report = good_probability_mc(cast(1000), 3, cast(5000), cast(7))
    assert report == good_probability_mc(1000, 3, 5000, 7)
    assert all(type(v) is int for v in (report.m, report.samples, report.seed))
    lam = sample_partition(cast(1000), 0.5, cast(7))
    assert lam == sample_partition(1000, 0.5, 7) and type(lam.m) is int
    assert partition_count(cast(100)) == partition_count(100)
    for beta in (1, 1.5):
        assert W_series_coeffs(beta, cast(30)) == W_series_coeffs(beta, 30)


def test_integer_checks_keep_their_lower_bounds():
    for call, message in [(lambda: partition_count(-1), "m must be nonnegative"),
                          (lambda: good_probability_exact(0, 2), "m must be >= 1"),
                          (lambda: default_right_beta(2), "m must be >= 3"),
                          (lambda: good_probability_mc(10, 2, 0, 0), "samples must be >= 1"),
                          (lambda: sample_partition(10, 0.5, -1), "seed must be nonnegative"),
                          (lambda: identity(-3), "n must be nonnegative"),
                          (lambda: W_direct(1, -1), "m must be nonnegative"),
                          (lambda: Partition.from_parts([0]), "part must be >= 1")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class _Work(Exception):
    """Raised in place of the work that follows a cap's check."""


def _work(*args, **kwargs):
    raise _Work


# cap -> (what, the parameter's name, the cap, a call with x in its place, the
# (module, attribute) of the first work past the check); the check is
# errors._integer's, so the cap's message is "<what> limited to <name> <= <cap>"
INTEGER_CAPS = {
    "classify": ("classify", "m", cli.CLASSIFY_MAX_M,
                 lambda x: cli.cmd_classify(SimpleNamespace(perm="()", m=x)),
                 (cli, "parse_permutation")),
    "class-table": ("table and double-cosets", "m", cli.CLASS_TABLE_MAX_M,
                    lambda x: cli._class_table(x), (cli, "_class_rows")),
    "partition-enumeration": ("partition enumeration", "m", partitions.ENUMERATION_MAX_M,
                              lambda x: next(partitions._zs1(x, _work, ())), None),
    "sample_partition": ("sample_partition", "m", ewens.SAMPLE_MAX_M,
                         lambda x: sample_partition(x, 0.5, 0), (ewens, "_sample_parts_chunk")),
    "good_probability_mc": ("good_probability_mc", "m", ewens.SAMPLE_MAX_M,
                            lambda x: good_probability_mc(x, 2, 16, 0), (ewens, "_chunk_hits")),
    "intersection_subgroup": ("intersection_subgroup", "m", cosets.INTERSECTION_MAX_M,
                              lambda x: intersection_subgroup(identity(2 * x), x),
                              (cosets, "_H_array")),
    "enumerate_double_cosets": ("enumerate_double_cosets", "m", cosets.ORBIT_SWEEP_MAX_M,
                                enumerate_double_cosets, (cosets, "_matchings")),
    "series-kernel": ("series kernel", "degree", series.SERIES_MAX_M,
                      lambda x: W_coefficient(1.5, x), (series, "_aligned_zeros")),
    "default_alpha_grid": ("tail grids", "points", series.TAIL_GRID_MAX_POINTS,
                           default_alpha_grid, (np, "geomspace")),
    "tail-grid-length": ("tail grids", "points", series.TAIL_GRID_MAX_POINTS,
                         lambda x: left_tail_bound(10, 1.0, [0.5] * x),
                         (series, "_float_product")),
}


@pytest.mark.parametrize("cap", INTEGER_CAPS)
def test_integer_cap_accepts_the_cap_and_refuses_one_more_before_any_work(cap, monkeypatch):
    what, name, most, call, work = INTEGER_CAPS[cap]
    if work is not None:
        monkeypatch.setattr(*work, _work)
    with pytest.raises(_Work):  # the check passed, and the work began
        call(most)
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(what)} limited to {name} <= {most}$"):
        call(most + 1)


def test_integer_cap_checks_type_and_lower_bound_first():
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        _integer(0, "m", 1, 5, "x")
    with pytest.raises(ValueError, match="^m must be an integer, got float$"):
        _integer(6.0, "m", 1, 5, "x")
    assert _integer(np.int64(5), "m", 1, 5, "x") == 5
