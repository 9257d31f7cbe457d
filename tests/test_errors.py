"""Every real parameter of the library goes through one check,
``errors._finite``: a value that is not finite in float64 is a ValueError
that names the parameter, never an OverflowError, and its message is built
without printing the value."""
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from coset_ewens import (
    Partition,
    W_at_one,
    W_direct,
    W_series_coeffs,
    asymptotic_diagnostic,
    esf_density,
    good_probability_exact,
    good_probability_mc,
    jensen_check,
    left_tail_bound,
    right_tail_bound,
    sample_partition,
)
from coset_ewens.errors import _finite
from coset_ewens.series import W_coefficient, default_right_beta, log_W_direct

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


@pytest.mark.parametrize("theta", NOT_FINITE, ids=NOT_FINITE_IDS)
def test_esf_density_exact_theta_of_any_size(theta):
    # exact arithmetic: only a theta that is not an int or Fraction has to be finite
    lam = Partition.parse("1^2 3^1")
    if not isinstance(theta, Fraction):
        with pytest.raises(ValueError, match="^theta must be finite"):
            esf_density(lam, theta)
    else:
        p = esf_density(lam, theta)
        assert isinstance(p, Fraction) and 0 < p < 1


def test_esf_density_finite_decimal_theta_is_exact():
    lam = Partition.parse("1^2 3^1")
    assert esf_density(lam, Decimal("0.1")) == esf_density(lam, Fraction(1, 10))


def test_right_tail_bound_scalar_fraction_beta_is_a_one_point_grid():
    assert right_tail_bound(10, 1.0, Fraction(1, 2)) == right_tail_bound(10, 1.0, [0.5])


def test_finite_values_are_float_of_them():
    for x in (0.1, -2.5, 3, Fraction(1, 3), Fraction(10**300, 7), 10**300):
        assert _finite(x, "x") == float(x)
