import math
import random
from fractions import Fraction

import pytest

from coset_ewens.errors import ResourceLimitError
from coset_ewens.partitions import partition_count
from coset_ewens.series import (
    W_at_one,
    W_coefficient,
    W_direct,
    W_one_closed,
    W_series_coeffs,
    asymptotic_diagnostic,
    jensen_check,
    left_tail_bound,
    log_W_one_closed,
    right_tail_bound,
    _zeta_tail,
)
from coset_ewens.ewens import good_probability_exact


class TestWDirect:
    def test_beta_zero_is_partition_count(self):
        assert W_direct(0, 5) == 7
        for m in (0, 3, 11):
            assert W_direct(0, m) == partition_count(m)

    def test_hand_sums_m2(self):
        assert W_direct(1, 2) == Fraction(3, 8)
        assert W_direct(2, 2) == Fraction(5, 64)

    def test_float_matches_exact(self):
        for m in (3, 7, 15):
            assert W_direct(2.0, m) == pytest.approx(float(W_direct(2, m)), rel=1e-12)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            W_direct(1, 61)


class TestWOneClosed:
    def test_small(self):
        assert W_one_closed(1) == Fraction(1, 2)
        assert W_one_closed(2) == Fraction(3, 8)

    def test_matches_direct(self):
        for m in (1, 5, 12):
            assert W_one_closed(m) == W_direct(1, m)

    def test_log_path_accuracy(self):
        for m in (5, 50, 500, 2000, 2001, 5000):
            w = W_one_closed(m)
            assert isinstance(w, Fraction)
            assert log_W_one_closed(m) == pytest.approx(math.log(w), abs=1e-10)

    def test_stirling_at_1e4(self):
        val = math.exp(log_W_one_closed(10**4)) * math.sqrt(math.pi * 10**4)
        assert abs(val - 1.0) < 1e-3


class TestSeriesCoeffs:
    def test_coefficient_zero(self):
        for beta in (0, 1, 0.7):
            assert float(W_series_coeffs(beta, 5).coefficient(0)) == 1.0

    def test_beta_zero_partition_numbers(self):
        ts = W_series_coeffs(0, 10)
        assert [int(c) for c in ts.coefficients] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_beta_one_coefficient_two(self):
        assert W_series_coeffs(1, 4).coefficient(2) == Fraction(3, 8)

    def test_exact_matches_direct(self):
        for beta in (0, 1, 2, 3):
            ts = W_series_coeffs(beta, 20)
            assert ts.exact
            for m in range(21):
                assert ts.coefficient(m) == W_direct(beta, m)

    def test_float_matches_direct(self):
        for beta in (0.5, 1.5):
            ts = W_series_coeffs(beta, 25)
            for m in range(26):
                d = W_direct(beta, m)
                assert ts.coefficient(m) == pytest.approx(d, rel=1e-9)

    def test_exact_beta_one_matches_closed_form_to_200(self):
        ts = W_series_coeffs(1, 200)
        for m in range(1, 201):
            assert ts.coefficient(m) == W_one_closed(m)

    def test_all_coefficients_positive(self):
        for beta in (0.5, 1.0, 2.5):
            ts = W_series_coeffs(beta, 40)
            assert all(c > 0 for c in ts.coefficients)

    def test_strict_monotonicity_in_beta(self):
        for m in (2, 5, 17, 40):
            for b1, b2 in [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.5)]:
                assert W_coefficient(b1, m) > W_coefficient(b2, m)

    def test_caps(self):
        with pytest.raises(ResourceLimitError):
            W_series_coeffs(1.0, 20001)
        with pytest.raises(ResourceLimitError):
            W_series_coeffs(1, 201, exact=True)
        with pytest.raises(ResourceLimitError):
            W_series_coeffs(17, 200)
        with pytest.raises(ValueError):
            W_series_coeffs(0.5, 10, exact=True)

    def test_radius_sanity_at_2000(self):
        # coefficients grow sub-exponentially below beta=1 and decay
        # polynomially above, so the m-th root sits near 1 on both sides
        for beta in (0.5, 1.0, 2.0):
            root = W_coefficient(beta, 2000) ** (1 / 2000)
            assert abs(root - 1.0) < 0.1


class TestWAtOne:
    def test_rejects_beta_at_most_one(self):
        with pytest.raises(ValueError):
            W_at_one(1.0)
        with pytest.raises(ValueError):
            W_at_one(0.5)

    def test_large_beta_bracket(self):
        w = W_at_one(20.0)
        assert 2.0**-20 < w.value - 1.0 < 2.0**-19

    def test_beta_two_range_and_independent_bracket(self):
        w = W_at_one(2.0)
        assert 1.3 < w.value < 1.6
        # independent bracket: sum log(1+x_i) <= log W <= sum x_i + tail
        xs = [(2.0 * i) ** -2 for i in range(1, 200001)]
        lower = math.exp(math.fsum(math.log1p(x) for x in xs))
        upper = math.exp(math.fsum(xs) + 0.25 / 200000)
        assert lower <= w.value <= upper

    def test_monotone_decreasing_grid(self):
        vals = [W_at_one(b).value for b in (1.5, 2.0, 3.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_certified_error_small(self):
        for beta in (1.5, 2.0, 3.0):
            assert W_at_one(beta).error_bound < 1e-10


def test_zeta_tail_certificate():
    for s, N in [(2.0, 10), (1.5, 25), (4.0, 8)]:
        M = 2_000_000
        brute = sum(i ** -s for i in range(N + 1, M + 1))
        # integral bracket for the part of the tail the brute sum misses
        missing_lo = (M + 1) ** (1 - s) / (s - 1)
        missing_hi = M ** (1 - s) / (s - 1)
        est, err = _zeta_tail(s, N)
        assert est <= brute + missing_hi + err + 1e-12
        assert est >= brute + missing_lo - err - 1e-12


class TestLeftTailBound:
    def test_alpha_to_zero_limit_is_one(self):
        res = left_tail_bound(30, 2.0, [1e-9])
        assert res.bound == pytest.approx(1.0, abs=1e-6)

    def test_dominates_exact(self):
        exact = float(good_probability_exact(20, 1.0))
        res = left_tail_bound(20, 1.0)
        assert res.bound >= exact
        assert all(b >= exact for _, b in res.grid)

    def test_trend_in_m(self):
        b100 = left_tail_bound(100, 2.0).bound
        b1000 = left_tail_bound(1000, 2.0).bound
        assert b1000 < b100

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            left_tail_bound(10, 1.0, [])


class TestRightTailBound:
    def test_beta_to_one_limit(self):
        res = right_tail_bound(50, 3.0, 0.999999)
        assert res.bound == pytest.approx(1.0, rel=1e-3)

    def test_dominates_exact(self):
        exact = 1.0 - float(good_probability_exact(20, 5.0))
        res = right_tail_bound(20, 5.0, 0.9)
        assert res.bound >= exact

    def test_trend_with_scaling_choice(self):
        vals = []
        for m in (1000, 10000):
            c = 1.0 + math.log(m)
            beta = 1.0 - 1.0 / math.log(m) ** 2
            vals.append(right_tail_bound(m, c, beta).bound)
        assert vals[1] < vals[0]

    def test_rejects_bad_beta(self):
        for beta in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                right_tail_bound(10, 1.0, beta)


class TestJensen:
    def test_hand_case(self):
        res = jensen_check(1.0, 0.0, 0.5, 10)
        assert res.ok
        w1 = float(W_direct(1, 10))
        w0 = float(W_direct(0, 10))
        w2 = float(W_direct(2, 10))
        assert res.lhs == pytest.approx(w1, rel=1e-9)
        assert res.rhs == pytest.approx(math.sqrt(w0 * w2), rel=1e-9)

    def test_alpha_zero_equality(self):
        res = jensen_check(0.0, 1.5, 0.3, 8)
        assert res.ok
        assert res.lhs_log == pytest.approx(res.rhs_log, abs=1e-12)

    def test_random_sweep(self):
        rng = random.Random(12)
        for _ in range(200):
            alpha = rng.uniform(0.0, 4.0)
            beta = rng.uniform(0.0, 4.0)
            gamma = rng.uniform(0.05, 0.95)
            m = rng.randrange(1, 31)
            assert jensen_check(alpha, beta, gamma, m).ok

    def test_rejects_bad_gamma(self):
        for gamma in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                jensen_check(1.0, 0.0, gamma, 5)


class TestAsymptoticDiagnostic:
    def test_exact_small_m(self):
        rows = asymptotic_diagnostic(2.0, [2])
        assert rows[0].scaled == pytest.approx(4 * 5 / 64, rel=1e-9)

    def test_trend_beta_two(self):
        rows = asymptotic_diagnostic(2.0, [100, 500, 2000])
        devs = [r.relative_deviation for r in rows]
        assert devs[0] > devs[1] > devs[2]

    def test_trend_beta_three(self):
        rows = asymptotic_diagnostic(3.0, [100, 1000])
        assert rows[1].relative_deviation < rows[0].relative_deviation

    def test_rejects_small_beta(self):
        with pytest.raises(ValueError):
            asymptotic_diagnostic(1.0, [10])

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            asymptotic_diagnostic(2.0, [20001])
