import math
import random
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from coset_ewens import series
from coset_ewens.errors import NumericRangeError, ResourceLimitError
from coset_ewens.partitions import enumerate_partitions, iter_counts, partition_count
from coset_ewens.series import (
    W_at_one,
    W_coefficient,
    W_direct,
    W_one_closed,
    W_series_coeffs,
    asymptotic_diagnostic,
    jensen_check,
    left_tail_bound,
    log_W_direct,
    log_W_one_closed,
    right_tail_bound,
    _aligned_zeros,
    _exact_coeffs,
    _float_product,
    _zeta_tail,
)
from coset_ewens.cosets import predicted_intersection_order
from coset_ewens.ewens import good_probability_exact


def log_f(counts) -> float:
    """Oracle: log f of the partition with these (part, multiplicity)
    counts, evaluated part by part (safe for huge multiplicities)."""
    return sum(r * math.log(2 * part) + math.lgamma(r + 1) for part, r in counts)


def one_beta_product(beta: float, M: int) -> np.ndarray:
    """Oracle: the generating-function product for one beta, factor by
    factor, with a fresh array per factor and no skipping."""
    acc = np.zeros(M + 1)
    acc[0] = 1.0
    for i in range(1, M + 1):
        log2i = math.log(2.0 * i)
        coefs = [math.exp(-beta * (math.lgamma(j + 1) + j * log2i))
                 for j in range(1, M // i + 1)]
        new = acc.copy()
        for j, cf in enumerate(coefs, start=1):
            step = i * j
            new[step:] += acc[: M + 1 - step] * cf
        acc = new
    return acc


def oracle_W(beta: float, m: int) -> float:
    return float(one_beta_product(beta, m)[m])


def tail_grid(tail: str, m: int, c: float, params, W) -> tuple:
    """A tail bound's grid point by point, with W(beta, m) taken from W."""
    log_m, log_w1 = math.log(m), log_W_one_closed(m)
    if tail == "left":
        return tuple((a, math.exp(c * a * log_m - log_w1) * W(a + 1.0, m)) for a in params)
    return tuple((b, math.exp(-c * (1.0 - b) * log_m - log_w1) * W(b, m)) for b in params)


REL = 1e-13  # the float kernel against the product oracle and the exact mode


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= REL * np.abs(want)), \
        float(np.max(np.abs(got - want) / np.abs(want)))


def assert_grid_close(got, want):
    assert [p for p, _ in got] == [p for p, _ in want]
    assert_close([v for _, v in got], [v for _, v in want])


def W_at_one_first_order(beta: float) -> tuple[float, float]:
    """Oracle: the product at z = 1 as (value, error bound), summed over
    i <= N in 10^6-element chunks with the omitted factors bracketed to
    first order, x - x^2/2 <= log I_beta(x) <= x; N ~ 1e7 at beta = 1.2."""
    target = 2e-11
    need = (2.0 ** (-2.0 * beta) / ((2.0 * beta - 1.0) * target)) ** (1.0 / (2.0 * beta - 1.0))
    N = max(1000, int(need) + 1)
    jmax = 40
    inv_fact_pow = np.array([math.exp(-beta * math.lgamma(j + 1))
                             for j in range(1, jmax + 1)])
    log_total = 0.0
    chunk = 1_000_000
    for start in range(1, N + 1, chunk):
        stop = min(N, start + chunk - 1)
        x = np.arange(start, stop + 1, dtype=np.float64)
        x *= 2.0
        np.power(x, -beta, out=x)
        series = np.zeros_like(x)
        p = np.ones_like(x)
        term = np.empty_like(x)
        for j in range(jmax):
            p *= x
            series += np.multiply(p, inv_fact_pow[j], out=term)
            if p.max() * inv_fact_pow[min(j + 1, jmax - 1)] < 1e-25:
                break
        log_total += float(np.sum(np.log1p(series, out=series)))
    s1, e1 = _zeta_tail(beta, N)
    s2, e2 = _zeta_tail(2.0 * beta, N)
    tail_mid = 2.0 ** (-beta) * s1 - 0.25 * (2.0 ** (-2.0 * beta)) * s2
    uncertainty = (0.25 * (2.0 ** (-2.0 * beta)) * s2
                   + 2.0 ** (-beta) * e1 + 2.0 ** (-2.0 * beta) * e2
                   + 1e-13)
    value = math.exp(log_total + tail_mid)
    return value, value * math.expm1(uncertainty) + 1e-15


def second_order_remainder(beta: float, x: float) -> Decimal:
    """R(x) = log I_beta(x) - x - (2^{-beta} - 1/2) x^2 in 60-digit decimal.
    With I_beta(x) = 1 + y and y = x + a x^2 + rho, R is summed as
    rho - (y^2 - x^2)/2 + (log(1 + y) - y + y^2/2), each series taken
    term by term: at x ~ 1e-132 the difference log I_beta(x) - x is lost
    at any fixed precision, while these terms are all of order x^3."""
    with localcontext() as ctx:
        ctx.prec = 60
        b, x = Decimal(beta), Decimal(x)
        a = (-b * Decimal(2).ln()).exp()
        rho = sum(x**j * (-b * Decimal(math.factorial(j)).ln()).exp() for j in range(3, 80))
        d = a * x * x + rho  # y - x
        y = x + d
        log_rest = sum((-1) ** (k + 1) * y**k / k for k in range(3, 120))
        return rho - d * (2 * x + d) / 2 + log_rest


def fraction_product(beta: int, M: int) -> list[Fraction]:
    """Oracle: the same product over exact rationals."""
    acc = [Fraction(0)] * (M + 1)
    acc[0] = Fraction(1)
    for i in range(1, M + 1):
        new = list(acc)
        for j in range(1, M // i + 1):
            coef = Fraction(1, math.factorial(j) ** beta * (2 * i) ** (beta * j))
            step = i * j
            for d in range(M - step + 1):
                if acc[d]:
                    new[d + step] += acc[d] * coef
        acc = new
    return acc


def fraction_W(beta: int, m: int) -> Fraction:
    """Oracle: one Fraction per partition."""
    return sum((Fraction(1, predicted_intersection_order(lam) ** beta)
                for lam in enumerate_partitions(m)), Fraction(0))


# the direct sums below read each m for several betas: one enumeration per m
@lru_cache(maxsize=None)
def quotients(m: int) -> tuple[int, ...]:
    """2^m m! / f of every partition of m (every f divides 2^m m!)."""
    top = 2**m * math.factorial(m)
    return tuple(top // f for _, f in iter_counts(m))


@lru_cache(maxsize=None)
def log_fs(m: int) -> tuple[float, ...]:
    return tuple(log_f(counts) for counts, _ in iter_counts(m))


def integer_W(beta: int, m: int) -> Fraction:
    """Oracle for a whole beta: one integer sum sum (2^m m!/f)^beta over
    the common denominator (2^m m!)^beta; fast enough for m = 40, where
    one Fraction per partition is not."""
    return Fraction(sum(q**beta for q in quotients(m)), (2**m * math.factorial(m)) ** beta)


def fsum_W(beta: float, m: int) -> float:
    """Oracle: exp(-beta log f) per partition, summed by fsum (exactly
    rounded, so the enumeration order does not matter)."""
    return math.fsum(math.exp(-beta * v) for v in log_fs(m))


def logsumexp_W(beta: float, m: int) -> float:
    """Oracle: log W(beta, m) as a log-sum-exp over partitions."""
    logs = [-beta * v for v in log_fs(m)]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


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
        with pytest.raises(ResourceLimitError):  # the series kernel's cap
            W_direct(0.5, series.SERIES_MAX_M + 1)
        for beta, m in ((1e300, 40), (10**6, 40), (Fraction(81), 40), (801.0, 4)):
            with pytest.raises(ResourceLimitError):  # beta * m > 3200
                W_direct(beta, m)
        assert W_direct(800, 4) > 0

    def test_exact_equals_fraction_oracle(self):
        for beta in (0, 1, 2, 3):
            for m in range(31):
                assert W_direct(beta, m) == fraction_W(beta, m)

    def test_float_matches_fsum_oracle(self):
        for beta in (0.3, 0.5, 1.5, 2.75):
            assert_close([W_direct(beta, m) for m in range(31)],
                         [fsum_W(beta, m) for m in range(31)])

    def test_log_matches_logsumexp_oracle(self):
        for beta in (0.5, 1.5, 3.2):
            assert_close([log_W_direct(beta, m) for m in range(31)],
                         [logsumexp_W(beta, m) for m in range(31)])

    def test_rejects_negative_m(self):
        for call in (lambda: W_direct(0.5, -1), lambda: W_direct(1, -1),
                     lambda: log_W_direct(1.0, -1), lambda: jensen_check(0.5, 1.5, 0.5, -1)):
            with pytest.raises(ValueError):
                call()

    def test_non_finite_beta_is_value_error(self):
        for beta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                W_direct(beta, 5)
            with pytest.raises(ValueError):
                log_W_direct(beta, 5)

    def test_beta_past_float64_is_value_error(self):
        # as a non-finite beta is, not the OverflowError of float(beta)
        with pytest.raises(ValueError, match="beta"):
            W_direct(Fraction(10**400, 3), 5)
        with pytest.raises(ValueError, match="beta"):
            log_W_direct(Fraction(-10**400, 3), 5)
        with pytest.raises(ValueError, match="beta"):
            W_series_coeffs(Fraction(10**400, 3), 5)

    def test_past_float64_is_numeric_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid-value warning on the way
            for call in (lambda: W_direct(-10.0, 60),   # exp of one term overflows
                         lambda: W_direct(-3.2, 60),    # every term finite, the sum is not
                         lambda: W_direct(-1e308, 5),   # -beta log f is +inf
                         lambda: log_W_direct(1e308, 5),
                         lambda: log_W_direct(-1e308, 5),
                         lambda: log_W_direct(1e307, 30)):  # W underflows to 0
                with pytest.raises(NumericRangeError):
                    call()
            # a negative beta has a finite result
            assert_close(W_direct(-1.0, 12), fsum_W(-1.0, 12))
            assert isinstance(W_direct(-1.0, 12), float)

    def test_log_below_normal_range_is_numeric_range(self):
        # W(200.5, 30) ~ e^-821 is below float64's normal range: no log of a subnormal
        assert logsumexp_W(200.5, 30) < math.log(sys.float_info.min)
        with pytest.raises(NumericRangeError):
            log_W_direct(200.5, 30)

    def test_type_follows_value(self):
        for m in (0, 5, 12):
            assert W_direct(1.0, m) == W_direct(1, m) == W_direct(Fraction(1), m)
            assert W_direct(0.0, m) == partition_count(m)
            for beta in (1.0, 2.0, Fraction(2), 3):
                assert isinstance(W_direct(beta, m), Fraction)
            for beta in (0.5, 2.5, -1.0, Fraction(1, 2)):
                assert isinstance(W_direct(beta, m), float)
        assert W_series_coeffs(2.0, 12) == W_series_coeffs(Fraction(2), 12) \
            == W_series_coeffs(2, 12)
        assert W_series_coeffs(2.0, 12).exact


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, Fraction(10**400, 3)],
                         ids=["nan", "inf", "-inf", "past-float64"])
@pytest.mark.parametrize("call", [
    lambda b: W_series_coeffs(b, 5),
    lambda b: W_coefficient(b, 5),
    lambda b: W_at_one(b),
    lambda b: asymptotic_diagnostic(b, [10]),
    lambda b: W_direct(b, 5),
    lambda b: log_W_direct(b, 5),
], ids=["W_series_coeffs", "W_coefficient", "W_at_one", "asymptotic_diagnostic",
        "W_direct", "log_W_direct"])
def test_beta_not_finite_in_float64_is_value_error(call, beta):
    with pytest.raises(ValueError, match="beta must be finite"):
        call(beta)


class TestWOneClosed:
    def test_small(self):
        assert W_one_closed(1) == Fraction(1, 2)
        assert W_one_closed(2) == Fraction(3, 8)

    def test_matches_direct(self):
        for m in (1, 5, 12):
            assert W_one_closed(m) == integer_W(1, m)

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
                assert ts.coefficient(m) == integer_W(beta, m)

    def test_float_matches_direct(self):
        for beta in (0.5, 1.5):
            ts = W_series_coeffs(beta, 25)
            for m in range(26):
                d = fsum_W(beta, m)
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
            W_series_coeffs(17, 200)
        # past M = 200 a whole beta takes the float kernel
        assert not W_series_coeffs(1, 201).exact

    def test_radius_sanity_at_2000(self):
        # coefficients grow sub-exponentially below beta=1 and decay
        # polynomially above, so the m-th root sits near 1 on both sides
        for beta in (0.5, 1.0, 2.0):
            root = W_coefficient(beta, 2000) ** (1 / 2000)
            assert abs(root - 1.0) < 0.1


class TestBatchedKernel:
    """The exp-of-log float kernel: within 1e-13 of the product oracle, and
    each batched column bit-identical to its own one-beta call."""

    @pytest.mark.parametrize("M, betas", [
        (0, (0.5, 1.0, 2.0)),
        (1, (0.5, 1.0, 2.0)),
        (2, (0.0, 0.5, 1.0, 2.0)),
        (7, (0.1, 0.5, 0.99, 1.0, 1.5, 3.0, 9.0)),
        # the log-series coefficients of beta = 16 and 40 underflow at small j:
        # these columns exercise the early stop of the log-series recurrence
        (200, (0.3, 0.9, 1.001, 1.5, 2.5, 9.0, 16.0, 40.0)),
        (1000, (0.5, 1.5, 9.0)),
    ])
    def test_columns_equal_one_beta_loop(self, M, betas):
        grid = _float_product(betas, M)
        assert grid.shape == (M + 1, len(betas))
        for k, b in enumerate(betas):
            assert_close(grid[:, k], one_beta_product(b, M))
            assert np.array_equal(grid[:, k], _float_product((b,), M)[:, 0]), b
        assert grid.tobytes() == _float_product(betas, M).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 20001), (3, 7), (65, 1001)])
    def test_kernel_buffers_start_on_64_bytes(self, shape):
        # each float64 array held before the call shifts the heap by 8 bytes or so
        held = []
        for k in range(1, 9):
            held.append(np.empty(k))
            a = _aligned_zeros(shape)
            assert a.ctypes.data % 64 == 0
            assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
            assert not a.any()
            a[...] = 1.0  # the whole view is writable memory of its own
            held.append(a)

    def test_exact_mode_agreement(self):
        for beta in range(5):
            exact = _exact_coeffs(beta, 200)
            got = _float_product((float(beta),), 200)[:, 0].tolist()
            for g, e in zip(got, exact):
                assert abs(Fraction(g) - e) <= Fraction(REL) * e, beta

    @pytest.mark.parametrize("beta, M", [
        (-1.5, 30),
        # W(-0.5, 2000) >= (2^2000 2000!)^{1/2} ~ 1e3169 is out of float64 range
        (-0.5, 200),
        (0.0, 2000), (0.3, 2000), (0.9, 2000), (1.001, 2000), (1.5, 2000),
        (2.5, 2000), (9.0, 2000), (16.0, 2000), (40.0, 2000),
    ])
    def test_product_oracle_agreement(self, beta, M):
        assert_close(_float_product((beta,), M)[:, 0], one_beta_product(beta, M))

    def test_out_of_range_for_the_oracle_too(self):
        with pytest.raises(OverflowError):
            one_beta_product(-0.5, 2000)
        with pytest.raises(NumericRangeError):
            _float_product((-0.5,), 2000)

    def test_unsorted_duplicated_grid_in_caller_order(self):
        alphas = [2.0, 0.5, 7.5, 2.0, 0.01, 0.5, 15.0, 39.0, 1e-9]
        assert_grid_close(left_tail_bound(150, 2.0, alphas).grid,
                          tail_grid("left", 150, 2.0, alphas, oracle_W))
        betas = [0.9, 0.2, 0.999, 0.9, 0.5, 0.2]
        assert_grid_close(right_tail_bound(150, 3.0, betas).grid,
                          tail_grid("right", 150, 3.0, betas, oracle_W))

    @pytest.mark.parametrize("count", [65, 129])
    def test_grid_crossing_the_block_boundary(self, count):
        rng = random.Random(count)
        alphas = [rng.uniform(1e-3, 12.0) for _ in range(count)]
        alphas += alphas[:3]
        left = left_tail_bound(40, 1.5, alphas).grid
        assert left == tail_grid("left", 40, 1.5, alphas, W_coefficient)
        assert_grid_close(left, tail_grid("left", 40, 1.5, alphas, oracle_W))
        betas = [rng.uniform(0.01, 0.99) for _ in range(count)]
        right = right_tail_bound(40, 1.5, betas).grid
        assert right == tail_grid("right", 40, 1.5, betas, W_coefficient)
        assert_grid_close(right, tail_grid("right", 40, 1.5, betas, oracle_W))

    def test_single_beta_path_is_the_batched_kernel(self):
        for beta, M in [(1.5, 300), (0.7, 64), (-1.5, 30)]:
            ts = W_series_coeffs(beta, M)
            kernel = _float_product((beta,), M)[:, 0]
            assert ts.coefficients == tuple(kernel.tolist())
            assert W_coefficient(beta, M) == kernel[M]
            assert_close(ts.coefficients, one_beta_product(beta, M))

    def test_tail_grids_equal_per_point_path(self):
        alphas = [2.0, 0.01, 7.5, 2.0, 0.3, 1e-9, 15.0]
        assert left_tail_bound(150, 2.0, alphas).grid == \
            tail_grid("left", 150, 2.0, alphas, W_coefficient)
        betas = [0.9, 0.2, 0.999, 0.9, 0.5]
        assert right_tail_bound(150, 2.0, betas).grid == \
            tail_grid("right", 150, 2.0, betas, W_coefficient)

    def test_tail_bounds_capped_at_series_max(self):
        m = series.SERIES_MAX_M + 1
        with pytest.raises(ResourceLimitError):
            left_tail_bound(m, 2.0, [1.0])
        with pytest.raises(ResourceLimitError):
            right_tail_bound(m, 2.0, 0.5)
        with pytest.raises(ResourceLimitError):
            W_coefficient(1.5, m)

    def test_grid_length_capped_before_any_allocation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("allocated")
        monkeypatch.setattr(series, "_float_product", fail)
        monkeypatch.setattr(series.np, "geomspace", fail)
        long_grid = [0.5] * (series.TAIL_GRID_MAX_POINTS + 1)
        with pytest.raises(ResourceLimitError):
            series.default_alpha_grid(10**13)
        with pytest.raises(ResourceLimitError):
            left_tail_bound(40, 1.5, long_grid)
        with pytest.raises(ResourceLimitError):
            right_tail_bound(40, 1.5, long_grid)

    def test_prefactor_overflow_runs_no_kernel(self, monkeypatch):
        def no_kernel(betas, M):
            raise AssertionError("kernel ran")
        monkeypatch.setattr(series, "_float_product", no_kernel)
        with pytest.raises(NumericRangeError):
            left_tail_bound(1000, 100.0)
        with pytest.raises(NumericRangeError):
            right_tail_bound(1000, -1e6, 0.5)


class TestExactIntegerMode:
    @pytest.mark.parametrize("beta, M", [(0, 120), (1, 120), (2, 120), (3, 120)])
    def test_equals_fraction_product(self, beta, M):
        assert _exact_coeffs(beta, M) == fraction_product(beta, M)


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

    @pytest.mark.parametrize("beta", [1.2, 1.3, 1.5, 2.0, 3.0, 5.0, 20.0])
    def test_agrees_with_first_order_oracle(self, beta):
        w = W_at_one(beta)
        value, bound = W_at_one_first_order(beta)
        assert abs(w.value - value) <= w.error_bound + bound
        assert w.error_bound <= bound

    @pytest.mark.parametrize("beta", [1 + 1e-9, 1.2, 2.0, 5.0, 40.0])
    def test_second_order_remainder_bracket(self, beta):
        # the docstring's bracket -0.56 x^3 <= R(x) <= 0.64 x^3 on x <= 1/6,
        # whose upper end W_at_one uses as the half-width constant
        for x in (1 / 6, 1e-2, 1e-4, (2.0 * 1001) ** -beta):
            r = second_order_remainder(beta, x) / Decimal(x) ** 3
            assert -0.56 <= r <= series._R3, (x, r)

    def test_truncation_near_one(self):
        # N shrinks as beta grows, so beta = 1.001 is near the largest N
        assert W_at_one(1.001).truncation <= 120_000

    def test_overflow_near_one_is_numeric_range(self):
        with pytest.raises(NumericRangeError):
            W_at_one(1.0001)


def test_zeta_tail_certificate():
    # (3.6, 1000) and (6.0, 1000): S(3 beta) sums of W_at_one, at beta = 1.2 and 2
    for s, N in [(2.0, 10), (1.5, 25), (4.0, 8), (3.6, 1000), (6.0, 1000)]:
        M = 2_000_000
        brute = math.fsum(i ** -s for i in range(N + 1, M + 1))
        # integral bracket for the part of the tail the brute sum misses
        missing_lo = (M + 1) ** (1 - s) / (s - 1)
        missing_hi = M ** (1 - s) / (s - 1)
        est, err = _zeta_tail(s, N)
        slack = 1e-12 * brute  # the brute sum's own rounding, relative
        assert est <= brute + missing_hi + err + slack
        assert est >= brute + missing_lo - err - slack


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


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("tail", [lambda c: left_tail_bound(100, c),
                                  lambda c: right_tail_bound(100, c, 0.5)],
                         ids=["left", "right"])
def test_tail_bounds_refuse_non_finite_c(tail, c, monkeypatch):
    def no_kernel(betas, M):
        raise AssertionError("kernel ran")
    monkeypatch.setattr(series, "_float_product", no_kernel)
    with pytest.raises(ValueError, match="c must be finite"):
        tail(c)


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

    def test_bound_past_float64_is_numeric_range(self):
        # the prefactor exp(704.98) is finite, W(0.01, 100) ~ 1.1e8 is not small
        with pytest.raises(NumericRangeError):
            right_tail_bound(100, -154.0, 0.01)


class TestJensen:
    def test_hand_case(self):
        res = jensen_check(1.0, 0.0, 0.5, 10)
        assert res.ok
        w1 = float(integer_W(1, 10))
        w0 = float(integer_W(0, 10))
        w2 = float(integer_W(2, 10))
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

    def test_m_above_series_cap_refused_before_allocating(self, monkeypatch):
        def no_buffers(shape):
            raise AssertionError("kernel allocated")
        monkeypatch.setattr(series, "_aligned_zeros", no_buffers)
        with pytest.raises(ResourceLimitError):
            jensen_check(0.5, 1.5, 0.5, series.SERIES_MAX_M + 1)


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

    @pytest.mark.parametrize("m_list", [[-1, 5], [0], [5, 0, 10]])
    def test_rejects_m_below_one_before_the_kernel(self, m_list, monkeypatch):
        def refuse(betas, M):
            raise AssertionError("kernel ran")

        monkeypatch.setattr(series, "_float_product", refuse)
        with pytest.raises(ValueError):
            asymptotic_diagnostic(2.0, m_list)
