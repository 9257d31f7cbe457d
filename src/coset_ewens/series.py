"""The analytic layer: weighted partition sums W(beta, m), their
generating-function product, the value of that product at z = 1, moment
tail bounds, and convergence diagnostics.

Notation used throughout the module: f(lam) is the intersection order
prod (2i)^{r_i} r_i!, W(beta, m) = sum over partitions of m of
f(lam)^{-beta}, and the generating function
sum_m W(beta, m) z^m factorizes as prod_{i>=1} I_beta(z^i / (2i)^beta)
with I_beta(z) = sum_j z^j / (j!)^beta.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .errors import NumericRangeError, ResourceLimitError, _finite

SERIES_EXACT_MAX_M = 200
# exact integers grow like beta * M * log2(2M) bits; beta = 16 at M = 200
# takes about 5 s (2-core Xeon), and an unbounded beta would exhaust memory
SERIES_EXACT_MAX_BETA_M = 3200
SERIES_MAX_M = 20000
_BLOCK = 64  # float kernel columns per call: bounds a long grid's working set
TAIL_GRID_MAX_POINTS = 1024


def _is_whole(beta) -> bool:
    """A nonnegative whole number, by value: 1, 1.0 and Fraction(1) alike."""
    if isinstance(beta, float):
        return beta >= 0 and beta.is_integer()
    return isinstance(beta, (int, Fraction)) and beta >= 0 and beta == int(beta)


# bench/jobs.py calls this name: keep it until the job list changes (ROADMAP 2(g))
def W_direct(beta, m: int):
    """W(beta, m), coefficient m of ``W_series_coeffs(beta, m)``: an exact
    Fraction for a nonnegative whole beta at m <= 200 and beta * m <= 3200,
    a float otherwise up to m <= 20000.  The direct sums over partitions
    are the tests' oracle."""
    return W_series_coeffs(beta, m).coefficient(m)


# bench/tracer.py wraps this name by getattr: keep it until the tracer changes (ROADMAP 2(c))
def log_W_direct(beta: float, m: int) -> float:
    """log W(beta, m) from the float kernel's coefficient m; a W outside
    float64's normal range (past it, or below 2^-1022) is a
    NumericRangeError rather than the log of an inf or a subnormal."""
    w = W_coefficient(beta, m)
    if w < sys.float_info.min:
        raise NumericRangeError(f"W({beta}, {m}) is outside float64's normal range")
    return math.log(w)


def W_one_closed(m: int) -> Fraction:
    """W(1, m) = (2m)! / (2^{2m} (m!)^2) as an exact rational."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Fraction(math.factorial(2 * m), 4**m * math.factorial(m) ** 2)


def log_W_one_closed(m: int) -> float:
    """log W(1, m) through lgamma; absolute error below 1e-10 for the
    supported range (m up to a few 10^4)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (math.lgamma(2 * m + 1) - 2 * m * math.log(2.0)
            - 2 * math.lgamma(m + 1))


@dataclass(frozen=True)
class TruncatedSeries:
    """Power-series coefficients 0..truncation, exact or float."""

    coefficients: tuple
    truncation: int
    exact: bool

    def coefficient(self, k: int):
        if not 0 <= k <= self.truncation:
            raise ValueError(f"coefficient index {k} outside 0..{self.truncation}")
        return self.coefficients[k]


def W_series_coeffs(beta, M: int) -> TruncatedSeries:
    """Coefficients of prod_{i>=1} I_beta(z^i/(2i)^beta) through degree M.

    Factor i only contributes degrees >= i, so cutting every factor's
    j-sum at i*j <= M and the product at degree M reproduces every
    coefficient m <= M without truncation error.  Exact rationals for a
    nonnegative whole beta (by value: 1, 1.0 and Fraction(1) alike) and
    M <= 200; otherwise float64, for M <= 20000.  A non-finite beta, or
    one past float64, is a ValueError.
    """
    b = _finite(beta, "beta")
    if M < 0:
        raise ValueError("M must be nonnegative")
    if _is_whole(beta) and M <= SERIES_EXACT_MAX_M:
        if b * M > SERIES_EXACT_MAX_BETA_M:
            raise ResourceLimitError(
                f"exact series mode limited to beta * M <= {SERIES_EXACT_MAX_BETA_M}")
        return TruncatedSeries(tuple(_exact_coeffs(int(beta), M)), M, True)
    return TruncatedSeries(tuple(_float_product((b,), M)[:, 0].tolist()), M, False)


def _exact_coeffs(beta: int, M: int) -> list[Fraction]:
    # a[n] = (2^n n!)^beta W(beta, n) is an integer (f(lam) divides 2^n n!),
    # and so is each factor's multiplier: no gcd until the final division
    a = [0] * (M + 1)
    a[0] = 1
    for i in range(1, M + 1):
        new = list(a)
        for j in range(1, M // i + 1):
            step = i * j
            w = math.factorial(step) // (math.factorial(j) * i**j) << (step - j)
            for d in range(M - step + 1):
                if a[d]:
                    new[d + step] += a[d] * (math.comb(d + step, d) * w) ** beta
        a = new
    return [Fraction(a[n], (2**n * math.factorial(n)) ** beta) for n in range(M + 1)]


_SERIES_RANGE = "series coefficients through degree {} are out of float64 range"


def _aligned_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Zeroed float64 array whose data starts on a 64-byte boundary (numpy
    promises 16). The kernel's three buffers each take one, so their
    placement, and with it the kernel's speed, does not follow earlier
    heap use."""
    nbytes = math.prod(shape) * 8
    raw = np.zeros(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(np.float64).reshape(shape)


@np.errstate(over="ignore", invalid="ignore")  # inf or nan: NumericRangeError
def _float_product(betas: Sequence[float], M: int) -> np.ndarray:
    """Coefficients 0..M of the product for each beta, as the columns of an
    (M+1, len(betas)) array, by exp-of-log (Knuth, TAOCP Vol. 2, 4.7): u is the
    log-series of I_beta(z / 2^beta), j u_j = j c_j - sum_{k<j} k u_k c_{j-k}
    with c_j = (j!)^{-beta} 2^{-beta j} = 0 for j >= jc, stopped once jc - 1 u_j
    in a row are 0 for every beta (all later u_j are then 0); k L_k = sum_{ij=k}
    j u_j i^{1 - beta j}; n a_n = sum_{k<=n} k L_k a_{n-k}.  Each beta is a row
    reduced along its own axis, without BLAS: its bits do not depend on the grid."""
    if M > SERIES_MAX_M:
        raise ResourceLimitError(f"series kernel limited to degree <= {SERIES_MAX_M}")
    B = len(betas)
    crev, ju, tmp = (_aligned_zeros((B, M + 1)) for _ in range(3))
    try:
        jc = 0  # crev[:, M - j] = c_j, nonzero for j < jc
        while jc <= M and any(row := [math.exp(-b * (math.lgamma(jc + 1) + jc * math.log(2.0)))
                                      for b in betas]):
            crev[:, M - jc] = row
            jc += 1
        J = zeros = 0  # ju[:, j] = j u_j
        while J < M and zeros < jc - 1:
            J += 1
            np.multiply(ju[:, 1:J], crev[:, M - J + 1:M], out=tmp[:, :J - 1])
            ju[:, J] = J * crev[:, M - J] - tmp[:, :J - 1].sum(axis=1)
            zeros = 0 if ju[:, J].any() else zeros + 1
        kL = crev  # the spent buffers are reused
        kL.fill(0.0)
        for j in range(1, J - zeros + 1):
            n = M // j
            w = np.fromiter(chain.from_iterable(map(math.pow, range(1, n + 1), repeat(1.0 - b * j))
                                                for b in betas), float, B * n).reshape(B, n)
            w *= ju[:, j, None]  # in place, to hold no second (B, n) array
            kL[:, j::j] += w
    except OverflowError:
        raise NumericRangeError(_SERIES_RANGE.format(M)) from None
    rev = ju  # rev[:, M - n] = a_n, written before it is read
    rev[:, M] = 1.0
    for n in range(1, M + 1):
        np.multiply(kL[:, 1:n + 1], rev[:, M - n + 1:], out=tmp[:, :n])
        rev[:, M - n] = tmp[:, :n].sum(axis=1) / n
    if not np.isfinite(rev).all():
        raise NumericRangeError(_SERIES_RANGE.format(M))
    return rev[:, ::-1].T


# bench/tracer.py wraps this name by getattr: keep it until the tracer changes (ROADMAP 2(c))
def W_coefficient(beta: float, m: int) -> float:
    """Float W(beta, m) through the series product (degree-exact)."""
    b = _finite(beta, "beta")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return float(_float_product((b,), m)[m, 0])


# --- the product value at z = 1 (beta > 1) ------------------------------

@dataclass(frozen=True)
class WAtOneResult:
    value: float
    error_bound: float
    truncation: int


def _zeta_tail(s: float, N: int) -> tuple[float, float]:
    """sum_{i > N} i^{-s} as (estimate, certified absolute error bound),
    by Euler-Maclaurin with an alternating-remainder bound."""
    est = N ** (1.0 - s) / (s - 1.0) - 0.5 * N ** (-s) + (s / 12.0) * N ** (-s - 1.0)
    rem = (s * (s + 1.0) * (s + 2.0) / 720.0) * N ** (-s - 3.0)
    return est, rem


_R3 = 0.64  # |log I_beta(x) - x - (a - 1/2) x^2| <= _R3 x^3 for x <= 1/6, beta > 1


@lru_cache(maxsize=4)
def W_at_one(beta: float) -> WAtOneResult:
    """prod_{i>=1} I_beta((2i)^{-beta}) with a certified error bound.

    The factors i <= N are summed in log space in one pass.  For the
    omitted ones x = (2i)^{-beta} <= 1/2002; write a = 2^{-beta} < 1/2 and
    I_beta(x) = 1 + y.  For 0 < x <= 1/6, y = x + a x^2 + rho with
    0 <= rho <= e^x - 1 - x - x^2/2 <= x^3/5, so y <= 1.09 x, and
    y - y^2/2 <= log(1 + y) <= y - y^2/2 + y^3/3 bound
    R(x) = log I_beta(x) - x - (a - 1/2) x^2 = rho - (y^2 - x^2)/2 + (log(1+y) - y + y^2/2)
    below by -(y^2 - x^2)/2 >= -0.56 x^3 and above by rho + y^3/3 <= 0.64 x^3.
    With S(s) = sum_{i>N} i^{-s} from ``_zeta_tail``, the omitted log is
    a S(beta) + (a - 1/2) a^2 S(2 beta), applied as a correction, within
    0.64 a^3 S(3 beta) plus the tail sums' own errors and a rounding
    allowance of (log2 N + 8) 2^-53 times the log's size.  N is the least
    value >= 1000 with 0.64 a^3 N^{1 - 3 beta} / (3 beta - 1) <= 5e-12, an
    integral above S(3 beta).  The left side decreases in beta, so
    N < 9e4 for every beta > 1.  Near beta = 1 the value leaves float64:
    NumericRangeError.
    """
    beta = _finite(beta, "beta")
    if beta <= 1.0:
        raise ValueError("W_at_one requires beta > 1 (the product diverges at 1)")
    a = 2.0 ** -beta
    need = (_R3 * a**3 / ((3.0 * beta - 1.0) * 5e-12)) ** (1.0 / (3.0 * beta - 1.0))
    N = max(1000, int(need) + 1)

    jmax = 40
    inv_fact_pow = np.array([math.exp(-beta * math.lgamma(j + 1))
                             for j in range(1, jmax + 1)])
    x = (2.0 * np.arange(1, N + 1)) ** -beta
    series = np.zeros_like(x)
    p = np.ones_like(x)
    for j in range(jmax):
        p *= x
        series += p * inv_fact_pow[j]
        if p.max() * inv_fact_pow[min(j + 1, jmax - 1)] < 1e-25:
            break
    log_total = float(np.sum(np.log1p(series, out=series)))

    (s1, e1), (s2, e2), (s3, e3) = (_zeta_tail(k * beta, N) for k in (1, 2, 3))
    tail_mid = a * s1 + (a - 0.5) * a * a * s2
    uncertainty = (_R3 * a**3 * (s3 + e3) + a * e1 + (0.5 - a) * a * a * e2
                   + (math.log2(N) + 8) * 2.0**-53 * (abs(log_total) + abs(tail_mid)))
    try:
        value = math.exp(log_total + tail_mid)
    except OverflowError:
        raise NumericRangeError(f"W_at_one({beta}) is out of float64 range") from None
    return WAtOneResult(value, value * math.expm1(uncertainty) + 1e-15, N)


# --- tail bounds ---------------------------------------------------------

@dataclass(frozen=True)
class TailBoundResult:
    m: int
    c: float
    parameter_name: str
    parameter: float
    bound: float
    grid: tuple[tuple[float, float], ...]


def _tail_bound(m: int, c: float, name: str, params: Sequence[float],
                exponents: Sequence[float], betas: Sequence[float]) -> TailBoundResult:
    """min over the grid of m^{c e} W(1,m)^{-1} W(beta, m), one (param, e, beta)
    per grid point: every prefactor taken before the kernel runs, then one
    kernel call per block of distinct ascending betas."""
    if m < 1:
        raise ValueError("m must be >= 1")
    _finite(c, "c")
    if len(params) > TAIL_GRID_MAX_POINTS:
        raise ResourceLimitError(f"tail grids limited to {TAIL_GRID_MAX_POINTS} points")
    log_m = math.log(m)
    log_w1 = log_W_one_closed(m)
    try:
        pref = [math.exp(c * e * log_m - log_w1) for e in exponents]
    except OverflowError:
        pref = [math.inf]
    if all(map(math.isfinite, pref)):
        distinct, w = sorted(set(betas)), {}
        for s in range(0, len(distinct), _BLOCK):
            block = distinct[s:s + _BLOCK]
            w.update(zip(block, _float_product(block, m)[m].tolist()))
        grid = tuple((float(q), f * w[b]) for q, f, b in zip(params, pref, betas))
        if all(math.isfinite(v) for _, v in grid):
            best = min(grid, key=lambda t: t[1])
            return TailBoundResult(m, float(c), name, best[0], best[1], grid)
    raise NumericRangeError(f"a tail bound at m={m} is out of float64 range")


def default_alpha_grid(points: int = 64) -> tuple[float, ...]:
    """``points`` alphas spaced geometrically from 1e-3 to 8."""
    if points > TAIL_GRID_MAX_POINTS:
        raise ResourceLimitError(f"tail grids limited to {TAIL_GRID_MAX_POINTS} points")
    return tuple(float(a) for a in np.geomspace(1e-3, 8.0, points))


def left_tail_bound(m: int, c: float, alpha_grid: Sequence[float] | None = None) -> TailBoundResult:
    """Markov bound on P(f <= m^c): min over the grid of
    m^{c a} * W(1,m)^{-1} * W(a+1, m); every grid value is itself valid."""
    alphas = tuple(alpha_grid) if alpha_grid is not None else default_alpha_grid()
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    if any(_finite(a, "alpha") <= 0 for a in alphas):
        raise ValueError("alpha grid entries must be > 0")
    return _tail_bound(m, c, "alpha", alphas, alphas, [a + 1.0 for a in alphas])


def right_tail_bound(m: int, c: float, beta) -> TailBoundResult:
    """Markov bound on P(f > m^c): m^{-c(1-beta)} W(1,m)^{-1} W(beta, m)
    for 0 < beta < 1; a scalar or a grid of betas may be supplied."""
    betas = (beta,) if isinstance(beta, (int, float)) else beta
    betas = tuple(_finite(b, "beta") for b in betas)
    if not betas:
        raise ValueError("beta grid must be nonempty")
    if any(not 0.0 < b < 1.0 for b in betas):
        raise ValueError("beta must lie strictly inside (0, 1)")
    return _tail_bound(m, c, "beta", betas, [-(1.0 - b) for b in betas], betas)


def default_right_beta(m: int, t: float = 1.0) -> float:
    """beta = 1 - t/(log m)^2, the scaling used for the right tail."""
    if m < 3:
        raise ValueError("m must be >= 3 for the default beta")
    b = 1.0 - _finite(t, "t") / math.log(m) ** 2
    if not 0.0 < b < 1.0:
        raise ValueError(f"t={t} gives beta={b} outside (0, 1) at m={m}")
    return b


# --- log-convexity and asymptotics --------------------------------------

@dataclass(frozen=True)
class JensenResult:
    ok: bool
    lhs_log: float
    rhs_log: float

    @property
    def lhs(self) -> float:
        return math.exp(self.lhs_log)

    @property
    def rhs(self) -> float:
        return math.exp(self.rhs_log)


# bench/jobs.py calls this name: keep it until the job list changes (ROADMAP 2(g))
def jensen_check(alpha: float, beta: float, gamma: float, m: int) -> JensenResult:
    """Check W(alpha+beta, m) <= W(beta, m)^{1-gamma} * W(alpha/gamma+beta, m)^{gamma}
    (log-convexity of beta |-> W(beta, m)); compared in log space, with a
    relative slack of 1e-12 for rounding."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly inside (0, 1)")
    _finite(alpha, "alpha"), _finite(beta, "beta")
    lhs = log_W_direct(alpha + beta, m)
    rhs = ((1.0 - gamma) * log_W_direct(float(beta), m)
           + gamma * log_W_direct(alpha / gamma + beta, m))
    ok = lhs <= rhs + 1e-12 * max(1.0, abs(rhs))
    return JensenResult(ok, lhs, rhs)


@dataclass(frozen=True)
class AsymptoticRow:
    m: int
    scaled: float           # m^beta * W(beta, m)
    limit: float            # W_at_one(beta) / 2^beta
    relative_deviation: float


def asymptotic_diagnostic(beta: float, m_list: Sequence[int]) -> list[AsymptoticRow]:
    """Convergence table for m^beta W(beta, m) -> W_at_one(beta)/2^beta
    (beta > 1); deviations shrink as m grows."""
    beta = _finite(beta, "beta")
    if beta <= 1.0:
        raise ValueError("asymptotic_diagnostic requires beta > 1")
    if not m_list:
        raise ValueError("m_list must be nonempty")
    if min(m_list) < 1:
        raise ValueError(f"every m must be >= 1, got {min(m_list)}")
    # index at once: only the listed degrees outlive the kernel's buffers
    coeffs = _float_product((beta,), max(m_list))[list(m_list), 0].tolist()
    limit = W_at_one(beta).value / 2.0**beta
    rows = []
    for m, w in zip(m_list, coeffs):
        scaled = m**beta * w
        rows.append(AsymptoticRow(m, scaled, limit, abs(scaled / limit - 1.0)))
    return rows
