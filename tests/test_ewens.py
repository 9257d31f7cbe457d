import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coset_ewens import cosets, ewens, rng
from coset_ewens.cosets import predicted_intersection_order
from coset_ewens.errors import ResourceLimitError
from coset_ewens.partitions import Partition, enumerate_partitions, iter_partitions
from coset_ewens.series import left_tail_bound, right_tail_bound
from coset_ewens.ewens import (
    SampleReport,
    coset_probability,
    esf_density,
    f_leq_threshold,
    good_probability_exact,
    good_probability_mc,
    sample_partition,
    wilson_radius,
    SAMPLE_MAX_M,
    _chunk_hits,
    _gap_prefix,
    _next_index,
    _sample_parts_chunk,
)
from test_partitions import num_parts, parts_desc
from test_series import log_f

HALF = Fraction(1, 2)


def rising_factorial_esf(lam: Partition, theta) -> Fraction:
    """Oracle: the Ewens density built Fraction by Fraction, as written:
    m!/(theta (theta+1)...(theta+m-1)) * prod (theta/i)^{r_i} / r_i!."""
    th, m = Fraction(theta), lam.m
    out = Fraction(math.factorial(m))
    for j in range(m):
        out /= th + j
    for part, r in lam.counts:
        out *= (th / part) ** r / math.factorial(r)
    return out


class TestEsfDensity:
    def test_equals_fraction_oracle(self):
        for theta in (HALF, 1, Fraction(3, 2), Fraction(2, 7), 5, Fraction(22, 3), 0.25):
            for m in range(1, 19):
                for lam in enumerate_partitions(m):
                    assert esf_density(lam, theta) == rising_factorial_esf(lam, theta)

    def test_m1(self):
        assert esf_density(Partition.parse("1^1"), HALF) == 1

    def test_half_two(self):
        assert esf_density(Partition.parse("2^1"), HALF) == Fraction(2, 3)

    def test_uniform_theta_one(self):
        assert esf_density(Partition.parse("1^2"), 1) == HALF

    def test_sums_to_one(self):
        for theta in (HALF, Fraction(3, 2), 1):
            for m in (1, 4, 9):
                total = sum(esf_density(lam, theta) for lam in enumerate_partitions(m))
                assert total == 1

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            esf_density(Partition.parse("1^1"), 0)
        with pytest.raises(ValueError):
            esf_density(Partition.parse("1^1"), Fraction(-1, 2))


class TestCosetProbability:
    def test_m1(self):
        assert coset_probability(Partition.parse("1^1"), 1) == 1

    def test_m2_rows(self):
        assert coset_probability(Partition.parse("2^1"), 2) == Fraction(2, 3)
        assert coset_probability(Partition.parse("1^2"), 2) == Fraction(1, 3)

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            coset_probability(Partition.parse("2^1"), 3)

    def test_identity_with_ewens_half(self):
        for m in range(1, 17):
            for lam in enumerate_partitions(m):
                assert coset_probability(lam, m) == esf_density(lam, HALF)

    def test_inverse_order_sum(self):
        for m in range(1, 17):
            total = sum(Fraction(1, predicted_intersection_order(lam))
                        for lam in enumerate_partitions(m))
            expected = Fraction(math.factorial(2 * m),
                                2 ** (2 * m) * math.factorial(m) ** 2)
            assert total == expected


class TestFOf:
    """f(lam) = prod (2i)^{r_i} r_i!, named predicted_intersection_order."""

    def test_values(self):
        assert predicted_intersection_order(Partition.parse("1^3")) == 48
        assert predicted_intersection_order(Partition.parse("4^1")) == 8
        assert predicted_intersection_order(Partition.parse("1^1 2^2")) == 64

    def test_log_f_agrees(self):
        for m in range(1, 12):
            for lam in enumerate_partitions(m):
                f = predicted_intersection_order(lam)
                assert log_f(lam.counts) == pytest.approx(math.log(f), rel=1e-12)


class TestThreshold:
    def test_inclusive_boundary(self):
        # m=2, c=2: threshold 4 reached exactly by f=4
        assert f_leq_threshold(4, 2, 2)
        assert not f_leq_threshold(8, 2, 2)

    def test_half_integer_exponent(self):
        assert f_leq_threshold(5, 25, 0.5)  # 25^0.5 = 5 exactly
        assert not f_leq_threshold(6, 25, 0.5)

    def test_irrational_like_float(self):
        assert f_leq_threshold(10, 10, 1.0000001)
        assert not f_leq_threshold(11, 10, 1.0000001)

    def test_agrees_with_float_logs_away_from_boundary(self):
        import random
        rng = random.Random(2)
        for _ in range(300):
            f = rng.randrange(2, 10**9)
            m = rng.randrange(2, 10**6)
            c = rng.uniform(0.1, 5.0)
            expected = math.log(f) < c * math.log(m)
            if abs(math.log(f) - c * math.log(m)) > 1e-6:
                assert f_leq_threshold(f, m, c) == expected


class TestGoodProbabilityExact:
    def test_two_partition_case(self):
        assert good_probability_exact(2, 2) == Fraction(2, 3)

    def test_huge_c(self):
        assert good_probability_exact(2, 60) == 1
        assert good_probability_exact(7, 200) == 1

    def test_monotone_in_c(self):
        vals = [good_probability_exact(12, c) for c in (0.5, 1.5, 2.5, 3.5, 9.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_decreasing_pair(self):
        assert good_probability_exact(40, 3) < good_probability_exact(20, 3)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_c(self, c):
        # as good_probability_mc does
        with pytest.raises(ValueError, match="c must be finite"):
            good_probability_exact(10, c)

    def test_cap(self):
        # the m^2 (part size, weight) pairs alone exceed the budget: refused
        # before 2^m m! is computed
        with pytest.raises(ResourceLimitError, match=r"\(part size, weight\) pairs"):
            good_probability_exact(10**6, 2)

    def test_budget_admits_m_above_60(self):
        assert good_probability_exact(61, 2) == ascending_tail_oracle(61, 2)

    def test_budget_refuses_mid_run(self, monkeypatch):
        # (60, 30) takes about 4 M steps; 1 M admits (60, 2), 3.8 k with
        # its 3600 pairs
        monkeypatch.setattr(ewens, "EXACT_TAIL_WORK", 10**6)
        assert good_probability_exact(60, 2) == ascending_tail_oracle(60, 2)
        with pytest.raises(ResourceLimitError, match="exceeds the work budget"):
            good_probability_exact(60, 30)


def ascending_tail_oracle(m, c) -> Fraction:
    """Oracle: the exact tail by the plain counting DP, part sizes in
    ascending order, dropping a state only once its f passes T (no bound
    on what the smaller parts still add)."""
    top = 2**m * math.factorial(m)
    if f_leq_threshold(top, m, c):
        return Fraction(1)
    t, hi = 0, top  # bisection over the whole range, t passes, hi fails
    while hi - t > 1:
        mid = (t + hi) // 2
        if f_leq_threshold(mid, m, c):
            t = mid
        else:
            hi = mid
    counts: list[dict[int, int]] = [{} for _ in range(m + 1)]
    counts[0][1] = 1
    for i in range(1, m + 1):
        for w in range(m - i, -1, -1):
            for f, n in counts[w].items():
                g, v, r = f, w + i, 1
                while v <= m:
                    g *= 2 * i * r
                    if g > t:
                        break
                    counts[v][g] = counts[v].get(g, 0) + n
                    v += i
                    r += 1
    k_m = Fraction(4**m * math.factorial(m) ** 2, math.factorial(2 * m))
    return k_m * Fraction(sum(n * (top // f) for f, n in counts[m].items()), top)


# enumeration stops short of these; (20, 15) and (40, 12) put T above
# 2^62, where f and its bound are far past 64 bits
@pytest.mark.parametrize("m, c", [(45, 2), (60, 3), (100, 2), (100, 3), (200, 2),
                                  (200, 2.5), (20, 15), (40, 12)])
def test_exact_tail_matches_ascending_dp(m, c):
    assert good_probability_exact(m, c) == ascending_tail_oracle(m, c)


def least_f_table(m: int, t: int) -> np.ndarray:
    """Oracle: lo[k, r], the least f over partitions of r into parts <= k,
    capped at t + 1 (lo[k, 0] = 1), by the same knapsack as the tail: row k
    takes row k - 1 and lets each r gain j parts of size k, a factor
    (2k)^j j!.

    int64 while every product below stays under 2t + 2 < 2^63, else
    Python ints (an object array); an entry is clamped to t // factor + 1
    before it is multiplied, so a product above t never exceeds 2t.
    """
    cap = t + 1
    lo = np.full((m + 1, m + 1), cap, dtype=np.int64 if t < 2**62 else object)
    lo[:, 0] = 1
    for k in range(1, m + 1):
        row, prev = lo[k], lo[k - 1]
        row[:] = prev
        fac, j = 2 * k, 1
        while fac <= t and j * k <= m:
            src = np.minimum(prev[:m + 1 - j * k], t // fac + 1)
            np.minimum(row[j * k:], src * fac, out=row[j * k:])
            j += 1
            fac *= 2 * k * j
        np.minimum(row, cap, out=row)
    return lo


@pytest.mark.parametrize("t", [2 * 12 - 1, 2000, 2**62 - 1, 2**62])
def test_least_f_table(t):
    # the oracle itself, against enumeration, on both sides of its int64 rows
    m = 12
    lo = least_f_table(m, t)
    assert lo.dtype == (np.int64 if t < 2**62 else object)
    for k in range(m + 1):
        for r in range(m + 1):
            fs = [predicted_intersection_order(lam) for lam in iter_partitions(r)
                  if lam.counts[-1][0] <= k] if r else [1]
            assert lo[k, r] == min([*fs, t + 1]), (k, r)


@pytest.mark.parametrize("t", [2 * 12 - 1, 2000, 2**62])
def test_least_f_bound_below_enumeration(t):
    for k in range(13):
        for r in range(13):
            fs = [predicted_intersection_order(lam) for lam in iter_partitions(r)
                  if lam.counts[-1][0] <= k] if r else [1]
            bound = ewens._least_f_bound(k, r, t)
            if fs:
                assert bound <= min(fs), (k, r)
            else:  # k = 0 < r: no partition, a dead state
                assert bound == t + 1, (k, r)


@pytest.mark.parametrize("m, t", [(30, 2**62 - 1), (30, None), (120, None), (400, None)])
def test_least_f_bound_below_table(m, t):
    # None: t = 2^m m!, the largest f, leaves every cell with k >= 1
    # uncapped; 2^62 - 1 runs the table in int64
    t = t or 2**m * math.factorial(m)
    lo = least_f_table(m, t)
    for k in range(1, m + 1):
        for r in range(m + 1):
            if lo[k, r] <= t:
                assert ewens._least_f_bound(k, r, t) <= lo[k, r], (k, r)


def enumerated_mass_by_f(m):
    """Oracle: exact class mass of each f, summed over every partition of m."""
    agg: dict[int, Fraction] = {}
    for lam in iter_partitions(m):
        f = predicted_intersection_order(lam)
        agg[f] = agg.get(f, Fraction(0)) + coset_probability(lam, m)
    return agg


# integer c hits f = m^c exactly at the boundary; 1.25 is decided on
# integers (f^4 <= m^5); 1.3333333333333333 and 5.1 by float logs, and at
# m >= 30 the threshold search for 5.1 escalates to 50-digit Decimal logs;
# c <= 0 passes no class, 200 every class
DIFFERENTIAL_CS = (0, 1, 2, 3, 4, 1.25, 1.3333333333333333, 5.1, -1.5, 0.5, 9, 200)


@pytest.mark.parametrize("m", [*range(1, 31), 40])
def test_exact_tail_matches_enumeration(m):
    mass = enumerated_mass_by_f(m)
    for c in DIFFERENTIAL_CS:
        want = sum((p for f, p in mass.items() if f_leq_threshold(f, m, c)), Fraction(0))
        assert good_probability_exact(m, c) == want, c


def exact_distribution(m):
    return {lam: coset_probability(lam, m) for lam in enumerate_partitions(m)}


def tv_distance(counts, exact, n):
    classes = set(counts) | set(exact)
    return sum(abs(counts.get(k, 0) / n - float(exact.get(k, 0))) for k in classes) / 2


def partition_counts(lanes, sizes, m) -> Counter:
    """The sampled partitions as a Counter keyed by Partition, from flat
    ``(lane, part size)`` arrays whose lanes run 0..count-1 (m <= 14)."""
    assert m <= 14  # so (m+1)^(m+1), the key bound below, fits in int64
    count = int(lanes.max()) + 1
    mult = np.bincount(lanes * (m + 1) + sizes, minlength=count * (m + 1))
    mult = mult.reshape(count, m + 1)
    # a lane's multiplicities (each <= m) as the base-(m+1) digits of one key
    _, first, k = np.unique(mult @ (m + 1) ** np.arange(m + 1),
                            return_index=True, return_counts=True)
    return Counter({Partition.from_multiplicities(dict(enumerate(row))): n
                    for row, n in zip(mult[first].tolist(), k.tolist())})


def mark_spacings(m: int, theta: float, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the Feller coupling in one array pass, the way
    ``sample_partition`` drew before it became lane 0 of the gap sampler.
    One Ewens(theta) draw per uint64 seed, as flat ``(lanes, sizes)``
    arrays of its parts in mark order.

    Element n is marked independently with probability theta/(theta+n),
    read from stream index n, and element 0 always; the parts are the
    spacings from each mark to the next, the last one running to m.
    """
    n = np.arange(m)
    mark = rng.uniform01_array(seeds[:, None], n) * (theta + n) < theta
    mark[:, 0] = True
    # in the flat (lanes * m) index a lane's last mark runs to the next
    # lane's element 0, always marked, or to the end: that lane's m
    at = np.flatnonzero(mark)
    return at // m, np.diff(at, append=mark.size)


def sequential_counts(m, first_seed, n, block=100_000) -> Counter:
    """Counter of the Ewens(1/2) draws of seeds first_seed..first_seed+n-1,
    drawn by the Feller array pass at most ``block`` lanes at a time."""
    counts = Counter()
    for start in range(first_seed, first_seed + n, block):
        seeds = np.arange(start, min(start + block, first_seed + n), dtype=np.uint64)
        counts += partition_counts(*mark_spacings(m, 0.5, seeds), m)
    return counts


# --- scalar oracles: splitmix64 on Python ints, and the part-opening
# process one draw at a time

MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def raw64(seed: int, index: int) -> int:
    """The ``index``-th 64-bit word of the stream for ``seed``."""
    return mix64((seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64)


def uniform01(seed: int, index: int) -> float:
    """Uniform draw in [0, 1) at stream position ``index``."""
    return (raw64(seed, index) >> 11) * 2.0**-53


def sequential_sizes(m, theta, seed) -> list[int]:
    """Oracle: the part-opening process, element by element.  Entry j is
    the size of the part element j opened, 0 if it joined one."""
    sizes = [0] * m
    root: list[int] = []  # element -> the element that opened its part
    for n in range(m):
        y = uniform01(seed, n) * (theta + n)
        if y < theta:
            root.append(n)
        else:
            # y - theta is in [0, n); the clamp guards the last-ulp case
            root.append(root[min(int(y - theta), n - 1)])
        sizes[root[n]] += 1
    return sizes


def forest_part_sizes(m: int, theta: float, seeds: np.ndarray) -> np.ndarray:
    """Oracle: the array pass ``sample_partition`` ran before the Feller
    marks of :func:`mark_spacings`.
    One Ewens(theta) draw per uint64 seed as a ``(lanes, m)`` table: the
    size of the part rooted at each element, 0 at a non-root.

    The part-opening process is a random recursive forest: element n is a
    root with probability theta/(theta+n), else the child of a uniformly
    chosen earlier element (so it joins a part with probability
    proportional to its size).  Draw n, at stream index n, alone fixes
    element n's parent; pointer jumping then finds every root.
    """
    n = np.arange(m)
    y = rng.uniform01_array(seeds[:, None], n) * (theta + n)
    # y - theta is in [0, n); the clamp guards the last-ulp case
    parent = np.where(y < theta, n, np.minimum((y - theta).astype(np.int64), n - 1))
    root = (parent + m * np.arange(len(seeds))[:, None]).ravel()  # flat ids
    while not np.array_equal(up := root[root], root):
        root = up
    return np.bincount(root, minlength=root.size).reshape(len(seeds), m)


def feller_sizes(m, theta, seed) -> list[int]:
    """Oracle: the Feller coupling, element by element.  Element n is
    marked if uniform01(seed, n) * (theta + n) < theta, element 0 always;
    the parts are the spacings from each mark to the next, then to m."""
    marks = [n for n in range(m) if n == 0 or uniform01(seed, n) * (theta + n) < theta]
    return [b - a for a, b in zip(marks, marks[1:] + [m])]


# the two edge seeds and every 997th seed of test_total_variation_m6;
# at m >= 200, where the scalar oracle costs ~2 us a draw, every 10th
ORACLE_SEEDS = [0, 2**64 - 1, *range(9_000_000, 10_000_000, 997)]
ORACLE_MS = (1, 2, 3, 6, 37, 200, 1000)


@pytest.mark.parametrize("theta", [0.25, 0.5, 1, 3.7])
def test_array_pass_matches_sequential_oracle(theta):
    for m in ORACLE_MS:
        seeds = ORACLE_SEEDS if m < 200 else ORACLE_SEEDS[::10]
        want = [sequential_sizes(m, theta, seed) for seed in seeds]
        assert forest_part_sizes(m, theta, np.array(seeds, dtype=np.uint64)).tolist() == want


@pytest.mark.parametrize("theta", [0.25, 0.5, 1, 3.7])
def test_marks_match_feller_oracle_and_forest_roots(theta):
    for m in ORACLE_MS:
        seeds = ORACLE_SEEDS if m < 200 else ORACLE_SEEDS[::10]
        want = [feller_sizes(m, theta, seed) for seed in seeds]
        lanes, sizes = mark_spacings(m, theta, np.array(seeds, dtype=np.uint64))
        assert lanes.tolist() == [k for k, p in enumerate(want) for _ in p]
        assert sizes.tolist() == [size for p in want for size in p]
        # the marks are the forest's roots, seed for seed
        forest = forest_part_sizes(m, theta, np.array(seeds, dtype=np.uint64))
        roots = np.count_nonzero(forest, axis=1)
        for seed, parts, k in zip(seeds, want, roots.tolist()):
            assert num_parts(Partition.from_parts(parts)) == k
            # sample_partition is sample 0 of the gap sampler's stream
            assert sample_partition(m, theta, seed) \
                == Partition.from_parts(_reference_parts_chunk(m, theta, seed, 0, 1)[0])
        for seed in seeds[:4]:
            lanes, sizes = _sample_parts_chunk(m, theta, seed, 0, 4096)
            assert sample_partition(m, theta, seed) == Partition.from_parts(sizes[lanes == 0].tolist())


class TestSamplePartition:
    def test_m1(self):
        for seed in range(5):
            assert sample_partition(1, 0.5, seed) == Partition.parse("1^1")

    def test_deterministic(self):
        assert sample_partition(100, 0.5, 42) == sample_partition(100, 0.5, 42)

    def test_result_is_canonical(self):
        # built unvalidated; the validating constructor must accept it
        for m, seed in ((1, 0), (7, 3), (100, 42), (500, 9)):
            lam = sample_partition(m, 0.5, seed)
            assert Partition(lam.counts, lam.m) == lam
            assert Partition.from_parts(parts_desc(lam)) == lam
            assert lam.m == m

    # the frequency and TV checks here draw the Feller oracle in bulk;
    # TestGapSampler checks the law of the sampler itself
    def test_m2_frequency(self):
        hits = sequential_counts(2, 1000, 100000)[Partition.parse("2^1")]
        assert abs(hits / 100000 - 2 / 3) < 0.01

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_total_variation_small(self, m):
        n = 400000
        counts = sequential_counts(m, 7_000_000, n)
        assert tv_distance(counts, exact_distribution(m), n) < 0.005

    def test_total_variation_m6(self):
        n = 1_000_000
        counts = sequential_counts(6, 9_000_000, n)
        assert tv_distance(counts, exact_distribution(6), n) < 0.005

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_partition(0, 0.5, 1)
        with pytest.raises(ValueError):
            sample_partition(3, 0.0, 1)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_bad_theta(self, theta):
        with pytest.raises(ValueError, match="theta"):
            sample_partition(3, theta, 1)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            sample_partition(SAMPLE_MAX_M + 1, 0.5, 1)

    def test_subnormal_theta(self):
        # u * theta rounds up to theta for u > 1/2 at theta = 5e-324; the
        # forest then gave element 0 the parent -1 (seed 0 raised, seeds 1
        # and 2 looped in pointer jumping).  Element 0 is always a mark.
        assert sample_partition(5, 5e-324, 0) == Partition.parse("5^1")
        for theta in (5e-324, 1e-320):
            for seed in range(3):
                assert sample_partition(5, theta, seed) == Partition.parse("5^1")

    @pytest.mark.filterwarnings("error")
    def test_extreme_theta_without_warnings(self):
        for seed in range(3):
            assert sample_partition(5, 1e300, seed) == Partition.parse("1^5")
            assert sample_partition(5, 1e-300, seed) == Partition.parse("5^1")

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 60),
           theta=st.floats(5e-324, 1e300, allow_subnormal=True),
           seed=st.integers(0, 2**64 - 1))
    def test_any_theta_gives_a_partition_of_m(self, m, theta, seed):
        lam = sample_partition(m, theta, seed)
        assert Partition(lam.counts, lam.m) == lam
        assert lam.m == m

    def test_cold_draw_memory(self):
        # a cold draw builds the gap table, m + 1 floats, with one more
        # buffer of m floats: 15.3 MiB at m = 10^6 (the array pass drew
        # several arrays of m entries: 30.5 MiB)
        _gap_prefix.cache_clear()
        tracemalloc.start()
        try:
            sample_partition(10**6, 0.5, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_seed_range(self):
        sample_partition(30, 0.5, 0)
        sample_partition(30, 0.5, 2**64 - 1)
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError):
                sample_partition(30, 0.5, seed)


def _reference_parts_chunk(m, theta, seed, chunk_index, count):
    """Oracle: the per-lane gap sampler the vectorised kernel replaced,
    returning each lane's part list in draw order."""
    l = np.arange(2, m + 1, dtype=np.float64)
    A = np.concatenate([[0.0], np.cumsum(np.log((l - 1.0) / (theta + l - 1.0)))])
    neg_a = -A
    base = chunk_index << 40
    positions = np.ones(count, dtype=np.int64)
    parts = [[] for _ in range(count)]
    active = np.arange(count)
    rnd = 0
    while active.size:
        idx = base + (rnd << 12) + active
        u = rng.uniform01_array(seed, idx.astype(np.uint64))
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        targets = A[positions[active] - 1] + log_u
        nxt = np.searchsorted(neg_a, -targets, side="right") + 1
        still = []
        for lane, j in zip(active, nxt):
            i = int(positions[lane])
            if j > m:
                parts[lane].append(m + 1 - i)
            else:
                parts[lane].append(int(j) - i)
                positions[lane] = j
                still.append(lane)
        active = np.array(still, dtype=np.int64)
        rnd += 1
    return parts


class TestRngSeedRange:
    def test_edges_accepted(self):
        edges = (0, 2**64 - 1)
        idx = np.arange(5, dtype=np.uint64)
        want = [[uniform01(seed, i) for i in range(5)] for seed in edges]
        seeds = np.array(edges, dtype=np.uint64)
        assert rng.uniform01_array(seeds[:, None], idx).tolist() == want
        assert [rng.uniform01_array(seed, idx).tolist() for seed in edges] == want

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_refused(self, seed):
        # a ValueError naming the seed, not numpy's OverflowError
        with pytest.raises(ValueError, match="seed"):
            rng.uniform01_array(seed, np.arange(3, dtype=np.uint64))
        with pytest.raises(ValueError, match="seed"):
            sample_partition(3, 0.5, seed)


def gap_sampler_tv(m, theta=0.5):
    """TV distance of 250 chunks of 4096 gap-sampler draws (seed 123) from
    the exact Ewens(theta) law at m."""
    counts = Counter()
    for chunk in range(250):
        counts += partition_counts(*_sample_parts_chunk(m, theta, 123, chunk, 4096), m)
    n = counts.total()
    assert n == 250 * 4096
    exact = {lam: esf_density(lam, theta) for lam in enumerate_partitions(m)}
    return tv_distance(counts, exact, n)


class TestGapSampler:
    # the large-m sampling path must match the exact law too
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_total_variation_small(self, m):
        assert gap_sampler_tv(m) < 0.005

    def test_total_variation_m6(self):
        assert gap_sampler_tv(6) < 0.005

    @pytest.mark.parametrize("theta", [0.25, 1, 3.7])
    @pytest.mark.parametrize("m", [3, 6])
    def test_total_variation_off_half(self, m, theta):
        assert gap_sampler_tv(m, theta) < 0.005

    def test_parts_sum_to_m(self):
        lanes, sizes = _sample_parts_chunk(37, 0.5, 5, 0, 2048)
        assert np.bincount(lanes, weights=sizes, minlength=2048).tolist() == [37] * 2048


@pytest.mark.parametrize("m", [1, 2, 6, 37, 1000, 100000])
@pytest.mark.parametrize("count", [1, 7, 4096])
def test_gap_sampler_matches_reference(m, count):
    # sample_partition draws from this sampler at every theta
    for theta, chunk in itertools.product((0.5, 0.25, 1, 3.7), (0, 5, 2**20)):
        lanes, sizes = _sample_parts_chunk(m, theta, 77, chunk, count)
        got = [[] for _ in range(count)]
        for lane, size in zip(lanes.tolist(), sizes.tolist()):
            got[lane].append(size)
        want = _reference_parts_chunk(m, theta, 77, chunk, count)
        assert [sorted(p) for p in got] == [sorted(p) for p in want], (theta, chunk)


def gap_prefix_oracle(m, theta):
    """Oracle: the gap table as built before it moved into its own buffer
    (no sentinel)."""
    l = np.arange(2, m + 1, dtype=np.float64)
    return -np.concatenate([[0.0], np.cumsum(np.log((l - 1.0) / (theta + l - 1.0)))])


class TestGapPrefix:
    @pytest.mark.parametrize("theta", [0.01, 0.5, 3.7])
    def test_bit_identical_to_oracle(self, theta):
        for m in (1, 2, 16, 1000, 10**5):
            G = _gap_prefix(m, theta)
            assert G.size == m + 1 and G[m] == np.inf
            assert G[:m].tobytes() == gap_prefix_oracle(m, theta).tobytes()
            assert np.signbit(G[0])  # -0.0, as the negated cumulative sum gave

    def test_read_only(self):
        G = _gap_prefix(16, 0.5)
        assert not G.flags.writeable
        with pytest.raises(ValueError):
            G[3] = 0.0


@pytest.mark.parametrize("theta", [0.01, 0.1, 0.5, 1, 3, 10])
@pytest.mark.parametrize("m", [1, 2, 16, 1000, 10**5])
def test_next_index_matches_searchsorted(theta, m):
    """Oracle: the binary search the guessed index replaced, on the
    sampler's levels G[i-1] - log u (random u, and the edges u = 0, which
    gives q = +inf, and u = 1 - 2^-53) and on q equal to every G entry."""
    G = _gap_prefix(m, theta)
    n = 30_000
    u = rng.uniform01_array(2718, np.arange(n))
    u[::7], u[1::7] = 0.0, 1.0 - 2.0**-53
    i = 1 + np.arange(n) % m
    with np.errstate(divide="ignore"):
        q = np.concatenate([G[i - 1] - np.log(u), G[:m]])
    assert np.isinf(q).any()
    want = np.searchsorted(G[:m], q, side="right")
    assert _next_index(G, q, theta).tolist() == want.tolist()


def test_next_index_infinite_level_at_m1():
    # at m = 1 the guess is already the sentinel's index; an uncapped
    # q = +inf would step past G[1] = +inf and index out of the table
    for theta in (0.01, 0.5, 10):
        q = np.array([np.inf, 0.0, 1e300])
        assert _next_index(_gap_prefix(1, theta), q, theta).tolist() == [1, 1, 1]


def chunk_hits_oracle(m, c, seed, chunk_index, count, band):
    """Oracle: ``_chunk_hits`` with the per-lane guard-band loop it replaced,
    one tuple key per band lane."""
    lanes, sizes = _sample_parts_chunk(m, 0.5, seed, chunk_index, count)
    rows, r = np.unique(lanes * (m + 1) + sizes, return_counts=True)
    lanes, sizes = np.divmod(rows, m + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in range(int(r.max()) + 1)])
    lf = np.bincount(lanes, weights=r * np.log(2.0 * sizes) + log_fact[r],
                     minlength=count)
    target = c * math.log(m)
    near = np.abs(lf - target) < 1e-9
    hits = int(np.count_nonzero(~near & (lf < target)))
    bounds = np.searchsorted(lanes, np.flatnonzero(near)[:, None] + np.array([0, 1]))
    for a, b in bounds.tolist():
        key = tuple(zip(sizes[a:b].tolist(), r[a:b].tolist()))
        if key not in band:
            f = predicted_intersection_order(Partition.trusted(key, m))
            band[key] = f_leq_threshold(f, m, c)
        hits += band[key]
    return hits


C96 = math.log(96) / math.log(8)


# (8, C96): the classes 1 3 4 and 1^2 6 both have f = 96 = 8^C96, so the
# band holds keys of several part sizes, one with a multiplicity of 2
@pytest.mark.parametrize("m, c", [(16, 1.25), (8, 4 / 3), (30, 2.5), (1000, 3), (8, C96)])
def test_chunk_hits_match_per_lane_oracle(m, c):
    band, oracle_band = {}, {}
    for chunk in (0, 1, 7):
        assert _chunk_hits(m, c, 99, chunk, 4096, band) \
            == chunk_hits_oracle(m, c, 99, chunk, 4096, oracle_band)
    assert band == oracle_band
    if c == C96:
        assert {((1, 1), (3, 1), (4, 1)), ((1, 2), (6, 1))} <= set(band)


# 16, 1.25: the class {16} has f = 32 = 16^1.25 exactly, so about a quarter
# of the samples sit in the guard band (decided on integers); 4/3 as a float
# is decided by float logs with Decimal escalation
@pytest.mark.parametrize("m, c", [(16, 1.25), (8, 1.3333333333333333), (1000, 3), (30, 2.5)])
def test_chunk_hits_match_exact_count(m, c):
    band: dict = {}
    for chunk in (0, 3):
        want = sum(f_leq_threshold(predicted_intersection_order(Partition.from_parts(p)), m, c)
                   for p in _reference_parts_chunk(m, 0.5, 2024, chunk, 4096))
        assert _chunk_hits(m, c, 2024, chunk, 4096, band) == want


def test_guard_band_decided_once_per_class(monkeypatch):
    calls = []
    exact = ewens.f_leq_threshold

    def counting(f, m, c):
        calls.append(f)
        return exact(f, m, c)

    monkeypatch.setattr(ewens, "f_leq_threshold", counting)
    good_probability_mc(16, 1.25, 40000, 8)
    # about 9 000 draws of {16} (f = 32 = 16^1.25) land in the band; the
    # exact test runs once per class, and m = 16 has p(16) = 231 classes
    assert 1 <= len(calls) <= 231


class TestGoodProbabilityMC:
    def test_matches_exact_m2(self):
        report = good_probability_mc(2, 2.0, 100000, 17)
        assert abs(report.frequency - 2 / 3) < report.wilson_radius_95 * 1.5

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            good_probability_mc(2, 2.0, 0, 1)

    def test_single_sample_degenerate(self):
        report = good_probability_mc(2, 2.0, 1, 3)
        assert report.frequency in (0.0, 1.0)
        assert report.hits in (0, 1)

    def test_sample_cap(self):
        with pytest.raises(ResourceLimitError):
            good_probability_mc(SAMPLE_MAX_M + 1, 2.0, 10, 1)

    def test_seed_range(self):
        assert good_probability_mc(50, 2.0, 300, 2**64 - 1).seed == 2**64 - 1
        assert good_probability_mc(50, 2.0, 300, 0).seed == 0
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError):
                good_probability_mc(50, 2.0, 300, seed)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_c(self, c):
        with pytest.raises(ValueError):
            good_probability_mc(50, c, 100, 1)

    def test_report_fields(self):
        report = good_probability_mc(5, 1.5, 1000, 11)
        assert isinstance(report, SampleReport)
        assert report.samples == 1000
        assert 0 <= report.hits <= 1000
        assert report.frequency == report.hits / 1000
        assert report.seed == 11
        assert report.wilson_radius_95 == pytest.approx(
            wilson_radius(report.hits, 1000))


def test_mc_agrees_with_exact_on_grid():
    for m, c in [(10, 1.7), (20, 2.0), (30, 2.5)]:
        exact = float(good_probability_exact(m, c))
        report = good_probability_mc(m, c, 40000, 1234)
        assert abs(report.frequency - exact) < 4 * report.wilson_radius_95 + 1e-3


# --- exact truth at Monte Carlo scale

@pytest.fixture(scope="module")
def exact_1000():
    return good_probability_exact(1000, 2)


def test_exact_tail_at_m1000(exact_1000):
    assert float(exact_1000) == 0.2168397361743974


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_mc_agrees_with_exact_at_m1000(exact_1000, seed):
    report = good_probability_mc(1000, 2, 100_000, seed)
    assert abs(report.frequency - exact_1000) <= 4 * report.wilson_radius_95


def test_moment_bounds_dominate_exact_at_m1000(exact_1000):
    assert left_tail_bound(1000, 2).bound >= exact_1000
    for beta in (0.3, 0.5, 0.7, 0.9):
        assert right_tail_bound(1000, 2, beta).bound >= 1 - exact_1000


# --- the law of the part count K, an observable the gap sampler draws
# directly: P(K = k) is the coefficient of x^k in
# prod_{i<m} (theta x + i)/(theta + i)

def part_count_law(m, kmax):
    """Exact P(K = k), k = 0..kmax, under Ewens(1/2): the coefficients of
    prod_{i<m} (x + 2i)/(1 + 2i).  Truncating at degree kmax is exact, since
    a coefficient depends only on those of lower degree."""
    c = [1] + [0] * kmax
    for i in range(m):
        for k in range(kmax, 0, -1):
            c[k] = c[k - 1] + 2 * i * c[k]
        c[0] *= 2 * i
    den = math.prod(range(1, 2 * m, 2))
    return [Fraction(ck, den) for ck in c]


def part_count_law_float(m, kmax, theta=0.5):
    """P(K = k), k = 0..kmax, as the float product of (theta x + i)/(theta + i)."""
    p = np.zeros(kmax + 1)
    p[0] = 1.0
    for i in range(m):
        p[1:] = (theta * p[:-1] + i * p[1:]) / (theta + i)
        p[0] *= i / (theta + i)
    return p


@pytest.mark.parametrize("m", range(1, 9))
def test_part_count_law_matches_enumeration(m):
    law = [Fraction(0)] * (m + 1)
    for lam in enumerate_partitions(m):
        law[sum(r for _, r in lam.counts)] += coset_probability(lam, m)
    assert part_count_law(m, m) == law
    assert part_count_law_float(m, m) == pytest.approx([float(p) for p in law], rel=1e-12)


def test_part_count_law_float_matches_exact():
    exact = part_count_law(1000, 40)
    assert part_count_law_float(1000, 40) == pytest.approx(
        [float(p) for p in exact], rel=1e-9, abs=1e-300)


# the K test's own seeds, 5 chunks of 4096 samples each: N = 102 400
K_SEEDS = (4101, 4202, 4303, 4404, 4505)


@pytest.mark.parametrize("m", [1000, 10**4])
def test_part_count_law_of_gap_sampler(m):
    kmax = 40
    p = (np.array([float(x) for x in part_count_law(m, kmax)]) if m <= 1000
         else part_count_law_float(m, kmax))
    hist = np.zeros(kmax + 1, dtype=np.int64)
    for seed in K_SEEDS:
        for chunk in range(5):
            lanes, _ = _sample_parts_chunk(m, 0.5, seed, chunk, 4096)
            hist += np.bincount(np.bincount(lanes, minlength=4096), minlength=kmax + 1)
    assert hist.sum() == 5 * 5 * 4096
    assert_total_variation_within_noise(hist, p)


def assert_total_variation_within_noise(hist, p):
    """The sample histogram of K, hist[k] for k = 0..kmax, against the law p."""
    n = int(hist.sum())
    assert hist.size == p.size  # no K above kmax
    tv = (np.abs(hist / n - p).sum() + max(0.0, 1.0 - p.sum())) / 2
    # fixed from the sampling noise: E TV <= sum_k sqrt(p_k (1 - p_k) / n) / 2,
    # and TV moves by at most 1/n per sample, so P(TV > E TV + t) <=
    # exp(-2 n t^2) (McDiarmid); t for a 1e-9 chance
    bound = np.sqrt(p * (1 - p) / n).sum() / 2 + math.sqrt(math.log(1e9) / (2 * n))
    assert tv < bound, (tv, bound)


def test_part_count_law_of_uniform_double_cosets():
    # the theorem itself at m = 1000: the class of a uniform g in S_2000 is
    # Ewens(1/2), so its number of parts K has the law above.  g comes from
    # numpy's generator, not from the package's rng; K from the block walk
    m, kmax = 1000, 40
    p = np.array([float(x) for x in part_count_law(m, kmax)])
    gen = np.random.default_rng(2000)
    ks = [len(cosets._walk(gen.permutation(2 * m).tolist(), m)[1]) for _ in range(4000)]
    assert_total_variation_within_noise(np.bincount(ks, minlength=kmax + 1), p)
