import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coset_ewens.cosets import predicted_intersection_order
from coset_ewens.errors import ResourceLimitError
from coset_ewens.partitions import Partition, enumerate_partitions, iter_counts, partition_count


def brute_partition_lists(m, maxpart=None):
    """Independent enumeration oracle (plain recursion, no shared code path)."""
    if maxpart is None:
        maxpart = m
    if m == 0:
        return [[]]
    out = []
    for first in range(min(m, maxpart), 0, -1):
        for rest in brute_partition_lists(m - first, first):
            out.append([first] + rest)
    return out


def recursive_partitions(m):
    """Oracle: the recursive generator the multiplicity-vector enumerator
    replaced, each partition built and validated by ``from_parts``, in
    reverse-lexicographic order on descending part lists."""

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            yield Partition.from_parts(acc)
            return
        for first in range(min(maxpart, remaining), 0, -1):
            acc.append(first)
            yield from rec(remaining - first, first, acc)
            acc.pop()

    yield from rec(m, m, [])


class TestMultiplicityEnumerator:
    def test_same_counts_in_same_order_as_recursive_oracle(self):
        for m in range(31):
            want = [lam.counts for lam in recursive_partitions(m)]
            assert [counts for counts, _ in iter_counts(m)] == want
            assert enumerate_partitions(m) == list(recursive_partitions(m))

    @pytest.mark.parametrize("m", [40, 45, 60])
    def test_count_equals_partition_count(self, m):
        assert sum(1 for _ in iter_counts(m)) == partition_count(m)

    def test_carried_f_is_the_intersection_order(self):
        for m in range(26):
            for counts, f in iter_counts(m):
                assert f == predicted_intersection_order(Partition(counts, m))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            next(iter_counts(-1))
        with pytest.raises(ResourceLimitError):
            next(iter_counts(91))


class TestEnumeration:
    def test_m1(self):
        assert [str(p) for p in enumerate_partitions(1)] == ["1^1"]

    def test_m4_count_and_order(self):
        parts = [p.parts_desc() for p in enumerate_partitions(4)]
        assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_m10_against_brute_oracle(self):
        got = [list(p.parts_desc()) for p in enumerate_partitions(10)]
        assert len(got) == 42
        assert got == brute_partition_lists(10)

    def test_m0(self):
        assert enumerate_partitions(0) == [Partition((), 0)]

    def test_counts_match_enumeration(self):
        for m in range(41):
            assert partition_count(m) == len(enumerate_partitions(m))

    def test_enumeration_deterministic(self):
        a = "".join(str(p) + ";" for p in enumerate_partitions(17))
        b = "".join(str(p) + ";" for p in enumerate_partitions(17))
        assert a == b

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_partitions(91)


class TestCounting:
    def test_small_values(self):
        assert partition_count(0) == 1
        assert partition_count(5) == 7

    def test_p100(self):
        assert partition_count(100) == 190569292

    def test_negative(self):
        with pytest.raises(ValueError):
            partition_count(-1)


def hardy_ramanujan(m):
    """The leading-order growth exp(pi*sqrt(2m/3)) / (4*sqrt(3)*m) of p(m)."""
    return math.exp(math.pi * math.sqrt(2.0 * m / 3.0)) / (4.0 * math.sqrt(3.0) * m)


class TestHardyRamanujan:
    """partition_count against the Hardy-Ramanujan asymptotic."""

    def test_ratio_near_one_at_1000(self):
        ratio = partition_count(1000) / hardy_ramanujan(1000)
        assert 0.95 < ratio < 1.05

    def test_ratio_improves_with_m(self):
        devs = [abs(partition_count(m) / hardy_ramanujan(m) - 1.0)
                for m in (500, 1000, 5000)]
        assert devs[0] > devs[1] > devs[2]


@given(st.lists(st.integers(1, 30), min_size=0, max_size=20))
def test_weight_invariant(parts):
    p = Partition.from_parts(parts)
    assert p.m == sum(parts)
    assert sum(i * r for i, r in p.counts) == p.m
    assert all(r >= 1 for _, r in p.counts)


class TestTextForm:
    def test_roundtrip(self):
        for m in range(11):
            for p in enumerate_partitions(m):
                assert Partition.parse(str(p)) == p

    def test_format(self):
        assert str(Partition.from_parts([5, 1, 2, 1, 1, 5])) == "1^3 2^1 5^2"

    def test_parse_rejects_bad_tokens(self):
        for bad in ["1^0", "0^2", "x^1", "2^", "1^1 1^2"]:
            with pytest.raises(ValueError):
                Partition.parse(bad)

    def test_num_parts(self):
        assert Partition.parse("1^3 2^1 5^2").num_parts == 6
