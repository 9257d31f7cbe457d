"""Integer partitions: canonical form, enumeration and counting."""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import _integer

#: enumeration refused above this weight (p(90) > 5*10^7); use counting
#: or generating-function APIs instead.
ENUMERATION_MAX_M = 90


@dataclass(frozen=True, slots=True)
class Partition:
    """A multiset of positive parts, stored as ((part, multiplicity), ...)
    with parts strictly ascending and all multiplicities >= 1.

    ``m`` is the weight, i.e. sum(part * multiplicity).
    """

    counts: tuple[tuple[int, int], ...]
    m: int

    def __post_init__(self):
        counts = tuple((_integer(p, "part", 1), _integer(r, "multiplicity", 1))
                       for p, r in self.counts)
        if any(a[0] >= b[0] for a, b in zip(counts, counts[1:])):
            raise ValueError(f"non-canonical partition data {self.counts!r}")
        total, m = sum(p * r for p, r in counts), _integer(self.m, "m", 0)
        if total != m:
            raise ValueError(f"weight mismatch: parts sum to {total}, m={m}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "m", m)

    @classmethod
    def trusted(cls, counts: tuple[tuple[int, int], ...], m: int) -> "Partition":
        """Build without validation, from ``counts`` known canonical and of weight ``m``."""
        self = object.__new__(cls)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "m", m)
        return self

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        return cls.from_multiplicities(Counter(_integer(p, "part", 1) for p in parts))

    @classmethod
    def from_multiplicities(cls, mult: dict[int, int]) -> "Partition":
        items = ((p, _integer(r, "multiplicity", 0)) for p, r in mult.items())
        items = tuple(sorted((_integer(p, "part", 1), r) for p, r in items if r))
        return cls(items, sum(p * r for p, r in items))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the ``"1^3 2^1"`` text form (ascending ``i^r`` tokens)."""
        text = text.strip()
        if not text:
            return cls((), 0)
        mult: dict[int, int] = {}
        for token in text.split():
            m = re.fullmatch(r"(\d+)\^(\d+)", token)
            if not m:
                raise ValueError(f"bad partition token {token!r}")
            part, r = int(m.group(1)), int(m.group(2))
            if part < 1 or r < 1:
                raise ValueError(f"nonpositive entry in token {token!r}")
            if part in mult:
                raise ValueError(f"repeated part size {part}")
            mult[part] = r
        return cls.from_multiplicities(mult)

    def __str__(self) -> str:
        return " ".join(f"{p}^{r}" for p, r in self.counts)


def _zs1(m: int, push: Callable, base: tuple) -> Iterator[tuple]:
    """ZS1 (Zoghbi & Stojmenovic, IJCM 70, 1998): every partition of ``m`` in
    reverse-lexicographic order on descending part lists ({m} first, {1^m} last).

    Yields the top of a stack of frames: ``base``, then one per part size,
    descending, ``push(frame below, part, mult, (2 part)^mult mult!)`` starting
    (part, mult).  A step drops the 1s, takes one copy of the smallest part p and
    refills with parts p - 1 and a remainder; only the top changes, so a prefix
    that ``push`` carries costs O(1) work per partition, amortised."""
    m = _integer(m, "m", 0, ENUMERATION_MAX_M, "partition enumeration")
    fac = {(p, r): math.prod(range(2 * p, 2 * p * r + 1, 2 * p))
           for p in range(1, m + 1) for r in range(1, m // p + 1)}
    stack = [base, push(base, m, 1, 2 * m)] if m else [base]
    while True:
        yield stack[-1]
        if len(stack) == 1 or stack[1][0] == 1:  # m = 0, or {1^m}: the last partition
            return
        p, r = stack.pop()[:2]
        rem = 0
        if p == 1:
            rem = r
            p, r = stack.pop()[:2]
        if r > 1:
            stack.append(push(stack[-1], p, r - 1, fac[p, r - 1]))
        k, rem = divmod(rem + p, p - 1)
        stack.append(push(stack[-1], p - 1, k, fac[p - 1, k]))
        if rem:
            stack.append(push(stack[-1], rem, 1, 2 * rem))


def iter_counts(m: int) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """Yield ``(counts, f)`` for every partition of ``m`` in the order of :func:`_zs1`,
    ``counts`` as in :class:`Partition` and f = prod (2i)^{r_i} r_i!, as prefixes."""
    for _, _, f, counts in _zs1(m, lambda top, p, r, x: (p, r, top[2] * x, ((p, r),) + top[3]),
                                (0, 0, 1, ())):
        yield counts, f


def iter_partitions(m: int) -> Iterator[Partition]:
    """Stream the partitions of ``m`` in the order of :func:`iter_counts`."""
    m = _integer(m, "m", 0)
    for counts, _ in iter_counts(m):
        yield Partition.trusted(counts, m)


def enumerate_partitions(m: int) -> list[Partition]:
    """All p(m) partitions of ``m`` as a list, in the order of :func:`iter_counts`."""
    return list(iter_partitions(m))


_pcount: list[int] = [1]


def partition_count(m: int) -> int:
    """p(m) via Euler's pentagonal-number recurrence, exact and memoized."""
    if (m := _integer(m, "m", 0)) < len(_pcount):
        return _pcount[m]
    while len(_pcount) <= m:
        n = len(_pcount)
        total = 0
        k = 1
        while True:
            g1 = n - k * (3 * k - 1) // 2
            g2 = n - k * (3 * k + 1) // 2
            if g1 < 0 and g2 < 0:
                break
            term = 0
            if g1 >= 0:
                term += _pcount[g1]
            if g2 >= 0:
                term += _pcount[g2]
            total += term if k % 2 == 1 else -term
            k += 1
        _pcount.append(total)
    return _pcount[m]
