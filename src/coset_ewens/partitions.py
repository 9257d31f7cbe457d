"""Integer partitions: canonical form, enumeration and counting."""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ResourceLimitError

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
        last = 0
        total = 0
        for part, mult in self.counts:
            if part <= last or mult < 1:
                raise ValueError(f"non-canonical partition data {self.counts!r}")
            last = part
            total += part * mult
        if total != self.m:
            raise ValueError(f"weight mismatch: parts sum to {total}, m={self.m}")

    @classmethod
    def trusted(cls, counts: tuple[tuple[int, int], ...], m: int) -> "Partition":
        """Build without validation, from ``counts`` known canonical and of weight ``m``."""
        self = object.__new__(cls)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "m", m)
        return self

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        counts: dict[int, int] = {}
        for p in parts:
            if p < 1:
                raise ValueError(f"nonpositive part {p}")
            counts[p] = counts.get(p, 0) + 1
        items = tuple(sorted(counts.items()))
        return cls(items, sum(p * r for p, r in items))

    @classmethod
    def from_multiplicities(cls, mult: dict[int, int]) -> "Partition":
        items = tuple(sorted((p, r) for p, r in mult.items() if r))
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

    @property
    def num_parts(self) -> int:
        """Total number of parts (counted with multiplicity)."""
        return sum(r for _, r in self.counts)

    def parts_desc(self) -> tuple[int, ...]:
        out: list[int] = []
        for p, r in reversed(self.counts):
            out.extend([p] * r)
        return tuple(out)

    def __str__(self) -> str:
        return " ".join(f"{p}^{r}" for p, r in self.counts)


def iter_counts(m: int) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """Yield ``(counts, f)`` for every partition of ``m``, ``counts`` as in
    :class:`Partition` and f = prod (2i)^{r_i} r_i!, in reverse-lexicographic
    order on descending part lists ({m} first, {1^m} last).

    ZS1 (Zoghbi & Stojmenovic, IJCM 70, 1998) on a stack of (part,
    multiplicity) pairs, parts descending: drop the 1s, take one copy of the
    smallest part p, refill with parts p - 1 and a remainder.  f is carried
    as prefix products over the stack: O(1) work per step, amortised.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > ENUMERATION_MAX_M:
        raise ResourceLimitError(
            f"partition enumeration limited to m <= {ENUMERATION_MAX_M} (p({m}) is too "
            "large to list); use partition_count or the series coefficients instead")
    # fac[p, r] = (2p)^r r!, the factor of r parts of size p
    fac = {(p, r): math.prod(range(2 * p, 2 * p * r + 1, 2 * p))
           for p in range(1, m + 1) for r in range(1, m // p + 1)}
    stack, pref = ([(m, 1)], [1, 2 * m]) if m else ([], [1])  # pref[k]: f of stack[:k]
    while True:
        yield tuple(stack[::-1]), pref[-1]
        if not stack or stack[0][0] == 1:  # m = 0, or {1^m}: the last partition
            return
        p, r = stack.pop()
        pref.pop()
        rem = 0
        if p == 1:
            rem = r
            p, r = stack.pop()
            pref.pop()
        if r > 1:
            stack.append((p, r - 1))
            pref.append(pref[-1] * fac[p, r - 1])
        k, rem = divmod(rem + p, p - 1)
        stack.append((p - 1, k))
        pref.append(pref[-1] * fac[p - 1, k])
        if rem:
            stack.append((rem, 1))
            pref.append(pref[-1] * 2 * rem)


def iter_partitions(m: int) -> Iterator[Partition]:
    """Stream the partitions of ``m`` in the order of :func:`iter_counts`."""
    for counts, _ in iter_counts(m):
        yield Partition.trusted(counts, m)


def enumerate_partitions(m: int) -> list[Partition]:
    """All p(m) partitions of ``m`` as a list, in the order of :func:`iter_counts`."""
    return list(iter_partitions(m))


_pcount: list[int] = [1]


def partition_count(m: int) -> int:
    """p(m) via Euler's pentagonal-number recurrence, exact and memoized."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m < len(_pcount):
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
