"""Permutations of {1, ..., n} in one-line form, with disjoint-cycle I/O.

Symbols are 1-indexed in the whole public interface (parsing, printing,
error messages); internally images are stored 0-indexed.

Composition is fixed as a LEFT action throughout the package:
``compose(p, q)`` applies ``q`` first, then ``p``, i.e.
``compose(p, q)(i) == p(q(i))``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import _integer


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}, stored as the tuple of 0-indexed images.

    ``images[i] == g(i+1) - 1``.  Immutable and hashable; safe to share.

    >>> from_cycles(4, [(1, 3)]).images[0] + 1
    3
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        seen = [False] * n
        for v in self.images:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(
                    f"symbol must be an integer, got {type(v).__name__}" if not isinstance(v, int)
                    else f"symbol {v + 1} out of range 1..{n}" if not 0 <= v < n
                    else f"repeated symbol {v + 1}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return cycle_string(self)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(_integer(n, "n", 0))))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-action product: apply ``q`` first, then ``p``.

    >>> a, b = from_cycles(3, [(1, 2)]), from_cycles(3, [(2, 3)])
    >>> cycle_string(compose(a, b))
    '(1 2 3)'
    """
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} != {q.n}")
    return Permutation(tuple(p.images[j] for j in q.images))


def disjoint_cycles(g: Permutation) -> tuple[tuple[int, ...], ...]:
    """Nontrivial cycles as 1-indexed tuples, each rotated so its minimum
    comes first, sorted by minimum.  Fixed points are omitted (recoverable
    from the degree).

    >>> disjoint_cycles(from_cycles(5, [(2, 4), (3, 5)]))
    ((2, 4), (3, 5))
    """
    seen = [False] * g.n
    cycles = []
    for i in range(g.n):
        if seen[i] or g.images[i] == i:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = g.images[j]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
    """Build a permutation of degree ``n`` from disjoint 1-indexed cycles."""
    n = _integer(n, "n", 0)
    images = list(range(n))
    used = set()
    for cyc in cycles:
        cyc = [_integer(s, "symbol") for s in cyc]
        for s in cyc:
            if not 1 <= s <= n:
                raise ValueError(f"symbol {s} out of range 1..{n}")
            if s in used:
                raise ValueError(f"repeated symbol {s} in cycles")
            used.add(s)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    return Permutation(tuple(images))


def cycle_string(g: Permutation) -> str:
    """Disjoint-cycle text form; the identity prints as ``()``."""
    cycles = disjoint_cycles(g)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(s) for s in cyc) + ")" for cyc in cycles)


def _excerpt(text: str) -> str:
    """The length and a short prefix of ``text``, for an error message."""
    return f"{len(text)} characters starting {text[:40]!r}"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _symbols(body: str) -> list[int]:
    """The integers of a comma- or space-separated list of symbols."""
    try:
        return [int(t) for t in re.split(r"[,\s]+", body) if t]
    except ValueError as exc:  # int() names the token, not the whole text
        raise ValueError(f"bad symbol: {exc}") from None


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse either disjoint-cycle form ``(1 3)(2 4)`` or one-line form
    ``[3,4,1,2]`` into a permutation of degree ``n``.

    Rejects repeated symbols and out-of-range entries.
    """
    text, n = text.strip(), _integer(n, "n", 0)
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated one-line form: {_excerpt(text)}")
        values = _symbols(text[1:-1])
        if len(values) != n:
            raise ValueError(f"one-line form has {len(values)} entries, expected {n}")
        return Permutation(tuple(v - 1 for v in values))

    if text == "" or text == "()":
        return identity(n)
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"cannot parse permutation text: {_excerpt(text)}")
    return from_cycles(n, map(_symbols, _CYCLE_RE.findall(text)))
