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
from .partitions import Partition


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
                raise ValueError(f"images {self.images!r} are not a bijection of 1..{n}")
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


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for i, v in enumerate(p.images):
        inv[v] = i
    return Permutation(tuple(inv))


def conjugate(g: Permutation, a: Permutation) -> Permutation:
    """Return ``a * g * a^{-1}`` (cycle type is preserved).

    >>> g, a = from_cycles(4, [(1, 3)]), from_cycles(4, [(3, 4)])
    >>> cycle_string(conjugate(g, a))
    '(1 4)'
    """
    if g.n != a.n:
        raise ValueError(f"degree mismatch: {g.n} != {a.n}")
    out = [0] * g.n
    for i, v in enumerate(g.images):
        out[a.images[i]] = a.images[v]
    return Permutation(tuple(out))


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
        for s in cyc:
            if not 1 <= s <= n:
                raise ValueError(f"symbol {s} out of range 1..{n}")
            if s in used:
                raise ValueError(f"repeated symbol {s} in cycles")
            used.add(s)
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
            images[a - 1] = b - 1
    return Permutation(tuple(images))


def cycle_type(g: Permutation) -> Partition:
    """Cycle type as a partition of ``n``, fixed points included as parts 1.

    >>> str(cycle_type(from_cycles(6, [(2, 4, 6)])))
    '1^3 3^1'
    """
    lengths = [len(cyc) for cyc in disjoint_cycles(g)]
    return Partition.from_parts(lengths + [1] * (g.n - sum(lengths)))


def cycle_string(g: Permutation) -> str:
    """Disjoint-cycle text form; the identity prints as ``()``."""
    cycles = disjoint_cycles(g)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(s) for s in cyc) + ")" for cyc in cycles)


def one_line_string(g: Permutation) -> str:
    """One-line text form ``[g(1),g(2),...]``."""
    return "[" + ",".join(str(v + 1) for v in g.images) + "]"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse either disjoint-cycle form ``(1 3)(2 4)`` or one-line form
    ``[3,4,1,2]`` into a permutation of degree ``n``.

    Rejects repeated symbols and out-of-range entries.
    """
    text, n = text.strip(), _integer(n, "n", 0)
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated one-line form: {text!r}")
        body = text[1:-1].strip()
        entries = [t for t in re.split(r"[,\s]+", body) if t] if body else []
        if len(entries) != n:
            raise ValueError(f"one-line form has {len(entries)} entries, expected {n}")
        try:
            values = [int(t) for t in entries]
        except ValueError as exc:
            raise ValueError(f"bad one-line entry in {text!r}") from exc
        for v in values:
            if not 1 <= v <= n:
                raise ValueError(f"symbol {v} out of range 1..{n}")
        if len(set(values)) != n:
            raise ValueError(f"repeated symbol in one-line form {text!r}")
        return Permutation(tuple(v - 1 for v in values))

    if text == "" or text == "()":
        return identity(n)
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"cannot parse permutation text {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        entries = [t for t in re.split(r"[,\s]+", body.strip()) if t]
        if not entries:
            continue
        try:
            cyc = [int(t) for t in entries]
        except ValueError as exc:
            raise ValueError(f"bad cycle entry in {text!r}") from exc
        cycles.append(cyc)
    return from_cycles(n, cycles)
