"""The block centralizer H <= S_2m and its double cosets.

H is the centralizer of the base involution (1 2)(3 4)...(2m-1 2m),
equivalently the group of permutations preserving the block partition
{1,2},{3,4},...,{2m-1,2m}.  Double cosets HgH are classified by
partitions of m, the coset type of g (Macdonald, *Symmetric Functions
and Hall Polynomials*, 2nd ed., VII.2), read off a bipartite
block-matching graph whose components are even cycles.  One walk of
that graph on alternate edges serves both the classifier and the
even-support reduction: its component lengths are the parts, and its
picks (one symbol per block, sent by g to distinct blocks) give a
representative with an explicit certificate (h1, h2), h1*g*h2 equal to
the representative.  The test suite keeps a union-find over the same
graph as an independent oracle for the classifier.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from .errors import ResourceLimitError, _integer
from .partitions import Partition, _zs1
from .perm import Permutation, compose, parse_permutation

INTERSECTION_MAX_M = 5
#: verify adds an orbits block up to this m.  Cost does not set it (the
#: sweep takes about 0.1 s at m = 6): the verify 5 payload, pinned by
#: bench/expected.json and tests/golden_payloads.json, has no orbits block
ORBIT_SWEEP_MAX_M = 4
#: wreath_model's work, order * (2m)^2; every class of m <= 6 fits
WREATH_MODEL_MAX_COST = 10**8


def _check_degree(g: Permutation, m: int) -> int:
    if g.n != 2 * (m := _integer(m, "m", 1)):
        raise ValueError(f"degree mismatch: permutation has degree {g.n}, expected {2 * m}")
    return m


def _check_weight(lam: Partition, m: int) -> int:
    if lam.m != (m := _integer(m, "m", 0)):
        raise ValueError(f"partition has weight {lam.m}, expected {m}")
    return m


# bench/tracer.py wraps this name by getattr: keep it until the tracer changes (ROADMAP 2(c))
def is_in_H(g: Permutation, m: int) -> bool:
    """Membership in H, tested as g mapping every block {2k-1, 2k} onto
    some block.  The test suite checks it against the centralizer form,
    g h0 g^{-1} == h0 for the base involution h0."""
    m = _check_degree(g, m)
    for k in range(m):
        a, b = g.images[2 * k], g.images[2 * k + 1]
        if a // 2 != b // 2:
            return False
    return True


def _lex_permutations(n: int) -> np.ndarray:
    """S_n as an (n!, n) int8 array of 0-indexed images in lexicographic
    order: the rows starting with f are f, then S_{n-1} on the other symbols."""
    P = np.zeros((1, 0), np.int8)
    for k in range(1, n + 1):
        P = np.concatenate([np.column_stack((np.full(len(P), f, np.int8), P + (P >= f)))
                            for f in range(k)])
    return P


@lru_cache(maxsize=2)
def _H_array(m: int) -> np.ndarray:
    """H as a read-only (2^m m!, 2m) int8 array of 0-indexed images, the
    only form of H in the package: block permutations in lexicographic
    order, and under each the sign vectors counted in binary; sign s_k
    sends block k onto block sigma(k) with its two symbols swapped."""
    blocks = 2 * _lex_permutations(m)[:, None, :, None]  # (m!, 1, m, 1)
    signs = ((np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.int8)
    H = (blocks + (signs[:, :, None] ^ np.array([0, 1], np.int8))).reshape(-1, 2 * m)
    H.flags.writeable = False
    return H


def _walk(img: tuple[int, ...], m: int) -> tuple[list[int], list[int]]:
    """The one traversal of the block-matching graph of the 0-indexed
    image tuple ``img`` of an element of S_2m.

    One vertex per block {2k, 2k+1} on one side, one per image block
    {img[2k], img[2k+1]} on the other; each symbol s is an edge joining
    the block of s to the block of img[s].  Every vertex has degree two,
    so each component is an even cycle; walking it on alternate edges
    picks one symbol per block, and those picks have images in distinct
    blocks.  Returns the pick of each block and the number of blocks in
    each component (a component with 2k edges has k blocks per side).
    """
    ginv = [0] * (2 * m)
    for s, t in enumerate(img):
        ginv[t] = s
    pick = [-1] * m
    lengths = []
    for start in range(0, 2 * m, 2):
        # from the pick s, the other edge into the image block of s is
        # ginv[img[s] ^ 1], and its block partner is the next pick
        s, k = start, 0
        while pick[s >> 1] < 0:
            pick[s >> 1] = s
            s = ginv[img[s] ^ 1] ^ 1
            k += 1
        if k:
            lengths.append(k)
    return pick, lengths


def partition_of(g: Permutation, m: int) -> Partition:
    """Class partition of HgH: a component of the block-matching graph
    with 2k edges contributes a part k (see :func:`_walk`)."""
    m = _check_degree(g, m)
    return Partition.from_parts(_walk(g.images, m)[1])


def canonical_rep(lam: Partition, m: int) -> Permutation:
    """Even-support representative of the class ``lam``, the permutation of
    :func:`canonical_cycles`: parts in descending order on consecutive
    blocks, part k as the ascending even cycle (2j 2j+2 ... 2j+2k-2)."""
    m = _check_weight(lam, m)
    return parse_permutation(canonical_cycles(lam.counts, m), 2 * m)


@lru_cache(maxsize=8)
def _even_symbols(m: int) -> tuple[str, ...]:
    return tuple(str(s) for s in range(2, 2 * m + 1, 2))


def _cycle_text(evens: tuple[str, ...], part: int, r: int, j: int) -> str:
    """The one placement: r parts of size ``part`` from even-symbol index j are
    r cycles of the next ``part`` even symbols each; a part 1 has no text."""
    cycles = ("(" + " ".join(evens[i:i + part]) + ")" for i in range(j, j + part * r, part))
    return "".join(cycles) if part > 1 else ""


def canonical_cycles(counts: tuple[tuple[int, int], ...], m: int) -> str:
    """The cycle text of :func:`canonical_rep` from ``lam.counts``: the parts
    in descending order, placed by :func:`_cycle_text` on consecutive blocks."""
    evens, text, j = _even_symbols(m), "", 0
    for part, r in reversed(counts):
        text += _cycle_text(evens, part, r, j)
        j += part * r
    return text or "()"


def _class_rows(m: int) -> Iterator[tuple[int, str, str]]:
    """``(f, str(lam), canonical_cycles(lam.counts, m))`` per class lam of m, in the
    order of :func:`iter_counts`, as prefixes over the ZS1 stack: a push of r parts
    p prepends "p^r " to the lambda text and appends its cycles, from index w
    (the weight below), to the cycle text, cached per (p, r, w) for the call."""
    place = cache(partial(_cycle_text, _even_symbols(m)))

    def push(top, p, r, x):
        _, _, f, lam, cycles, w = top
        return p, r, f * x, f"{p}^{r} " + lam, cycles + place(p, r, w), w + p * r

    for _, _, f, lam, cycles, _ in _zs1(m, push, (0, 0, 1, "", "", 0)):
        yield f, lam[:-1], cycles or "()"


def predicted_intersection_order(lam: Partition) -> int:
    """prod over parts of (2i)^{r_i} * r_i!, the order of H i gHg^{-1}
    for any g in the class ``lam``."""
    order = 1
    for part, r in lam.counts:
        order *= (2 * part) ** r * math.factorial(r)
    return order


def double_coset_size(lam: Partition, m: int) -> int:
    """|HgH| = (2^m m!)^2 / predicted_intersection_order(lam), exactly."""
    m = _check_weight(lam, m)
    h_order = (2**m) * math.factorial(m)
    size, rem = divmod(h_order * h_order, predicted_intersection_order(lam))
    if rem:
        raise AssertionError("double coset size is not an exact division")
    return size


def _intersection_rows(g: Permutation, m: int) -> np.ndarray:
    """H intersect gHg^{-1} (m <= 5) as int8 rows of 0-indexed images, in
    the order of :func:`_H_array`.  gHg^{-1} stabilises the image blocks
    {g(2k-1), g(2k)}, so h in H is kept iff it maps each image block onto
    an image block."""
    _check_degree(g, m)
    m = _integer(m, "m", 1, INTERSECTION_MAX_M, "intersection_subgroup")
    img, block = np.array(g.images), np.argsort(g.images) // 2  # block[g(s)] = s // 2
    H = _H_array(m)
    # h sends the image pair (a, b) into one image block iff their blocks agree
    return H[(block[H[:, img[0::2]]] == block[H[:, img[1::2]]]).all(axis=1)]


# bench/tracer.py wraps this name by getattr: keep it until the tracer changes (ROADMAP 2(c))
def intersection_subgroup(g: Permutation, m: int) -> list[Permutation]:
    """Brute-force element list of H intersect gHg^{-1} (m <= 5), sorted by
    images (:func:`_intersection_rows`)."""
    kept = _intersection_rows(g, m)
    kept = kept[np.lexsort(kept.T[::-1])]
    return [Permutation(tuple(row)) for row in kept.tolist()]


def _cycle_lengths(P: np.ndarray) -> np.ndarray:
    """Per row of P (a dtype holding the degree n), the length of the cycle
    through each symbol: pointer jumping labels each symbol with the least
    of its cycle (after round j a label covers 2^(j+1) symbols, so
    ceil(log2 n) - 1 rounds), and one comparison per column counts them."""
    n = P.shape[1]
    label, ptr = np.minimum(P, np.arange(n, dtype=P.dtype)), P
    for _ in range((n - 1).bit_length() - 1):
        ptr = np.take_along_axis(ptr, ptr, 1)
        np.minimum(label, np.take_along_axis(label, ptr, 1), out=label)
    lengths = np.zeros_like(P)
    for j in range(n):
        lengths += label == label[:, j:j + 1]
    return lengths


def _orders(P: np.ndarray) -> dict[int, int]:
    """Histogram of the orders (lcm of the cycle lengths) of the rows of P; an
    order divides lcm(1..n), which outgrows int64 at n = 43."""
    n = P.shape[1]
    exact = np.int64 if math.lcm(*range(1, n + 1)) < 2**63 else object
    orders = np.lcm.reduce(_cycle_lengths(P), axis=1, dtype=exact, initial=1)
    values, counts = np.unique(orders, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def wreath_model(lam: Partition) -> tuple[int, dict[int, int]]:
    """Independent model of the predicted intersection group.

    For each part k the class contributes the automorphisms of a 2k-gon
    that preserve its alternating 2-coloring, acting on the polygon's 2k
    edges (a dihedral group with 2k elements: l -> l + 2t and
    l -> 2t - l - 1 mod 2k); equal parts may also be permuted wholesale.
    Each element is one row: every tuple of dihedral maps under every
    block permutation, then a Cartesian product across part sizes.  The
    group is fingerprinted as (distinct rows, element-order histogram).
    """
    n = 2 * lam.m
    if predicted_intersection_order(lam) * n * n > WREATH_MODEL_MAX_COST:
        raise ResourceLimitError(
            f"wreath_model limited to order * (2m)^2 <= {WREATH_MODEL_MAX_COST}"
        )
    dtype = np.min_scalar_type(n)
    rows, offset = np.zeros((1, 0), dtype), 0
    for part, r in lam.counts:
        size = 2 * part
        l, t = np.arange(size), 2 * np.arange(part)[:, None]
        dihedral = np.concatenate([(l + t) % size, (t - l - 1) % size]).astype(dtype)
        maps = dihedral[np.indices((size,) * r).reshape(r, -1).T]  # (size^r, r, size)
        blocks = offset + size * _lex_permutations(r).astype(dtype)[:, None, :, None]
        group = (blocks + maps).reshape(-1, r * size)
        rows = np.hstack([np.repeat(rows, len(group), 0), np.tile(group, (len(rows), 1))])
        offset += r * size
    if n:  # lexsort needs a key; the one empty row of m = 0 is distinct
        rows = rows[np.lexsort(rows.T)]
        rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    return len(rows), _orders(rows)


@dataclass(frozen=True)
class OrbitClass:
    """One double coset found by the brute-force sweep."""

    lam: Partition
    size: int
    representative: Permutation


def _matchings(n: int) -> np.ndarray:
    """The (n-1)!! perfect matchings of 0..n-1 (n even) as int8 rows in
    lexicographic order, each the least g sending the blocks {2k, 2k+1}
    onto its pairs: the pairs by least symbol, each ascending.  A row is
    0, its partner j, then a matching of the other symbols."""
    M = np.zeros((1, 0), np.int8)
    for k in range(2, n + 1, 2):
        M = np.concatenate([np.column_stack((np.zeros(len(M), np.int8), np.full(len(M), j, np.int8),
                                             M + 1 + (M + 1 >= j))) for j in range(1, k)])
    return M


def _partners(P: np.ndarray) -> np.ndarray:
    """Per row g of P, the involution g h0 g^{-1}: each symbol s to its
    partner g(g^{-1}(s) ^ 1) in the matching g sends the blocks onto."""
    partner = np.empty_like(P)
    np.put_along_axis(partner, P, P[:, np.arange(P.shape[1]) ^ 1], axis=1)
    return partner


def _coset_type_lengths(P: np.ndarray) -> np.ndarray:
    """Per row g of P, the cycle length of each symbol under
    q = h0 * g h0 g^{-1}, s -> partner(s) ^ 1, sorted within the row.  q
    has cycle type lam u lam for g of coset type lam (Macdonald VII.2), so
    a part k is 2k symbols on k-cycles; independent of :func:`_walk`."""
    lengths = _cycle_lengths(_partners(P) ^ 1)
    lengths.sort(axis=1)
    return lengths


def enumerate_double_cosets(m: int) -> list[OrbitClass]:
    """Orbit partition of S_2m under (h1, h2) . g = h1 g h2 (m <= 4).

    H is the stabiliser of the block matching, so gH is fixed by the
    matching g sends the blocks onto, and HgH / H is that matching's
    H-orbit.  The base-16 keys of the :func:`_partners` rows sort like
    the :func:`_matchings` rows, so the first unlabelled row is the least
    of its orbit, and binary search labels the orbit from the keys of
    h * g for every h in H.  Orbits are checked for a constant
    :func:`_coset_type_lengths` and returned sorted by their partition's
    text form.
    """
    m = _integer(m, "m", 1, ORBIT_SWEEP_MAX_M, "enumerate_double_cosets")
    n = 2 * m  # n <= 14: symbols are base-16 digits, keys fit in int64
    M, H = _matchings(n), _H_array(m)
    weights = 16 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = _partners(M) @ weights
    label = np.full(len(M), -1, np.intp)
    for i in range(len(M)):
        if label[i] < 0:
            label[np.searchsorted(keys, _partners(H[:, M[i]]) @ weights)] = i
    lengths = _coset_type_lengths(M)
    if np.any(lengths != lengths[label]):
        raise AssertionError("class partition not constant on an orbit")
    roots, counts = np.unique(label, return_counts=True)
    reps = [Permutation(tuple(row)) for row in M[roots].tolist()]
    orbits = [OrbitClass(partition_of(g, m), c * len(H), g) for g, c in zip(reps, counts.tolist())]
    orbits.sort(key=lambda o: str(o.lam))
    return orbits


# --- constructive even-support reduction -------------------------------

@dataclass(frozen=True)
class EvenSupportReduction:
    """Even-support representative with its membership certificate:
    ``left * g * right == result`` with both multipliers in H."""

    result: Permutation
    left: Permutation
    right: Permutation


def reduce_to_even_support(g: Permutation, m: int) -> EvenSupportReduction:
    """Rewrite g into an even-support member of HgH in one O(m) pass.

    :func:`_walk` picks one symbol per block whose images under g lie
    in distinct blocks.  ``right`` maps block k onto itself, sending
    2k-1 to the pick of block k; ``left`` sends g(pick) and its block
    partner to 2k-1 and 2k.  Then left*g*right fixes every odd symbol,
    and on the even symbols it permutes the blocks with the cycle type
    of the class.  The certificate is verified before returning.
    """
    m = _check_degree(g, m)
    n = 2 * m
    img = g.images
    pick = _walk(img, m)[0]
    left, right, result = [0] * n, [0] * n, list(range(n))
    for k, s in enumerate(pick):
        right[2 * k], right[2 * k + 1] = s, s ^ 1
        left[img[s]], left[img[s] ^ 1] = 2 * k, 2 * k + 1
    for k, s in enumerate(pick):
        result[2 * k + 1] = left[img[s ^ 1]]
    red = EvenSupportReduction(*(Permutation(tuple(p)) for p in (result, left, right)))
    # result fixes the odd symbols by construction; the product must match it
    if compose(compose(red.left, g), red.right) != red.result:
        raise AssertionError("certificate does not reproduce the representative")
    if not (is_in_H(red.left, m) and is_in_H(red.right, m)):
        raise AssertionError("certificate multipliers are not in H")
    return red


@dataclass(frozen=True)
class CosetClass:
    """Classification record for one double coset; ``canonical`` is the
    cycle text of :func:`canonical_rep` (call it for the permutation)."""

    lam: Partition
    predicted_order: int
    coset_size: int
    canonical: str


def coset_class(lam: Partition, m: int) -> CosetClass:
    return CosetClass(
        lam,
        predicted_intersection_order(lam),
        double_coset_size(lam, m),
        canonical_cycles(lam.counts, m),
    )
