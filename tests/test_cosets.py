import itertools
import math
import random
from collections import Counter, deque
from operator import itemgetter

import numpy as np
import pytest

from coset_ewens.errors import ResourceLimitError
from coset_ewens.partitions import Partition, enumerate_partitions, iter_counts, partition_count
from coset_ewens.perm import (
    Permutation,
    compose,
    cycle_string,
    disjoint_cycles,
    from_cycles,
    identity,
)
import coset_ewens.cosets as cosets
from coset_ewens.cosets import (
    OrbitClass,
    _H_array,
    _coset_type_lengths,
    _cycle_lengths,
    _intersection_rows,
    _lex_permutations,
    _matchings,
    _orders,
    _partners,
    _walk,
    canonical_cycles,
    canonical_rep,
    double_coset_size,
    enumerate_double_cosets,
    intersection_subgroup,
    is_in_H,
    partition_of,
    predicted_intersection_order,
    reduce_to_even_support,
    wreath_model,
)
from test_partitions import parts_desc


def all_perms(n):
    return (Permutation(t) for t in itertools.permutations(range(n)))


def rand_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def inverse(p):
    inv = [0] * p.n
    for i, v in enumerate(p.images):
        inv[v] = i
    return Permutation(tuple(inv))


def conjugate(g, a):
    """a g a^{-1} (cycle type is preserved)."""
    if g.n != a.n:
        raise ValueError(f"degree mismatch: {g.n} != {a.n}")
    out = [0] * g.n
    for i, v in enumerate(g.images):
        out[a.images[i]] = a.images[v]
    return Permutation(tuple(out))


def base_involution(m):
    """h0 = (1 2)(3 4)...(2m-1 2m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return from_cycles(2 * m, [(2 * k - 1, 2 * k) for k in range(1, m + 1)])


def centralizes_h0(g, m):
    """Oracle for is_in_H: H as the centralizer of the base involution."""
    h0 = base_involution(m)
    return conjugate(h0, g) == h0


def intersection_oracle(g, m):
    """Oracle for intersection_subgroup: h is in gHg^{-1} iff g^{-1} h g
    centralizes the base involution."""
    ginv = inverse(g)
    out = [h for h in enumerate_H_oracle(m) if centralizes_h0(conjugate(h, ginv), m)]
    out.sort(key=lambda p: p.images)
    return out


def enumerate_H_oracle(m):
    """Oracle for the rows of _H_array: the (block permutation, sign
    vector) pairs as nested loops, one checked Permutation each."""
    out = []
    for sigma in itertools.permutations(range(m)):
        for signs in itertools.product((0, 1), repeat=m):
            images = [0] * (2 * m)
            for k in range(m):
                b = sigma[k]
                images[2 * k] = 2 * b + signs[k]
                images[2 * k + 1] = 2 * b + (signs[k] ^ 1)
            out.append(Permutation(tuple(images)))
    return out


def order_histogram_oracle(elements):
    """Oracle for _orders: the lcm of the lengths of the disjoint cycles of
    each element, counted."""
    return dict(Counter(math.lcm(*map(len, disjoint_cycles(p))) for p in elements))


def wreath_closure_oracle(lam):
    """Oracle for wreath_model: the group generated, for each part k, by
    a rotation by two edges and a color-preserving reflection of the first
    2k-gon, plus a swap and a cycle of the equal polygons, closed by a
    breadth-first search over image tuples; (order, order histogram)."""
    total = 2 * lam.m
    gens = []
    offset = 0
    for part, r in lam.counts:
        size = 2 * part
        offsets = [offset + t * size for t in range(r)]
        ident = list(range(total))
        rot = ident[:]
        for l in range(size):
            rot[offsets[0] + l] = offsets[0] + (l + 2) % size
        gens.append(tuple(rot))
        refl = ident[:]
        for l in range(size):
            refl[offsets[0] + l] = offsets[0] + (-l - 1) % size
        gens.append(tuple(refl))
        if r >= 2:
            swap = ident[:]
            for l in range(size):
                swap[offsets[0] + l] = offsets[1] + l
                swap[offsets[1] + l] = offsets[0] + l
            gens.append(tuple(swap))
        if r >= 3:
            cyc = ident[:]
            for t in range(r):
                dst = offsets[(t + 1) % r]
                for l in range(size):
                    cyc[offsets[t] + l] = dst + l
            gens.append(tuple(cyc))
        offset += r * size
    ident_t = tuple(range(total))
    seen = {ident_t}
    frontier = deque([ident_t])
    while frontier:
        cur = frontier.popleft()
        for gen in gens:
            nxt = tuple(gen[v] for v in cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen), order_histogram_oracle(Permutation(t) for t in seen)


def cycle_lengths_oracle(images):
    """Oracle for _cycle_lengths on one row: walk each cycle once."""
    out = [0] * len(images)
    for s in range(len(images)):
        if not out[s]:
            cycle, t = [s], images[s]
            while t != s:
                cycle.append(t)
                t = images[t]
            for t in cycle:
                out[t] = len(cycle)
    return out


def h_generators(m):
    """A small generating set of H: the first in-block swap plus adjacent
    block transpositions (all involutions)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2 * m
    gens = [from_cycles(n, [(1, 2)])]
    for k in range(1, m):
        gens.append(from_cycles(n, [(2 * k - 1, 2 * k + 1), (2 * k, 2 * k + 2)]))
    return gens


def matchings_oracle(n):
    """The least rows of the perfect matchings of 0..n-1, one per product
    of choices: the least unpaired symbol takes the c-th other unpaired
    symbol as its partner."""
    rows = []
    for choice in itertools.product(*(range(k) for k in range(n - 1, 0, -2))):
        free, row = list(range(n)), []
        for c in choice:
            s = free.pop(0)
            row += [s, free.pop(c)]
        rows.append(row)
    return sorted(rows)


def orbit_sweep_oracle(m):
    """Oracle for enumerate_double_cosets: a breadth-first search over
    tuples from each unseen permutation in lexicographic order, checking
    the walk's class partition on every element of the orbit."""
    n = 2 * m
    gens = [g.images for g in h_generators(m)]
    rights = [itemgetter(*gen) for gen in gens]  # cur -> cur o gen
    seen = set()
    orbits = []
    for start in itertools.permutations(range(n)):
        if start in seen:
            continue
        lengths = sorted(_walk(start, m)[1])
        orbit_size = 0
        queue = deque([start])
        seen.add(start)
        while queue:
            cur = queue.popleft()
            orbit_size += 1
            if sorted(_walk(cur, m)[1]) != lengths:
                raise AssertionError("class partition not constant on an orbit")
            for gen, right_of in zip(gens, rights):
                left = itemgetter(*cur)(gen)
                if left not in seen:
                    seen.add(left)
                    queue.append(left)
                right = right_of(cur)
                if right not in seen:
                    seen.add(right)
                    queue.append(right)
        orbits.append(OrbitClass(Partition.from_parts(lengths), orbit_size, Permutation(start)))
    orbits.sort(key=lambda o: str(o.lam))
    return orbits


def half_type(lengths):
    """The coset type read off one row of _coset_type_lengths: a part k
    is two k-cycles of q, so 2k symbols of cycle length k."""
    return Partition.from_parts([k for k, c in Counter(lengths).items()
                                 for _ in range(c // (2 * k))])


def rand_H_element(rng, m):
    """A random element of H: a random block permutation with random
    in-block swaps."""
    sigma = list(range(m))
    rng.shuffle(sigma)
    images = [0] * (2 * m)
    for k, b in enumerate(sigma):
        swap = rng.getrandbits(1)
        images[2 * k], images[2 * k + 1] = 2 * b + swap, 2 * b + (swap ^ 1)
    return Permutation(tuple(images))


def union_find_partition(g, m):
    """Oracle for partition_of: components of the block-matching graph by
    union-find (source blocks 0..m-1, image blocks m..2m-1), independent
    of the alternate-edge walk that the library uses."""
    n = 2 * m
    image_block = [0] * n
    for j in range(m):
        image_block[g.images[2 * j]] = j
        image_block[g.images[2 * j + 1]] = j
    parent = list(range(2 * m))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in range(n):
        a, b = find(s // 2), find(m + image_block[s])
        if a != b:
            parent[a] = b
    edges = {}
    for s in range(n):
        root = find(s // 2)
        edges[root] = edges.get(root, 0) + 1
    if any(e % 2 for e in edges.values()):
        raise AssertionError("component with an odd number of edges")
    return Partition.from_parts([e // 2 for e in edges.values()])


class TestBaseInvolution:
    """The h0 of the centralizer oracle."""

    def test_m1(self):
        assert cycle_string(base_involution(1)) == "(1 2)"

    def test_m2(self):
        assert cycle_string(base_involution(2)) == "(1 2)(3 4)"

    def test_involution_and_fixed_point_free(self):
        h0 = base_involution(7)
        assert compose(h0, h0) == identity(14)
        assert all(h0.images[i] != i for i in range(14))

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            base_involution(0)


class TestMembership:
    def test_h0_in_H(self):
        assert is_in_H(base_involution(3), 3)

    def test_block_swap_in_H(self):
        assert is_in_H(from_cycles(4, [(1, 3), (2, 4)]), 2)

    def test_single_transposition_not_in_H(self):
        assert not is_in_H(from_cycles(4, [(1, 3)]), 2)

    def test_centralizer_equals_block_preservation(self):
        for m in range(1, 5):
            for g in all_perms(2 * m):
                assert is_in_H(g, m) == centralizes_h0(g, m)
        rng = random.Random(5)
        for _ in range(300):
            g = rand_perm(rng, 12)
            assert is_in_H(g, 6) == centralizes_h0(g, 6)
        # members, and the same elements times a random transposition
        members = 0
        for _ in range(200):
            h = rand_H_element(rng, 50)
            i, j = rng.sample(range(100), 2)
            images = list(h.images)
            images[i], images[j] = images[j], images[i]
            for g in (h, Permutation(tuple(images))):
                assert is_in_H(g, 50) == centralizes_h0(g, 50)
                members += is_in_H(g, 50)
        assert 200 <= members < 400

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            is_in_H(identity(4), 3)


def H_images(m):
    return set(map(tuple, _H_array(m).tolist()))


class TestEnumerateH:
    """H as the rows of _H_array, against the loop oracle and the filter."""

    def test_m1(self):
        got = {cycle_string(Permutation(h)) for h in H_images(1)}
        assert got == {"()", "(1 2)"}

    def test_m2_matches_filter(self):
        from_filter = {g.images for g in all_perms(4) if is_in_H(g, 2)}
        assert H_images(2) == from_filter
        assert len(from_filter) == 8

    def test_m3_count_exhaustive(self):
        from_filter = {g.images for g in all_perms(6) if is_in_H(g, 3)}
        assert H_images(3) == from_filter
        assert len(from_filter) == 48

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_equals_loop_oracle(self, m):
        assert _H_array(m).tolist() == [list(h.images) for h in enumerate_H_oracle(m)]

    def test_array_read_only(self):
        for m in (1, 3, 5):
            H = _H_array(m)
            assert not H.flags.writeable
            with pytest.raises(ValueError):
                H[0, 0] = 1

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_is_usage_error(self, m):
        for fn in (h_generators, enumerate_double_cosets):
            with pytest.raises(ValueError, match="m must be >= 1"):
                fn(m)


class TestTCDecompose:
    """The unique factorization h = t_odd * t_even * c of every h in H:
    t_odd on the odd symbols, t_even the mirror image of the same block
    permutation on the even ones, and c a product of in-block swaps."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_uniqueness_over_all_triples(self, m):
        n = 2 * m
        odd_perms = []
        for sigma in itertools.permutations(range(m)):
            images = list(range(n))
            for k in range(m):
                images[2 * k] = 2 * sigma[k]
            odd_perms.append(Permutation(tuple(images)))
        even_perms = []
        for sigma in itertools.permutations(range(m)):
            images = list(range(n))
            for k in range(m):
                images[2 * k + 1] = 2 * sigma[k] + 1
            even_perms.append(Permutation(tuple(images)))
        c_elems = []
        for bits in itertools.product((0, 1), repeat=m):
            c_elems.append(from_cycles(
                n, [(2 * k + 1, 2 * k + 2) for k in range(m) if bits[k]]))
        products = {}
        for t_odd in odd_perms:
            for t_even in even_perms:
                te = compose(t_odd, t_even)
                for c in c_elems:
                    key = compose(te, c).images
                    products[key] = products.get(key, 0) + 1
        # every element of H is produced by exactly one candidate triple;
        # non-complementary triples land outside H and are irrelevant
        h_images = H_images(m)
        assert all(products.get(img, 0) == 1 for img in h_images)
        in_H_total = sum(cnt for img, cnt in products.items() if img in h_images)
        assert in_H_total == len(_H_array(m)) == 2**m * math.factorial(m)


class TestPartitionOf:
    def test_identity(self):
        for m in (1, 2, 5):
            assert str(partition_of(identity(2 * m), m)) == f"1^{m}"

    def test_spec_small_cases(self):
        assert str(partition_of(from_cycles(4, [(1, 3)]), 2)) == "2^1"
        assert str(partition_of(from_cycles(6, [(4, 5)]), 3)) == "1^1 2^1"
        assert str(partition_of(from_cycles(8, [(6, 7)]), 4)) == "1^2 2^1"

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_union_find_oracle_exhaustive(self, m):
        for g in all_perms(2 * m):
            assert partition_of(g, m) == union_find_partition(g, m)

    @pytest.mark.parametrize("m", [5, 8, 50, 200, 1000])
    def test_equals_union_find_oracle_random(self, m):
        rng = random.Random(11 * m)
        for _ in range(200):
            g = rand_perm(rng, 2 * m)
            assert partition_of(g, m) == union_find_partition(g, m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bi_invariance(self, m):
        rng = random.Random(100 + m)
        H = enumerate_H_oracle(m)
        for _ in range(500):
            g = rand_perm(rng, 2 * m)
            h1, h2 = rng.choice(H), rng.choice(H)
            assert partition_of(compose(compose(h1, g), h2), m) == partition_of(g, m)


def canonical_cycle_oracle(lam):
    """Part k on blocks j..j+k-1 as the even cycle (2j 2j+2 ... 2j+2k-2),
    the parts in descending order from block 1, as 1-indexed tuples."""
    cycles, j = [], 1
    for part in parts_desc(lam):
        cycles.append(tuple(2 * (j + t) for t in range(part)))
        j += part
    return cycles


class TestCanonicalRep:
    def test_all_ones(self):
        assert canonical_rep(Partition.parse("1^4"), 4) == identity(8)

    def test_single_part(self):
        rep = canonical_rep(Partition.parse("2^1"), 2)
        assert cycle_string(rep) == "(2 4)"
        assert str(partition_of(rep, 2)) == "2^1"

    def test_mixed(self):
        rep = canonical_rep(Partition.parse("1^1 2^1"), 3)
        assert cycle_string(rep) == "(2 4)"

    def test_partition_roundtrip_all_m6(self):
        for lam in enumerate_partitions(6):
            assert partition_of(canonical_rep(lam, 6), 6) == lam

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            canonical_rep(Partition.parse("2^1"), 3)

    def test_equals_cycle_construction(self):
        for m in range(1, 11):
            for lam in enumerate_partitions(m):
                assert canonical_rep(lam, m) == from_cycles(2 * m, canonical_cycle_oracle(lam))


class TestCanonicalCycles:
    """The text built from the parts alone against the cycle-construction
    oracle, written out as cycle text: the nontrivial cycles, each in
    parentheses, or "()"."""

    @staticmethod
    def check(counts, m):
        cycles = canonical_cycle_oracle(Partition(counts, m))
        oracle = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles if len(c) > 1)
        assert canonical_cycles(counts, m) == (oracle or "()"), (counts, m)

    def test_every_partition_m_le_25(self):
        for m in range(26):
            for lam in enumerate_partitions(m):
                self.check(lam.counts, m)

    def test_every_20th_partition_m45(self):
        checked = 0
        for counts, _ in itertools.islice(iter_counts(45), 0, None, 20):
            self.check(counts, 45)
            checked += 1
        assert checked > 4000

    def test_fixed_cases(self):
        assert canonical_cycles(((1, 3),), 3) == "()"
        assert canonical_cycles((), 0) == "()"
        assert canonical_cycles(((1, 1), (2, 2)), 5) == "(2 4)(6 8)"
        assert canonical_cycles(((5, 1),), 5) == "(2 4 6 8 10)"


class TestOrderFormulas:
    def test_full_group(self):
        for m in (1, 3, 6):
            lam = Partition.parse(f"1^{m}")
            assert predicted_intersection_order(lam) == 2**m * math.factorial(m)

    def test_klein_four(self):
        assert predicted_intersection_order(Partition.parse("2^1")) == 4

    def test_two_dihedral(self):
        assert predicted_intersection_order(Partition.parse("1^1 3^1")) == 12

    def test_coset_sizes_m2(self):
        assert double_coset_size(Partition.parse("1^2"), 2) == 8
        assert double_coset_size(Partition.parse("2^1"), 2) == 16
        assert 8 + 16 == math.factorial(4)

    def test_coset_sizes_m4_sum(self):
        sizes = sorted(double_coset_size(lam, 4) for lam in enumerate_partitions(4))
        assert sizes == [384, 4608, 4608, 12288, 18432]
        assert sum(sizes) == math.factorial(8)

    @pytest.mark.parametrize("m", list(range(1, 31)))
    def test_mass_identity(self, m):
        total = sum(double_coset_size(lam, m) for lam in enumerate_partitions(m))
        assert total == math.factorial(2 * m)


class TestIntersectionSubgroup:
    def test_identity_gives_H(self):
        sub = intersection_subgroup(identity(6), 3)
        assert {p.images for p in sub} == H_images(3)

    def test_klein_four_elements(self):
        sub = intersection_subgroup(from_cycles(4, [(1, 3)]), 2)
        got = {cycle_string(p) for p in sub}
        assert got == {"()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"}

    def test_m3_nontrivial_class(self):
        sub = intersection_subgroup(from_cycles(6, [(2, 3), (4, 5)]), 3)
        assert len(sub) == 6

    def test_closure(self):
        sub = intersection_subgroup(from_cycles(6, [(4, 5)]), 3)
        elems = {p.images for p in sub}
        for a in sub:
            assert inverse(a).images in elems
            for b in sub:
                assert compose(a, b).images in elems

    def test_conjugation_equivariance(self):
        rng = random.Random(9)
        m = 3
        H = enumerate_H_oracle(m)
        for _ in range(10):
            g = rand_perm(rng, 2 * m)
            h = rng.choice(H)
            lhs = {p.images for p in intersection_subgroup(compose(h, g), m)}
            rhs = {conjugate(p, h).images for p in intersection_subgroup(g, m)}
            assert lhs == rhs

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_equals_conjugation_oracle(self, m):
        # whole lists, so the order is checked too
        gs = [canonical_rep(lam, m) for lam in enumerate_partitions(m)]
        if m >= 2:
            rng = random.Random(40 + m)
            gs += [rand_perm(rng, 2 * m) for _ in range(10)]
        for g in gs:
            assert intersection_subgroup(g, m) == intersection_oracle(g, m)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            intersection_subgroup(identity(12), 6)


class TestWreathModel:
    def test_single_block(self):
        assert wreath_model(Partition.parse("1^1")) == (2, {1: 1, 2: 1})

    def test_six_element_dihedral(self):
        order, hist = wreath_model(Partition.parse("3^1"))
        assert order == 6
        assert hist == {1: 1, 2: 3, 3: 2}

    def test_two_squares(self):
        assert wreath_model(Partition.parse("2^2"))[0] == 32

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_fingerprints_match_brute_force(self, m):
        for lam in enumerate_partitions(m):
            rows = _intersection_rows(canonical_rep(lam, m), m)
            order, hist = wreath_model(lam)
            assert order == len(rows)
            sub = [Permutation(tuple(row)) for row in rows.tolist()]
            assert hist == _orders(rows) == order_histogram_oracle(sub)

    @pytest.mark.parametrize("m", range(7))
    def test_equals_closure_oracle(self, m):
        for lam in enumerate_partitions(m):
            assert wreath_model(lam) == wreath_closure_oracle(lam)

    @pytest.mark.parametrize("text", ["3^2", "4^2", "2^3", "1^2 5^1", "1^3 2^2",
                                      # 2m above int8 and above uint8
                                      "70^1", "150^1"])
    def test_equals_closure_oracle_beyond(self, text):
        lam = Partition.parse(text)
        assert wreath_model(lam) == wreath_closure_oracle(lam)

    def test_weight_zero(self):
        assert wreath_model(Partition.parse("")) == (1, {1: 1})

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            wreath_model(Partition.parse("1^12"))

    @pytest.fixture
    def refuse_to_build(self, monkeypatch):
        def refuse(r):
            raise RuntimeError("built")

        monkeypatch.setattr(cosets, "_lex_permutations", refuse)

    def test_cap_bounds_the_work(self, refuse_to_build):
        # order * (2m)^2: 2k * (2k)^2 is 99 897 344 at k = 232, 101 194 696
        # at k = 233; the cap must fall before anything is built
        with pytest.raises(ResourceLimitError):
            wreath_model(Partition.parse("233^1"))

    def test_cap_admits_below(self, refuse_to_build):
        for text in ("232^1", "1^6"):
            with pytest.raises(RuntimeError, match="built"):
                wreath_model(Partition.parse(text))


def order_rows(elements, n):
    """The images of permutations of degree n as rows of the least dtype."""
    return np.array([p.images for p in elements], np.min_scalar_type(n)).reshape(len(elements), n)


class TestOrderHistogram:
    """_orders on permutation rows, against the disjoint-cycle oracle."""

    @pytest.mark.parametrize("n", [1, 2, 8, 130, 300])
    def test_cycle_lengths_equal_walk(self, n):
        rng = np.random.default_rng(n)
        rows = [list(range(n)), list(range(1, n)) + [0]]  # identity, one n-cycle
        rows += [rng.permutation(n).tolist() for _ in range(200)]
        for dtype in [np.min_scalar_type(n)] + [np.dtype(np.int8)] * (n < 128):
            got = _cycle_lengths(np.array(rows, dtype))
            assert got.dtype == dtype
            assert got.tolist() == [cycle_lengths_oracle(row) for row in rows]

    @pytest.mark.parametrize("n", [0, 1, 6, 42, 43, 300])
    def test_equals_oracle(self, n):
        rng = random.Random(n)
        elements = [identity(n)] + [rand_perm(rng, n) for _ in range(300)]
        assert _orders(order_rows(elements, n)) == order_histogram_oracle(elements)

    def test_order_beyond_int64(self):
        # one cycle of each prime length up to 53: order 2*3*...*53 > 2^63
        primes = [p for p in range(2, 54) if all(p % d for d in range(2, p))]
        images, s = [], 0
        for p in primes:
            images += list(range(s + 1, s + p)) + [s]
            s += p
        g = Permutation(tuple(images))
        got = _orders(order_rows([g], g.n))
        assert got == {math.prod(primes): 1} == order_histogram_oracle([g])
        assert math.prod(primes) > 2**63

    def test_empty(self):
        for n in (0, 6):
            assert _orders(np.zeros((0, n), np.int8)) == {}


class TestOrbitSweep:
    def test_m2(self):
        orbits = enumerate_double_cosets(2)
        assert len(orbits) == 2
        assert sorted(o.size for o in orbits) == [8, 16]

    def test_m3(self):
        orbits = enumerate_double_cosets(3)
        assert len(orbits) == 3
        expected = sorted(double_coset_size(lam, 3) for lam in enumerate_partitions(3))
        assert sorted(o.size for o in orbits) == expected

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_double_cosets(5)

    def test_lex_permutations(self):
        for n in range(9):
            expected = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
            got = _lex_permutations(n)
            assert got.dtype == np.int8
            assert np.array_equal(got, expected.reshape(math.factorial(n), n))

    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8, 10, 12])
    def test_matchings(self, n):
        M = _matchings(n)
        assert M.dtype == np.int8
        assert len(M) == math.prod(range(n - 1, 0, -2))
        assert M.tolist() == matchings_oracle(n)
        partners = _partners(M).tolist()
        for row, partner in zip(M.tolist(), partners):
            assert all(partner[row[j]] == row[j ^ 1] for j in range(n))
        # the sweep's base-16 keys sort like the rows: every symbol is a
        # hex digit, and the partner rows strictly increase
        assert all(0 <= s < 16 for row in partners for s in row)
        assert all(a < b for a, b in zip(partners, partners[1:]))

    @pytest.mark.parametrize("m", [5, 6])
    def test_beyond_cli_cap(self, m, monkeypatch):
        lex = cosets._lex_permutations

        def refuse_S_2m(n):
            if n == 2 * m:
                raise RuntimeError("S_2m built")
            return lex(n)

        monkeypatch.setattr(cosets, "ORBIT_SWEEP_MAX_M", 6)
        monkeypatch.setattr(cosets, "_lex_permutations", refuse_S_2m)
        orbits = enumerate_double_cosets(m)
        assert len(orbits) == partition_count(m)
        sizes = sorted(o.size for o in orbits)
        assert sizes == sorted(double_coset_size(lam, m) for lam in enumerate_partitions(m))
        assert sum(sizes) == math.factorial(2 * m)
        for o in orbits:
            row = _coset_type_lengths(np.array([o.representative.images], np.int8))[0]
            assert half_type(row.tolist()) == o.lam

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_bfs_oracle(self, m):
        assert enumerate_double_cosets(m) == orbit_sweep_oracle(m)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_invariant_equals_partition_of(self, m):
        # half the cycle type of h0 * g h0 g^{-1}, against the walk, on all of S_2m
        perms = list(itertools.permutations(range(2 * m)))
        lengths = _coset_type_lengths(np.array(perms, dtype=np.int8))
        for images, row in zip(perms, lengths.tolist()):
            assert half_type(row) == partition_of(Permutation(images), m)

    def test_constancy_check_fires(self, monkeypatch):
        # the rows of P themselves are not constant on any orbit of size > 1
        monkeypatch.setattr(cosets, "_coset_type_lengths", lambda P: P.copy())
        with pytest.raises(AssertionError, match="not constant"):
            enumerate_double_cosets(3)


class TestEvenSupportReduction:
    def assert_valid(self, g, m, red):
        n = 2 * m
        assert all(red.result.images[i] == i for i in range(0, n, 2))
        assert is_in_H(red.left, m) and is_in_H(red.right, m)
        assert compose(compose(red.left, g), red.right) == red.result
        assert partition_of(red.result, m) == partition_of(g, m)

    def test_identity(self):
        red = reduce_to_even_support(identity(6), 3)
        assert red.result == identity(6)

    def test_transposition_m2_membership_by_scan(self):
        g = from_cycles(4, [(1, 3)])
        red = reduce_to_even_support(g, 2)
        self.assert_valid(g, 2, red)
        H = enumerate_H_oracle(2)
        coset = {compose(compose(h1, g), h2).images for h1 in H for h2 in H}
        assert red.result.images in coset

    def test_three_cycle_m2(self):
        g = from_cycles(4, [(1, 2, 3)])
        red = reduce_to_even_support(g, 2)
        self.assert_valid(g, 2, red)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_small(self, m):
        for g in all_perms(2 * m):
            self.assert_valid(g, m, reduce_to_even_support(g, m))

    def test_randomized_larger(self):
        rng = random.Random(31)
        for m in (4, 5, 6, 8):
            for _ in range(200):
                g = rand_perm(rng, 2 * m)
                self.assert_valid(g, m, reduce_to_even_support(g, m))

    @pytest.mark.parametrize("m", [50, 300, 1000])
    def test_randomized_large(self, m):
        rng = random.Random(m)
        for _ in range(5):
            g = rand_perm(rng, 2 * m)
            self.assert_valid(g, m, reduce_to_even_support(g, m))

    @pytest.mark.parametrize("m", [5, 12, 50, 300, 1000])
    def test_block_map_cycle_type_matches_classifier(self, m):
        # the result permutes the even symbols 2k as blocks; the cycle type
        # of that block map, found by a plain walk, must be the class the
        # union-find oracle reads off g
        rng = random.Random(7 * m + 1)
        for _ in range(10):
            g = rand_perm(rng, 2 * m)
            block_map = [v // 2 for v in reduce_to_even_support(g, m).result.images[1::2]]
            seen = [False] * m
            lengths = []
            for k in range(m):
                length = 0
                while not seen[k]:
                    seen[k] = True
                    k = block_map[k]
                    length += 1
                if length:
                    lengths.append(length)
            assert Partition.from_parts(lengths) == union_find_partition(g, m)

    def test_no_cycle_decomposition(self, monkeypatch):
        import coset_ewens.perm as perm

        def refuse(p):
            raise AssertionError("disjoint_cycles called")

        monkeypatch.setattr(perm, "disjoint_cycles", refuse)
        g = rand_perm(random.Random(5), 400)
        self.assert_valid(g, 200, reduce_to_even_support(g, 200))


class TestTheoremOrderCheck:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_brute_force_matches_formula(self, m):
        for lam in enumerate_partitions(m):
            sub = intersection_subgroup(canonical_rep(lam, m), m)
            assert len(sub) == predicted_intersection_order(lam)
