import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coset_ewens.partitions import Partition
from coset_ewens.perm import (
    Permutation,
    compose,
    cycle_string,
    disjoint_cycles,
    from_cycles,
    identity,
    parse_permutation,
)
from test_cosets import conjugate, inverse


def cycle_type(g):
    """Cycle type from the lengths of ``disjoint_cycles``, fixed points
    included as parts 1."""
    lengths = [len(cyc) for cyc in disjoint_cycles(g)]
    return Partition.from_parts(lengths + [1] * (g.n - sum(lengths)))


def one_line_string(g):
    return "[" + ",".join(str(v + 1) for v in g.images) + "]"


def walk_cycle_type(g):
    """Per-element cycle walk: the oracle for disjoint_cycles' lengths."""
    seen = [False] * g.n
    parts = []
    for i in range(g.n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            length += 1
            j = g.images[j]
        parts.append(length)
    return Partition.from_parts(parts)


def rand_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


class TestCompose:
    def test_identity_composes_to_identity(self):
        assert compose(identity(4), identity(4)) == identity(4)

    def test_involution_squares_to_identity(self):
        t = from_cycles(3, [(1, 2)])
        assert compose(t, t) == identity(3)

    def test_left_action_pointwise(self):
        # apply (2 3) first, then (1 2): 1->1->2, 2->3->3, 3->2->1
        got = compose(from_cycles(3, [(1, 2)]), from_cycles(3, [(2, 3)]))
        assert [v + 1 for v in got.images] == [2, 3, 1]
        assert cycle_string(got) == "(1 2 3)"

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))


class TestConjugate:
    def test_by_identity(self):
        g = from_cycles(5, [(1, 4, 2)])
        assert conjugate(g, identity(5)) == g

    def test_hand_example(self):
        got = conjugate(from_cycles(4, [(1, 3)]), from_cycles(4, [(3, 4)]))
        assert cycle_string(got) == "(1 4)"

    def test_preserves_cycle_type(self):
        rng = random.Random(1)
        for _ in range(1000):
            n = rng.randrange(2, 21)
            g, a = rand_perm(rng, n), rand_perm(rng, n)
            assert cycle_type(conjugate(g, a)) == cycle_type(g)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(identity(3), identity(5))


class TestCycleType:
    def test_identity(self):
        assert str(cycle_type(identity(6))) == "1^6"

    def test_two_transpositions(self):
        assert str(cycle_type(from_cycles(8, [(2, 4), (6, 8)]))) == "1^4 2^2"

    def test_three_cycle(self):
        assert str(cycle_type(from_cycles(6, [(2, 4, 6)]))) == "1^3 3^1"

    @pytest.mark.parametrize("n", range(7))
    def test_equals_walk_on_all_of_S_n(self, n):
        for images in itertools.permutations(range(n)):
            g = Permutation(images)
            assert cycle_type(g) == walk_cycle_type(g)

    def test_equals_walk_at_n_200(self):
        rng = random.Random(200)
        for _ in range(200):
            g = rand_perm(rng, 200)
            assert cycle_type(g) == walk_cycle_type(g)


@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(*[st.permutations(list(range(n))) for _ in range(3)])))
def test_associativity(triple):
    p, q, r = (Permutation(tuple(t)) for t in triple)
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(list(range(n)))))
def test_inverse_both_orders(images):
    p = Permutation(tuple(images))
    assert compose(p, inverse(p)) == identity(p.n)
    assert compose(inverse(p), p) == identity(p.n)


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(list(range(n)))))
def test_cycle_roundtrip(images):
    p = Permutation(tuple(images))
    assert from_cycles(p.n, disjoint_cycles(p)) == p


@settings(max_examples=200)
@given(st.integers(2, 20).flatmap(
    lambda n: st.tuples(st.permutations(list(range(n))),
                        st.permutations(list(range(n))))))
def test_conjugation_invariance_property(pair):
    g, a = Permutation(tuple(pair[0])), Permutation(tuple(pair[1]))
    assert cycle_type(conjugate(g, a)) == cycle_type(g)


class TestTextFormats:
    def test_cycle_string_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            p = rand_perm(rng, 9)
            assert parse_permutation(cycle_string(p), 9) == p
            assert parse_permutation(one_line_string(p), 9) == p

    def test_identity_forms(self):
        assert parse_permutation("()", 4) == identity(4)
        assert parse_permutation("[3,4,1,2]", 4) == from_cycles(4, [(1, 3), (2, 4)])

    def test_rejects_repeated_symbols(self):
        with pytest.raises(ValueError):
            parse_permutation("(1 2)(2 3)", 4)
        with pytest.raises(ValueError):
            parse_permutation("[1,1,2,3]", 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_permutation("(1 9)", 4)
        with pytest.raises(ValueError):
            parse_permutation("[1,2,3,5]", 4)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_permutation("(1 2) extra", 4)
        with pytest.raises(ValueError):
            parse_permutation("[1,2,3", 3)


class TestBijectionCheck:
    """``Permutation`` is the one range and repeat check of an image tuple;
    its message names the first bad symbol, 1-indexed, and stays short at
    any degree."""
    N = 20_000

    @pytest.mark.parametrize("images, message", [
        ((0, 1, 9), "^symbol 10 out of range 1..3$"),
        ((0, -1, 2), "^symbol 0 out of range 1..3$"),
        ((0, 1, 1), "^repeated symbol 2$"),
        ((0, "1", 2), "^symbol must be an integer, got str$"),
        ((0, 1.0, 2), "^symbol must be an integer, got float$"),
        (tuple(range(1, 30)) + (0, 5), "^repeated symbol 6$"),
    ])
    def test_names_the_first_bad_symbol(self, images, message):
        with pytest.raises(ValueError, match=message):
            Permutation(images)

    @pytest.mark.parametrize("cycles, message", [
        ([(1, "2")], "^symbol must be an integer, got str$"),
        ([(1, 2.0)], "^symbol must be an integer, got float$"),
        ([(1, None)], "^symbol must be an integer, got NoneType$"),
        ([(1, 4)], "^symbol 4 out of range 1..3$"),
        ([(1, 2), (3, 1)], "^repeated symbol 1 in cycles$"),
    ])
    def test_from_cycles_names_the_bad_symbol(self, cycles, message):
        with pytest.raises(ValueError, match=message):
            from_cycles(3, cycles)

    def test_from_cycles_numpy_symbols(self):
        assert from_cycles(3, [(np.int64(1), np.uint16(3))]) == from_cycles(3, [(1, 3)])

    def short_error(self, make):
        with pytest.raises(ValueError) as info:
            make()
        assert len(str(info.value)) < 100
        return str(info.value)

    def test_image_tuple_at_n_20000(self):
        images = list(range(self.N))
        images[-1] = self.N
        assert self.short_error(lambda: Permutation(tuple(images))) == \
            f"symbol {self.N + 1} out of range 1..{self.N}"
        images[-1] = 7
        assert self.short_error(lambda: Permutation(tuple(images))) == "repeated symbol 8"

    def test_one_line_text_at_n_20000(self):
        values = list(range(1, self.N + 1))
        values[-1] = self.N + 1
        text = "[" + ",".join(map(str, values)) + "]"
        assert self.short_error(lambda: parse_permutation(text, self.N)) == \
            f"symbol {self.N + 1} out of range 1..{self.N}"
        values[-1] = 3
        text = "[" + ",".join(map(str, values)) + "]"
        assert self.short_error(lambda: parse_permutation(text, self.N)) == "repeated symbol 3"

    def test_cycle_text_at_n_20000(self):
        cycle = " ".join(map(str, range(1, self.N + 1)))
        text = f"({cycle} {self.N + 1})"
        assert self.short_error(lambda: parse_permutation(text, self.N)) == \
            f"symbol {self.N + 1} out of range 1..{self.N}"
        text = f"({cycle} 5)"
        assert self.short_error(lambda: parse_permutation(text, self.N)) == \
            "repeated symbol 5 in cycles"

    def test_bad_token_is_named_not_the_text(self):
        text = "[" + ",".join(map(str, range(1, self.N))) + ",x]"
        assert "'x'" in self.short_error(lambda: parse_permutation(text, self.N))
        text = "(" + " ".join(map(str, range(1, self.N))) + " y)"
        assert "'y'" in self.short_error(lambda: parse_permutation(text, self.N))
