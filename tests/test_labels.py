import random
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from riverscape import (FreeGroup, GreedyColoring, IntegerGroup,
                        ProperLabelRule, ball, separation_index)

F2 = FreeGroup(2)
F3 = FreeGroup(3)
Z = IntegerGroup()

bits = st.text(alphabet="01", max_size=40)


def interleave(u, v):
    """Oracle: the alternating merge u1 v1 u2 v2 ... of two equal-length
    bit strings."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return "".join(a + b for a, b in zip(u, v))


def project_odd(w):
    """Oracle: the odd-position (1-based) subsequence."""
    return w[::2]


def project_even(w):
    """Oracle: the even-position (1-based) subsequence."""
    return w[1::2]


class WordGreedyColoring:
    """Reference coloring on words: a word's competitors are found by
    multiplying it with every nontrivial offset of B_k and comparing
    ``sort_key``s; uncolored earlier competitors are colored first by an
    explicit depth-first search."""

    def __init__(self, spec, k):
        self.spec = spec
        self._colors = {}
        self._offsets = tuple(
            w for w in ball(spec, k).vertices if spec.length(w) > 0
        )

    def color(self, word):
        colors = self._colors
        spec = self.spec
        stack = [word]
        while stack:
            w = stack[-1]
            if w in colors:
                stack.pop()
                continue
            key = spec.sort_key(w)
            pending = False
            used = set()
            for off in self._offsets:
                nb = spec.mul(w, off)
                if spec.sort_key(nb) < key:
                    c = colors.get(nb)
                    if c is None:
                        stack.append(nb)
                        pending = True
                    else:
                        used.add(c)
            if pending:
                continue
            stack.pop()
            c = 1
            while c in used:
                c += 1
            colors[w] = c
        return colors[word]


# the windows the oracle is compared on; it is built once per group on
# the largest one and reused, since colors are intrinsic to the word
ORACLE_WINDOWS = [
    pytest.param(spec, radius, id=f"{name}-B{radius}")
    for name, spec, radii in (("F2", F2, (5, 6, 7, 8)), ("F3", F3, (4, 5)),
                              ("Z", Z, (200,)))
    for radius in radii
]
ORACLE_TOP = {F2: 8, F3: 5, Z: 200}
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@lru_cache(maxsize=None)
def oracle_colors(spec, k):
    reference = WordGreedyColoring(spec, k)
    return {w: reference.color(w)
            for w in ball(spec, ORACLE_TOP[spec]).vertices}


def shuffled_window(spec, radius, seed):
    words = list(ball(spec, radius).vertices)
    random.Random(seed).shuffle(words)
    return words


class TestBitPlumbing:
    @given(bits, bits)
    def test_interleave_projections(self, u, v):
        n = min(len(u), len(v))
        u, v = u[:n], v[:n]
        w = interleave(u, v)
        assert project_odd(w) == u
        assert project_even(w) == v

    def test_interleave_length_mismatch(self):
        with pytest.raises(ValueError):
            interleave("01", "011")

    def test_positions_are_one_based(self):
        assert project_odd("10") == "1"
        assert project_even("10") == "0"


class TestSeparationIndex:
    def test_frozen_values_f2(self):
        # d = 4: blocks 5, 17, 65, 257
        assert separation_index(F2, 1) == 5
        assert separation_index(F2, 2) == 22
        assert separation_index(F2, 4) == 344

    def test_frozen_values_z(self):
        # d = 2: blocks 3, 5
        assert separation_index(Z, 1) == 3
        assert separation_index(Z, 2) == 8

    def test_zero_and_negative(self):
        assert separation_index(F2, 0) == 0
        with pytest.raises(ValueError):
            separation_index(F2, -1)


class TestGreedyColoring:
    @pytest.mark.parametrize("k", [1, 2])
    def test_proper_on_distance_k_graph(self, k):
        coloring = GreedyColoring(F2, k)
        win = ball(F2, 4)
        colors = {w: coloring.color(w) for w in win.vertices}
        for u in win.vertices:
            for v in win.vertices:
                if u != v and F2.dist(u, v) <= k:
                    assert colors[u] != colors[v]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_palette_bound(self, k):
        coloring = GreedyColoring(F2, k)
        win = ball(F2, 4)
        for w in win.vertices:
            assert 1 <= coloring.color(w) <= F2.degree**k + 1

    def test_integer_coloring_proper(self):
        coloring = GreedyColoring(Z, 3)
        colors = {n: coloring.color(n) for n in range(-30, 31)}
        for a in range(-30, 28):
            for b in range(a + 1, min(a + 4, 31)):
                assert colors[a] != colors[b]

    def test_identity_gets_color_one(self):
        assert GreedyColoring(F2, 2).color(()) == 1

    def test_window_free(self):
        # colors are intrinsic: two independent instances agree
        a = GreedyColoring(F2, 2)
        b = GreedyColoring(F2, 2)
        for w in ball(F2, 3).vertices:
            assert a.color(w) == b.color(w)


class TestAgainstWordOracle:
    # the index-space coloring fills every index up to the one asked
    # for, so the oracle is queried in a random order; a failing seed is
    # reported as drawn, since shrinking a seed gains nothing

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec,radius", ORACLE_WINDOWS)
    @settings(max_examples=3, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_colors_in_random_order(self, spec, radius, k, seed):
        expected = oracle_colors(spec, k)
        coloring = GreedyColoring(spec, k)
        for w in shuffled_window(spec, radius, seed):
            assert coloring.color(w) == expected[w], w

    @pytest.mark.parametrize("spec,radius", ORACLE_WINDOWS)
    @settings(max_examples=3, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_labels_at_s3_in_random_order(self, spec, radius, seed):
        d = spec.degree
        s3 = separation_index(spec, 3)
        rule = ProperLabelRule(spec)
        for w in shuffled_window(spec, radius, seed):
            expected = "".join(
                "0" * (c - 1) + "1" + "0" * (d**k + 1 - c)
                for k in (1, 2, 3) for c in [oracle_colors(spec, k)[w]]
            )
            assert rule.label(w, s3) == expected, w


class TestProperLabel:
    def test_prefix_monotone(self):
        rule = ProperLabelRule(F2)
        w = (1, 2, -1)
        full = rule.label(w, 100)
        for s in (0, 1, 5, 22, 99):
            assert rule.label(w, s) == full[:s]

    def test_block_structure(self):
        # first block has length d^1 + 1 and is an indicator vector
        rule = ProperLabelRule(F2)
        for w in ball(F2, 2).vertices:
            block = rule.label(w, 5)
            assert block.count("1") == 1

    def test_separation_within_s_r(self):
        rule = ProperLabelRule(F2)
        win = ball(F2, 4)
        s2 = separation_index(F2, 2)
        labels = {w: rule.label(w, s2) for w in win.vertices}
        for u in win.vertices:
            for v in win.vertices:
                if u != v and F2.dist(u, v) <= 2:
                    assert labels[u] != labels[v]

    def test_integer_separation(self):
        rule = ProperLabelRule(Z)
        s2 = separation_index(Z, 2)
        labels = {n: rule.label(n, s2) for n in range(-20, 21)}
        for a in range(-20, 19):
            for b in range(a + 1, min(a + 3, 21)):
                assert labels[a] != labels[b]
