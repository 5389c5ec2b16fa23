import pytest
from fractions import Fraction
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from riverscape import (CodeBlock, CodeBudgetError, CodeFormatError,
                        FreeGroup, RiverLandscape, ball, block_subset,
                        decode_witness, defect, defect_bound, double_word,
                        encode_blocks, encode_witness, kappa, offset_ball,
                        parse_code, reference_radius, subset_from_index,
                        subset_index, tree_witness_path, undouble_word,
                        witness_subset_index)
from riverscape.witness import defect_table, merge_positions, river_rays

F2 = FreeGroup(2)
F3 = FreeGroup(3)
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


class TestTreePath:
    def test_on_ray_walks_the_ray(self):
        assert tree_witness_path((), 3) == [(), (1,), (1, 1)]

    def test_descends_then_climbs(self):
        # from b: down to e, then along the a-ray
        assert tree_witness_path((2,), 3) == [(2,), (), (1,)]

    def test_junction_inside_ray_prefix(self):
        # aab descends to its ray junction aa, then climbs the ray
        path = tree_witness_path((1, 1, 2), 6)
        assert path == [(1, 1, 2), (1, 1), (1, 1, 1), (1, 1, 1, 1),
                        (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)]

    def test_length_is_m(self):
        for w in ball(F2, 4).vertices:
            for m in (1, 3, 7):
                path = tree_witness_path(w, m)
                assert len(path) == m
                assert len(set(path)) == m

    def test_path_coherence(self):
        # tree-adjacent sources give witness paths with small symmetric
        # difference: at most 2a elements for tree distance a
        tree = ball(F2, 3).vertices
        for p in tree:
            for q in tree:
                a = F2.dist(p, q)
                if 0 < a <= 2:
                    sym = set(tree_witness_path(p, 8)) \
                        ^ set(tree_witness_path(q, 8))
                    assert len(sym) <= 2 * a

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            tree_witness_path((), 0)


class TestKappa:
    def test_frozen_value_at_identity(self, river):
        assert kappa(river, (), 3) == ((), (1, 1), (1, 1, 1, 1))

    def test_size_is_m(self, river):
        for w in ball(F2, 5).vertices:
            for m in (1, 5, 20):
                assert len(set(kappa(river, w, m))) == m

    def test_values_on_river(self, river):
        for w in ball(F2, 4).vertices:
            for p in kappa(river, w, 4):
                assert river.is_river(p)

    def test_containment_radius(self, river):
        # kappa_m(g) within (H(g) - 1) + C m of g, C = 2
        for w in ball(F2, 5).vertices:
            for m in (1, 4, 10):
                radius = (river.height(w) - 1) + 2 * m
                assert all(
                    F2.dist(w, p) <= radius for p in kappa(river, w, m)
                )

    def test_nearest_river_distance(self, river):
        for w in ball(F2, 6).vertices:
            p = river.nearest_river(w)
            assert F2.dist(w, p) == river.height(w) - 1


class TestDefect:
    def test_equal_witness_sets_have_zero_defect(self, river):
        # gamma = aaab and sibling aaab^-1 share the nearest point aaaa
        g = (1, 1, 1, 1, 2)
        h = F2.apply_letter(g, -2)
        if kappa(river, g, 5) == kappa(river, h, 5):
            assert defect(river, h, 2, 5) == 0

    def test_defect_bounded(self, river):
        for g in ball(F2, 4).vertices:
            for sigma in F2.letters():
                for m in (5, 10):
                    assert defect(river, g, sigma, m) \
                        <= defect_bound(river, g, m)

    def test_defect_is_exact_rational(self, river):
        d = defect(river, (), 1, 3)
        assert isinstance(d, Fraction)
        assert d.denominator in (1, 3)

    def test_bound_formula(self, river):
        g = (1, 2)
        assert defect_bound(river, g, 10) \
            == Fraction(2 * (river.height(g) + 2) * 2, 10)


def assert_table_matches_oracle(spec, radius, m_values):
    """Every row of the closed-form table equals the word-level defect
    and ceiling, and the rows come in (vertex, letter, m) order."""
    river = RiverLandscape(spec)
    win = ball(spec, radius)
    rows = defect_table(river, win, m_values)
    assert [row[:3] for row in rows] == [
        (i, sigma, m)
        for i in range(win.core_size(radius - 1))
        for sigma in spec.letters()
        for m in m_values
    ]
    for i, sigma, m, d, b in rows:
        g = win.vertices[i]
        assert Fraction(d, m) == defect(river, g, sigma, m), (g, sigma, m)
        assert Fraction(b, m) == defect_bound(river, g, m), (g, m)


def ray_junction(s):
    j = 0
    while j < len(s) and s[j] == 1:
        j += 1
    return j


def common_prefix(s, t):
    c = 0
    while c < min(len(s), len(t)) and s[c] == t[c]:
        c += 1
    return c


class TestDefectTable:
    def test_merge_positions_on_every_pair(self):
        # any two tree vertices: the nested pairs of neighbours that the
        # table meets never take the branch that merges on the ray
        tree = ball(F2, 4).vertices
        for s in tree:
            for s2 in tree:
                t, t2 = merge_positions(len(s), ray_junction(s), len(s2),
                                        ray_junction(s2),
                                        common_prefix(s, s2))
                for m in (1, 2, 3, 5, 9):
                    sym = set(tree_witness_path(s, m)) \
                        ^ set(tree_witness_path(s2, m))
                    assert len(sym) == 2 * min(m, max(t, t2)), (s, s2, m)

    @pytest.mark.parametrize("spec,radius", [(F2, 6), (F3, 4)])
    def test_river_rays_against_words(self, spec, radius):
        river = RiverLandscape(spec)
        win = ball(spec, radius)
        size, junction = river_rays(river, win)
        for w, n, j in zip(win.vertices, size, junction):
            s = undouble_word(river.nearest_river(w))
            assert n == len(s)
            assert s[:j] == (1,) * j and s[j:j + 1] != (1,)

    @pytest.mark.parametrize("spec,radius", [(F2, 7), (F3, 5)])
    def test_every_row_against_the_oracle(self, spec, radius):
        assert_table_matches_oracle(spec, radius, list(range(1, 13)))

    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(spec=st.sampled_from([F2, F3]), radius=st.integers(0, 5),
           m_values=st.lists(st.integers(1, 25), min_size=1, max_size=4,
                             unique=True))
    def test_drawn_windows_against_the_oracle(self, spec, radius, m_values):
        assert_table_matches_oracle(spec, radius, m_values)

    def test_m_below_one_rejected(self, river):
        with pytest.raises(ValueError):
            defect_table(river, ball(F2, 3), [2, 0])


class TestSubsetEnumeration:
    @given(st.integers(1, 120), st.integers(2, 9))
    def test_round_trip(self, index, n):
        if index <= 2**n:
            positions = subset_from_index(index, n)
            assert subset_index(positions, n) == index

    def test_order_is_size_then_lex(self):
        # n = 3: {}, {0}, {1}, {2}, {0,1}, {0,2}, {1,2}, {0,1,2}
        got = [subset_from_index(i, 3) for i in range(1, 9)]
        assert got == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
                       (0, 1, 2)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subset_from_index(9, 3)
        with pytest.raises(ValueError):
            subset_from_index(0, 3)


class TestWitnessIndex:
    def test_reference_radius(self, river):
        # C m + (H - 1) with C = 2
        assert reference_radius(river, 3, 1) == 6
        assert reference_radius(river, 3, 4) == 9

    def test_identity_m1(self, river):
        # kappa_1(e) = {e}; recentred set {e} is offset 0, the second
        # subset in the canonical order
        assert witness_subset_index(river, (), 1) == 2

    def test_distinct_kappa_distinct_index(self, river):
        seen = {}
        for g in ball(F2, 3).vertices:
            if river.height(g) != 1:
                continue
            key = frozenset(
                F2.mul(F2.inverse(g), p) for p in kappa(river, g, 1)
            )
            idx = witness_subset_index(river, g, 1)
            if key in seen:
                assert seen[key] == idx
            seen[key] = idx
        assert len(set(seen.values())) == len(seen)

    def test_budget_enforced(self, river):
        with pytest.raises(CodeBudgetError):
            witness_subset_index(river, (), 4, budget=10)


class TestCode:
    def test_single_block(self):
        assert encode_blocks([1]) == "11010"

    def test_example_from_grammar(self):
        assert parse_code("11010" + "11010010") == [1, 2]

    def test_empty(self):
        assert parse_code("") == []
        assert encode_blocks([]) == ""

    @given(st.lists(st.integers(1, 30), max_size=6))
    def test_round_trip(self, indices):
        assert parse_code(encode_blocks(indices)) == indices

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            encode_blocks([0])

    @pytest.mark.parametrize("bad, offset", [
        ("0", 0),         # no separator
        ("10", 0),        # half separator then garbage
        ("111", 2),       # stray bit after separator
        ("1101", 2),      # truncated triple
        ("110100", 5),    # lone 0 after a complete triple
        ("11", 2),        # separator with empty block
        ("1101011", 7),   # trailing separator with empty block
        ("11001", 2),     # 001 is not a triple
        ("1101001101", 5),  # 011 is neither triple nor separator
        ("01011010", 0),  # leading garbage
    ])
    def test_malformed_offsets(self, bad, offset):
        with pytest.raises(CodeFormatError) as err:
            parse_code(bad)
        assert err.value.offset == offset

    def test_partial_tolerates_truncation(self):
        assert parse_code("110101101", allow_partial=True) == [1]
        assert parse_code("110101", allow_partial=True) == [1]
        assert parse_code("11010" + "1101", allow_partial=True) == [1]
        # an incomplete triple leaves the final block's index open, so
        # the block is dropped entirely
        assert parse_code("110100", allow_partial=True) == []

    def test_encode_decode_witness(self, river):
        bits = encode_witness(river, (), 2)
        blocks = decode_witness(bits, river.height(()))
        assert [b.m for b in blocks] == [1, 2]
        got = block_subset(river, blocks[0])
        assert got == frozenset({()})

    def test_block_subset_round_trip(self, river):
        for g in [(), (1, 1), (2, 2)]:
            idx = witness_subset_index(river, g, 2)
            block = CodeBlock(m=2, n=river.height(g), index=idx)
            recentred = frozenset(
                F2.mul(F2.inverse(g), p) for p in kappa(river, g, 2)
            )
            assert block_subset(river, block) == recentred
