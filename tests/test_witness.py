import io

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
from riverscape import cli, groups, witness
from riverscape.witness import defect_table, vertex_names, write_defects

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
                assert river.height(p) == 1

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
    """The columns hold one ceiling per core vertex and one merge
    position per (letter, core vertex), and at every (i, letter, m) give
    exactly the word-level defect and ceiling."""
    river = RiverLandscape(spec)
    win = ball(spec, radius)
    ceilings, merges = defect_table(river, win)
    core = win.core_size(radius - 1)
    assert len(ceilings) == core
    assert len(merges) == spec.degree
    assert all(len(column) == core for column in merges)
    for i in range(core):
        g = win.vertices[i]
        for sigma, column in zip(spec.letters(), merges):
            for m in m_values:
                assert Fraction(2 * min(m, column[i]), m) \
                    == defect(river, g, sigma, m), (g, sigma, m)
        for m in m_values:
            assert Fraction(ceilings[i], m) == defect_bound(river, g, m), \
                (g, m)


class TestDefectTable:
    def test_merge_positions_on_every_pair(self):
        # every pair of neighbours: the undoubled nearest river points
        # are nested and differ by at most one letter, so their witness
        # paths merge after the length difference, the merge position
        # the table reads
        river = RiverLandscape(F2)
        for g in ball(F2, 5).vertices:
            s = undouble_word(river.nearest_river(g))
            for sigma in F2.letters():
                s2 = undouble_word(
                    river.nearest_river(F2.apply_letter(g, sigma)))
                short, long_ = sorted((s, s2), key=len)
                assert long_[:len(short)] == short
                assert len(long_) - len(short) <= 1
                for m in (1, 2, 3, 5, 9):
                    sym = set(tree_witness_path(s, m)) \
                        ^ set(tree_witness_path(s2, m))
                    assert len(sym) == \
                        2 * min(m, len(long_) - len(short)), (g, sigma, m)

    @pytest.mark.parametrize("spec,radius", [(F2, 7), (F3, 5), (F2, 0),
                                             (F2, 1), (F3, 1)])
    def test_every_row_against_the_oracle(self, spec, radius):
        assert_table_matches_oracle(spec, radius, list(range(1, 13)))

    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(spec=st.sampled_from([F2, F3]), radius=st.integers(0, 5),
           m_values=st.lists(st.integers(1, 25), min_size=1, max_size=4,
                             unique=True))
    def test_drawn_windows_against_the_oracle(self, spec, radius, m_values):
        assert_table_matches_oracle(spec, radius, m_values)

    def test_amenability_builds_no_letter_columns(self, tmp_path,
                                                  monkeypatch):
        windows = []
        real_ball = groups.ball

        def keeping_ball(*args, **kwargs):
            windows.append(real_ball(*args, **kwargs))
            return windows[-1]

        # the command imports ball from groups when it runs
        monkeypatch.setattr(groups, "ball", keeping_ball)
        assert cli.main(["amenability", "--group", "f3", "--radius", "4",
                         "--m-values", "1,3", "--out", str(tmp_path)]) == 0
        [win] = windows
        assert "columns" not in win.__dict__
        assert "vertices" not in win.__dict__

    def test_m_below_one_rejected(self, river):
        win = ball(F2, 3)
        fh = io.StringIO()
        with pytest.raises(ValueError):
            write_defects(fh, win, defect_table(river, win), [2, 0])
        assert fh.getvalue() == ""

    def test_violations_counted_per_row(self):
        # a doctored table with ceilings below some defects: every row
        # over its bound counts, however many vertices share its shape
        win = ball(F2, 2)
        table = ([1, 1, 1, 8, 2], [[1, 1, 0, 1, 1]] * 4)
        fh = io.StringIO()
        rows, violated = write_defects(fh, win, table, [1, 5])
        lines = fh.getvalue().split("\r\n")[1:-1]
        assert rows == len(lines) == 5 * 4 * 2
        over = [fields for fields in (line.split(",") for line in lines)
                if Fraction(fields[3]) > Fraction(fields[4])]
        # vertices 0 and 1: defect 2 over ceiling 1 for 4 letters and 2 m
        assert violated == len(over) == 16

    @pytest.mark.parametrize("spec,radius", [(F2, 6), (F3, 4), (F2, 0),
                                             (F2, 1)])
    def test_vertex_names_spell_the_words(self, spec, radius):
        # the arithmetic unranking is the oracle of the speller
        assert vertex_names(spec, radius) == \
            [" ".join(map(str, spec.word_at(i)))
             for i in range(spec.ball_size(radius))]


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

    @pytest.mark.parametrize("spec", [F2, F3])
    def test_code_builds_no_ball_of_words(self, spec, monkeypatch):
        # the reference ball is ranked and unranked arithmetically: every
        # witness set within the index budget round-trips, with no word
        # list built
        river = RiverLandscape(spec)
        words = ball(spec, 3).vertices

        def no_words(self, radius):
            raise AssertionError("a ball of words was built")

        offset_ball.cache_clear()
        monkeypatch.setattr(FreeGroup, "ball_words", no_words)
        decoded = 0
        for g in words:
            inv = spec.inverse(g)
            for m in (1, 2, 3):
                try:
                    index = witness_subset_index(river, g, m)
                except CodeBudgetError:
                    continue
                block = CodeBlock(m=m, n=river.height(g), index=index)
                assert block_subset(river, block) == frozenset(
                    spec.mul(inv, p) for p in kappa(river, g, m))
                decoded += 1
        assert decoded > len(words)

    def test_indices_rank_the_reference_ball(self, river):
        # the index of a witness set ranks its positions in the reference
        # ball's word list, which the oracle spells
        for g in ball(F2, 3).vertices:
            for m in (1, 2, 3):
                base = offset_ball(F2, reference_radius(
                    river, m, river.height(g)))
                positions = sorted(
                    base.index(F2.mul(F2.inverse(g), p))
                    for p in kappa(river, g, m))
                want = subset_index(tuple(positions), len(base))
                if want > witness.DEFAULT_INDEX_BUDGET:
                    with pytest.raises(CodeBudgetError):
                        witness_subset_index(river, g, m)
                else:
                    assert witness_subset_index(river, g, m) == want

    def test_budget_enforced(self, river, monkeypatch):
        monkeypatch.setattr(witness, "DEFAULT_INDEX_BUDGET", 10)
        with pytest.raises(CodeBudgetError, match="budget 10"):
            witness_subset_index(river, (), 4)


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
