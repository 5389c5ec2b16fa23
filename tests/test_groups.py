from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riverscape import (BudgetExceededError, FreeGroup, GroupSpec,
                        IntegerGroup, ball)
from riverscape.groups import (bfs_levels, letter_index, letter_key,
                               line_indices, line_positions)

import landscape_oracles as oracle

F2 = FreeGroup(2)
F3 = FreeGroup(3)
Z = IntegerGroup()

letters2 = st.sampled_from([1, -1, 2, -2])
raw_words = st.lists(letters2, max_size=12)


def naive_reduce(letters):
    """Oracle: repeatedly delete the first adjacent inverse pair."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def step_neighbors(win, i):
    """The neighbours of vertex i read off the window's letter columns,
    in letter order."""
    return tuple(j for j in (column[i] for column in win.columns)
                 if j >= 0)


def bfs_ball(spec, radius):
    """Reference enumeration: breadth-first by ``apply_letter`` in letter
    order, each sphere in discovery order; adjacency in letter order."""
    vertices = [spec.identity()]
    index = {spec.identity(): 0}
    sphere = [spec.identity()]
    for _ in range(radius):
        nxt = []
        for w in sphere:
            for letter in spec.letters():
                v = spec.apply_letter(w, letter)
                if v not in index:
                    index[v] = len(vertices) + len(nxt)
                    nxt.append(v)
        sphere = nxt
        vertices.extend(nxt)
    adjacency = [
        tuple(index[v] for v in (spec.apply_letter(w, a)
                                 for a in spec.letters()) if v in index)
        for w in vertices
    ]
    return vertices, adjacency, index


class TestReduce:
    @given(raw_words)
    def test_matches_naive_oracle(self, letters):
        assert F2.reduce(letters) == naive_reduce(letters)

    @given(raw_words)
    def test_idempotent(self, letters):
        w = F2.reduce(letters)
        assert F2.reduce(w) == w

    @given(raw_words)
    def test_reduced_has_no_cancellation(self, letters):
        w = F2.reduce(letters)
        assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(ValueError):
            F2.reduce([3])
        with pytest.raises(ValueError):
            Z.reduce([2])


class TestGroupLaws:
    @given(raw_words, raw_words)
    def test_mul_matches_reduce_of_concatenation(self, a, b):
        u, v = F2.reduce(a), F2.reduce(b)
        assert F2.mul(u, v) == F2.reduce(a + b)

    @given(raw_words)
    def test_inverse(self, a):
        u = F2.reduce(a)
        assert F2.mul(u, F2.inverse(u)) == ()
        assert F2.mul(F2.inverse(u), u) == ()

    @given(raw_words, raw_words, raw_words)
    @settings(max_examples=50)
    def test_associativity(self, a, b, c):
        u, v, w = F2.reduce(a), F2.reduce(b), F2.reduce(c)
        assert F2.mul(F2.mul(u, v), w) == F2.mul(u, F2.mul(v, w))

    @given(raw_words, raw_words)
    def test_dist_symmetric_and_triangle(self, a, b):
        u, v = F2.reduce(a), F2.reduce(b)
        assert F2.dist(u, v) == F2.dist(v, u)
        assert F2.dist(u, v) <= F2.length(u) + F2.length(v)

    @pytest.mark.parametrize("spec,radius", [(F2, 4), (F3, 3)])
    def test_dist_is_length_of_quotient(self, spec, radius):
        words = ball(spec, radius).vertices
        for u in words:
            for v in words:
                assert spec.dist(u, v) \
                    == spec.length(spec.mul(spec.inverse(u), v)), (u, v)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_integer_dist(self, u, v):
        assert Z.dist(u, v) == abs(u - v)

    @given(raw_words)
    def test_apply_letter_is_mul(self, a):
        u = F2.reduce(a)
        for letter in F2.letters():
            assert F2.apply_letter(u, letter) == F2.mul(u, (letter,))


class TestEnumerationOrder:
    def test_letter_order(self):
        assert sorted([2, -1, 1, -2], key=letter_key) == [1, -1, 2, -2]

    def test_ball_sorted_by_sort_key(self):
        win = ball(F2, 4)
        keys = [F2.sort_key(w) for w in win.vertices]
        assert keys == sorted(keys)
        zwin = ball(Z, 6)
        zkeys = [Z.sort_key(w) for w in zwin.vertices]
        assert zkeys == sorted(zkeys)

    def test_first_vertices(self):
        win = ball(F2, 2)
        assert win.vertices[:5] == ((), (1,), (-1,), (2,), (-2,))
        zwin = ball(Z, 2)
        assert zwin.vertices == (0, 1, -1, 2, -2)


class TestIndexSpace:
    WINDOWS = [(F2, 6), (F3, 4), (Z, 30), (FreeGroup(1), 12)]

    def test_letter_index_matches_letter_order(self):
        for spec in (F2, F3, Z):
            assert [letter_index(a) for a in spec.letters()] \
                == list(range(spec.degree))

    @pytest.mark.parametrize("spec,radius", WINDOWS)
    def test_index_of_is_ball_position(self, spec, radius):
        vertices, _, _ = bfs_ball(spec, radius)
        assert [spec.index_of(w) for w in vertices] \
            == list(range(len(vertices)))
        for r in range(radius + 1):
            assert spec.ball_size(r) == len(bfs_ball(spec, r)[0])

    @pytest.mark.parametrize("spec,radius", WINDOWS)
    def test_step_table_is_apply_letter(self, spec, radius):
        vertices, _, index = bfs_ball(spec, radius)
        columns = spec.ball_columns(radius)
        assert len(columns) == spec.degree
        for column, letter in zip(columns, spec.letters()):
            assert column.typecode == "i"
            assert len(column) == len(vertices)
            for i, w in enumerate(vertices):
                want = index.get(spec.apply_letter(w, letter), -1)
                assert column[i] == want, (w, letter)

    @pytest.mark.parametrize("spec,radius", [(F2, 0), (F2, 6), (F3, 4)])
    def test_last_letters_end_the_words(self, spec, radius):
        words = bfs_ball(spec, radius)[0]
        last = spec.last_letters(radius)
        assert len(last) == len(words)
        assert list(last[1:]) == [letter_index(w[-1]) for w in words[1:]]

    @pytest.mark.parametrize("spec,radius", WINDOWS)
    def test_ball_matches_bfs_reference(self, spec, radius):
        vertices, adjacency, _ = bfs_ball(spec, radius)
        win = ball(spec, radius)
        assert win.vertices == tuple(vertices)
        assert [step_neighbors(win, i) for i in range(len(win))] \
            == adjacency
        assert list(map(list, win.columns)) \
            == list(map(list, spec.ball_columns(radius)))

    @pytest.mark.parametrize("spec,radius", WINDOWS)
    def test_offset_tables_are_products(self, spec, radius):
        # the table of offsets that offset_rows composes over any xs
        win = ball(spec, radius)
        for m in (0, 1, 2, radius):
            offsets = bfs_ball(spec, m)[0]
            n = win.core_size(radius - m)
            # core vertices in any order, repeats included
            xs = [n - 1, 0, *range(n - 1, -1, -3), n - 1]
            rows = win.offset_rows(m, xs)
            assert len(rows) == len(offsets)
            for row, off in zip(rows, offsets):
                assert type(row) is array and row.typecode == "i"
                assert [win.vertices[j] for j in row] == \
                    [spec.mul(win.vertices[i], off) for i in xs]
            assert win.offset_rows(m, []) == [array("i")] * len(offsets)

    @pytest.mark.parametrize("spec,radius",
                             [(F2, r) for r in range(7)]
                             + [(F3, r) for r in range(5)]
                             + [(Z, r) for r in range(51)])
    def test_word_at_inverts_index_of(self, spec, radius):
        # the word tuple stays as the oracle of the arithmetic view
        win = ball(spec, radius)
        assert [win.word_at(i) for i in range(len(win))] \
            == list(win.vertices)
        for i in (-1, len(win)):
            with pytest.raises(ValueError):
                win.word_at(i)

    def test_word_at_keeps_no_words(self):
        win = ball(F2, 4)
        assert win.word_at(len(win) - 1) == (-2, -2, -2, -2)
        assert "vertices" not in win.__dict__

    def test_offset_radius_past_the_window(self):
        win = ball(F2, 2)
        for m in (-1, 3):
            with pytest.raises(ValueError):
                win.offset_rows(m, [0])

    def test_step_table_of_a_point(self):
        assert list(map(list, F2.ball_columns(0))) == [[-1]] * 4
        assert list(map(list, Z.ball_columns(0))) == [[-1]] * 2


class TestLineOrder:
    """The two maps between a degree-2 window's index order and its
    position order, held to the arithmetic ``index_of``."""

    @pytest.mark.parametrize("spec,radii", [(Z, range(61)),
                                            (FreeGroup(1), range(31))],
                             ids=["Z", "F1"])
    @pytest.mark.parametrize("kind", [list, bytes, bytearray,
                                      lambda xs: array("i", xs)],
                             ids=["list", "bytes", "bytearray", "int32"])
    def test_positions_and_indices_are_inverse(self, spec, radii, kind):
        for R in radii:
            seq = kind(range(2 * R + 1))
            positions = line_positions(seq)
            assert type(positions) is type(seq)
            # position p holds the vertex of p - R
            assert list(positions) == [
                spec.index_of(spec.reduce(Z.word_letters(p - R)))
                for p in range(2 * R + 1)]
            assert line_indices(positions) == seq
            assert line_positions(line_indices(seq)) == seq


class TestBall:
    def test_free_ball_sizes(self):
        # |B_r(F2)| = 2 * 3^r - 1
        for r in range(6):
            assert len(ball(F2, r)) == 2 * 3**r - 1

    def test_integer_ball_sizes(self):
        for r in (0, 1, 5, 100):
            assert len(ball(Z, r)) == 2 * r + 1

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            ball(F2, 8, budget=1000)
        # the budget is the vertex count itself: 2 * 3^4 - 1 = 161
        assert len(ball(F2, 4, budget=161)) == 161
        with pytest.raises(BudgetExceededError):
            ball(F2, 4, budget=160)

    def test_budget_checked_before_building(self, monkeypatch):
        def no_table(radius):
            raise AssertionError("letter columns built past the budget")

        monkeypatch.setattr(F2, "ball_columns", no_table)
        with pytest.raises(BudgetExceededError):
            ball(F2, 40)

    def test_indices_outside_window(self):
        win = ball(F2, 2)
        assert [win.index_of(w) for w in [(), (1,), (-2,)]] == [0, 1, 4]
        for bad in [(1, 1, 1), (1, -1), (3,)]:
            with pytest.raises(ValueError):
                win.index_of(bad)
        zwin = ball(Z, 3)
        assert [zwin.index_of(u) for u in (0, 3, -3)] == [0, 5, 6]
        with pytest.raises(ValueError):
            zwin.index_of(4)

    def test_adjacency_is_cayley(self, win5):
        for i, w in enumerate(win5.vertices):
            neighbors = {win5.vertices[j] for j in step_neighbors(win5, i)}
            expected = {
                F2.apply_letter(w, s) for s in F2.letters()
                if F2.length(F2.apply_letter(w, s)) <= win5.radius
            }
            assert neighbors == expected

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball(F2, -1)


class TestBfsDistances:
    def test_matches_word_metric_on_core(self, win5):
        # window distances from the identity are exact group distances
        dist = oracle.bfs_distances(win5, [0])
        for i, w in enumerate(win5.vertices):
            assert dist[i] == F2.length(w)

    def test_multi_source_and_unreached(self):
        win = ball(Z, 3)
        dist = oracle.bfs_distances(win, [win.index_of(3),
                                          win.index_of(-3)])
        assert dist[win.index_of(0)] == 3
        assert dist[win.index_of(2)] == 1

    @pytest.mark.parametrize("spec,radius", [(F2, 5), (Z, 40)])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_level_walk_matches_whole_window_bfs(self, spec, radius, data):
        # with only the sources marked, level k of the walk is the set of
        # vertices at distance k
        win = ball(spec, radius)
        sources = data.draw(st.lists(st.integers(0, len(win) - 1),
                                     min_size=1, max_size=6))
        want = oracle.bfs_distances(win, sources)
        seen = bytearray(len(win))
        for s in sources:
            seen[s] = 1
        got = [0 if seen[i] else -1 for i in range(len(win))]
        for k, level in enumerate(
                bfs_levels(win.columns, sources, seen), 1):
            assert level, k
            for j in level:
                assert got[j] == -1
                got[j] = k
        assert got == want

    def test_marked_vertices_are_never_entered(self):
        # from 0 on Z, with 1 and 2 marked, the walk goes to -1, -2 only
        win = ball(Z, 2)
        seen = bytearray(len(win))
        seen[win.index_of(0)] = 1
        seen[win.index_of(1)] = 1
        seen[win.index_of(2)] = 1
        levels = list(bfs_levels(win.columns, [win.index_of(0)], seen))
        assert levels == [[win.index_of(-1)], [win.index_of(-2)]]


class TestSerialization:
    def test_spec_round_trip(self):
        for spec in (F2, FreeGroup(3), Z):
            assert GroupSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("rank", [0, 2, 7])
    def test_integers_of_another_rank_rejected(self, rank):
        # such a group used to load as Z
        with pytest.raises(ValueError, match=f"'rank' is {rank};"):
            GroupSpec.from_dict({"kind": "integers", "rank": rank})
