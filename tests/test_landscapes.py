import tracemalloc
from dataclasses import asdict
from functools import lru_cache
from operator import le

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from riverscape import cli, groups
from riverscape import (AnchorSet, ChannelLandscape, FractalLandscape,
                        FreeGroup, IntegerGroup, LandscapeRule,
                        RiverLandscape, TernaryLandscape, ball,
                        components_leq, double_word, is_ternary,
                        landscapes, ternary_height, undouble_word,
                        verify_axioms)
from riverscape.snapshots import snapshot_landscape

import landscape_oracles as oracle
from test_labels import source_mutant

F2 = FreeGroup(2)
F3 = FreeGroup(3)
Z = IntegerGroup()
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def river_points(river, window):
    """Oracle: the window indices of the river points, ascending."""
    return [i for i, w in enumerate(window.vertices) if river.is_river(w)]


def all_ternary_up_to(limit):
    out = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for t in frontier:
            for d in (0, 3):
                v = t * 10 + d
                if 0 < v <= limit and v != t:
                    nxt.append(v)
        out.extend(nxt)
        frontier = nxt
    return sorted(set(out))


def brute_ternary_height(n, limit=10**7):
    """Independent oracle: scan every ternary number up to the limit."""
    n = abs(n)
    if is_ternary(n):
        return 1
    ternaries = all_ternary_up_to(limit)
    k = 1
    while True:
        step = 10**k
        if any(t % step == 0 and abs(n - t) <= step for t in ternaries):
            return 1 + k
        k += 1


class TestTernary:
    def test_is_ternary(self):
        assert [t for t in range(0, 40) if is_ternary(t)] == [0, 3, 30, 33]
        assert not is_ternary(-3)

    def test_frozen_values(self):
        assert ternary_height(0) == 1
        assert ternary_height(3) == 1
        assert ternary_height(30) == 1
        assert ternary_height(5) == 2
        assert ternary_height(150) == 4

    def test_negative_uses_absolute_value(self):
        for n in (-1, -5, -33, -150):
            assert ternary_height(n) == ternary_height(-n)

    def test_matches_brute_force_oracle(self):
        for n in range(-1000, 1001):
            assert ternary_height(n) == brute_ternary_height(n)

    def test_axioms_pass(self, ternary, zwin_small):
        report = verify_axioms(ternary, zwin_small)
        assert report.passed, report.violations
        assert report.constants.S[2] <= 40

    def test_components(self, ternary, zwin_small, zwin_large):
        for win in (zwin_small, zwin_large):
            assert components_leq(ternary, win, 1).max_interior_size == 1
            assert components_leq(ternary, win, 2).max_interior_size == 21

    def test_boundary_components_counted_as_truncated(self, ternary):
        win = ball(Z, 4)
        report = components_leq(ternary, win, 2)
        assert report.truncated_components == 1
        assert report.max_interior_size == 0


class TestFractal:
    def test_anchor_distance_validated(self):
        with pytest.raises(ValueError):
            AnchorSet(Z, (3, 31))
        AnchorSet(Z, (3, 30, 300))  # valid

    def test_q_sets(self):
        anchors = AnchorSet(Z, (3, 30, 300))
        assert anchors.q_set(0) == frozenset(
            {0, 3, 30, 33, 300, 303, 330, 333}
        )
        assert anchors.q_set(1) == frozenset({0, 30, 300, 330})
        assert anchors.q_set(2) == frozenset({0, 300})
        assert anchors.q_set(3) == frozenset({0})

    def test_agrees_with_ternary_on_initial_segment(self):
        z = FractalLandscape(Z, AnchorSet(Z, (3, 30, 300)))
        for n in range(0, 101):
            assert z.height(n) == ternary_height(n), n

    def test_height_one_exactly_on_anchor_products(self):
        z = FractalLandscape(Z, AnchorSet(Z, (3, 30)))
        level1 = {n for n in range(-50, 51) if z.height(n) == 1}
        assert level1 == {0, 3, 30, 33}

    def test_spec_mismatch_rejected(self):
        anchors = AnchorSet(Z, (3,))
        with pytest.raises(ValueError):
            FractalLandscape(F2, anchors)


class TestRiver:
    def test_double_undouble_round_trip(self):
        for w in ball(F2, 3).vertices:
            assert undouble_word(double_word(F2, w)) == w

    def test_undouble_rejects_off_river(self):
        with pytest.raises(ValueError):
            undouble_word((1,))
        with pytest.raises(ValueError):
            undouble_word((1, 2))

    def test_frozen_heights(self, river):
        assert river.height(()) == 1
        assert river.height((1, 1)) == 1
        assert river.height((1,)) == 2
        assert river.height((1, 2)) == 3

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            RiverLandscape(FreeGroup(1))

    def test_distance_matches_bfs_oracle(self, river, win8):
        sources = [
            i for i, w in enumerate(win8.vertices) if river.is_river(w)
        ]
        dist = oracle.bfs_distances(win8, sources)
        for i, w in enumerate(win8.vertices):
            if len(w) <= win8.radius - 1:
                assert river.dist_to_river(w) == dist[i], w

    def test_nearest_river_is_nearest(self, river):
        for w in ball(F2, 6).vertices:
            p = river.nearest_river(w)
            assert river.is_river(p)
            assert F2.dist(w, p) == river.dist_to_river(w)

    def test_nearest_river_tie_break(self, river):
        # (1,) is at distance 1 from both () and (1, 1); the
        # enumeration-least wins
        assert river.nearest_river((1,)) == ()

    def test_bilipschitz_factor_two(self, river):
        tree = ball(F2, 3).vertices
        for x in tree[:20]:
            for y in tree[:20]:
                assert F2.dist(double_word(F2, x), double_word(F2, y)) \
                    == 2 * F2.dist(x, y)

    def test_image_is_four_regular_at_scale_two(self, river, win8):
        points = {win8.vertices[i] for i in river_points(river, win8)}
        for w in points:
            if len(w) <= win8.radius - 2:
                neighbors = [
                    p for p in points if F2.dist(w, p) == 2
                ]
                assert len(neighbors) == 4

    def test_axioms_pass(self, river, win8):
        report = verify_axioms(river, win8)
        assert report.passed, report.violations
        assert all(report.constants.M[n] == n - 1
                   for n in report.constants.M)


class _ConstantOne(LandscapeRule):
    provenance = "ternary"

    def height(self, word):
        return 1


class _Step(LandscapeRule):
    provenance = "ternary"

    def height(self, word):
        return 3 if word > 0 else 1


class _Sunk(LandscapeRule):
    """The ternary heights with 5 sunk to height 0."""

    provenance = "ternary"

    def height(self, word):
        return 0 if word == 5 else ternary_height(word)


EDGE_RADII = sorted({r for k in range(5)
                     for r in (10**k - 1, 10**k, 10**k + 1, 3 * 10**k)})


# the whole-window oracle with axiom 4 searched by BFS at every m, the
# m = 1 pass included
ALWAYS_BFS = source_mutant(oracle, "if len(tall) == len(heights):",
                           "if False:")


def walk_visits(monkeypatch, z, win):
    """``verify_axioms(z, win)`` and, per level walk it sets up, the
    number of vertices in the walk's frontier and in the levels it
    yields; a walk is counted when it is set up, read or not."""
    visits = []
    real = landscapes.bfs_levels

    def counted(k, levels):
        for level in levels:
            visits[k] += len(level)
            yield level

    def counting(columns, frontier, seen):
        visits.append(len(frontier))
        return counted(len(visits) - 1, real(columns, frontier, seen))

    monkeypatch.setattr(landscapes, "bfs_levels", counting)
    return verify_axioms(z, win), visits


class TestAxiomFourShortcut:
    """Axiom 4 takes runs on the line and walks only the sublevel sets
    {h < m} in a tree; its report equals the whole-window BFS at every
    m."""

    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    @given(radius=st.integers(0, 3000))
    def test_ternary_report_equals_always_bfs(self, radius):
        win = ball(Z, radius)
        z = TernaryLandscape()
        assert asdict(verify_axioms(z, win)) == \
            asdict(ALWAYS_BFS.verify_axioms(z, win))

    @pytest.mark.parametrize("radius", sorted({0, 1, 2, *EDGE_RADII}))
    def test_ternary_report_equals_always_bfs_at_scale_edges(self, radius):
        win = ball(Z, radius)
        z = TernaryLandscape()
        assert asdict(verify_axioms(z, win)) == \
            asdict(ALWAYS_BFS.verify_axioms(z, win))

    @pytest.mark.parametrize("radius",
                             [0, 1, 2, 3, 29, 30, 31, 299, 300, 301, 1000])
    def test_fractal_on_the_line_equals_always_bfs(self, radius):
        win = ball(Z, radius)
        z = FractalLandscape(Z, AnchorSet(Z, (3, 30, 300)))
        assert asdict(verify_axioms(z, win)) == \
            asdict(ALWAYS_BFS.verify_axioms(z, win))

    @pytest.mark.parametrize("radius", [0, 1, 2, 29, 30, 31, 100])
    def test_free_group_of_rank_one_is_a_line(self, radius):
        # F_1 has degree 2 and Z's index layout, so it takes the runs
        F1 = FreeGroup(1)
        win = ball(F1, radius)
        z = FractalLandscape(F1, AnchorSet(F1, ((1,) * 3, (1,) * 30)))
        assert asdict(verify_axioms(z, win)) == \
            asdict(ALWAYS_BFS.verify_axioms(z, win))

    @pytest.mark.parametrize("radius", range(1, 9))
    def test_river_report_equals_always_bfs(self, river, radius):
        win = ball(F2, radius)
        assert asdict(verify_axioms(river, win)) == \
            asdict(ALWAYS_BFS.verify_axioms(river, win))

    def test_no_bfs_when_every_vertex_is_tall(self, monkeypatch, river):
        # the first walk is axiom 2's; the m = 1 walk has nothing to visit
        report, visits = walk_visits(monkeypatch, river, ball(F2, 5))
        assert report.constants.S[1] == 0
        assert visits[1] == 0

    def test_walks_visit_only_the_sublevel_sets(self, monkeypatch, river):
        win = ball(F2, 6)
        heights = river.window_heights(win)
        report, visits = walk_visits(monkeypatch, river, win)
        assert report.passed
        # axiom 2 walks from the 53 river points up to the first level
        # that fits in no core; axiom 4 walks inside each {h < m} once,
        # up to the first level that certifies no vertex
        low = [sum(h < m for h in heights)
               for m in range(1, max(heights) + 1)]
        assert low == [0, 53, 105, 209, 305, 593, 809]
        assert visits == [593, 0, 53, 105, 101, 197, 125, 341]
        assert all(map(le, visits[1:], low))

    def test_line_takes_no_level_walk(self, monkeypatch):
        report, visits = walk_visits(monkeypatch, TernaryLandscape(),
                                     ball(Z, 1000))
        assert report.passed
        assert visits == []


# the line's runs with the end runs certified whole, and with the mark
# read in index order instead of position order
END_RUNS_WHOLE = source_mutant(landscapes, "if s and e < n:", "if True:")
INDEX_ORDER = source_mutant(
    landscapes, 'finditer(rb"\\0+", line_positions(mark[:n]))',
    'finditer(rb"\\0+", mark[:n])')


class TestLineRunMutants:
    """Each broken reading of the line's runs changes a report, so the
    oracle comparisons above would catch it."""

    @pytest.mark.parametrize("mutant", [END_RUNS_WHOLE, INDEX_ORDER],
                             ids=["end-runs-whole", "index-order"])
    @pytest.mark.parametrize("make", [
        TernaryLandscape,
        lambda: FractalLandscape(Z, AnchorSet(Z, (3, 30, 300))),
    ], ids=["ternary", "fractal"])
    def test_mutant_report_differs(self, mutant, make):
        win = ball(Z, 1000)
        z = make()
        assert asdict(mutant.verify_axioms(z, win)) != \
            asdict(oracle.verify_axioms(z, win))


# the integers with the lcp of two words on one side one too short
LCP_MINUS_ONE = source_mutant(
    groups, "return min(abs(u), abs(v)) if u * v > 0 else 0",
    "return min(abs(u), abs(v)) - 1 if u * v > 0 else 0")


class TestAxiomThreeTrie:
    """Each height-1 vertex's nearest distances from the trie equal the
    pairwise oracle's, and so do N and the uncertified count."""

    @pytest.mark.parametrize("make,spec,radius", [
        *(pytest.param(lambda: RiverLandscape(F2), F2, r, id=f"river-{r}")
          for r in range(2, 9)),
        pytest.param(lambda: RiverLandscape(F3), F3, 5, id="river-F3-5"),
        pytest.param(TernaryLandscape, Z, 20_000, id="ternary-20000"),
        pytest.param(lambda: FractalLandscape(Z, AnchorSet(Z, (3, 30, 300))),
                     Z, 400, id="fractal-400"),
    ])
    def test_nearest_distances_equal_pairwise(self, make, spec, radius):
        win = ball(spec, radius)
        z = make()
        words = [win.word_at(i) for i in z.level_sets(win)[1]]
        k = min(landscapes.DENSITY_MAX, len(words) - 1)
        assert landscapes._nearest_distances(spec, words, k) == \
            oracle.nearest_distances(spec, words, k)
        got, want = verify_axioms(z, win), oracle.verify_axioms(z, win)
        assert (got.constants.N, got.uncertified) == \
            (want.constants.N, want.uncertified)

    def test_lcp_mutant_differs(self):
        win = ball(Z, 20_000)
        words = [win.word_at(i)
                 for i in TernaryLandscape().level_sets(win)[1]]
        k = landscapes.DENSITY_MAX
        assert landscapes._nearest_distances(LCP_MINUS_ONE.IntegerGroup(),
                                             words, k) != \
            oracle.nearest_distances(Z, words, k)


class TestAxiomOracle:
    """Reports equal the whole-window oracle as ``asdict``, violation
    lists in order."""

    @pytest.mark.parametrize("radius", range(1, 6))
    def test_river_f3(self, radius):
        win = ball(F3, radius)
        z = RiverLandscape(F3)
        assert asdict(verify_axioms(z, win)) == \
            asdict(oracle.verify_axioms(z, win))

    @pytest.mark.parametrize("spec,anchors,radius", [
        (Z, (3, 30, 300), 400),
        (F2, ((1, 1, 1),), 5),
    ])
    def test_fractal(self, spec, anchors, radius):
        win = ball(spec, radius)
        z = FractalLandscape(spec, AnchorSet(spec, anchors))
        assert asdict(verify_axioms(z, win)) == \
            asdict(oracle.verify_axioms(z, win))

    @pytest.mark.parametrize("rule", [_ConstantOne, _Step, _Sunk])
    @pytest.mark.parametrize("radius", [0, 1, 2, 10, 40])
    def test_failing_rules(self, rule, radius):
        win = ball(Z, radius)
        z = rule(Z)
        assert asdict(verify_axioms(z, win)) == \
            asdict(oracle.verify_axioms(z, win))

    @pytest.mark.parametrize("spec,radius", [(Z, 400), (F2, 6)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_components(self, spec, radius, n):
        win = ball(spec, radius)
        z = TernaryLandscape() if spec == Z else RiverLandscape(spec)
        assert asdict(components_leq(z, win, n)) == \
            asdict(oracle.components_leq(z, win, n))


class TestAxiomFailures:
    def test_constant_height_fails_visibility(self):
        z = _ConstantOne(Z)
        report = verify_axioms(z, ball(Z, 20))
        assert not report.passed
        assert any("height >= 2" in v for v in report.violations)

    def test_slope_violation_reported(self):
        z = _Step(Z)
        report = verify_axioms(z, ball(Z, 10))
        assert not report.passed
        assert any("axiom 1" in v for v in report.violations)


@lru_cache(maxsize=None)
def ternary_table(limit):
    """``ternary_height(n)`` for n = 0..limit, one word at a time."""
    return tuple(ternary_height(n) for n in range(limit + 1))


def ternary_oracle(win):
    table = ternary_table(win.radius)
    return [table[abs(n)] for n in win.vertices]


def counting_heights(rule_class):
    """``rule_class`` counting its window-height computations in
    ``runs``."""
    class Counting(rule_class):
        runs = 0

        def _compute_heights(self, window):
            self.runs += 1
            return super()._compute_heights(window)

    return Counting


class TestWindowHeights:
    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    @given(radius=st.integers(0, 3000))
    def test_ternary_paint_matches_height_at_random_radii(self, radius):
        win = ball(Z, radius)
        assert TernaryLandscape().window_heights(win) == ternary_oracle(win)

    @pytest.mark.parametrize("radius", EDGE_RADII)
    def test_ternary_paint_matches_height_at_scale_edges(self, radius):
        win = ball(Z, radius)
        assert TernaryLandscape().window_heights(win) == ternary_oracle(win)

    def test_ternary_paint_calls_no_height(self, monkeypatch):
        monkeypatch.setattr(TernaryLandscape, "height", None)
        win = ball(Z, 1000)
        assert len(TernaryLandscape().window_heights(win)) == len(win)

    def test_river_recurrence_spells_no_word(self, monkeypatch):
        monkeypatch.setattr(RiverLandscape, "height", None)
        monkeypatch.setattr(FreeGroup, "ball_words", None)
        win = ball(F2, 6)
        assert len(RiverLandscape(F2).window_heights(win)) == len(win)

    @pytest.mark.parametrize("spec,radius", [
        *(pytest.param(F2, r, id=str(r)) for r in range(9)),
        *(pytest.param(FreeGroup(k), r, id=f"F{k}-{r}")
          for k in (3, 4) for r in (0, 1, 2, 5)),
    ])
    def test_river_matches_height(self, spec, radius):
        win = ball(spec, radius)
        z = RiverLandscape(spec)
        assert z.window_heights(win) == [z.height(w) for w in win.vertices]

    @pytest.mark.parametrize("spec,anchors,radius", [
        (Z, (3, 30), 120),
        (F2, ((1, 1, 1),), 5),
    ])
    def test_fractal_matches_height(self, spec, anchors, radius):
        win = ball(spec, radius)
        z = FractalLandscape(spec, AnchorSet(spec, anchors))
        assert z.window_heights(win) == [z.height(w) for w in win.vertices]

    def test_kept_per_group_and_radius(self):
        z = TernaryLandscape()
        first = z.window_heights(ball(Z, 50))
        assert z.window_heights(ball(Z, 50)) is first
        assert len(z.window_heights(ball(Z, 60))) == 121
        assert z.window_heights(ball(Z, 50)) is first

    @pytest.mark.parametrize("make,spec,radius", [
        (lambda: RiverLandscape(F2), F2, 6),
        (TernaryLandscape, Z, 300),
        (lambda: _Sunk(Z), Z, 40),
        (lambda: _Step(Z), Z, 10),
    ], ids=["river", "ternary", "sunk", "step"])
    def test_level_sets_split_the_heights(self, make, spec, radius):
        win = ball(spec, radius)
        z = make()
        heights = z.window_heights(win)
        levels = z.level_sets(win)
        assert list(levels) == sorted(set(heights))
        for h, level in levels.items():
            assert level.typecode == "i"
            assert list(level) == [i for i, g in enumerate(heights)
                                   if g == h]

    def test_level_sets_kept_per_group_and_radius(self):
        z = counting_heights(TernaryLandscape)()
        first = z.level_sets(ball(Z, 50))
        assert z.level_sets(ball(Z, 50)) is first
        assert sum(map(len, z.level_sets(ball(Z, 60)).values())) == 121
        assert z.level_sets(ball(Z, 50)) is first
        assert z.runs == 2

    def test_channel_rule_holds_the_base_heights(self, river, win5):
        z = ChannelLandscape(river, win5)
        assert z.window_heights(win5) is river.window_heights(win5)
        # a window it was not compiled against has no fallback
        with pytest.raises(ValueError):
            z.window_heights(ball(F2, 3))

    @pytest.mark.parametrize("make,spec,radii", [
        (lambda: counting_heights(RiverLandscape)(F2), F2, (5, 6)),
        (lambda: counting_heights(TernaryLandscape)(), Z, (300, 400)),
    ], ids=["river", "ternary"])
    def test_build_computes_heights_once_per_window(self, make, spec, radii):
        z = make()
        for radius in radii:
            for _ in range(2):
                # a fresh window of the same group and radius
                win = ball(spec, radius)
                verify_axioms(z, win)
                for n in (1, 2):
                    components_leq(z, win, n)
                snapshot_landscape(z, win, 8)
        assert z.runs == len(radii)


def components_oracle(z, win, n):
    """Sublevel components word by word: neighbours by ``apply_letter``,
    boundary by word length."""
    spec = win.spec
    member = {w for w in win.vertices if z.height(w) <= n}
    seen = set()
    sizes, interior, truncated = [], [], 0
    for w in win.vertices:
        if w not in member or w in seen:
            continue
        comp, frontier = [w], [w]
        seen.add(w)
        while frontier:
            u = frontier.pop()
            for a in spec.letters():
                v = spec.apply_letter(u, a)
                if v in member and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    frontier.append(v)
        sizes.append(len(comp))
        if any(spec.length(u) == win.radius for u in comp):
            truncated += 1
        else:
            interior.append(len(comp))
    return sizes, max(interior, default=0), truncated


class TestComponents:
    @settings(max_examples=20, deadline=None, phases=NO_SHRINK)
    @given(radius=st.integers(1, 400), n=st.integers(1, 3))
    def test_ternary_matches_word_oracle(self, radius, n):
        win = ball(Z, radius)
        z = TernaryLandscape()
        got = components_leq(z, win, n)
        assert (got.sizes, got.max_interior_size,
                got.truncated_components) == components_oracle(z, win, n)

    @pytest.mark.parametrize("radius", range(1, 7))
    @pytest.mark.parametrize("n", [1, 2])
    def test_river_matches_word_oracle(self, river, radius, n):
        win = ball(F2, radius)
        got = components_leq(river, win, n)
        assert (got.sizes, got.max_interior_size,
                got.truncated_components) == components_oracle(river, win, n)

    def test_isolated_boundary_point_is_truncated(self, ternary):
        # 30 and -30 are height-1 singletons on the boundary sphere
        report = components_leq(ternary, ball(Z, 30), 1)
        assert report.truncated_components == 2


class TestWindowRows:
    @pytest.mark.parametrize("spec,radius", [
        (F2, 1), (F2, 4), (F2, 6), (F3, 3), (Z, 0), (Z, 300),
    ])
    @settings(max_examples=4, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_labels_match_word_labels(self, spec, radius, data):
        win = ball(spec, radius)
        z = TernaryLandscape() if spec == Z else RiverLandscape(spec)
        s = data.draw(st.integers(1, 40))
        snap = z.snapshot(win, s)
        assert snap.labels == [z.label(w, s) for w in win.vertices]
        assert snap.heights == [z.height(w) for w in win.vertices]


class TestAxiomMemory:
    """The axiom check keeps nothing per vertex beyond the heights and
    the rule's level sets (an int32 index a vertex): no word tuple and
    no distance list of Python ints.  While axiom 4 runs it keeps the
    tall mark and a byte a vertex besides: a walk's seen mark in a tree,
    the mark's position-order copy on the line; axiom 2 on the line
    fills an int32 distance array in position order and one in index
    order."""

    def test_ternary_build_keeps_no_words(self, tmp_path, monkeypatch):
        windows = []
        real_ball = groups.ball

        def keeping_ball(*args, **kwargs):
            windows.append(real_ball(*args, **kwargs))
            return windows[-1]

        # the command imports ball from groups when it runs
        monkeypatch.setattr(groups, "ball", keeping_ball)
        assert cli.main(["build", "--group", "z", "--landscape", "ternary",
                         "--radius", "3000", "--out", str(tmp_path)]) == 0
        [win] = windows
        assert "vertices" not in win.__dict__

    def test_violations_name_their_words(self):
        report = verify_axioms(_Step(Z), ball(Z, 10))
        assert report.violations == ["axiom 1: |1 - 3| > 1 between 0 and 1"]

    def test_traced_peak(self):
        # B_20000(Z), heights computed before tracing: about 6.7 MiB with
        # the cached word tuple, a list slack and a list of tall indices;
        # about 2.5 MiB with whole-window BFS distance lists and the tall
        # vertices as sources; about 0.7 MiB walking the sublevel sets
        win = ball(Z, 20_000)
        z = TernaryLandscape()
        z.window_heights(win)
        tracemalloc.start()
        try:
            report = verify_axioms(z, win)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert "vertices" not in win.__dict__
        assert peak < 1.5 * 2**20
