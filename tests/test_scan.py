"""The window-compiled pattern scan against word-level θ.

``PaddedLandscape`` and ``RelabeledLandscape`` are the word-by-word label
wrappers the channel rule replaced; they stay here as its oracle, and
``theta`` on them is the oracle of every scan: ``realize``,
``observed_patterns`` (key order included) and the piece patterns that
``relabel`` writes into certificates, with each piece's binary code.
"""

import tracemalloc
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from riverscape import (ChannelLandscape, FreeGroup, IntegerGroup,
                        LocalSetSpec, RiverLandscape, TernaryLandscape, ball,
                        observed_patterns, realize, relabel, theta,
                        trivial_certificate)
from riverscape.landscapes import LandscapeRule
from riverscape.patterns import pattern_scan

from test_labels import interleave

F2 = FreeGroup(2)
F3 = FreeGroup(3)
Z = IntegerGroup()


class PaddedLandscape(LandscapeRule):
    """Oracle: the base label spread to odd positions, evens zero."""

    provenance = "relabeled"

    def __init__(self, base):
        self.spec = base.spec
        self.base = base
        self._cache = {}

    def height(self, word):
        return self.base.height(word)

    def label(self, word, s):
        cached = self._cache.get(word, "")
        if len(cached) >= s:
            return cached[:s]
        u = self.base.label(word, (s + 1) // 2)
        full = interleave(u, "0" * len(u))
        self._cache[word] = full
        return full[:s]


class RelabeledLandscape(LandscapeRule):
    """Oracle: a rule plus membership bits (sets of words) written at
    even positions, checked for collisions along the chain."""

    provenance = "relabeled"

    def __init__(self, base, overrides):
        for pos in overrides:
            if pos % 2 != 0 or pos < 2:
                raise ValueError(f"channel position {pos} is not even")
        taken = set()
        rule = base
        while isinstance(rule, RelabeledLandscape):
            taken |= set(rule.overrides)
            rule = rule.base
        if taken.intersection(overrides):
            raise ValueError("channel collision")
        self.spec = base.spec
        self.base = base
        self.overrides = dict(overrides)

    def height(self, word):
        return self.base.height(word)

    def label(self, word, s):
        bits = list(self.base.label(word, s))
        for pos, members in self.overrides.items():
            if pos <= s:
                bits[pos - 1] = "1" if word in members else "0"
        return "".join(bits)


WINDOWS = [
    pytest.param(spec, radius, id=f"{name}-B{radius}")
    for name, spec, radii in (("F2", F2, (5, 6, 7, 8)), ("F3", F3, (4, 5)),
                              ("Z", Z, (200,)))
    for radius in radii
]
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@lru_cache(maxsize=None)
def window(spec, radius):
    return ball(spec, radius)


@lru_cache(maxsize=None)
def base_rule(spec):
    return TernaryLandscape(spec) if spec == Z else RiverLandscape(spec)


@st.composite
def channel_writes(draw, n):
    """One to three channel writes, each {even position: member indices},
    positions fresh and increasing."""
    writes = []
    pos = 0
    for _ in range(draw(st.integers(1, 3))):
        step = {}
        for _ in range(draw(st.integers(0, 3))):
            pos += 2 * draw(st.integers(1, 4))
            members = draw(st.lists(st.integers(0, n - 1), max_size=60))
            step[pos] = sorted(set(members))
        writes.append(step)
    return writes


def channel_rules(spec, radius, writes):
    """The channel rule and its word-level oracle after ``writes``."""
    win = window(spec, radius)
    base = base_rule(spec)
    z = ChannelLandscape(base, win)
    oracle = PaddedLandscape(base)
    for step in writes:
        z = z.with_channels(step)
        oracle = RelabeledLandscape(oracle, {
            pos: frozenset(win.vertices[i] for i in members)
            for pos, members in step.items()
        })
    return z, oracle


def core_words(win, m):
    return win.vertices[:win.core_size(win.radius - m)]


def oracle_occurrences(oracle, win, m, prefix_len):
    occ = {}
    for w in core_words(win, m):
        occ.setdefault(theta(oracle, w, m, prefix_len), []).append(w)
    return occ


def index_occurrences(win, occ):
    """The (pattern, core indices) pairs of word-level occurrences."""
    return [(pat, [win.index_of(w) for w in words])
            for pat, words in occ.items()]


class TestChannelRows:
    @pytest.mark.parametrize("spec,radius", WINDOWS)
    @settings(max_examples=4, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_rows_match_word_oracle(self, spec, radius, data):
        win = window(spec, radius)
        writes = data.draw(channel_writes(len(win)))
        z, oracle = channel_rules(spec, radius, writes)
        s = data.draw(st.integers(1, 48))
        snap = z.snapshot(win, s)
        assert snap.labels == [oracle.label(w, s) for w in win.vertices]
        assert snap.heights == [oracle.height(w) for w in win.vertices]
        w = win.vertices[data.draw(st.integers(0, len(win) - 1))]
        assert z.label(w, s) == oracle.label(w, s)

    @pytest.mark.parametrize("spec,radius", WINDOWS)
    def test_rows_on_a_foreign_window_rejected(self, spec, radius):
        # a channel rule answers only for the window it was compiled
        # against; there is no word-by-word fallback
        z, _ = channel_rules(spec, radius, [{2: [0]}])
        for rule in (z.parent, z):
            for other in (window(spec, radius - 2), window(F2, 3)):
                with pytest.raises(ValueError):
                    rule.snapshot(other, 4)
                with pytest.raises(ValueError):
                    rule.window_heights(other)


class TestScanAgainstTheta:
    @pytest.mark.parametrize("spec,radius", WINDOWS)
    @settings(max_examples=4, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_observed_patterns_and_realize(self, spec, radius, data):
        win = window(spec, radius)
        writes = data.draw(channel_writes(len(win)))
        z, oracle = channel_rules(spec, radius, writes)
        m = data.draw(st.sampled_from([1, 2, 3]))
        prefix_len = data.draw(st.integers(1, 40))
        want = oracle_occurrences(oracle, win, m, prefix_len)
        got = observed_patterns(z, win, m, prefix_len)
        assert list(got.items()) == list(index_occurrences(win, want))
        for pat in got:
            for bits, h in pat.entries:
                assert type(bits) is str and type(h) is int
        chosen = data.draw(st.lists(st.sampled_from(list(want)),
                                    unique=True, max_size=6))
        target = LocalSetSpec(m, prefix_len, frozenset(chosen))
        assert [win.vertices[i] for i in realize(target, z, win)] == [
            w for w in core_words(win, m)
            if theta(oracle, w, m, prefix_len) in target.patterns
        ]

    @pytest.mark.parametrize("spec,radius", WINDOWS)
    @settings(max_examples=4, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_relabel_piece_patterns(self, spec, radius, data):
        win = window(spec, radius)
        n = len(win)
        writes = data.draw(channel_writes(n))
        z, oracle = channel_rules(spec, radius, writes)
        # relabel reads only the pieces and the pattern radius l, so a
        # certificate with random pairwise-disjoint pieces exercises it
        # on every window
        l = data.draw(st.sampled_from([1, 2]))
        n_pieces = data.draw(st.integers(2, 4))
        owners = data.draw(st.dictionaries(
            st.integers(0, n - 1), st.integers(0, n_pieces - 1),
            max_size=120))
        pieces = tuple(
            frozenset(i for i, j in owners.items() if j == piece)
            for piece in range(n_pieces)
        )
        cert = replace(
            trivial_certificate(LocalSetSpec(l, 1, frozenset()), win),
            trivial=False, p=1, q=n_pieces - 1, pieces_vertices=pieces,
        )
        z2, cert2 = relabel(z, cert)
        word_pieces = [frozenset(win.vertices[i] for i in members)
                       for members in pieces]
        # the oracle writes the code j + 1 of piece j, bit b at channel b
        written = RelabeledLandscape(oracle, {
            pos: frozenset().union(*(words for j, words
                                     in enumerate(word_pieces)
                                     if (j + 1) >> b & 1))
            for b, pos in enumerate(cert2.channel_positions)})
        core = set(core_words(win, l))
        assert cert2.piece_patterns == tuple(
            frozenset(theta(written, y, l, cert2.prefix_len)
                      for y in members if y in core)
            for members in word_pieces
        )
        labels = z2.snapshot(win, cert2.prefix_len).labels
        assert labels == [written.label(w, cert2.prefix_len)
                          for w in win.vertices]


class TestScanBounds:
    def test_plain_rules_scan_from_colour_arrays(self, river):
        # a rule with no channel machinery is scanned through its colour
        # arrays and window heights and still agrees with theta
        win = window(F2, 4)
        want = oracle_occurrences(river, win, 2, 7)
        assert list(observed_patterns(river, win, 2, 7).items()) \
            == list(index_occurrences(win, want))

    def test_scan_builds_no_list_of_keys(self):
        # one m = 1 scan of the river B_10 rows at prefix 6: about 4.8 MiB
        # traced with a list of one key tuple per core vertex, about
        # 1.9 MiB interning each round's keys as they are zipped
        win = ball(F2, 10)
        snap = RiverLandscape(F2).snapshot(win, 6)
        rows = snap.labels, snap.heights
        tracemalloc.start()
        try:
            ids, _ = pattern_scan(rows, win, 1, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ids) == win.core_size(9)
        assert peak < 3 * 2**20
