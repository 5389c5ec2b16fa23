from dataclasses import fields

import pytest

from riverscape import (FreeGroup, IntegerGroup, LandscapeRule, LocalSetSpec,
                        PatternBall, ball, observed_patterns, offset_ball,
                        realize, theta)
from riverscape.patterns import center_height_local_set

F2 = FreeGroup(2)
Z = IntegerGroup()


class TestOffsetBall:
    def test_enumeration_order_and_cache(self):
        a = offset_ball(F2, 2)
        b = offset_ball(F2, 2)
        assert a is b
        assert a[0] == ()
        assert len(a) == 17


class TestPatternBall:
    def test_serialize_round_trip(self, river):
        pat = theta(river, (1, 2), 2, prefix_len=6)
        again = PatternBall.deserialize(pat.serialize(), "pattern")
        assert again == pat

    def test_center_entry(self, river):
        g = (1, 2)
        pat = theta(river, g, 1, prefix_len=4)
        assert pat.center_height == river.height(g)
        assert pat.entries[0] == (river.label(g, 4), river.height(g))

    def test_default_prefix_is_radius(self, river):
        assert theta(river, (), 3).prefix_len == 3

    def test_scanned_pattern_hashes_as_its_copy(self, river, win5):
        # the hash is computed once, outside the dataclass fields
        scanned = sorted(observed_patterns(river, win5, 1, 4),
                         key=PatternBall.serialize)
        assert scanned
        for pat in scanned:
            again = PatternBall.deserialize(pat.serialize(), "pattern")
            assert again == pat and hash(again) == hash(pat)
            assert again in frozenset(scanned) and pat in frozenset([again])
            assert repr(again) == repr(pat)
        assert [f.name for f in fields(PatternBall)] == \
            ["m", "prefix_len", "entries"]


class _Masked(LandscapeRule):
    """River heights/labels inside a radius, garbage outside."""

    provenance = "river"

    def __init__(self, base, center, radius):
        self.spec = base.spec
        self.base = base
        self.center = center
        self.radius = radius

    def _inside(self, word):
        return self.spec.dist(self.center, word) <= self.radius

    def height(self, word):
        return self.base.height(word) if self._inside(word) else 99

    def label(self, word, s):
        return self.base.label(word, s) if self._inside(word) else "1" * s


class TestThetaLocality:
    def test_masking_outside_ball_is_invisible(self, river):
        # theta must only read the radius-m ball: a rule mangled
        # strictly outside it yields the identical pattern
        for g in ((), (1,), (1, 2, -1)):
            for m in (1, 2):
                masked = _Masked(river, g, m)
                assert theta(masked, g, m) == theta(river, g, m)

    def test_mangling_inside_changes_pattern(self, river):
        g = (1,)
        masked = _Masked(river, g, 0)  # only the center survives
        assert theta(masked, g, 1) != theta(river, g, 1)


class TestLocalSets:
    def test_json_round_trip(self, river, win8):
        spec = center_height_local_set(river, win8, 1, {1}, prefix_len=1)
        again = LocalSetSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_schema_rejected(self, river, win8):
        doc = center_height_local_set(river, win8, 1, {1}).to_dict()
        doc["schema"] = "riverscape.localset/9"
        with pytest.raises(ValueError):
            LocalSetSpec.from_dict(doc)

    def test_mixed_radii_rejected(self, river):
        p1 = theta(river, (), 1)
        p2 = theta(river, (), 2)
        with pytest.raises(ValueError):
            LocalSetSpec(1, 1, frozenset({p1, p2}))

    def test_realize_height_one_is_river(self, river, win8):
        spec = center_height_local_set(river, win8, 1, {1}, prefix_len=1)
        got = [win8.vertices[i] for i in realize(spec, river, win8)]
        want = [
            w for w in win8.vertices
            if len(w) <= win8.radius - 1 and river.is_river(w)
        ]
        assert got == want

    def test_empty_patterns_realize_empty(self, river, win8):
        spec = LocalSetSpec(1, 1, frozenset())
        assert realize(spec, river, win8) == []

    def test_window_too_small(self, river):
        spec = LocalSetSpec(3, 3, frozenset())
        with pytest.raises(ValueError):
            realize(spec, river, ball(F2, 2))


class TestObservedPatterns:
    def test_occurrence_partition(self, river):
        win = ball(F2, 5)
        occ = observed_patterns(river, win, 1)
        total = sum(len(v) for v in occ.values())
        assert total == win.core_size(4)
        for pat, sites in occ.items():
            for i in sites:
                assert theta(river, win.vertices[i], 1) == pat

