"""Labeled pattern balls and local sets, and their window scans.

A pattern ball records, for every offset in B_m(e), the label prefix and
height of the corresponding translate.  The prefix length is carried
separately from the ball radius: certificates need to read membership
bits at positions well past the radius without paying for huge balls.

:func:`theta` reads one pattern word by word, over the offsets of
:func:`offset_ball` (the group's ball words, spelled once per radius by
its one speller and kept, with no window built).  Window-wide scans
(:func:`pattern_scan`, behind :func:`realize` and
:func:`observed_patterns`) are compiled against the window instead: the
scan reads one label row and one height per vertex (a snapshot's
rows, at any prefix up to their own), each distinct (label, height)
pair is interned as a cell id, cut once to the asked prefix when the
rows are longer, and the ids are refined m times over the window's
letter columns: a vertex's radius-r id interns its radius-(r - 1) id
with those of its neighbours, letter by letter, over the core of radius
R - r.  Every round is one :func:`_intern` and builds no list of its
keys.  A :class:`PatternBall` is built once per distinct final id, from
the offsets of its first vertex.  The result equals θ at every core
vertex; the core of a radius-m scan is always the ball of radius R - m.
Scans answer in window indices: :func:`realize` returns the core indices
of a local set, and no word is built.

:func:`pattern_scan` is the one scan implementation.  ``realize`` and
``observed_patterns`` scan the :class:`~riverscape.checking.Snapshot`
that the rule's ``snapshot`` hook hands out: a plain rule builds a
fresh one on each call, while a channel rule hands out the snapshot
that owns its rows at that prefix, which memoizes its scans, so each
distinct scan of a pipeline runs once.  No pipeline scan cuts rows:
only a snapshot with no ``shorter`` read below its prefix does.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import compress, count
from typing import TYPE_CHECKING, Iterable, Optional

from .groups import GroupSpec, InputError, Window

if TYPE_CHECKING:
    from .landscapes import LandscapeRule


@cache
def offset_ball(spec: GroupSpec, m: int) -> tuple:
    """The offsets B_m(e) in enumeration order, spelled once per
    (group, m) and kept; no window is built."""
    return tuple(spec.ball_words(m))


@dataclass(frozen=True)
class PatternBall:
    """A radius-m labeled ball: per offset a label prefix and a height.

    ``entries`` follows the enumeration order of B_m(e); entry 0 is the
    center, so ``entries[0][1]`` is the center height.
    """

    m: int
    prefix_len: int
    entries: tuple[tuple[str, int], ...]

    # scans test ``pattern in wanted`` once per scanned pattern, so the
    # hash is computed once; it is not a field, so eq, repr and
    # serialize see only the three above
    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.m, self.prefix_len, self.entries)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def center_height(self) -> int:
        return self.entries[0][1]

    def serialize(self) -> str:
        body = ";".join(f"{bits}:{h}" for bits, h in self.entries)
        return f"{self.m}|{self.prefix_len}|{body}"

    @staticmethod
    def deserialize(text: str, what: str) -> "PatternBall":
        """The pattern that :meth:`serialize` wrote as ``text``; a
        malformed one, or label bits that are not ``prefixLen`` 0s and
        1s, is an :class:`InputError` naming ``what`` (the field it was
        read from) and quoting ``text``."""
        try:
            m_str, p_str, body = text.split("|", 2)
            entries = []
            if body:
                for item in body.split(";"):
                    bits, h = item.rsplit(":", 1)
                    entries.append((bits, int(h)))
            pattern = PatternBall(int(m_str), int(p_str), tuple(entries))
        except ValueError:
            raise InputError(
                f"{what}: pattern {text!r} is not of the form "
                f"'m|prefixLen|bits:height;...'") from None
        for bits, _ in entries:
            if len(bits) != pattern.prefix_len or bits.strip("01"):
                raise InputError(
                    f"{what}: pattern {text!r} has label {bits!r}, not a "
                    f"string of prefixLen = {pattern.prefix_len} 0s and 1s")
        return pattern


def theta(z: LandscapeRule, gamma, m: int,
          prefix_len: Optional[int] = None) -> PatternBall:
    """The labeled radius-m ball of the configuration at ``gamma``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if prefix_len is None:
        prefix_len = m
    spec = z.spec
    entries = []
    for delta in offset_ball(spec, m):
        w = spec.mul(gamma, delta)
        entries.append((z.label(w, prefix_len), z.height(w)))
    return PatternBall(m, prefix_len, tuple(entries))


def json_int(value, what: str) -> int:
    """``value`` when it is a JSON integer (an ``int``, not a ``bool``);
    otherwise an :class:`InputError` naming ``what``."""
    if type(value) is not int:
        raise InputError(
            f"{what} must be an integer, not {type(value).__name__}")
    return value


def json_expect(value, kind: type, what: str):
    """``value`` when it is a JSON object (``dict``) or array (``list``)
    as ``kind`` asks; otherwise an :class:`InputError` naming
    ``what``."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise InputError(f"{what} must be {name}, not {type(value).__name__}")
    return value


def json_strings(value, what: str) -> list:
    """``value`` when it is a JSON array of strings; otherwise an
    :class:`InputError` naming ``what`` and the first offending entry."""
    json_expect(value, list, what)
    for i, item in enumerate(value):
        if type(item) is not str:
            raise InputError(
                f"{what}: entry {i} is {type(item).__name__}, not a string")
    return value


@dataclass(frozen=True)
class LocalSetSpec:
    """A local set: the preimage of a finite set of radius-m patterns."""

    m: int
    prefix_len: int
    patterns: frozenset[PatternBall]

    def __post_init__(self):
        for p in self.patterns:
            if p.m != self.m or p.prefix_len != self.prefix_len:
                raise InputError(
                    "all member patterns must share the spec's radius "
                    "and prefix length"
                )

    def to_dict(self) -> dict:
        return {
            "schema": "riverscape.localset/1",
            "m": self.m,
            "prefixLen": self.prefix_len,
            "patterns": sorted(p.serialize() for p in self.patterns),
        }

    @staticmethod
    def from_dict(obj: dict) -> "LocalSetSpec":
        json_expect(obj, dict, "local set")
        if obj.get("schema") != "riverscape.localset/1":
            raise InputError(
                f"unsupported local set schema: {obj.get('schema')!r}"
            )
        what = "target field 'patterns'"
        # the field reads only: a KeyError from a nested parser is a bug
        try:
            texts = json_strings(obj["patterns"], what)
            m = json_int(obj["m"], "local set field 'm'")
            prefix_len = json_int(obj["prefixLen"],
                                  "local set field 'prefixLen'")
        except KeyError as exc:
            raise InputError(
                f"local set is missing the field {exc.args[0]!r}") from None
        patterns = frozenset(PatternBall.deserialize(text, what)
                             for text in texts)
        if m < 1:
            raise InputError(f"local set field 'm' must be >= 1, got {m}")
        if prefix_len < 0:
            raise InputError(f"local set field 'prefixLen' must be >= 0, "
                             f"got {prefix_len}")
        return LocalSetSpec(m, prefix_len, patterns)


def pattern_scan(rows: tuple[list[str], list[int]], window: Window, m: int,
                 prefix_len: int) -> tuple[list[int], list[PatternBall]]:
    """The pattern of every core vertex, compiled against the window.

    ``rows`` is ``(labels, heights)``: the label row and the height of
    every window vertex, in window order (a snapshot's rows), read at
    any ``prefix_len`` up to the rows' own length, each distinct (label,
    height) cell cut once.  The core is the ball of radius R - m,
    the first ``window.core_size(R - m)`` indices, where every pattern
    fits inside the window.  Returns ``(ids, patterns)``: core vertex v
    has the pattern ``patterns[ids[v]]``, which equals ``theta(z,
    window.vertices[v], m, prefix_len)`` for the rule z the rows were
    read from; ``patterns`` holds the distinct ones in order of first
    occurrence.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > window.radius:
        raise ValueError("window too small for the pattern radius")
    labels, heights = rows
    width = len(labels[0])
    if not 0 <= prefix_len <= width:
        raise ValueError(f"prefix {prefix_len} is not in 0 .. {width}, "
                         f"the labels' length")
    # round 0: each distinct (label, height) cell is an id, and the cut
    # cells are re-interned in order of first occurrence
    cell_ids, cells = _intern(zip(labels, heights))
    if prefix_len < width:
        cut_ids, cells = _intern((bits[:prefix_len], h) for bits, h in cells)
        cell_ids = list(map(cut_ids.__getitem__, cell_ids))
    # round r: B_r(v) is v with the B_(r-1)(v·a), one per letter a, so
    # a radius-r id is the radius-(r - 1) ids of v and its neighbours,
    # interned over the core of radius R - r
    ids = cell_ids
    for r in range(1, m + 1):
        n = window.core_size(window.radius - r)
        ids, _ = _intern(zip(ids, *(map(ids.__getitem__, column[:n])
                                    for column in window.columns)))
    # one pattern per distinct id, read at its first vertex: ids are
    # numbered in order of first occurrence, and the pairs taken last
    # to first leave each id at its smallest vertex
    smallest = dict(zip(reversed(ids), reversed(range(len(ids)))))
    reps = list(map(smallest.__getitem__, range(len(smallest))))
    patterns = [PatternBall(m, prefix_len,
                            tuple(cells[cell_ids[x]] for x in ball))
                for ball in zip(*window.offset_rows(m, reps))]
    return ids, patterns


def _intern(keys: Iterable) -> tuple[list[int], list]:
    """The id of each of a scan round's keys, numbered in order of first
    occurrence, and the distinct keys; ``keys`` is read once, a key new
    to the round taking the next id, and no list of keys is built."""
    position = defaultdict(count().__next__)
    return list(map(position.__getitem__, keys)), list(position)


def realize(T: LocalSetSpec, z: LandscapeRule, window: Window) -> list[int]:
    """The core indices whose pattern lies in T, ascending."""
    ids, patterns = z.snapshot(window, T.prefix_len).scan(T.m, T.prefix_len)
    wanted = {j for j, pat in enumerate(patterns) if pat in T.patterns}
    return list(compress(range(len(ids)), map(wanted.__contains__, ids)))


def observed_patterns(z: LandscapeRule, window: Window, m: int,
                      prefix_len: Optional[int] = None) -> dict:
    """Map pattern -> the ascending core indices where it occurs, with
    the patterns in order of first occurrence."""
    if prefix_len is None:
        prefix_len = m
    ids, patterns = z.snapshot(window, prefix_len).scan(m, prefix_len)
    sites: list[list[int]] = [[] for _ in patterns]
    for i, j in enumerate(ids):
        sites[j].append(i)
    return dict(zip(patterns, sites))


def center_height_local_set(z: LandscapeRule, window: Window, m: int,
                            heights: Iterable[int],
                            prefix_len: Optional[int] = None) -> LocalSetSpec:
    """The local set of all observed patterns with a given center height."""
    if prefix_len is None:
        prefix_len = m
    wanted = set(heights)
    _, patterns = z.snapshot(window, prefix_len).scan(m, prefix_len)
    return LocalSetSpec(m, prefix_len, frozenset(
        p for p in patterns if p.center_height in wanted))
