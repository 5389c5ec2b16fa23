"""Height-function constructions and window certification.

Three height rules are shipped:

* the ternary rule on the integers (digits 0/3 sit at height 1, with
  height growing by decimal scale away from them),
* the fractal rule driven by an anchor set at scales 3 * 10^n (the group
  version of the ternary rule),
* the river rule on free groups of rank >= 2, where height is one plus
  the distance to the letter-doubled embedded 4-tree.

Heights are read once per window: ``LandscapeRule.window_heights``
returns every window vertex's height in window order, computed once per
(group, radius) and kept by the rule, and every window-wide reader
(the rule's ``snapshot``, the axioms, the components, the channel rule)
goes through it.  The ternary rule paints its heights instead of
evaluating each integer: height 1 on the ternary n in 0..R, then for
k = 1, 2, ... height 1 + k on every unpainted n within 10^k of a
ternary multiple of 10^k, and reads the line back into index order.
The river rule reads each height off the parent's, a sphere at a time,
from the parent's height and last letter, and spells no word.
``height`` and ``label`` stay as the word-level oracles.
``LandscapeRule.level_sets`` splits the heights, in one pass, into
height -> the ascending int32 array of the vertices at that height,
kept per (group, radius) like the heights; a sublevel set is a union
of levels, read without a pass over the window.

``verify_axioms`` certifies the four landscape axioms on a window and
reports the empirical structure constants; ``components_leq`` measures
sublevel-set components (the hilly certificate).  Axiom 1 reads each
edge of the window once, from the parent formula of the enumeration.
Axiom 3 finds each height-1 vertex's nearest others in a compressed
trie of the height-1 words, with no pairwise distance.  On the line,
axioms 2 and 4 take the runs of unmarked vertices in position order
and certify each run in closed form, with no walk.  In a tree they
search with the one level walk, :func:`~riverscape.groups.bfs_levels`,
as the components do on every group, and read the sublevel sets from
the levels: axiom 4 and the components walk only the sublevel sets,
the vertices outside them marked as seen before the walk starts, and a
BFS level is certified inline against the ball sizes (indices sort by
word length), with no per-vertex slack table.  Each walk or run search
also makes a C-level window-length mark (a byte a vertex), a fill or a
copy.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from heapq import merge
from itertools import chain, compress, count, islice, product, repeat
from operator import attrgetter, sub
from re import finditer
from typing import Iterator, Optional

from .checking import Snapshot
from .groups import (FreeGroup, GroupSpec, IntegerGroup, Window, bfs_levels,
                     child_letters, line_indices, line_positions)
from .labels import ProperLabelRule


def _consume(calls) -> None:
    """Run an iterator of calls made for their effect, such as a ``map``
    of ``__setitem__``, at C speed."""
    deque(calls, maxlen=0)


class LandscapeRule:
    """A height function H: words -> N>=1 together with a label rule."""

    provenance: str

    def __init__(self, spec: GroupSpec, label_rule=None):
        self.spec = spec
        self.label_rule = label_rule or ProperLabelRule(spec)
        self._window_heights: dict = {}
        self._level_sets: dict = {}

    def height(self, word) -> int:
        raise NotImplementedError

    def label(self, word, s: int) -> str:
        return self.label_rule.label(word, s)

    def window_heights(self, window: Window) -> list[int]:
        """The height of every window vertex, in window order; computed
        once per (group, radius) and kept.  Callers must not mutate it."""
        key = (window.spec, window.radius)
        heights = self._window_heights.get(key)
        if heights is None:
            heights = self._compute_heights(window)
            self._window_heights[key] = heights
        return heights

    def level_sets(self, window: Window) -> dict[int, array]:
        """Height -> the ascending int32 array of the window vertices at
        that height, in increasing height.  Built in one pass over
        :meth:`window_heights`, once per (group, radius) and kept like
        them; callers must not mutate it."""
        key = (window.spec, window.radius)
        levels = self._level_sets.get(key)
        if levels is None:
            heights = self.window_heights(window)
            levels = {h: array("i") for h in sorted(set(heights))}
            # vertex i goes to the level of its height, in a C-level map
            _consume(map(array.append, map(levels.__getitem__, heights),
                         count()))
            self._level_sets[key] = levels
        return levels

    def _compute_heights(self, window: Window) -> list[int]:
        # the words are walked once and dropped, not cached on the window
        return list(map(self.height, self.spec.ball_words(window.radius)))

    def snapshot(self, window: Window, s: int) -> Snapshot:
        """The label prefixes of length s (from the colour arrays) and
        the heights of every window vertex, built afresh on each call.
        Every row and scan leaves a rule through this hook, which a rule
        that keeps its rows overrides."""
        return Snapshot(window, self.window_heights(window),
                        self.label_rule.label_rows(window, s), s)


# ---------------------------------------------------------------------------
# ternary rule on the integers

def is_ternary(n: int) -> bool:
    """True for non-negative integers whose decimal digits are all 0 or 3."""
    if n < 0:
        return False
    return all(c in "03" for c in str(n))


def ternary_height(n: int) -> int:
    """Height 1 exactly on ternary integers; otherwise 1 + the least
    k >= 1 admitting a ternary t with 10^k | t and |n - t| <= 10^k.

    Negative inputs use |n|.  Height-1 points are isolated (consecutive
    ternary integers differ by at least 3), which keeps the sublevel
    components small.
    """
    n = abs(n)
    if is_ternary(n):
        return 1
    k = 1
    while True:
        step = 10**k
        base = (n // step) * step
        for t in (base - step, base, base + step):
            if t >= 0 and abs(n - t) <= step and is_ternary(t):
                return 1 + k
        k += 1


def _ternary_up_to(limit: int) -> list[int]:
    """The ternary integers 0..limit in increasing order."""
    out = [0]
    for width in range(len(str(limit))):
        for tail in product("03", repeat=width):
            t = int("3" + "".join(tail))
            if t <= limit:
                out.append(t)
    return out


class TernaryLandscape(LandscapeRule):
    provenance = "ternary"

    def __init__(self, spec: Optional[IntegerGroup] = None):
        super().__init__(spec or IntegerGroup())
        if self.spec.kind != "integers":
            raise ValueError("ternary landscape lives on the integers")

    def height(self, word: int) -> int:
        return ternary_height(word)

    def _compute_heights(self, window: Window) -> list[int]:
        """Paint the heights of |n| = 0..R scale by scale, then spread
        them to window indices.

        Height 1 goes on the ternary n; then for k = 1, 2, ... height
        1 + k goes on every unpainted n within 10^k of a ternary multiple
        t of 10^k (t / 10^k is ternary exactly when t is).  Painting in
        increasing k leaves the least such k, which is
        :func:`ternary_height`; the pass with 10^k >= R paints the rest,
        because t = 0 covers 0..10^k.
        """
        R = window.radius
        painted = [0] * (R + 1)
        for t in _ternary_up_to(R):
            painted[t] = 1
        k, step = 1, 10
        while True:
            for t in _ternary_up_to((R + step) // step):
                lo, hi = max(t * step - step, 0), min(t * step + step, R) + 1
                painted[lo:hi] = [h or 1 + k for h in painted[lo:hi]]
            if step >= R:
                break
            k, step = k + 1, step * 10
        return line_indices(painted[:0:-1] + painted)


# ---------------------------------------------------------------------------
# fractal rule from an anchor set

@dataclass(frozen=True)
class AnchorSet:
    """Anchor words gamma_0, gamma_1, ... with d(e, gamma_i) = 3 * 10^i.

    The derived level sets Q_k consist of the identity together with the
    products gamma_{n_j} ... gamma_{n_1} (indices strictly decreasing)
    whose smallest index n_1 is at least k.
    """

    spec: GroupSpec
    anchors: tuple

    def __post_init__(self):
        for i, g in enumerate(self.anchors):
            want = 3 * 10**i
            got = self.spec.dist(self.spec.identity(), g)
            if got != want:
                raise ValueError(
                    f"anchor {i} at distance {got}, expected {want}"
                )

    @property
    def depth(self) -> int:
        return len(self.anchors)

    def q_set(self, k: int) -> frozenset:
        """Q_k as an explicit finite set of words."""
        spec = self.spec
        elems = {spec.identity()}
        # build products with smallest factor index >= k, largest index last
        for i in range(k, self.depth):
            elems |= {spec.mul(self.anchors[i], w) for w in elems}
        return frozenset(elems)


class FractalLandscape(LandscapeRule):
    provenance = "fractal"

    def __init__(self, spec: GroupSpec, anchors: AnchorSet):
        super().__init__(spec)
        if anchors.spec != spec:
            raise ValueError("anchor set belongs to a different group")
        self.anchors = anchors
        self._q_sets = [anchors.q_set(k) for k in range(anchors.depth + 1)]

    def height(self, word) -> int:
        """Height 1 exactly on Q_0; otherwise 1 + the least k >= 1 with
        ``word`` within 10^k of some Q_k point."""
        spec = self.spec
        if word in self._q_sets[0]:
            return 1
        k = 1
        while True:
            q = self._q_sets[min(k, len(self._q_sets) - 1)]
            radius = 10**k
            if any(spec.dist(word, d) <= radius for d in q):
                return 1 + k
            k += 1


# ---------------------------------------------------------------------------
# river rule on free groups

def double_word(spec: FreeGroup, tree_word: tuple) -> tuple:
    """The letter-doubling embedding of a tree vertex (each letter twice)."""
    out = []
    for letter in tree_word:
        out.append(letter)
        out.append(letter)
    return tuple(out)


def undouble_word(word: tuple) -> tuple:
    """Inverse of :func:`double_word`; raises if the word is not on the river."""
    if len(word) % 2 != 0:
        raise ValueError("not a river point")
    out = []
    for i in range(0, len(word), 2):
        if word[i] != word[i + 1]:
            raise ValueError("not a river point")
        out.append(word[i])
    return tuple(out)


def _paired_prefix_len(word: tuple) -> int:
    """Length of the longest prefix made of equal adjacent letter pairs."""
    i = 0
    while i + 1 < len(word) and word[i] == word[i + 1]:
        i += 2
    return i


class RiverLandscape(LandscapeRule):
    """Height = 1 + distance to the letter-doubled 4-tree image.

    The image of a tree vertex w is w with every letter doubled, so the
    bilipschitz constant is 2 and the identity is on the river.  Distance
    to the image is exact: in the tree the geodesic from a word to the
    doubled subtree leaves through the longest paired prefix.
    """

    provenance = "river"
    bilipschitz = 2

    def __init__(self, spec: Optional[FreeGroup] = None):
        spec = spec or FreeGroup(2)
        if spec.kind != "free" or spec.rank < 2:
            raise ValueError("river landscape needs a free group of rank >= 2")
        super().__init__(spec)

    def is_river(self, word: tuple) -> bool:
        return len(word) % 2 == 0 and _paired_prefix_len(word) == len(word)

    def dist_to_river(self, word: tuple) -> int:
        return len(word) - _paired_prefix_len(word)

    def height(self, word: tuple) -> int:
        return self.dist_to_river(word) + 1

    def _compute_heights(self, window: Window) -> list[int]:
        """The heights from the parent row, a sphere at a time.

        The identity's children have height 2.  A child of u != e by the
        letter a has height 1 when h(u) = 2 and a is u's last letter
        (it completes u's one unpaired letter), and h(u) + 1 otherwise.
        So a parent's child block is a function of its height and last
        letter, and each sphere is the parents' blocks strung together,
        with the children's last letters from
        :meth:`~riverscape.groups.FreeGroup.last_letters`.  No word is
        spelled; :meth:`height` is the word-level oracle.
        """
        spec = self.spec
        R = window.radius
        d = spec.degree
        kids = child_letters(d)
        last = spec.last_letters(R)
        block = {(h, a): tuple(1 if h == 2 and b == a else h + 1
                               for b in kids[a])
                 for h in range(1, R + 1) for a in range(d)}
        heights = [1] + [2] * d if R > 0 else [1]
        for r in range(1, R):
            s, e = spec.ball_size(r - 1), spec.ball_size(r)
            heights += chain.from_iterable(
                map(block.__getitem__, zip(heights[s:e], last[s:e])))
        return heights

    def nearest_river(self, word: tuple) -> tuple:
        """The nearest river point, enumeration-least on ties.

        Off the river the geodesic to it leaves through the gate, the
        paired prefix plus one letter; the gate's river neighbours are
        the paired prefix and the paired prefix with that letter
        doubled, and the shorter one is enumeration-least.
        """
        return word[:_paired_prefix_len(word)]


# ---------------------------------------------------------------------------
# axiom verification

@dataclass
class StructureConstants:
    """Empirical landscape constants certified on a window.

    ``M[n]``: max distance from a height-n vertex to the height-1 set.
    ``N[l]``: max radius a height-1 vertex needs to see l other
    height-1 vertices.  ``S[m]``: max distance from any vertex to the
    height->=m set.  Sublevel component sizes come from
    :func:`components_leq`.
    """

    M: dict[int, int] = field(default_factory=dict)
    N: dict[int, int] = field(default_factory=dict)
    S: dict[int, int] = field(default_factory=dict)


@dataclass
class AxiomReport:
    passed: bool
    constants: StructureConstants
    violations: list[str] = field(default_factory=list)
    uncertified: int = 0


DENSITY_MAX = 8


def _line_runs(mark, R: int) -> Iterator[tuple[int, int, int]]:
    """The runs of unmarked vertices of a window of radius R on the
    line (degree 2), as (start, length, certified).

    ``mark`` holds a byte a window index (and may hold a pad byte),
    nonzero on the marked vertices, and is read in position order
    (:func:`~riverscape.groups.line_positions`), so a run is a stretch
    of consecutive integers and ``start`` is the position of its first
    vertex.  The runs are found by one C-level regular expression
    search.  A vertex x is certified when its distance d to the marked
    set fits the window, d <= R - |x|.  A run with marked vertices on
    both sides is wholly certified: the nearer end is reached by a
    geodesic that stays in the window.  A run that ends at the window's
    edge has a marked vertex on one side only; at the right end, with
    the mark at x = a - 1, exactly x = a .. (R + a - 1) // 2 are
    certified, at distances 1, 2, ..., and the left end is the mirror
    image.  Some vertex must be marked.
    """
    n = 2 * R + 1
    for run in finditer(rb"\0+", line_positions(mark[:n])):
        s, e = run.span()
        if s and e < n:
            yield s, e - s, e - s
        else:
            # the run's vertex next to its mark, at x = a - R after
            # mirroring a left end run to the right
            a = s if s else n - e
            yield s, e - s, R + 1 - a + (a - 1) // 2


class _TrieNode:
    """A node of the compressed trie of :func:`_nearest_distances`."""

    __slots__ = ("depth", "parent", "children", "end", "lows")

    def __init__(self, depth: int, parent, children: list):
        self.depth = depth
        self.parent = parent
        self.children = children
        # the length of the word ending here, if one does
        self.end: Optional[int] = None
        # the k smallest lengths of the words at or below, ascending
        self.lows: list[int] = []


def _nearest_distances(spec: GroupSpec, words: list, k: int
                       ) -> list[list[int]]:
    """For each word, the sorted distances to its k nearest others.

    The Cayley graph is a tree, so d(u, v) = |u| + |v| - 2 lcp(u, v)
    (:meth:`~riverscape.groups.GroupSpec.lcp`).  The words go into a
    compressed trie, built from their sorted order and the lcp of
    neighbours in it, with at most 2 len(words) nodes; each node keeps
    the k smallest lengths of the words at or below it.  A word climbs
    its ancestors: at depth t the words off its own branch offer
    |w| + |v| - 2t, and the climb stops once |w| - t, a lower bound for
    every word above, is no better than the k-th distance found.
    """
    if k < 1:
        return [[] for _ in words]
    root = _TrieNode(0, None, [])
    nodes = [root]
    node_of = {}
    stack = [root]
    prev = None
    # sorting keeps the words through one prefix together: tuples
    # compare letter by letter, and on Z the words through a prefix
    # are one side of 0, where a prefix may follow its extensions
    for w in sorted(words):
        t = 0 if prev is None else spec.lcp(prev, w)
        last = None
        while stack[-1].depth > t:
            last = stack.pop()
        top = stack[-1]
        if top.depth < t:
            # w leaves the last branch below top at depth t: split it
            mid = _TrieNode(t, top, [last])
            top.children[-1] = last.parent = mid
            nodes.append(mid)
            stack.append(mid)
            top = mid
        length = spec.length(w)
        if length > t:
            top = _TrieNode(length, top, [])
            stack[-1].children.append(top)
            nodes.append(top)
            stack.append(top)
        top.end = length
        node_of[w] = top
        prev = w
    # a child is deeper than its parent
    for node in sorted(nodes, key=attrgetter("depth"), reverse=True):
        own = [] if node.end is None else [node.end]
        node.lows = list(islice(merge(own, *(c.lows for c in node.children)),
                                k))
    out = []
    for w in words:
        length = spec.length(w)
        node = node_of[w]
        best: list[int] = []
        child = None
        while node is not None:
            t = node.depth
            if len(best) == k and length - t >= best[-1]:
                break
            # above w's own node, a word ending at the node is an other
            offered = [] if child is None or node.end is None \
                else [length - t]
            for c in node.children:
                if c is not child:
                    offered.extend(length + v - 2 * t for v in c.lows)
            best = sorted(best + offered)[:k]
            child, node = node, node.parent
        out.append(best)
    return out


def verify_axioms(z: LandscapeRule, window: Window) -> AxiomReport:
    """Check the four landscape axioms on the window, empirically.

    Axiom 3 reads the distances to the nearest ``DENSITY_MAX`` other
    height-1 vertices, and axiom 4 runs m = 1 .. max(2, max height).

    A distance at a vertex is trusted only when it fits inside the
    window (value <= R - |vertex|); in a tree or on the line such values
    are exact distances in the full group.  Vertices whose value cannot
    be certified are excluded from the constants and counted in
    ``uncertified``.

    The height-1 set and the sublevel sets are read from the rule's
    level sets (:meth:`LandscapeRule.level_sets`).  Axiom 1 reads each
    edge once: the root's d edges, then every vertex j > d against its
    parent (j - 2) // (d - 1), in d - 1 strided C-level passes.  Axiom 3
    finds each height-1 vertex's nearest others in a compressed trie of
    the height-1 words (:func:`_nearest_distances`), with no pairwise
    distance.  Axioms 2 and 4 depend on the group:

    * On the line (degree 2), they take the runs of unmarked vertices
      of the height-1 mark and of the tall mark {h >= m}, in position
      order (:func:`_line_runs`), and certify each run in closed form.
      Axiom 4 needs each run's certified count and farthest distance
      only; axiom 2 fills one int32 distance array a run at a time (-1
      where uncertified), reads it into index order
      (:func:`~riverscape.groups.line_indices`) and each ``M[h]`` as
      one C-level ``max`` over the level h.  No Python step is taken
      per vertex or per distance.
    * In a tree, they walk levels with
      :func:`~riverscape.groups.bfs_levels`.  Indices sort by word
      length, so a vertex j at BFS level k is certified exactly when
      j < |B_(R - k)|, computed once per level.  A walk stops at the
      first level that certifies no vertex: a neighbour j' of j has
      |j'| >= |j| - 1, so no later level can certify one either.
      Axiom 2 is one walk from the height-1 set.  Axiom 4 walks only
      the sublevel set {h < m}: the tall vertices are marked as seen at
      distance 0, and the walk starts from the low vertices with a
      tall neighbour.  From one m to the next the low set grows by the
      level m - 1, whose marks are lowered, and the new frontier lies
      in that level or the last frontier (the tall set only shrinks);
      it is found with one C-level ``compress`` per letter column.

    Nothing is kept per vertex beyond the heights, their level sets and,
    while axiom 4 runs, the tall mark and a walk's seen mark, or on the
    line a position-order copy of the mark and, for axiom 2, the
    distance array; words are spelled (``window.word_at``) only for the
    height-1 vertices and for violations.
    """
    spec = window.spec
    R = window.radius
    n = len(window)
    d = spec.degree
    line = d == 2
    heights = z.window_heights(window)
    levels = z.level_sets(window)
    columns = window.columns
    # vertex i has |i| <= r exactly when i < |B_r|
    ball_size = spec.ball_size
    constants = StructureConstants()
    violations: list[str] = []
    uncertified = 0

    if min(levels) < 1:
        for i, h in enumerate(heights):
            if h < 1:
                violations.append(
                    f"height {h} < 1 at {window.word_at(i)!r}"
                )

    # axiom 1: slope <= 1 across every window edge, each read once.  The
    # root's children are 1 .. d; the t-th children of the vertices
    # 1, 2, ... are d + 1 + t, d + t + d, ..., stepping by d - 1
    steep = max(map(abs, map(sub, islice(heights, 1, d + 1),
                             repeat(heights[0]))), default=0)
    for t in range(d - 1):
        steep = max(steep, max(map(abs, map(
            sub, islice(heights, d + 1 + t, None, d - 1),
            islice(heights, 1, None))), default=0))
    if steep > 1:
        for i, row in enumerate(zip(*columns)):
            for j in row:
                if j > i and abs(heights[i] - heights[j]) > 1:
                    violations.append(
                        f"axiom 1: |{heights[i]} - {heights[j]}| > 1 "
                        f"between {window.word_at(i)!r} and "
                        f"{window.word_at(j)!r}"
                    )

    max_height = max(levels)
    h1 = levels.get(1, array("i"))

    # axiom 2: bounded return to height 1
    if not h1:
        if max_height > 1:
            violations.append("axiom 2: no height-1 vertex in the window")
    else:
        M = constants.M
        seen = bytearray(n)
        _consume(map(seen.__setitem__, h1, repeat(1)))
        certified = 0
        if line:
            # the distances in position order: 0 on the marks, -1 where
            # uncertified, then read in index order
            by_position = array("i")
            done = 0
            for s, length, c in _line_runs(seen, R):
                by_position.extend(repeat(0, s - done))
                if s and s + length < n:
                    by_position.extend(range(1, (length + 1) // 2 + 1))
                    by_position.extend(range(length // 2, 0, -1))
                elif s:
                    by_position.extend(range(1, c + 1))
                    by_position.extend(repeat(-1, length - c))
                else:
                    by_position.extend(repeat(-1, length - c))
                    by_position.extend(range(c, 0, -1))
                certified += c
                done = s + length
            by_position.extend(repeat(0, n - done))
            dist = line_indices(by_position)
            for h, level in levels.items():
                if h != 1:
                    far = max(map(dist.__getitem__, level))
                    if far > 0:
                        M[h] = far
            del by_position, dist
        else:
            for k, level in enumerate(bfs_levels(columns, h1, seen), 1):
                if k > R:
                    # no vertex fits a level past R: the rest is
                    # uncertified
                    break
                bound = ball_size(R - k)
                before = certified
                for j in level:
                    if j < bound:
                        M[heights[j]] = k
                        certified += 1
                if certified == before:
                    # no later level can fit either
                    break
        uncertified += n - len(h1) - certified

    # axiom 3: height-1 density
    if h1:
        h1_words = [window.word_at(i) for i in h1]
        l_cap = min(DENSITY_MAX, len(h1_words) - 1)
        nearest = _nearest_distances(spec, h1_words, max(l_cap, 0))
        for w, dists in zip(h1_words, nearest):
            room = R - spec.length(w)
            for l, dist_l in enumerate(dists, 1):
                if dist_l <= room:
                    constants.N[l] = max(constants.N.get(l, 0), dist_l)
                else:
                    uncertified += 1
                    break
        if l_cap < 1 and len(h1) > 0 and len(window) > 1:
            violations.append("axiom 3: fewer than two height-1 vertices")

    # axiom 4: visibility of high ground over {h < m} only; the tall
    # vertices sit at distance 0 and are certified.  The low set grows
    # by whole levels as m rises, and ``tall`` marks the vertices of
    # height >= m, with a pad byte that index -1 (no neighbour) reads
    tall = bytearray(b"\1") * n + b"\0"
    n_low = 0
    near: set[int] = set()
    rising = iter(levels.items())
    nxt = next(rising, None)
    for m in range(1, max(2, max_height) + 1):
        # a low vertex with a tall neighbour is new to the low set or
        # had one at m - 1, since the tall set only shrinks
        candidates = array("i", near)
        while nxt is not None and nxt[0] < m:
            level = nxt[1]
            if not line:
                candidates.extend(level)
            n_low += len(level)
            _consume(map(tall.__setitem__, level, repeat(0)))
            nxt = next(rising, None)
        if n_low == n:
            violations.append(f"axiom 4: no vertex of height >= {m}")
            continue
        certified = 0
        farthest = 0
        if line:
            for s, length, c in _line_runs(tall, R):
                certified += c
                # an interior run is certified whole; an end run's
                # certified vertices sit at distances 1 .. c
                farthest = max(farthest, c if not s or s + length == n
                               else (length + 1) // 2)
        else:
            # level 1: the low vertices with a tall neighbour, one
            # C-level compress per letter column
            near = set().union(*(
                compress(candidates,
                         map(tall.__getitem__, map(column.__getitem__,
                                                   candidates)))
                for column in columns))
            seen = tall[:n]
            _consume(map(seen.__setitem__, near, repeat(1)))
            for k, level in enumerate(
                    chain((near,), bfs_levels(columns, near, seen)), 1):
                if k > R:
                    break
                c = sum(map(ball_size(R - k).__gt__, level))
                if not c:
                    break
                certified += c
                farthest = k
        uncertified += n_low - certified
        constants.S[m] = farthest

    return AxiomReport(
        passed=not violations,
        constants=constants,
        violations=violations,
        uncertified=uncertified,
    )


@dataclass
class ComponentReport:
    n: int
    sizes: list[int]
    max_size: int
    max_interior_size: int
    truncated_components: int


def components_leq(z: LandscapeRule, window: Window, n: int) -> ComponentReport:
    """Connected components of the height-<=n sublevel set in the window,
    read from the rule's level sets and walked inside the set.

    Components touching the window boundary may be truncations of larger
    ones; ``max_interior_size`` ignores them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # the boundary sphere is the last block of indices
    boundary = window.core_size(window.radius - 1)
    columns = window.columns
    sublevel = [level for h, level in z.level_sets(window).items()
                if h <= n]
    # non-members are pre-marked, so each walk stays in the sublevel set
    seen = bytearray(b"\1") * len(window)
    for level in sublevel:
        _consume(map(seen.__setitem__, level, repeat(0)))
    sizes: list[int] = []
    interior_sizes: list[int] = []
    truncated = 0
    # the walks start in ascending index order, merged from the levels
    # with no copy of the sublevel set
    for start in merge(*sublevel):
        if seen[start]:
            continue
        seen[start] = 1
        size, top = 1, start
        for level in bfs_levels(columns, (start,), seen):
            size += len(level)
            top = max(top, *level)
        sizes.append(size)
        if top >= boundary:
            truncated += 1
        else:
            interior_sizes.append(size)
    return ComponentReport(
        n=n,
        sizes=sizes,
        max_size=max(sizes, default=0),
        max_interior_size=max(interior_sizes, default=0),
        truncated_components=truncated,
    )
