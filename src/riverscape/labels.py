"""Proper Cantor labelings and bit-stream plumbing.

Bit strings are plain ``str`` over ``"01"``; positions are 1-based when
the code talks about coordinates.  The labeling concatenates, for
k = 1, 2, ..., an indicator block of length d^k + 1 that marks the color
of the vertex in a greedy proper coloring of the distance-<=k graph.
Two vertices at distance at most r are therefore separated within the
first ``separation_index(spec, r)`` bits.

The greedy colorings follow the global enumeration order, so a vertex's
color never depends on any window; labels are intrinsic to the word and
byte-reproducible.  They are computed in enumeration-index space, a
parent's children at a time.  On F_r and on Z the Cayley graph is a
tree and enumeration is breadth-first: the children of a vertex u are
contiguous, d of them from index 1 for the identity and d - 1 from
f(u) = (d - 1)u + 2 for every other vertex.  An earlier
vertex x within distance k of a child c of u is no descendant of c, so
its geodesic to c passes through u: x is u, or, when k >= 2, one of
c's earlier siblings, or an index below f(u) whose geodesic to u leaves
through u's parent p (u's other neighbours are its children), so that
d(p, x) <= k - 2.  Every vertex of B_(k-2)(p) is within k of c.  So
one colour mask, c(u), and for k >= 2 c(p) and the colours of
B_(k-2)(p) below f(u) (read along its offsets from p = (u - 2) //
(d - 1), or 0 when u <= d, composing the window's letter columns),
decides the colours of u's whole child block, and the block is
memoized on that mask.  Balls in trees and on the line are convex, so
the geodesic from p to such an x never leaves the grown ball.  No
words are stored, and no label is cached per word:
:meth:`ProperLabelRule.label` reads the colour arrays on each call.
"""

from __future__ import annotations

from array import array
from typing import Optional

from .groups import GroupSpec, Window, offset_steps


def separation_index(spec: GroupSpec, r: int) -> int:
    """Prefix length S_r after which words at distance <= r are separated."""
    if r < 0:
        raise ValueError("r must be non-negative")
    d = spec.degree
    return sum(d**k + 1 for k in range(1, r + 1))


class _IndexSpace:
    """B_R(e) as a :class:`Window` of enumeration indices; no words.

    One space serves every power k of a labeling.  It holds the caller's
    window when one is handed in, and otherwise grows its own on demand
    for the word-level oracles: with degree > 2 the spheres grow
    geometrically, so the ball is rebuilt at exactly the longest word
    asked for; on the line (degree 2) the radius at least doubles,
    because words arrive in the order 0, 1, -1, 2, ... and a rebuild per
    radius would be quadratic.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.window = Window(spec, 0, spec.ball_columns(0))

    def grow(self, radius: int, window: Optional[Window] = None) -> None:
        """Reach B_radius; ``window`` is that ball when the caller holds
        it already, so it is not built twice."""
        if radius > self.window.radius:
            if window is None:
                if self.spec.degree == 2:
                    radius = max(radius, 2 * self.window.radius)
                window = Window(self.spec, radius,
                                self.spec.ball_columns(radius))
            self.window = window

    def index(self, word) -> int:
        """The enumeration index of ``word``, with the ball grown to it."""
        self.grow(self.spec.length(word))
        return self.spec.index_of(word)


class GreedyColoring:
    """Greedy proper coloring of the distance-<=k graph, in enumeration order.

    ``color(w)`` uses at most |B_k| <= d^k + 1 colors: a word competes
    only with earlier-enumerated words within distance k, of which there
    are fewer than the ball size.
    """

    def __init__(self, spec: GroupSpec, k: int,
                 space: Optional[_IndexSpace] = None):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.spec = spec
        self.k = k
        self._space = space or _IndexSpace(spec)
        self._colors = array("i")
        # the colours of a (d - 1)-child block, by the mask of its parent
        self._blocks: dict[int, array] = {}
        # B_(k-2) minus the identity as steps (q, a) in enumeration
        # order: offset j is offset q times the letter with index a
        self._ops: list[tuple[int, int]] = []
        if k > 2:
            self._space.grow(k - 2)
            self._ops = offset_steps(self._space.window.columns,
                                     spec.ball_size(k - 2))

    def color(self, word) -> int:
        return self.color_at(self._space.index(word))

    def colors(self, n: int) -> array:
        """The colors of enumeration indices 0 .. n-1 (k >= 1); the
        index space must already reach them."""
        if n:
            self.color_at(n - 1)
        return self._colors[:n]

    def _block(self, used: int, size: int) -> array:
        """Greedy colours of a child block whose parent's mask is
        ``used``; siblings are at distance 2, so they compete for k >= 2."""
        out = array("i")
        for _ in range(size):
            c = (~used & (used + 1)).bit_length() - 1
            out.append(c)
            if self.k >= 2:
                used |= 1 << c
        return out

    def color_at(self, i: int) -> int:
        """The color of the word with enumeration index ``i``; the index
        space must already reach that word.  Whole child blocks are
        colored, up to the one that holds ``i``."""
        if self.k == 0:
            return 1
        colors = self._colors
        if i < len(colors):
            return colors[i]
        d = self.spec.degree
        if not colors:
            # the identity has no earlier vertex, and its children see
            # only the identity
            colors.append(1)
            colors.extend(self._block(0b11, d))
        columns = self._space.window.columns
        ops = self._ops
        blocks = self._blocks
        near = self.k >= 2
        # colors always end at a block boundary: the first child f of
        # the next parent u; bit c of ``used`` marks color c (bit 0 is
        # set so the lowest clear bit is a color >= 1)
        f = len(colors)
        for u in range((f - 2) // (d - 1), (i - 2) // (d - 1) + 1):
            used = 1 | 1 << colors[u]
            if near:
                # u's parent p and the rest of B_(k-2)(p) below f
                p = (u - 2) // (d - 1) if u > d else 0
                used |= 1 << colors[p]
                if ops:
                    # empty for k = 2, where B_0(p) is p alone
                    nb = [p]
                    for q, a in ops:
                        x = nb[q]
                        x = columns[a][x] if x >= 0 else -1
                        nb.append(x)
                        if -1 < x < f:
                            used |= 1 << colors[x]
            block = blocks.get(used)
            if block is None:
                block = blocks[used] = self._block(used, d - 1)
            colors.extend(block)
            f += d - 1
        return colors[i]


class ProperLabelRule:
    """The proper Cantor labeling built from stacked coloring blocks."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self._space = _IndexSpace(spec)
        self._colorings: dict[int, GreedyColoring] = {}

    def _coloring(self, k: int) -> GreedyColoring:
        coloring = self._colorings.get(k)
        if coloring is None:
            coloring = GreedyColoring(self.spec, k, self._space)
            self._colorings[k] = coloring
        return coloring

    def label_rows(self, window: Window, s: int) -> list[str]:
        """The first s bits of every window vertex's label, in window
        order, read from the colour arrays."""
        return self._rows(window, s, "")

    def padded_rows(self, window: Window, s: int) -> list[str]:
        """The first s bits of every window vertex's label spread to the
        odd positions, with zeros at the even ones, in window order."""
        return self._rows(window, s, "0")

    def _rows(self, window: Window, s: int, pad: str) -> list[str]:
        """Label rows read from the colour arrays (a window index is an
        enumeration index), every label bit followed by ``pad``.  A row
        is built once per distinct colour tuple, from the precomputed
        padded indicator of each colour, and equal rows are one string
        that every vertex holding it references."""
        n = len(window)
        if s <= 0:
            return [""] * n
        self._space.grow(window.radius, window)
        d = self.spec.degree
        zero, one = "0" + pad, "1" + pad
        blocks: list[list[str]] = []
        have = 0
        k = 1
        while have < s:
            block_len = d**k + 1
            blocks.append([""] + [
                zero * (c - 1) + one + zero * (block_len - c)
                for c in range(1, block_len + 1)
            ])
            have += len(blocks[-1][1])
            k += 1
        colours = [self._coloring(k).colors(n)
                   for k in range(1, len(blocks) + 1)]
        canonical: dict[str, str] = {}
        row_of: dict[tuple, str] = {}
        for key in dict.fromkeys(zip(*colours)):
            row = "".join(map(list.__getitem__, blocks, key))[:s]
            row_of[key] = canonical.setdefault(row, row)
        return list(map(row_of.__getitem__, zip(*colours)))

    def label(self, word, s: int) -> str:
        """The first s bits of the label of ``word``, read from the
        colour arrays on each call; the word-level oracle of
        :meth:`label_rows`."""
        if s < 0:
            raise ValueError("prefix length must be non-negative")
        d = self.spec.degree
        i = self._space.index(word)
        parts: list[str] = []
        have = 0
        k = 1
        while have < s:
            block_len = d**k + 1
            c = self._coloring(k).color_at(i)
            parts.append("0" * (c - 1) + "1" + "0" * (block_len - c))
            have += block_len
            k += 1
        return "".join(parts)[:s]
