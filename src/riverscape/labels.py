"""Proper Cantor labelings and bit-stream plumbing.

Bit strings are plain ``str`` over ``"01"``; positions are 1-based when
the code talks about coordinates.  The labeling concatenates, for
k = 1, 2, ..., an indicator block of length d^k + 1 that marks the color
of the vertex in a greedy proper coloring of the distance-<=k graph.
Two vertices at distance at most r are therefore separated within the
first ``separation_index(spec, r)`` bits.

The greedy colorings follow the global enumeration order, so a vertex's
color never depends on any window; labels are intrinsic to the word and
byte-reproducible.  They are computed in enumeration-index space: a
word is ranked arithmetically (``GroupSpec.index_of``), indices are
colored in increasing order, and a vertex's competitors are the earlier
indices reached by composing the steps of ``GroupSpec.step_table``
along the offsets of B_k.  This is the intrinsic greedy coloring
exactly: earlier words have length <= |w|, and balls in trees and on the
line are convex, so the geodesic w, w a_1, ..., w g of an offset g only
leaves the grown ball B_R (R >= |w|) when w g itself lies outside it,
i.e. is a later word.  No words are stored.
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
    """B_R(e) as enumeration indices with a flat step table; no words.

    One space serves every power k of a labeling.  It grows on demand:
    with degree > 2 the spheres grow geometrically, so the ball is
    rebuilt at exactly the longest word asked for; on the line (degree
    2) the radius at least doubles, because words arrive in the order
    0, 1, -1, 2, ... and a rebuild per radius would be quadratic.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.degree = spec.degree
        self.radius = -1
        self.step = array("i")

    def grow(self, radius: int) -> None:
        if radius > self.radius:
            if self.degree == 2:
                radius = max(radius, 2 * self.radius)
            self.step = self.spec.step_table(radius)
            self.radius = radius

    def index(self, word) -> int:
        """The enumeration index of ``word``, with the ball grown to it."""
        length = self.spec.length(word)
        if length > self.radius:
            self.grow(length)
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
        self.palette = spec.degree**k + 1
        self._space = space or _IndexSpace(spec)
        self._colors = array("i")
        # B_k minus the identity as steps (p, a) in enumeration order:
        # offset j is offset p times the letter with index a
        self._ops: list[tuple[int, int]] = []
        if k > 0:
            self._space.grow(k)
            self._ops = offset_steps(self._space.step, spec.degree,
                                     spec.ball_size(k))

    def color(self, word) -> int:
        return self.color_at(self._space.index(word))

    def colors(self, n: int) -> array:
        """The colors of enumeration indices 0 .. n-1 (k >= 1); the
        index space must already reach them."""
        if n:
            self.color_at(n - 1)
        return self._colors[:n]

    def color_at(self, i: int) -> int:
        """The color of the word with enumeration index ``i``; the index
        space must already reach that word."""
        if self.k == 0:
            return 1
        colors = self._colors
        if i < len(colors):
            return colors[i]
        step = self._space.step
        d = self._space.degree
        ops = self._ops
        # every earlier index is colored first, so all competitors of v
        # are known when v is reached; bit c of ``used`` marks color c
        # (bit 0 is set so the lowest clear bit is a color >= 1)
        for v in range(len(colors), i + 1):
            nb = [v]
            used = 1
            for p, a in ops:
                x = nb[p]
                x = step[x * d + a] if x >= 0 else -1
                nb.append(x)
                if -1 < x < v:
                    used |= 1 << colors[x]
            colors.append((~used & (used + 1)).bit_length() - 1)
        return colors[i]


class ProperLabelRule:
    """The proper Cantor labeling built from stacked coloring blocks."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self._space = _IndexSpace(spec)
        self._colorings: dict[int, GreedyColoring] = {}
        self._cache: dict = {}

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
        """Label rows read block by block from the colour arrays (a
        window index is an enumeration index), every label bit followed
        by ``pad``; each block of colour c is the precomputed padded
        indicator of c."""
        n = len(window)
        self._space.grow(window.radius)
        d = self.spec.degree
        zero, one = "0" + pad, "1" + pad
        rows: list[str] = [""] * n
        have = 0
        k = 1
        while have < s:
            block_len = d**k + 1
            blocks = [""] + [
                zero * (c - 1) + one + zero * (block_len - c)
                for c in range(1, block_len + 1)
            ]
            part = map(blocks.__getitem__, self._coloring(k).colors(n))
            rows = list(map(str.__add__, rows, part))
            have += len(blocks[1])
            k += 1
        return [row[:s] for row in rows]

    def label(self, word, s: int) -> str:
        """The first s bits of the label of ``word``."""
        if s < 0:
            raise ValueError("prefix length must be non-negative")
        cached = self._cache.get(word, "")
        if len(cached) >= s:
            return cached[:s]
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
        full = "".join(parts)
        self._cache[word] = full
        return full[:s]
