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
B_(k-2)(p) below f(u), decides the colours of u's whole child block,
and the block is memoized on that mask.  The ball is read from the
index arithmetic alone, with no window: p is (u - 2) // (d - 1), or 0
when u <= d, and B_(k-2)(p) is p's ancestors a up to t <= k - 2 steps
with their descendants within k - 2 - t, which at each depth are one
index range.  That mask is sliced from the colour array once per p,
at the first child block of p that is coloured; p's later children add
only the blocks coloured since, their earlier siblings' children, which
are at distance 2 from p and so count only for k >= 4.

On the line (Z, degree 2) the colouring is periodic, and past a short
head the colours are tiled, not looped.  A vertex v with |v| > k has
exactly k earlier vertices within distance k: the k before it on its
own ray.  When |v| >= 2k + 2, those k and v's predecessor k + 1 back
all have |x| > k, so they too were each coloured against the k before
them; these k + 1 vertices are pairwise within distance k, so their
colours are distinct and at most k + 1, that is exactly 1..k + 1.  The
lowest colour free of the k before v is then the predecessor's:
c(v) = c(v -+ (k + 1)).  A step along a ray moves two indices, so in
enumeration indices c[i] = c[i - 2(k + 1)] for every i >= 4k + 3.  No
words are stored, and no label is cached per word:
:meth:`ProperLabelRule.label` reads the colour arrays on each call.
"""

from __future__ import annotations

from array import array

from .groups import GroupSpec, Window


def separation_index(spec: GroupSpec, r: int) -> int:
    """Prefix length S_r after which words at distance <= r are separated."""
    if r < 0:
        raise ValueError("r must be non-negative")
    d = spec.degree
    return sum(d**k + 1 for k in range(1, r + 1))


class GreedyColoring:
    """Greedy proper coloring of the distance-<=k graph, in enumeration order.

    ``color(w)`` uses at most |B_k| <= d^k + 1 colors: a word competes
    only with earlier-enumerated words within distance k, of which there
    are fewer than the ball size.
    """

    def __init__(self, spec: GroupSpec, k: int):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.spec = spec
        self.k = k
        self._colors = array("i")
        # on the line the colours repeat with period 2(k + 1) in indices
        # from index 4k + 3 on (see the module docstring); on trees the
        # block loop runs throughout
        self._tile_from = 4 * k + 3 if spec.degree == 2 else None
        # the colours of a (d - 1)-child block, by the mask of its parent
        self._blocks: dict[int, array] = {}

    def color(self, word) -> int:
        return self.color_at(self.spec.index_of(word))

    def colors(self, n: int) -> array:
        """The colors of enumeration indices 0 .. n-1."""
        if self.k == 0:
            return array("i", [1]) * n
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
        """The color of the word with enumeration index ``i``.  Whole
        child blocks are colored, up to the one that holds ``i``; on the
        line, indices from 4k + 3 on are tiled."""
        if self.k == 0:
            return 1
        colors = self._colors
        if i < len(colors):
            return colors[i]
        tile_from = self._tile_from
        if tile_from is not None and i >= tile_from:
            self._fill(tile_from - 1)
            self._tile(i + 1)
        else:
            self._fill(i)
        return colors[i]

    def _tile(self, n: int) -> None:
        """Extend the line's colours to indices 0 .. n-1, each one a
        copy of the colour one period 2(k + 1) before it; the colours
        must reach index 4k + 2.  Whole periods are copied about 4096
        colours at a time, so no transient copy of the array is made."""
        colors = self._colors
        period = 2 * (self.k + 1)
        chunk = colors[-period:] * max(1, 4096 // period)
        while len(colors) < n:
            colors.extend(chunk[:n - len(colors)])

    def _fill(self, i: int) -> None:
        """Colour whole child blocks with the block rule, up to the one
        that holds index ``i``."""
        colors = self._colors
        d = self.spec.degree
        if not colors:
            # the identity has no earlier vertex, and its children see
            # only the identity
            colors.append(1)
            colors.extend(self._block(0b11, d))
        blocks = self._blocks
        k = self.k
        # colors always end at a block boundary: the first child f of
        # the next parent u; bit c of ``used`` marks color c (bit 0 is
        # set so the lowest clear bit is a color >= 1)
        f = len(colors)
        last = -1
        for u in range((f - 2) // (d - 1), (i - 2) // (d - 1) + 1):
            used = 1 | 1 << colors[u]
            if k >= 2:
                # u's parent p and, for k >= 3, the rest of B_(k-2)(p)
                # below f
                p = (u - 2) // (d - 1) if u > d else 0
                if k == 2:
                    used |= 1 << colors[p]
                else:
                    if p != last:
                        last, near = p, self._near(p)
                    elif k >= 4:
                        # the block of u's previous sibling, coloured
                        # since: at distance 2 from p
                        for c in colors[f - d + 1:f]:
                            near |= 1 << c
                    used |= near
            block = blocks.get(used)
            if block is None:
                block = blocks[used] = self._block(used, d - 1)
            colors.extend(block)
            f += d - 1

    def _near(self, p: int) -> int:
        """The colour mask of B_(k-2)(p) below the end f of the colours.
        It is every ancestor a of p up to t <= k - 2 steps, and a's
        descendants within k - 2 - t steps, which at each depth are one
        index range: j >= 1 has children (d - 1)j + 2 .. (d - 1)j + d,
        the identity 1 .. d."""
        colors = self._colors
        d1 = self.spec.degree - 1
        f = len(colors)
        a, reach = p, self.k - 2
        used = 1 << colors[a]
        while True:
            lo, hi = d1 * a + 2 if a else 1, d1 * a + d1 + 2
            for _ in range(reach):
                if lo >= f:
                    break
                for c in colors[lo:hi]:
                    used |= 1 << c
                lo, hi = d1 * lo + 2, d1 * hi + 2
            if not a or not reach:
                return used
            a, reach = (a - 2) // d1 if a > d1 + 1 else 0, reach - 1
            used |= 1 << colors[a]


class ProperLabelRule:
    """The proper Cantor labeling built from stacked coloring blocks."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self._colorings: dict[int, GreedyColoring] = {}

    def _coloring(self, k: int) -> GreedyColoring:
        coloring = self._colorings.get(k)
        if coloring is None:
            coloring = GreedyColoring(self.spec, k)
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
        i = self.spec.index_of(word)
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
