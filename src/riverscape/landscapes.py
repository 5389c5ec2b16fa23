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
(``window_rows``, the axioms, the components, the channel rule) goes
through it.  The ternary rule paints its heights instead of evaluating
each integer: height 1 on the ternary n in 0..R, then for k = 1, 2, ...
height 1 + k on every unpainted n within 10^k of a ternary multiple of
10^k, spread to the window indices of n and -n.  ``height`` and
``label`` stay as the word-level oracles.

``verify_axioms`` certifies the four landscape axioms on a window and
reports the empirical structure constants; ``components_leq`` measures
sublevel-set components (the hilly certificate).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .groups import FreeGroup, GroupSpec, IntegerGroup, Window, bfs_distances
from .labels import ProperLabelRule
from .patterns import PatternBall, pattern_scan


class LandscapeRule:
    """A height function H: words -> N>=1 together with a label rule."""

    provenance: str

    def __init__(self, spec: GroupSpec, label_rule=None):
        self.spec = spec
        self.label_rule = label_rule or ProperLabelRule(spec)
        self._window_heights: dict = {}

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

    def _compute_heights(self, window: Window) -> list[int]:
        # the words are walked once and dropped, not cached on the window
        return list(map(self.height,
                        self.spec.ball_words(window.radius, window.step)))

    def window_rows(self, window: Window, s: int
                    ) -> tuple[list[str], list[int]]:
        """Index-aligned label prefixes of length s and heights of every
        window vertex: labels from the colour arrays, heights from
        :meth:`window_heights`."""
        return (self.label_rule.label_rows(window, s),
                self.window_heights(window))

    def scan(self, window: Window, m: int, s: int,
             core_radius: Optional[int] = None
             ) -> tuple[list[int], list[PatternBall]]:
        """:func:`~riverscape.patterns.pattern_scan` of
        :meth:`window_rows` at prefix s; every construction scan
        (``realize``, ``observed_patterns``, ``relabel``) goes through
        this hook, which a rule that keeps its rows may memoize."""
        return pattern_scan(self.window_rows(window, s), window, m, s,
                            core_radius)


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
        # u > 0 sits at index 2u - 1 and -u at index 2u
        heights = [painted[0]] * (2 * R + 1)
        heights[1::2] = painted[1:]
        heights[2::2] = painted[1:]
        return heights


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


def _slack(window: Window) -> array:
    """R - |w| for every window index, read off the sphere boundaries
    (enumeration sorts by length), as an int32 array."""
    R = window.radius
    slack = array("i")
    for r, size in enumerate(map(window.spec.ball_size, range(R + 1))):
        slack += array("i", (R - r,)) * (size - len(slack))
    return slack


def verify_axioms(z: LandscapeRule, window: Window,
                  m_max: Optional[int] = None,
                  density_max: int = 8) -> AxiomReport:
    """Check the four landscape axioms on the window, empirically.

    A BFS value at a vertex is trusted only when it fits inside the
    window (value <= R - |vertex|); in a tree or on the line such values
    are exact distances in the full group.  Vertices whose value cannot
    be certified are excluded from the constants and counted in
    ``uncertified``.  Nothing is kept per vertex beyond the heights, an
    int32 slack array and one BFS distance list at a time; words are
    spelled (``window.word_at``) only for the height-1 vertices and for
    violations.
    """
    spec = window.spec
    heights = z.window_heights(window)
    slack = _slack(window)
    constants = StructureConstants()
    violations: list[str] = []
    uncertified = 0

    for i, h in enumerate(heights):
        if h < 1:
            violations.append(
                f"height {h} < 1 at {window.word_at(i)!r}"
            )

    # axiom 1: slope <= 1 across every window edge
    for i, row in enumerate(zip(*window.letter_columns())):
        for j in row:
            if j > i and abs(heights[i] - heights[j]) > 1:
                violations.append(
                    f"axiom 1: |{heights[i]} - {heights[j]}| > 1 between "
                    f"{window.word_at(i)!r} and {window.word_at(j)!r}"
                )

    max_height = max(heights)
    h1 = [i for i, h in enumerate(heights) if h == 1]

    # axiom 2: bounded return to height 1
    if not h1:
        if max_height > 1:
            violations.append("axiom 2: no height-1 vertex in the window")
    else:
        dist_h1 = bfs_distances(window, h1)
        M = constants.M
        for h, d, room in zip(heights, dist_h1, slack):
            if h == 1:
                continue
            if d < 0 or d > room:
                uncertified += 1
                continue
            M[h] = max(M.get(h, 0), d)
        del dist_h1

    # axiom 3: height-1 density
    if h1:
        h1_words = [window.word_at(i) for i in h1]
        l_cap = min(density_max, len(h1_words) - 1)
        for i, w in zip(h1, h1_words):
            dists = sorted(spec.dist(w, v) for v in h1_words if v != w)
            for l in range(1, l_cap + 1):
                d = dists[l - 1]
                if d <= slack[i]:
                    constants.N[l] = max(constants.N.get(l, 0), d)
                else:
                    uncertified += 1
                    break
        if l_cap < 1 and len(h1) > 0 and len(window) > 1:
            violations.append("axiom 3: fewer than two height-1 vertices")

    # axiom 4: visibility of high ground
    if m_max is None:
        m_max = max(2, max_height)
    for m in range(1, m_max + 1):
        tall = array("i", [i for i, h in enumerate(heights) if h >= m])
        if not tall:
            violations.append(f"axiom 4: no vertex of height >= {m}")
            continue
        if len(tall) == len(heights):
            # every vertex is tall (m = 1): every distance is 0
            constants.S[m] = 0
            continue
        dist_tall = bfs_distances(window, tall)
        certified = 0
        farthest = -1
        for d, room in zip(dist_tall, slack):
            if 0 <= d <= room:
                certified += 1
                if d > farthest:
                    farthest = d
        del dist_tall
        uncertified += len(heights) - certified
        if certified:
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
    """Connected components of the height-<=n sublevel set in the window.

    Components touching the window boundary may be truncations of larger
    ones; ``max_interior_size`` ignores them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # the boundary sphere is the last block of indices
    boundary = window.core_size(window.radius - 1)
    member = [h <= n for h in z.window_heights(window)]
    seen = [False] * len(window)
    columns = window.letter_columns()
    sizes: list[int] = []
    interior_sizes: list[int] = []
    truncated = 0
    for start, ok in enumerate(member):
        if not ok or seen[start]:
            continue
        comp = [start]
        seen[start] = True
        touches_boundary = start >= boundary
        head = 0
        while head < len(comp):
            i = comp[head]
            head += 1
            for column in columns:
                j = column[i]
                if j >= 0 and member[j] and not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    if j >= boundary:
                        touches_boundary = True
        sizes.append(len(comp))
        if touches_boundary:
            truncated += 1
        else:
            interior_sizes.append(len(comp))
    return ComponentReport(
        n=n,
        sizes=sizes,
        max_size=max(sizes, default=0),
        max_interior_size=max(interior_sizes, default=0),
        truncated_components=truncated,
    )
