"""Witness maps along the river, their defects, and the 010 bit-code.

The witness map assigns to each group element the image of the m-vertex
tree path that starts at (the preimage of) its nearest river point,
runs to the junction with the fixed ray, and continues along the ray.
The fixed ray is the one whose image consists of the powers (aa)^i.

``kappa``, ``defect`` and ``defect_bound`` are the word-level oracles.
The window-wide table :func:`defect_table` uses a closed form instead:
both witness paths of a row are geodesic rays toward the same end of the
ray, so |kappa_m(g) symdiff kappa_m(g sigma)| = 2 min(m, max(t, t')),
where t and t' are the positions at which the two paths merge.  Those
come from two numbers per window index, read off the river's window
heights and the parent row a sphere at a time: the length of the
undoubled nearest river point and of its ray junction.

The code serializes, per element, the index of its witness set in a
canonical enumeration of the subsets of a reference ball, in unary
blocks of the string 010 framed by 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import comb

from .groups import FreeGroup, Window
from .landscapes import RiverLandscape, double_word, undouble_word
from .patterns import offset_ball

DEFAULT_INDEX_BUDGET = 200_000

RAY_LETTER = 1  # the tree ray is a, aa, aaa, ...


class CodeBudgetError(RuntimeError):
    """Raised when a witness index would exceed the unary-code budget."""


class CodeFormatError(ValueError):
    """Malformed witness code; ``offset`` is the first bad bit position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def tree_witness_path(s: tuple, m: int) -> list[tuple]:
    """The first m vertices of the tree path from s via its ray junction.

    ``s`` is a tree vertex (a reduced word); the path descends through
    the prefixes of s until it hits the ray of powers of the ray letter,
    then climbs the ray.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    junction = 0
    while junction < len(s) and s[junction] == RAY_LETTER:
        junction += 1
    if junction < len(s):
        path = [s[:t] for t in range(len(s), junction - 1, -1)]
    else:
        path = [s]  # s is on the ray already
    i = len(path[-1])
    while len(path) < m:
        i += 1
        path.append((RAY_LETTER,) * i)
    return path[:m]


def kappa(river: RiverLandscape, gamma: tuple, m: int) -> tuple[tuple, ...]:
    """The size-m witness set of river points, in path order."""
    s = undouble_word(river.nearest_river(gamma))
    spec: FreeGroup = river.spec
    return tuple(double_word(spec, w) for w in tree_witness_path(s, m))


def defect(river: RiverLandscape, gamma: tuple, sigma: int,
           m: int) -> Fraction:
    """|witness(gamma) symdiff witness(gamma * sigma)| / m."""
    spec = river.spec
    other = spec.apply_letter(gamma, sigma)
    a = set(kappa(river, gamma, m))
    b = set(kappa(river, other, m))
    return Fraction(len(a ^ b), m)


def defect_bound(river: RiverLandscape, gamma: tuple, m: int) -> Fraction:
    """The proven ceiling 2 (H + 2) C / m at this vertex."""
    c = river.bilipschitz
    return Fraction(2 * (river.height(gamma) + 2) * c, m)


def river_rays(river: RiverLandscape, window: Window
               ) -> tuple[list[int], list[int]]:
    """|s| and J for every window index: the length of the undoubled
    nearest river point s, and of its ray junction (the leading run of
    the ray letter in s).

    The nearest river point of a word w is its paired prefix, of length
    |w| - h(w) + 1, so |s| = (|w| - h + 1) // 2 is read from the rule's
    window heights a sphere at a time.  A child copies its parent's ray
    run, except the ray power a^r, which alone in sphere r gets r; the
    junction is the run cut to the paired prefix, and a ray run inside a
    paired prefix has even length.
    """
    spec = window.spec
    heights = river.window_heights(window)
    d = spec.degree
    # run[i] is half the leading ray-letter run of word i
    size, run = [0], [0]
    for r in range(1, window.radius + 1):
        s, e = spec.ball_size(r - 1), spec.ball_size(r)
        half = [(r - h + 1) // 2 for h in range(r + 2)]
        size += map(half.__getitem__, heights[s:e])
        # sphere r - 1 holds the parents: d children for the identity,
        # d - 1 for every other word
        parents = run[spec.ball_size(r - 2) if r > 1 else 0:s]
        run += chain.from_iterable(zip(*repeat(parents, d - (r > 1))))
        run[spec.index_of((RAY_LETTER,) * r)] = r // 2
    return size, list(map(min, run, size))


def merge_positions(n: int, j: int, n2: int, j2: int,
                    c: int) -> tuple[int, int]:
    """The positions (t, t') at which the witness paths of tree vertices
    s and s' merge, so that |path_m(s) symdiff path_m(s')| is
    2 min(m, max(t, t')).

    ``n`` and ``n2`` are |s| and |s'|, ``j`` and ``j2`` their ray
    junctions, ``c`` the length of their common prefix.  Both paths are
    geodesic rays toward the end of the ray.  When the common prefix
    reaches both junctions the paths merge there; otherwise they merge
    on the ray, at a^max(j, j2).
    """
    top = max(j, j2)
    if c >= top:
        return n - c, n2 - c
    return n - 2 * j + top, n2 - 2 * j2 + top


def defect_table(river: RiverLandscape, window: Window,
                 m_values: list[int]
                 ) -> list[tuple[int, int, int, int, int]]:
    """Rows (i, sigma, m, d, b) for every core vertex i (word length at
    most R - 1), letter sigma and m, in that nesting order: the defect
    is d / m and its ceiling b / m, exactly :func:`defect` and
    :func:`defect_bound` at window word i.

    One merge computation per (i, sigma) serves every m.  The nearest
    river points s and s' are nested, each a prefix of the longer of
    gamma and gamma sigma, so their common prefix is the shorter one.
    """
    if any(m < 1 for m in m_values):
        raise ValueError("m must be >= 1")
    size, junction = river_rays(river, window)
    heights = river.window_heights(window)
    columns, letters = window.columns, window.spec.letters()
    ceiling = 2 * river.bilipschitz
    rows = []
    for i in range(window.core_size(window.radius - 1)):
        n, j = size[i], junction[i]
        bound = ceiling * (heights[i] + 2)
        for column, sigma in zip(columns, letters):
            k = column[i]
            merge = max(merge_positions(n, j, size[k], junction[k],
                                        min(n, size[k])))
            rows.extend((i, sigma, m, 2 * min(m, merge), bound)
                        for m in m_values)
    return rows


# ---------------------------------------------------------------------------
# canonical subset enumeration

def subset_index(positions: tuple[int, ...], n: int) -> int:
    """1-based rank of a subset of {0..n-1} ordered by (size, lex).

    ``positions`` must be strictly increasing.
    """
    s = len(positions)
    rank = sum(comb(n, j) for j in range(s))
    # lexicographic rank among the size-s subsets
    prev = -1
    remaining = s
    for pos in positions:
        for skipped in range(prev + 1, pos):
            rank += comb(n - skipped - 1, remaining - 1)
        prev = pos
        remaining -= 1
    return rank + 1


def subset_from_index(index: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`subset_index`."""
    if index < 1:
        raise ValueError("index must be >= 1")
    rank = index - 1
    s = 0
    while rank >= comb(n, s):
        rank -= comb(n, s)
        s += 1
        if s > n:
            raise ValueError(f"index {index} out of range for n={n}")
    positions = []
    prev = -1
    for remaining in range(s, 0, -1):
        pos = prev + 1
        while True:
            block = comb(n - pos - 1, remaining - 1)
            if rank < block:
                break
            rank -= block
            pos += 1
        positions.append(pos)
        prev = pos
    return tuple(positions)


def reference_radius(river: RiverLandscape, m: int, height: int) -> int:
    """Radius of the ball that contains the recentred witness set.

    Cm + (H - 1): the witness set sits within distance-to-river plus
    C times the path length of the center.
    """
    return river.bilipschitz * m + (height - 1)


def witness_subset_index(river: RiverLandscape, gamma: tuple,
                         m: int,
                         budget: int = DEFAULT_INDEX_BUDGET) -> int:
    """Canonical index of the recentred witness set gamma^-1 kappa_m(gamma)."""
    spec = river.spec
    radius = reference_radius(river, m, river.height(gamma))
    base = offset_ball(spec, radius)
    base_pos = {w: i for i, w in enumerate(base)}
    inv = spec.inverse(gamma)
    positions = []
    for point in kappa(river, gamma, m):
        local = spec.mul(inv, point)
        pos = base_pos.get(local)
        if pos is None:
            raise AssertionError(
                "witness point outside the reference ball; containment "
                "bound violated"
            )
        positions.append(pos)
    index = subset_index(tuple(sorted(positions)), len(base))
    if index > budget:
        raise CodeBudgetError(
            f"witness index {index} exceeds unary budget {budget}"
        )
    return index


@dataclass(frozen=True)
class CodeBlock:
    """One decoded block: the size parameter, center height, and index."""

    m: int
    n: int
    index: int


def encode_blocks(indices: list[int]) -> str:
    """11-framed unary encoding: 11 (010)^i1 11 (010)^i2 ..."""
    parts = []
    for i in indices:
        if i < 1:
            raise ValueError("block indices are >= 1")
        parts.append("11" + "010" * i)
    return "".join(parts)


def encode_witness(river: RiverLandscape, gamma: tuple, m_max: int,
                   budget: int = DEFAULT_INDEX_BUDGET) -> str:
    """The code prefix covering blocks m = 1 .. m_max for this element."""
    indices = [
        witness_subset_index(river, gamma, m, budget)
        for m in range(1, m_max + 1)
    ]
    return encode_blocks(indices)


def parse_code(bits: str, allow_partial: bool = False) -> list[int]:
    """Indices of the complete 11-framed blocks in ``bits``.

    With ``allow_partial`` a trailing fragment of a separator or triple
    is tolerated (and the bits up to it still decode); otherwise any
    malformed framing raises :class:`CodeFormatError` with its offset.
    """
    indices: list[int] = []
    pos = 0
    n = len(bits)
    while pos < n:
        if bits[pos : pos + 2] != "11":
            if allow_partial and pos == n - 1 and bits[pos] == "1":
                break
            raise CodeFormatError("expected block separator 11", pos)
        pos += 2
        count = 0
        truncated = False
        while pos < n and bits[pos : pos + 2] != "11":
            if bits[pos : pos + 3] == "010":
                count += 1
                pos += 3
                continue
            tail = bits[pos:]
            if allow_partial and tail == "1":
                # a lone 1 can only start the next separator: the
                # current block is complete
                pos = n
                break
            if allow_partial and "010".startswith(tail):
                # an incomplete triple leaves this block's index open
                pos = n
                truncated = True
                break
            raise CodeFormatError("expected 010 triple or separator", pos)
        if truncated:
            break
        if count < 1:
            if allow_partial and pos >= n:
                break
            raise CodeFormatError("empty block", pos)
        indices.append(count)
    return indices


def decode_witness(bits: str, center_height: int,
                   allow_partial: bool = False) -> list[CodeBlock]:
    """Decode a code prefix into blocks, attaching the center height."""
    return [
        CodeBlock(m=i + 1, n=center_height, index=idx)
        for i, idx in enumerate(parse_code(bits, allow_partial))
    ]


def block_subset(river: RiverLandscape, block: CodeBlock) -> frozenset:
    """The recentred witness set a code block addresses."""
    radius = reference_radius(river, block.m, block.n)
    base = offset_ball(river.spec, radius)
    return frozenset(
        base[i] for i in subset_from_index(block.index, len(base))
    )
