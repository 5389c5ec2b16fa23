"""Witness maps along the river, their defects, and the 010 bit-code.

The witness map assigns to each group element the image of the m-vertex
tree path that starts at (the preimage of) its nearest river point,
runs to the junction with the fixed ray, and continues along the ray.
The fixed ray is the one whose image consists of the powers (aa)^i.

``kappa``, ``defect`` and ``defect_bound`` are the word-level oracles.
The window-wide table :func:`defect_table` uses a closed form instead:
both witness paths of a row are geodesic rays toward the same end of the
ray, so |kappa_m(g) symdiff kappa_m(g sigma)| = 2 min(m, max(t, t')),
where t and t' are the positions at which the two paths merge.  For
neighbours max(t, t') is the length difference of their undoubled
nearest river points, a 0/1 flag read off the river's window heights
and the last letters; no letter column is read.  The table is held as
columns, one ceiling per core vertex and one merge flag per (letter,
core vertex), none depending on m; :func:`write_defects`
streams it to CSV, rendering the lines of each distinct row shape once.
Its vertex names come from the group's one ball speller
(:meth:`~riverscape.groups.FreeGroup.spell_ball`), which spells the
window's words too.

The code serializes, per element, the index of its witness set in a
canonical enumeration of the subsets of a reference ball, in unary
blocks of the string 010 framed by 11.  The ball's words are ranked and
unranked arithmetically (``index_of``, ``word_at``), so no ball of
words is built.  The parser is strict: any malformed framing is a
:class:`CodeFormatError` at the first bad bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import comb
from operator import getitem

from .groups import FreeGroup, Window
from .landscapes import RiverLandscape, double_word, undouble_word

DEFAULT_INDEX_BUDGET = 200_000

RAY_LETTER = 1  # the tree ray is a, aa, aaa, ...

DEFECT_BLOCK = 1024  # core vertices per write of the defect CSV


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


def defect_table(river: RiverLandscape, window: Window
                 ) -> tuple[list[int], list[bytes]]:
    """The defect table of the core vertices i (word length at most
    R - 1) as columns ``(ceilings, merges)``: at every m >= 1 the defect
    of i by the letter with index a is 2 min(m, merges[a][i]) / m, and
    its ceiling is ceilings[i] / m, exactly :func:`defect` and
    :func:`defect_bound` at window word i.  No entry depends on m.

    ``ceilings[i]`` is 2 C (h_i + 2).  ``merges[a][i]`` is max(t, t'),
    the later of the positions where the witness paths of i and of its
    neighbour k merge.  The nearest river points s and s' of neighbours
    are nested and differ by at most one letter (a paired prefix gains
    or loses at most one pair), so the two paths are equal or one path
    has one more vertex before they join, and max(t, t') = ||s| - |s'||,
    a 0/1 flag.  It is 1 exactly when the deeper end of the edge is on
    the river (height 1): i's parent edge when h_i = 1, i's child edge
    by its own last letter when h_i = 2, the child that completes its
    pair.  So the one flagged letter of i is a function of h_i and its
    last letter, and each column is one ``bytes.translate`` of those
    letters; no letter column is read.
    """
    spec = window.spec
    d = spec.degree
    core = window.core_size(window.radius - 1)
    ceiling = 2 * river.bilipschitz
    heights = river.window_heights(window)[:core]
    ceilings = [ceiling * (h + 2) for h in heights]
    # by_height[h][a]: the flagged letter of a vertex of height h whose
    # last letter has index a, or d for none; the identity reads a = d
    none = bytes([d]) * (d + 1)
    by_height = [none, bytes(a ^ 1 for a in range(d)) + bytes([d]),
                 bytes(range(d + 1))] + [none] * window.radius
    flags = bytes(map(getitem, map(by_height.__getitem__, heights),
                      chain((d,), islice(spec.last_letters(
                          window.radius - 1), 1, None))))
    merges = [flags.translate(bytes(b == a for b in range(256)))
              for a in range(d)]
    return ceilings, merges


def vertex_names(spec: FreeGroup, radius: int) -> list[str]:
    """The CSV name of every word w of B_radius(e), its letters joined
    by spaces, in index order ("" for the identity), spelled by
    :meth:`FreeGroup.spell_ball`."""
    letters = spec.letters()
    return spec.spell_ball(radius, "", list(map(str, letters)),
                           [f" {letter}" for letter in letters])


def write_defects(fh, window: Window,
                  table: tuple[list[int], list[list[int]]],
                  m_values: list[int]) -> tuple[int, int]:
    """Write the :func:`defect_table` of ``window`` to ``fh`` as CSV and
    return (rows, bound violations).

    Rows (vertex, generator, m, defect, bound) come for every core
    vertex, letter and m, in that nesting order; the defect and its
    bound are exact fractions.  A vertex's lines after its name depend
    only on its (ceiling, merges) key, so each distinct key's lines are
    rendered, and its violations counted, once; the core is written
    ``DEFECT_BLOCK`` vertices at a time, each vertex's name joined into
    its key's lines.  An m below 1 is a ``ValueError`` before anything
    is written.
    """
    if any(m < 1 for m in m_values):
        raise ValueError("m must be >= 1")
    ceilings, merges = table
    letters = window.spec.letters()
    # parts[key]: "" and then the vertex's lines after the name, so
    # that name.join(parts[key]) writes every line of the vertex
    parts: dict = {}
    violated = 0
    for key, count in Counter(zip(ceilings, *merges)).items():
        bound, *merge = key
        tail = [""]
        for sigma, t in zip(letters, merge):
            for m in m_values:
                d = 2 * min(m, t)
                tail.append(f",{sigma},{m},{Fraction(d, m)},"
                            f"{Fraction(bound, m)}\r\n")
                violated += count * (d > bound)
        parts[key] = tail
    names = vertex_names(window.spec, window.radius - 1)
    # no field needs quoting, so each line is the one csv.writer writes
    fh.write("vertex,generator,m,defect,bound\r\n")
    for lo in range(0, len(ceilings), DEFECT_BLOCK):
        hi = lo + DEFECT_BLOCK
        keys = zip(ceilings[lo:hi], *(column[lo:hi] for column in merges))
        fh.write("".join(map(str.join, names[lo:hi],
                             map(parts.__getitem__, keys))))
    return len(ceilings) * len(merges) * len(m_values), violated


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
        # the subsets whose next element skips to prev + 1 .. pos - 1:
        # the sum of comb(n - k - 1, remaining - 1) over those k, in
        # closed form by the hockey-stick identity
        rank += comb(n - prev - 1, remaining) - comb(n - pos, remaining)
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


def witness_subset_index(river: RiverLandscape, gamma: tuple, m: int) -> int:
    """Canonical index of the recentred witness set gamma^-1 kappa_m(gamma);
    an index past ``DEFAULT_INDEX_BUDGET`` is a :class:`CodeBudgetError`."""
    spec = river.spec
    radius = reference_radius(river, m, river.height(gamma))
    inv = spec.inverse(gamma)
    positions = []
    for point in kappa(river, gamma, m):
        local = spec.mul(inv, point)
        if spec.length(local) > radius:
            raise AssertionError(
                "witness point outside the reference ball; containment "
                "bound violated"
            )
        positions.append(spec.index_of(local))
    index = subset_index(tuple(sorted(positions)), spec.ball_size(radius))
    if index > DEFAULT_INDEX_BUDGET:
        raise CodeBudgetError(f"witness index {index} exceeds unary "
                              f"budget {DEFAULT_INDEX_BUDGET}")
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


def encode_witness(river: RiverLandscape, gamma: tuple, m_max: int) -> str:
    """The code prefix covering blocks m = 1 .. m_max for this element."""
    return encode_blocks([witness_subset_index(river, gamma, m)
                          for m in range(1, m_max + 1)])


def parse_code(bits: str) -> list[int]:
    """Indices of the 11-framed blocks in ``bits``; any malformed framing
    raises :class:`CodeFormatError` with its offset."""
    indices: list[int] = []
    pos = 0
    n = len(bits)
    while pos < n:
        if bits[pos : pos + 2] != "11":
            raise CodeFormatError("expected block separator 11", pos)
        pos += 2
        count = 0
        while pos < n and bits[pos : pos + 2] != "11":
            if bits[pos : pos + 3] != "010":
                raise CodeFormatError("expected 010 triple or separator",
                                      pos)
            count += 1
            pos += 3
        if count < 1:
            raise CodeFormatError("empty block", pos)
        indices.append(count)
    return indices


def decode_witness(bits: str, center_height: int) -> list[CodeBlock]:
    """Decode a code prefix into blocks, attaching the center height."""
    return [
        CodeBlock(m=i + 1, n=center_height, index=idx)
        for i, idx in enumerate(parse_code(bits))
    ]


def block_subset(river: RiverLandscape, block: CodeBlock) -> frozenset:
    """The recentred witness set a code block addresses."""
    spec = river.spec
    radius = reference_radius(river, block.m, block.n)
    return frozenset(map(spec.word_at, subset_from_index(
        block.index, spec.ball_size(radius))))
