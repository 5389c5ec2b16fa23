"""Exact word arithmetic and Cayley-ball enumeration.

Two group families are shipped: free groups F_k (words are tuples of
signed generator indices, freely reduced) and the integers (words are
plain ints, i.e. the signed letter count).  Everything downstream only
talks to the :class:`GroupSpec` interface, so the two representations
never leak.

Enumeration order is the global convention used everywhere for
tie-breaking and serialization: words sorted by length, then
lexicographically by letter, with letter order ``+1 < -1 < +2 < -2 < ...``.

A window B_R(G, e) is its letter columns: vertex ids are enumeration
indices, and ``columns[a][i]`` is the neighbour of vertex i by the
letter with index a, one array read.  Window-scale state is held as
typed int32 arrays, the letter columns; offsets are composed on them
over the vertices at hand (:meth:`Window.offset_rows`) and not kept.
Words are built only at the edges: transiently where a word-level rule
is evaluated (``ball_words``), one at a time where a few are printed
(``word_at``), and as a view cached on first use for the word-level
oracles.  A word is ranked and unranked arithmetically (``index_of``,
``word_at``), never through a lookup table.  On F_k each sphere is its
parents' child blocks in parent order, each block the letters of
:func:`child_letters`; the letter columns and every table built a
sphere at a time from the parent row (``last_letters``, the river
heights) share that one convention.  :meth:`FreeGroup.spell_ball` is
the one speller of a ball: past the first sphere, a child's entry is
its parent's entry plus a piece for its last letter, which spells the
words (``ball_words``) and the defect table's vertex names alike.  On
the line u > 0 sits at index 2u - 1 and -u at 2u; :func:`line_positions`
and :func:`line_indices` map that order to -R .. R and back.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from operator import add
from typing import Iterable, Iterator, Sequence

DEFAULT_VERTEX_BUDGET = 500_000


class BudgetExceededError(RuntimeError):
    """Raised when a ball enumeration would exceed the vertex budget."""


class InputError(ValueError):
    """Input that the command line or a parser was handed, such as a
    flag, a JSON file or a field of one, is malformed or does not fit;
    the command line reports it as exit status 2.  Parsers raise it, so
    a ``ValueError`` from a bug is not taken for the user's mistake."""


def letter_key(letter: int) -> tuple[int, int]:
    """Sort key realizing the letter order +1 < -1 < +2 < -2 < ..."""
    return (abs(letter), 0 if letter > 0 else 1)


def letter_index(letter: int) -> int:
    """Position of a letter in the order +1, -1, +2, -2, ...

    A letter's inverse sits at ``letter_index(letter) ^ 1``.
    """
    return 2 * abs(letter) - 2 + (letter < 0)


class GroupSpec:
    """Common interface of the shipped groups.

    ``rank`` is the number of generator pairs; the symmetric generating
    set has ``2 * rank`` letters, the signed indices ``+-1 .. +-rank``.
    """

    kind: str
    rank: int

    def letters(self) -> tuple[int, ...]:
        out: list[int] = []
        for i in range(1, self.rank + 1):
            out.extend((i, -i))
        return tuple(out)

    @property
    def degree(self) -> int:
        return 2 * self.rank

    # -- word operations -------------------------------------------------

    def identity(self):
        raise NotImplementedError

    def reduce(self, letters: Iterable[int]):
        raise NotImplementedError

    def apply_letter(self, word, letter: int):
        raise NotImplementedError

    def mul(self, u, v):
        raise NotImplementedError

    def inverse(self, u):
        raise NotImplementedError

    def length(self, u) -> int:
        raise NotImplementedError

    def word_letters(self, u) -> tuple[int, ...]:
        """The letters spelling ``u`` as a geodesic from the identity."""
        raise NotImplementedError

    def dist(self, u, v) -> int:
        """The word-metric distance |u^-1 v|."""
        raise NotImplementedError

    def lcp(self, u, v) -> int:
        """The length of the longest common prefix of the geodesic
        spellings of ``u`` and ``v``; the Cayley graph is a tree, so
        d(u, v) = |u| + |v| - 2 lcp(u, v)."""
        raise NotImplementedError

    def sort_key(self, u):
        raise NotImplementedError

    # -- enumeration indices ---------------------------------------------

    def ball_size(self, radius: int) -> int:
        """|B_radius(e)|, i.e. the index of the first word of length
        radius + 1."""
        raise NotImplementedError

    def index_of(self, u) -> int:
        """The position of ``u`` in the enumeration order, computed
        arithmetically (no ball is built)."""
        raise NotImplementedError

    def word_at(self, i: int):
        """The word with enumeration index ``i``, computed arithmetically
        (the inverse of :meth:`index_of`)."""
        raise NotImplementedError

    def ball_columns(self, radius: int) -> tuple[array, ...]:
        """The letter columns of B_radius(e) in index space, one int32
        array per letter.

        ``columns[a][i]`` is the index of word i times the letter with
        ``letter_index`` a, or -1 when that word leaves the ball.
        """
        raise NotImplementedError

    def ball_words(self, radius: int) -> list:
        """The words of B_radius(e) in index order."""
        raise NotImplementedError

    def word_from_json(self, obj):
        """The word a JSON array of letters spells; a letter outside
        +-1 .. +-rank is an :class:`InputError`."""
        raise NotImplementedError

    def _letters_from_json(self, obj) -> list[int]:
        letters = [int(x) for x in obj]
        for letter in letters:
            if not 1 <= abs(letter) <= self.rank:
                raise InputError(f"letter {letter} out of range for "
                                 f"rank-{self.rank} group")
        return letters

    # -- spec (de)serialization ------------------------------------------

    def to_dict(self) -> dict:
        return {"kind": self.kind, "rank": self.rank}

    @staticmethod
    def from_dict(obj: dict) -> "GroupSpec":
        """The group that :meth:`to_dict` wrote; an unknown kind or a
        rank the kind cannot have is an
        :class:`InputError`."""
        kind = obj["kind"]
        if kind == "free":
            rank = int(obj["rank"])
            if rank < 1:
                raise InputError(f"group field 'rank' is {rank}; a free "
                                 f"group has rank >= 1")
            return FreeGroup(rank)
        if kind == "integers":
            if obj["rank"] != 1:
                raise InputError(f"group field 'rank' is {obj['rank']!r}; "
                                 f"the integers have rank 1")
            return IntegerGroup()
        raise InputError(f"unknown group kind: {kind!r}")

    def _check_letter(self, letter: int) -> None:
        if not (1 <= abs(letter) <= self.rank):
            raise ValueError(
                f"letter {letter} out of range for rank-{self.rank} group"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupSpec)
            and self.kind == other.kind
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.rank))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rank={self.rank})"


class FreeGroup(GroupSpec):
    """F_k with freely reduced tuples of signed indices as normal form."""

    kind = "free"

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank

    def identity(self) -> tuple[int, ...]:
        return ()

    def reduce(self, letters: Iterable[int]) -> tuple[int, ...]:
        stack: list[int] = []
        for letter in letters:
            self._check_letter(letter)
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
        return tuple(stack)

    def apply_letter(self, word: tuple[int, ...], letter: int) -> tuple[int, ...]:
        self._check_letter(letter)
        if word and word[-1] == -letter:
            return word[:-1]
        return word + (letter,)

    def mul(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        # cancel the meeting ends, then concatenate
        i = len(u)
        j = 0
        while i > 0 and j < len(v) and u[i - 1] == -v[j]:
            i -= 1
            j += 1
        return u[:i] + v[j:]

    def inverse(self, u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-letter for letter in reversed(u))

    def length(self, u: tuple[int, ...]) -> int:
        return len(u)

    def word_letters(self, u: tuple[int, ...]) -> tuple[int, ...]:
        return u

    def sort_key(self, u: tuple[int, ...]):
        return (len(u), tuple(letter_key(letter) for letter in u))

    def ball_size(self, radius: int) -> int:
        d = self.degree
        if d == 2:
            return 2 * radius + 1
        return 1 + d * ((d - 1) ** radius - 1) // (d - 2)

    def index_of(self, u: tuple[int, ...]) -> int:
        # a sphere is ordered lexicographically: the first letter is a
        # base-d digit, each later one a base-(d-1) digit that skips the
        # inverse of its predecessor
        if not u:
            return 0
        d1 = self.degree - 1
        prev = letter_index(u[0])
        r = prev
        for letter in u[1:]:
            a = letter_index(letter)
            r = r * d1 + a - (a > (prev ^ 1))
            prev = a
        return self.ball_size(len(u) - 1) + r

    def word_at(self, i: int) -> tuple[int, ...]:
        if i == 0:
            return ()
        length = 1
        while self.ball_size(length) <= i:
            length += 1
        r = i - self.ball_size(length - 1)
        d1 = self.degree - 1
        digits = []
        for _ in range(length - 1):
            r, digit = divmod(r, d1)
            digits.append(digit)
        # r is now the first letter's index; each later digit skips the
        # inverse of its predecessor
        letters = self.letters()
        out = [letters[r]]
        prev = r
        for digit in reversed(digits):
            a = digit + (digit >= (prev ^ 1))
            out.append(letters[a])
            prev = a
        return tuple(out)

    def dist(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        # the geodesic between reduced words turns at their common prefix
        return len(u) + len(v) - 2 * self.lcp(u, v)

    def lcp(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        c = 0
        for a, b in zip(u, v):
            if a != b:
                break
            c += 1
        return c

    def last_letters(self, radius: int) -> bytes:
        """The letter index of every word's last letter in B_radius(e),
        in index order (the identity's byte, 0, is never read).

        Built a sphere at a time from the parents' bytes: the children
        of a non-identity word are its d - 1 extensions in letter order
        (:func:`child_letters`), so the t-th child of every parent is
        one ``bytes.translate`` of the parents' last letters.
        """
        d = self.degree
        kids = child_letters(d)
        # nth[t] maps a parent's last letter to its t-th child's
        nth = [bytes(kids[a][t] if a < d else 0 for a in range(256))
               for t in range(d - 1)]
        last = bytearray(1)
        if radius > 0:
            last += bytes(range(d))
        for r in range(1, radius):
            parents = last[self.ball_size(r - 1):]
            sphere = bytearray(len(parents) * (d - 1))
            for t, table in enumerate(nth):
                sphere[t::d - 1] = parents.translate(table)
            last += sphere
        return bytes(last)

    def ball_columns(self, radius: int) -> tuple[array, ...]:
        # parents in index order, a sphere at a time: a parent's children
        # are the next indices, by the letters of its last letter's child
        # block, and each child steps back by the inverse letter
        d = self.degree
        n = self.ball_size(radius)
        columns = tuple(array("i", [-1]) * n for _ in range(d))
        # (down, up) column pairs of each child block, in child order;
        # entry d is the identity's block, every letter
        pairs = [[(columns[a], columns[a ^ 1]) for a in kids]
                 for kids in (*child_letters(d), range(d))]
        last = chain((d,), islice(self.last_letters(radius), 1, None))
        child = 1
        for i, a in zip(range(self.ball_size(radius - 1) if radius else 0),
                        last):
            for down, up in pairs[a]:
                down[i] = child
                up[child] = i
                child += 1
        return columns

    def ball_words(self, radius: int) -> list:
        pieces = [(letter,) for letter in self.letters()]
        return self.spell_ball(radius, (), pieces, pieces)

    def spell_ball(self, radius: int, root, first: Sequence,
                   pieces: Sequence) -> list:
        """An entry for every word of B_radius(e), in index order: the
        identity's entry is ``root``, the entry of the letter with index
        a is ``first[a]``, and a longer word's entry is its parent's
        entry plus ``pieces[a]``, a the index of its last letter.

        Built a sphere at a time: the t-th child of every parent is one
        ``map`` over the parents' entries and their last letters
        (:meth:`last_letters`), by the t-th letter of
        :func:`child_letters`.
        """
        d = self.degree
        last = self.last_letters(radius)
        # suffix[t][a]: the t-th child's piece after last letter a
        suffix = [[pieces[kids[t]] for kids in child_letters(d)]
                  for t in range(d - 1)]
        out = [root]
        if radius > 0:
            out += first
        for r in range(1, radius):
            s, e = self.ball_size(r - 1), self.ball_size(r)
            sphere = [root] * ((e - s) * (d - 1))
            for t, table in enumerate(suffix):
                sphere[t::d - 1] = map(add, out[s:e],
                                       map(table.__getitem__, last[s:e]))
            out += sphere
        return out

    def word_from_json(self, obj) -> tuple[int, ...]:
        return self.reduce(self._letters_from_json(obj))


class IntegerGroup(GroupSpec):
    """The integers as the degenerate rank-1 case; a word is its net count."""

    kind = "integers"
    rank = 1

    def identity(self) -> int:
        return 0

    def reduce(self, letters: Iterable[int]) -> int:
        total = 0
        for letter in letters:
            self._check_letter(letter)
            total += 1 if letter > 0 else -1
        return total

    def apply_letter(self, word: int, letter: int) -> int:
        self._check_letter(letter)
        return word + (1 if letter > 0 else -1)

    def mul(self, u: int, v: int) -> int:
        return u + v

    def inverse(self, u: int) -> int:
        return -u

    def length(self, u: int) -> int:
        return abs(u)

    def word_letters(self, u: int) -> tuple[int, ...]:
        return (1,) * u if u >= 0 else (-1,) * -u

    def dist(self, u: int, v: int) -> int:
        return abs(v - u)

    def lcp(self, u: int, v: int) -> int:
        # words on the same side of 0 share the shorter one's letters
        return min(abs(u), abs(v)) if u * v > 0 else 0

    def sort_key(self, u: int):
        return (abs(u), 0 if u >= 0 else 1)

    def ball_size(self, radius: int) -> int:
        return 2 * radius + 1

    def index_of(self, u: int) -> int:
        return 2 * u - 1 if u > 0 else -2 * u

    def word_at(self, i: int) -> int:
        return (i + 1) // 2 if i % 2 else -(i // 2)

    def ball_columns(self, radius: int) -> tuple[array, ...]:
        """In position order each letter shifts the indices by one."""
        order = line_positions(array("i", range(self.ball_size(radius))))
        edge = array("i", [-1])
        return (line_indices(order[1:] + edge),
                line_indices(edge + order[:-1]))

    def ball_words(self, radius: int) -> list:
        return line_indices(list(range(-radius, radius + 1)))

    def word_from_json(self, obj) -> int:
        if not obj:
            return 0
        if len(obj) == 1 and abs(obj[0]) != 1:
            return int(obj[0])
        return self.reduce(self._letters_from_json(obj))


def line_positions(seq):
    """The entries ``seq`` of a degree-2 window, one a window index, in
    position order, x = -R .. R at positions 0 .. 2R; a list, bytes, a
    bytearray or an int32 array keeps its type."""
    n = len(seq)
    return seq[n - 1:0:-2] + seq[:1] + seq[1::2]


def line_indices(seq):
    """The inverse of :func:`line_positions`."""
    R = len(seq) // 2
    out = bytearray(seq) if isinstance(seq, bytes) else seq[:]
    out[0] = seq[R]
    out[1::2] = seq[R + 1:]
    out[2::2] = seq[:R][::-1]
    return bytes(out) if isinstance(seq, bytes) else out


def child_letters(degree: int) -> list[bytes]:
    """``kids[a]``: the letter indices of the children of a non-identity
    word whose last letter has index a, in enumeration order, which is
    every letter but a's inverse.  This is the child-order convention of
    :meth:`FreeGroup.ball_columns` and of every table built a sphere at a
    time from its parents."""
    return [bytes(b for b in range(degree) if b != a ^ 1)
            for a in range(degree)]


def offset_steps(columns: Sequence[array], count: int
                 ) -> list[tuple[int, int]]:
    """The first ``count`` offsets of B(e) as steps (p, a): offset j is
    offset p < j times the letter with index a.

    ``columns`` are letter columns (:meth:`GroupSpec.ball_columns`)
    reaching every such offset; the parent of a non-identity word is its
    neighbour of smaller index.
    """
    ops: list[tuple[int, int]] = []
    for j in range(1, count):
        for a, column in enumerate(columns):
            p = column[j]
            if 0 <= p < j:
                ops.append((p, a ^ 1))
                break
    return ops


@dataclass(frozen=True)
class Window:
    """The ball B_R(G, e) as its letter columns.

    Vertices are the indices 0 .. len - 1 in enumeration order, vertex 0
    the identity.  ``columns`` holds one int32 array per letter, in
    letter order: ``columns[a][i]`` is the neighbour of vertex i by the
    letter with index a, or -1 when it leaves the window.
    :meth:`offset_rows` composes offsets on the columns over the
    vertices a caller asks about, and keeps nothing.  :meth:`word_at`
    spells one vertex's word arithmetically, for the places that print
    or multiply a few words (witness strings, violation messages, the
    height-1 words of the axiom check).  :attr:`vertices`, every word,
    is a view cached on first use for the word-level oracles; pipeline
    code that reads each word once walks ``spec.ball_words(radius)``
    instead, so the words are not kept.
    A window is determined by its group and radius, so code that must
    know whether two windows agree compares ``(spec, radius)``.
    """

    spec: GroupSpec
    radius: int
    columns: tuple = field(repr=False, compare=False)

    def __len__(self) -> int:
        return self.spec.ball_size(self.radius)

    @cached_property
    def vertices(self) -> tuple:
        """The words of the window, in index order, built on first use
        and kept; no pipeline step, build or check reads them."""
        return tuple(self.spec.ball_words(self.radius))

    def word_at(self, i: int):
        """The word of vertex ``i``, spelled arithmetically and not kept;
        an index outside the window is a ``ValueError``."""
        if not 0 <= i < len(self):
            raise ValueError(f"index {i} outside the window of "
                             f"{len(self)} vertices")
        return self.spec.word_at(i)

    def index_of(self, word) -> int:
        """The window index of ``word``; a word outside the window, or
        not in normal form, is a ``ValueError``."""
        spec = self.spec
        if spec.length(word) > self.radius or \
                spec.reduce(spec.word_letters(word)) != word:
            raise ValueError(f"word {word!r} outside the window")
        return spec.index_of(word)

    def core_size(self, core_radius: int) -> int:
        """The number of vertices with word length <= core_radius: they
        are the first indices, because enumeration sorts by length."""
        if core_radius < 0:
            return 0
        return self.spec.ball_size(min(core_radius, self.radius))

    def offset_rows(self, m: int, xs: Sequence[int]) -> list[array]:
        """Where the offsets of B_m(e) take the vertices ``xs``.

        Row j holds ``xs[i]`` times offset j (offsets in enumeration
        order) at position i, as an int32 array that composes one letter
        column onto an earlier row.  Every product must lie in the
        window, as it does for ``xs`` in the core of radius R - m; an m
        outside 0 .. R is a ``ValueError``.  This is the one composer
        of offsets, and nothing composed is kept.
        """
        if not 0 <= m <= self.radius:
            raise ValueError(
                f"offset radius {m} does not fit the window radius "
                f"{self.radius}"
            )
        columns = self.columns
        rows = [array("i", xs)]
        for p, a in offset_steps(columns, self.spec.ball_size(m)):
            # a list built by map fills an array faster than map does
            rows.append(array("i", list(map(columns[a].__getitem__,
                                            rows[p]))))
        return rows


def ball(spec: GroupSpec, radius: int,
         budget: int = DEFAULT_VERTEX_BUDGET) -> Window:
    """B_radius(G, e) in the deterministic order, as its letter columns.

    Raises :class:`BudgetExceededError` before building anything when
    the ball holds more than ``budget`` vertices, and a negative radius
    is an :class:`InputError`.
    """
    if radius < 0:
        raise InputError("radius must be non-negative")
    if spec.ball_size(radius) > budget:
        raise BudgetExceededError(
            f"ball of radius {radius} exceeds vertex budget {budget}"
        )
    return Window(spec, radius, spec.ball_columns(radius))


def bfs_levels(columns: Sequence[array], frontier: Iterable[int],
               seen: bytearray) -> Iterator[list[int]]:
    """The BFS levels past ``frontier`` in the window whose letter
    columns (:attr:`Window.columns`) are ``columns``, each level as a
    list: level k holds the unmarked vertices at distance k from the
    frontier.

    ``seen`` is a window-length bytearray marking vertices visited or
    excluded; the caller marks the frontier, the walk marks each vertex
    it reaches, and a marked vertex is never entered.  This is the one
    graph walk, used in trees by the axiom check and on every group by
    the sublevel components (on the line the axiom check reads runs
    instead): pre-marking the vertices outside a set walks inside it.
    """
    while True:
        level = []
        for i in frontier:
            for column in columns:
                j = column[i]
                if j >= 0 and not seen[j]:
                    seen[j] = 1
                    level.append(j)
        if not level:
            return
        yield level
        frontier = level

