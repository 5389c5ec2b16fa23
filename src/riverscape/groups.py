"""Exact word arithmetic and Cayley-ball enumeration.

Two group families are shipped: free groups F_k (words are tuples of
signed generator indices, freely reduced) and the integers (words are
plain ints, i.e. the signed letter count).  Everything downstream only
talks to the :class:`GroupSpec` interface, so the two representations
never leak.

Enumeration order is the global convention used everywhere for
tie-breaking and serialization: words sorted by length, then
lexicographically by letter, with letter order ``+1 < -1 < +2 < -2 < ...``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

DEFAULT_VERTEX_BUDGET = 500_000


class BudgetExceededError(RuntimeError):
    """Raised when a ball enumeration would exceed the vertex budget."""


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

    def dist(self, u, v) -> int:
        return self.length(self.mul(self.inverse(u), v))

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

    def step_table(self, radius: int) -> array:
        """Flat int32 transition table of B_radius(e) in index space.

        ``step[i * degree + a]`` is the index of word i times the letter
        with ``letter_index`` a, or -1 when that word leaves the ball.
        """
        raise NotImplementedError

    def word_to_json(self, u):
        raise NotImplementedError

    def word_from_json(self, obj):
        raise NotImplementedError

    # -- spec (de)serialization ------------------------------------------

    def to_dict(self) -> dict:
        return {"kind": self.kind, "rank": self.rank}

    @staticmethod
    def from_dict(obj: dict) -> "GroupSpec":
        kind = obj["kind"]
        if kind == "free":
            return FreeGroup(int(obj["rank"]))
        if kind == "integers":
            return IntegerGroup()
        raise ValueError(f"unknown group kind: {kind!r}")

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

    def step_table(self, radius: int) -> array:
        d = self.degree
        n = self.ball_size(radius)
        inner = self.ball_size(radius - 1) if radius > 0 else 0
        step = array("i", [-1]) * (n * d)
        # letter index of each word's last letter (the identity's is
        # never read); children are numbered in enumeration order
        last = bytearray(n)
        child = 1
        for i in range(inner):
            back = last[i] ^ 1 if i else -1
            row = i * d
            for a in range(d):
                if a != back:
                    step[row + a] = child
                    step[child * d + (a ^ 1)] = i
                    last[child] = a
                    child += 1
        return step

    def word_to_json(self, u: tuple[int, ...]) -> list[int]:
        return list(u)

    def word_from_json(self, obj) -> tuple[int, ...]:
        return self.reduce(int(x) for x in obj)


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

    def dist(self, u: int, v: int) -> int:
        return abs(v - u)

    def sort_key(self, u: int):
        return (abs(u), 0 if u >= 0 else 1)

    def ball_size(self, radius: int) -> int:
        return 2 * radius + 1

    def index_of(self, u: int) -> int:
        return 2 * u - 1 if u > 0 else -2 * u

    def step_table(self, radius: int) -> array:
        # u > 0 sits at index 2u - 1 and -u at 2u, so each step moves two
        # indices away from or towards 0; filled by strided slices
        step = array("i", [-1]) * (2 * self.ball_size(radius))
        if radius == 0:
            return step
        top = 2 * radius
        step[0:2] = array("i", (1, 2))
        step[2::4] = array("i", range(3, top + 2, 2))   # u > 0, +1
        step[3::4] = array("i", range(-1, top - 2, 2))  # u > 0, -1
        step[4::4] = array("i", range(0, top, 2))       # -u, +1
        step[5::4] = array("i", range(4, top + 3, 2))   # -u, -1
        step[3] = 0
        step[2 * top - 2] = step[2 * top + 1] = -1
        return step

    def word_to_json(self, u: int) -> list[int]:
        # a^n is serialized as its signed count, not n unit letters
        return [u] if u != 0 else []

    def word_from_json(self, obj) -> int:
        if not obj:
            return 0
        if len(obj) == 1 and abs(obj[0]) != 1:
            return int(obj[0])
        return self.reduce(int(x) for x in obj)


@dataclass(frozen=True)
class Window:
    """The ball B_R(G, e) with its induced adjacency.

    ``vertices`` is in enumeration order with vertex 0 the identity;
    ``adjacency[i]`` lists neighbor indices in letter order.
    """

    spec: GroupSpec
    radius: int
    vertices: tuple
    adjacency: tuple[tuple[int, ...], ...]
    index: dict = field(repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        if self.index is None:
            object.__setattr__(
                self, "index", {w: i for i, w in enumerate(self.vertices)}
            )

    def __len__(self) -> int:
        return len(self.vertices)

    def contains(self, word) -> bool:
        return word in self.index

    def core_indices(self, core_radius: int) -> list[int]:
        """Vertex indices with word length <= core_radius."""
        spec = self.spec
        return [
            i for i, w in enumerate(self.vertices)
            if spec.length(w) <= core_radius
        ]

    def to_dict(self) -> dict:
        spec = self.spec
        return {
            "schema": "riverscape.window/1",
            "group": spec.to_dict(),
            "radius": self.radius,
            "vertices": [spec.word_to_json(w) for w in self.vertices],
            "adjacency": [list(row) for row in self.adjacency],
        }

    @staticmethod
    def from_dict(obj: dict) -> "Window":
        if obj.get("schema") != "riverscape.window/1":
            raise ValueError(f"unsupported window schema: {obj.get('schema')!r}")
        spec = GroupSpec.from_dict(obj["group"])
        vertices = tuple(spec.word_from_json(v) for v in obj["vertices"])
        adjacency = tuple(tuple(row) for row in obj["adjacency"])
        return Window(spec, int(obj["radius"]), vertices, adjacency)


def ball(spec: GroupSpec, radius: int,
         budget: int = DEFAULT_VERTEX_BUDGET) -> Window:
    """Enumerate B_radius(G, e) in the deterministic order.

    Raises :class:`BudgetExceededError` before materializing a sphere
    that would push the vertex count past ``budget``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    letters = spec.letters()
    vertices = [spec.identity()]
    index = {spec.identity(): 0}
    sphere = [spec.identity()]
    for _ in range(radius):
        nxt = []
        for w in sphere:
            for letter in letters:
                v = spec.apply_letter(w, letter)
                if v not in index:
                    if len(vertices) + len(nxt) + 1 > budget:
                        raise BudgetExceededError(
                            f"ball of radius {radius} exceeds vertex "
                            f"budget {budget}"
                        )
                    index[v] = len(vertices) + len(nxt)
                    nxt.append(v)
        sphere = nxt
        vertices.extend(nxt)
    adjacency = []
    for w in vertices:
        row = []
        for letter in letters:
            v = spec.apply_letter(w, letter)
            j = index.get(v)
            if j is not None:
                row.append(j)
        adjacency.append(tuple(row))
    return Window(spec, radius, tuple(vertices), tuple(adjacency), index)


def bfs_distances(window: Window, sources: Sequence[int]) -> list[int]:
    """Graph distances from a source set inside the window (-1 = unreached)."""
    dist = [-1] * len(window.vertices)
    frontier = []
    for s in sources:
        if dist[s] == -1:
            dist[s] = 0
            frontier.append(s)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for i in frontier:
            for j in window.adjacency[i]:
                if dist[j] == -1:
                    dist[j] = d
                    nxt.append(j)
        frontier = nxt
    return dist
