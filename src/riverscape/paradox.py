"""Doubling maps, piece extraction, relabeling, and certified verification.

The flow realizes a local set on a window, finds two injective
bounded-displacement self-maps with disjoint images by deterministic
bipartite matching, groups the images by their translator words, writes
per-piece membership bits into fresh even label positions, and verifies
the two covering identities exactly on a stated core.  Certificates
survive later steps because every later relabeling only touches even
positions above the earlier prefix ceiling.

One :class:`ChannelLandscape` per pipeline carries the labels: the base
labels spread to odd positions, read from the colour arrays as one row
per window vertex, and a channel write sets bits in the rows of a new
rule that shares the heights.  Relabeling and verification scan patterns
with :func:`~riverscape.patterns.pattern_scan` over those rows.

All tie-breaking is enumeration-order; there is no randomness anywhere,
so reruns produce byte-identical certificates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Optional, Sequence

from .groups import GroupSpec, Window
from .labels import interleave
from .landscapes import LandscapeRule, word_rows
from .patterns import LocalSetSpec, PatternBall, pattern_scan, realize


# ---------------------------------------------------------------------------
# label-channel machinery

class ChannelLandscape(LandscapeRule):
    """A base rule with its labels spread to odd positions and membership
    bits written at even ones, compiled against one window.

    The odd subsequence of every label is exactly the base label, so the
    base channel survives any number of even-position writes.  The rule
    holds the base, the window, one heights list shared by every rule
    derived from it, and the channels it writes (position -> member
    window indices).  Label rows are materialized once per prefix length:
    the first rule reads them from the base's colour arrays
    (``label_rule.padded_rows``), a derived rule copies its parent's rows
    and sets its own member bits, or shares them when none of its
    channels lies inside the prefix.  The base's labels are those of its
    ``label_rule``.
    """

    provenance = "relabeled"

    def __init__(self, base: LandscapeRule, window: Window,
                 parent: Optional["ChannelLandscape"] = None,
                 channels: Optional[dict] = None):
        super().__init__(base.spec, base.label_rule)
        self.base = base
        self.window = window
        self.parent = parent
        self.channels = channels or {}
        if parent is None:
            self.heights = base.window_heights(window)
            self.positions = frozenset(self.channels)
        else:
            self.heights = parent.heights
            self.positions = parent.positions | frozenset(self.channels)
        self._rows: dict[int, list[str]] = {}

    def with_channels(self, channels: dict) -> "ChannelLandscape":
        """A new rule with ``members`` flagged at each even position
        ``pos`` of ``{pos: members}`` (members are window indices)."""
        for pos in channels:
            if pos % 2 != 0 or pos < 2:
                raise ValueError(f"channel position {pos} is not even")
        clash = self.positions.intersection(channels)
        if clash:
            raise ValueError(f"channel collision at positions {sorted(clash)}")
        return ChannelLandscape(
            self.base, self.window, self,
            {pos: sorted(members) for pos, members in channels.items()},
        )

    def label_rows(self, s: int) -> list[str]:
        """The first s bits of every window vertex's label, in window
        order."""
        rows = self._rows.get(s)
        if rows is None:
            own = [pos for pos in self.channels if pos <= s]
            if self.parent is None:
                rows = self.label_rule.padded_rows(self.window, s)
            elif not own:
                rows = self.parent.label_rows(s)
            else:
                rows = list(self.parent.label_rows(s))
            for pos in own:
                for i in self.channels[pos]:
                    row = rows[i]
                    rows[i] = row[:pos - 1] + "1" + row[pos:]
            self._rows[s] = rows
        return rows

    def _own(self, window: Window) -> bool:
        return (window.spec, window.radius) == (self.spec, self.window.radius)

    def window_heights(self, window: Window) -> list[int]:
        return self.heights if self._own(window) \
            else self.base.window_heights(window)

    def window_rows(self, window: Window, s: int
                    ) -> tuple[list[str], list[int]]:
        if not self._own(window):
            return word_rows(self, window, s)
        return self.label_rows(s), self.heights

    def height(self, word) -> int:
        i = self.window.index.get(word)
        return self.base.height(word) if i is None else self.heights[i]

    def label(self, word, s: int) -> str:
        i = self.window.index.get(word)
        if i is not None:
            return self.label_rows(s)[i]
        # outside the window no channel has members: the padded base
        half = (s + 1) // 2
        return interleave(self.label_rule.label(word, half), "0" * half)[:s]


class ChannelAllocator:
    """Monotone allocator of consecutive even label positions."""

    def __init__(self, floor: int = 0):
        self.floor = floor

    def allocate(self, count: int, above: int = 0) -> tuple[int, ...]:
        start = max(self.floor, above) + 1
        if start % 2 != 0:
            start += 1
        positions = tuple(start + 2 * i for i in range(count))
        if positions:
            self.floor = positions[-1]
        return positions


# ---------------------------------------------------------------------------
# covering radius and the bounded-displacement graph

def covering_radius(T: Sequence, window: Window) -> int:
    """Least R with a T-point within R of every window vertex (estimate)."""
    if not T:
        raise ValueError("empty set has no covering radius; "
                         "empty targets take the trivial-certificate path")
    from .groups import bfs_distances

    dist = bfs_distances(window, window.indices(T))
    return max(dist)


@dataclass
class GTGraph:
    """The auxiliary graph on T with edges at distance <= 3 R_T."""

    nodes: tuple
    adjacency: tuple[tuple[int, ...], ...]
    edge_distance: int
    n_components: int
    max_degree: int
    min_degree: int


def build_GT(T: Sequence, window: Window, R_T: int) -> GTGraph:
    spec = window.spec
    nodes = tuple(sorted(T, key=spec.sort_key))
    cut = 3 * R_T
    # G_T lives on T alone, so pairwise word distances beat enumerating
    # the (possibly huge) offset ball of radius 3 R_T
    rows: list[list[int]] = [[] for _ in nodes]
    for i, u in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            if 0 < spec.dist(u, nodes[j]) <= cut:
                rows[i].append(j)
                rows[j].append(i)
    adjacency = [tuple(sorted(r)) for r in rows]
    # component count by BFS
    seen = [False] * len(nodes)
    n_components = 0
    for start in range(len(nodes)):
        if seen[start]:
            continue
        n_components += 1
        queue = [start]
        seen[start] = True
        while queue:
            i = queue.pop()
            for j in adjacency[i]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
    degrees = [len(r) for r in adjacency] or [0]
    return GTGraph(
        nodes=nodes,
        adjacency=tuple(adjacency),
        edge_distance=3 * R_T,
        n_components=n_components,
        max_degree=max(degrees),
        min_degree=min(degrees),
    )


def cheeger_estimate(graph: GTGraph) -> float:
    """Crude spectral lower bound lambda_2 / 2 for the Cheeger constant.

    Diagnostic only: computed on the largest component of the window
    graph, which says nothing rigorous about the infinite object.
    """
    import numpy as np

    n = len(graph.nodes)
    if n < 2:
        return 0.0
    # largest component
    seen = [-1] * n
    comps: list[list[int]] = []
    for start in range(n):
        if seen[start] >= 0:
            continue
        comp = [start]
        seen[start] = len(comps)
        head = 0
        while head < len(comp):
            i = comp[head]
            head += 1
            for j in graph.adjacency[i]:
                if seen[j] < 0:
                    seen[j] = len(comps)
                    comp.append(j)
        comps.append(comp)
    comp = max(comps, key=len)
    idx = {v: i for i, v in enumerate(comp)}
    k = len(comp)
    if k < 2:
        return 0.0
    adj = np.zeros((k, k))
    for v in comp:
        for w in graph.adjacency[v]:
            if w in idx:
                adj[idx[v], idx[w]] = 1.0
    deg = adj.sum(axis=1)
    deg[deg == 0] = 1.0
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(k) - (adj * d_inv_sqrt).T * d_inv_sqrt
    eigenvalues = np.linalg.eigvalsh(lap)
    return float(eigenvalues[1] / 2.0)


# ---------------------------------------------------------------------------
# deterministic Hopcroft-Karp matching

class _HopcroftKarp:
    """Maximum bipartite matching, deterministic in adjacency order."""

    INF = float("inf")

    def __init__(self, adjacency: list[list[int]], n_right: int):
        self.adj = adjacency
        self.n_left = len(adjacency)
        self.n_right = n_right
        self.match_left = [-1] * self.n_left
        self.match_right = [-1] * n_right

    def solve(self) -> int:
        size = 0
        while self._bfs():
            for u in range(self.n_left):
                if self.match_left[u] == -1 and self._dfs(u):
                    size += 1
        return size

    def _bfs(self) -> bool:
        self.dist = [self.INF] * self.n_left
        queue = []
        for u in range(self.n_left):
            if self.match_left[u] == -1:
                self.dist[u] = 0
                queue.append(u)
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in self.adj[u]:
                w = self.match_right[v]
                if w == -1:
                    found = True
                elif self.dist[w] is self.INF:
                    self.dist[w] = self.dist[u] + 1
                    queue.append(w)
        return found

    def _dfs(self, root: int) -> bool:
        """One augmenting path from ``root`` along the BFS layers.

        Iterative, so path length is not bounded by the recursion limit;
        each frame is [vertex, next edge position] and edges are tried in
        adjacency order, as a recursive search would.
        """
        adj, dist = self.adj, self.dist
        stack = [[root, 0]]
        while stack:
            frame = stack[-1]
            u, k = frame
            if k == len(adj[u]):
                dist[u] = self.INF
                stack.pop()
                continue
            v = adj[u][k]
            frame[1] = k + 1
            w = self.match_right[v]
            if w == -1:
                # augment: every frame takes the edge it is standing on
                for x, e in stack:
                    y = adj[x][e - 1]
                    self.match_left[x] = y
                    self.match_right[y] = x
                return True
            if dist[w] == dist[u] + 1:
                stack.append([w, 0])
        return False


@dataclass
class DoublingSearch:
    """Outcome of the displacement sweep for a doubling of T."""

    saturated: bool
    trivial: bool
    K: int
    core_radius: int
    phi: dict
    psi: dict
    matched_fraction: float
    attempts: list[tuple[int, float]] = field(default_factory=list)


def find_doubling(T: Sequence, window: Window, K_start: int = 2,
                  k_ceiling: int = 8) -> DoublingSearch:
    """Sweep displacement bounds until a saturating doubling is matched.

    Never claims non-existence: an exhausted sweep reports the largest
    matched fraction and leaves the question open.  The candidates of a
    vertex are read off the window's offset tables of B_(K-1), in
    enumeration order of the offsets.
    """
    R = window.radius
    if not T:
        return DoublingSearch(
            saturated=True, trivial=True, K=0, core_radius=R,
            phi={}, psi={}, matched_fraction=1.0,
        )
    right = sorted(window.indices(T))
    right_pos = {t: j for j, t in enumerate(right)}
    words = window.vertices
    best_fraction = 0.0
    attempts: list[tuple[int, float]] = []
    for K in range(K_start, k_ceiling + 1):
        core = right[:bisect_left(right, window.core_size(R - K))]
        if not core:
            continue
        columns = [map(table.__getitem__, core)
                   for table in window.offset_tables(K - 1)]
        per_vertex = [
            [right_pos[y] for y in reach if y in right_pos]
            for reach in zip(*columns)
        ]
        adjacency = per_vertex + [list(r) for r in per_vertex]
        matcher = _HopcroftKarp(adjacency, len(right))
        size = matcher.solve()
        fraction = size / (2 * len(core))
        attempts.append((K, fraction))
        best_fraction = max(best_fraction, fraction)
        if size == 2 * len(core):
            match = matcher.match_left
            phi = {
                words[x]: words[right[match[i]]]
                for i, x in enumerate(core)
            }
            psi = {
                words[x]: words[right[match[len(core) + i]]]
                for i, x in enumerate(core)
            }
            return DoublingSearch(
                saturated=True, trivial=False, K=K, core_radius=R - K,
                phi=phi, psi=psi, matched_fraction=1.0, attempts=attempts,
            )
    return DoublingSearch(
        saturated=False, trivial=False, K=k_ceiling, core_radius=0,
        phi={}, psi={}, matched_fraction=best_fraction, attempts=attempts,
    )


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class DoublingCertificate:
    """Pattern-defined pieces and translators doubling a local set.

    The first ``p`` translators belong to the phi family, the remaining
    ``q`` to psi.  ``core_radius`` is the radius on which the covering
    identities are claimed exactly.
    """

    m: int
    target: LocalSetSpec
    l: int
    prefix_len: int
    translators: tuple
    p: int
    q: int
    pieces_vertices: tuple[frozenset, ...]
    piece_patterns: tuple[frozenset, ...]
    channel_positions: tuple[int, ...]
    window_group: dict
    window_radius: int
    core_radius: int
    K: int
    trivial: bool

    def to_dict(self) -> dict:
        return {
            "schema": "riverscape.certificate/1",
            "m": self.m,
            "target": self.target.to_dict(),
            "l": self.l,
            "prefixLen": self.prefix_len,
            "pieces": [
                sorted(p.serialize() for p in pats)
                for pats in self.piece_patterns
            ],
            "translators": [list(t) if isinstance(t, tuple) else [t]
                            for t in self.translators],
            "p": self.p,
            "q": self.q,
            "channelPositions": list(self.channel_positions),
            "windowRef": {
                "group": self.window_group,
                "radius": self.window_radius,
            },
            "coreRadius": self.core_radius,
            "displacementBound": self.K,
            "trivial": self.trivial,
        }


def certificate_from_dict(obj: dict, spec: GroupSpec) -> DoublingCertificate:
    if obj.get("schema") != "riverscape.certificate/1":
        raise ValueError(
            f"unsupported certificate schema: {obj.get('schema')!r}"
        )
    if obj["windowRef"]["group"] != spec.to_dict():
        raise ValueError("certificate group does not match the given group")
    return DoublingCertificate(
        m=int(obj["m"]),
        target=LocalSetSpec.from_dict(obj["target"]),
        l=int(obj["l"]),
        prefix_len=int(obj["prefixLen"]),
        translators=tuple(
            spec.word_from_json(t) for t in obj["translators"]
        ),
        p=int(obj["p"]),
        q=int(obj["q"]),
        pieces_vertices=tuple(
            frozenset() for _ in obj["pieces"]
        ),
        piece_patterns=tuple(
            frozenset(PatternBall.deserialize(s) for s in pats)
            for pats in obj["pieces"]
        ),
        channel_positions=tuple(int(c) for c in obj["channelPositions"]),
        window_group=obj["windowRef"]["group"],
        window_radius=int(obj["windowRef"]["radius"]),
        core_radius=int(obj["coreRadius"]),
        K=int(obj.get("displacementBound", 0)),
        trivial=bool(obj.get("trivial", False)),
    )


def trivial_certificate(target: LocalSetSpec, window: Window
                        ) -> DoublingCertificate:
    """The certificate for an empty realization: zero phi pieces, one
    empty psi piece translated by the identity."""
    return DoublingCertificate(
        m=target.m,
        target=target,
        l=target.m,
        prefix_len=target.prefix_len,
        translators=(window.spec.identity(),),
        p=0,
        q=1,
        pieces_vertices=(frozenset(),),
        piece_patterns=(frozenset(),),
        channel_positions=(),
        window_group=window.spec.to_dict(),
        window_radius=window.radius,
        core_radius=window.radius - target.m,
        K=0,
        trivial=True,
    )


def extract_pieces(search: DoublingSearch, target: LocalSetSpec,
                   window: Window) -> DoublingCertificate:
    """Group the doubling images by translator into disjoint pieces."""
    if not search.saturated:
        raise ValueError("cannot extract pieces from an unsaturated search")
    if search.trivial:
        return trivial_certificate(target, window)
    spec = window.spec
    phi_pieces: dict = {}
    psi_pieces: dict = {}
    for assignment, pieces in ((search.phi, phi_pieces),
                               (search.psi, psi_pieces)):
        for x, y in assignment.items():
            g = spec.mul(spec.inverse(y), x)
            pieces.setdefault(g, set()).add(y)
    phi_translators = sorted(phi_pieces, key=spec.sort_key)
    psi_translators = sorted(psi_pieces, key=spec.sort_key)
    translators = tuple(phi_translators + psi_translators)
    pieces_vertices = tuple(
        frozenset(phi_pieces[g]) for g in phi_translators
    ) + tuple(
        frozenset(psi_pieces[g]) for g in psi_translators
    )
    max_shift = max(spec.length(g) for g in translators)
    l = target.m + 1
    return DoublingCertificate(
        m=target.m,
        target=target,
        l=l,
        prefix_len=target.prefix_len,
        translators=translators,
        p=len(phi_translators),
        q=len(psi_translators),
        pieces_vertices=pieces_vertices,
        piece_patterns=(),
        channel_positions=(),
        window_group=spec.to_dict(),
        window_radius=window.radius,
        core_radius=min(search.core_radius,
                        window.radius - l - max_shift),
        K=search.K,
        trivial=False,
    )


def relabel(z: ChannelLandscape, cert: DoublingCertificate, m_prime: int,
            allocator: Optional[ChannelAllocator] = None,
            window: Optional[Window] = None
            ) -> tuple[ChannelLandscape, DoublingCertificate]:
    """Write piece membership bits into fresh even channels.

    Returns the new rule and the certificate completed with its pattern
    sets (computed on ``window``, which defaults to nothing being
    recomputed for trivial certificates).
    """
    if cert.trivial:
        return z, cert
    if window is None:
        raise ValueError("relabeling a non-trivial certificate needs the "
                         "window to materialize its pattern sets")
    if allocator is None:
        allocator = ChannelAllocator()
    count = cert.p + cert.q
    m_prime = max(m_prime, cert.m)
    positions = allocator.allocate(count, above=m_prime)
    pieces = [window.indices(members) for members in cert.pieces_vertices]
    z_prime = z.with_channels(dict(zip(positions, pieces)))
    prefix_len = positions[-1]
    allocator.floor = max(allocator.floor, prefix_len)
    ids, patterns = pattern_scan(z_prime, window, cert.l, prefix_len)
    n_core = len(ids)
    piece_patterns = [
        frozenset(patterns[ids[i]] for i in members if i < n_core)
        for members in pieces
    ]
    cert_prime = replace(
        cert,
        prefix_len=prefix_len,
        channel_positions=positions,
        piece_patterns=tuple(piece_patterns),
    )
    return z_prime, cert_prime


# ---------------------------------------------------------------------------
# verification

@dataclass
class ClauseResult:
    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass
class CertificateReport:
    passed: bool
    clauses: list[ClauseResult]

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "clauses": [
                {"name": c.name, "pass": c.passed, "witness": c.witness}
                for c in self.clauses
            ],
        }


def verify_certificate(z: LandscapeRule, cert: DoublingCertificate,
                       window: Window) -> CertificateReport:
    """Re-check containment, disjointness, and both covering identities."""
    spec = window.spec
    if cert.window_group != spec.to_dict() or \
            cert.window_radius != window.radius:
        raise ValueError("certificate was issued for a different window")
    rc = cert.core_radius
    clauses: list[ClauseResult] = []

    T = set(realize(cert.target, z, window))
    if cert.trivial:
        realized_pieces: list[list] = [[] for _ in cert.piece_patterns]
    else:
        ids, patterns = pattern_scan(z, window, cert.l, cert.prefix_len)
        realized_pieces = []
        for pats in cert.piece_patterns:
            wanted = {j for j, pat in enumerate(patterns) if pat in pats}
            realized_pieces.append(list(compress(
                window.vertices, map(wanted.__contains__, ids))))

    # clause 1: pieces inside the target set
    witness = None
    for i, members in enumerate(realized_pieces):
        for y in members:
            if y not in T:
                witness = f"piece {i} vertex {y!r} outside target"
                break
        if witness:
            break
    clauses.append(ClauseResult("pieces-contained", witness is None, witness))

    # clause 2: pairwise disjoint pieces
    witness = None
    seen: dict = {}
    for i, members in enumerate(realized_pieces):
        for y in members:
            if y in seen:
                witness = f"vertex {y!r} in pieces {seen[y]} and {i}"
                break
            seen[y] = i
        if witness:
            break
    clauses.append(ClauseResult("pieces-disjoint", witness is None, witness))

    # clause 3: both covering identities, exactly, on the stated core
    T_core = {w for w in T if spec.length(w) <= rc}
    for name, lo, hi in (("phi-cover", 0, cert.p),
                         ("psi-cover", cert.p, cert.p + cert.q)):
        covered = set()
        for i in range(lo, hi):
            g = cert.translators[i]
            for y in realized_pieces[i]:
                x = spec.mul(y, g)
                if spec.length(x) <= rc:
                    covered.add(x)
        witness = None
        extra = covered - T_core
        missing = T_core - covered
        if extra:
            witness = f"translated piece point {next(iter(extra))!r} not in target core"
        elif missing:
            witness = f"target vertex {next(iter(missing))!r} not covered"
        clauses.append(ClauseResult(name, witness is None, witness))

    passed = all(c.passed for c in clauses)
    return CertificateReport(passed=passed, clauses=clauses)


# ---------------------------------------------------------------------------
# the inductive pipeline

@dataclass
class PipelineResult:
    initial_rule: LandscapeRule
    rules: list[LandscapeRule]
    certificates: list[DoublingCertificate]
    reports: list[CertificateReport]
    matrix: list[list[Optional[CertificateReport]]]
    halted: Optional[str] = None

    @property
    def final_rule(self) -> LandscapeRule:
        return self.rules[-1]

    def matrix_all_pass(self) -> bool:
        return all(
            entry.passed
            for row in self.matrix for entry in row if entry is not None
        )


def canonical_target_order(targets: Sequence[LocalSetSpec]
                           ) -> list[LocalSetSpec]:
    """Order targets by radius, then by pattern-set serialization."""
    return sorted(
        targets,
        key=lambda t: (t.m, sorted(p.serialize() for p in t.patterns)),
    )


def paradoxicalize_sequence(z0: LandscapeRule,
                            targets: Sequence[LocalSetSpec],
                            window: Window,
                            K_start: int = 2,
                            k_ceiling: int = 8) -> PipelineResult:
    """Run the step-by-step paradoxicalization over the given targets.

    The base rule is first padded so that all even label positions are
    free channels; each step doubles one target's realization and burns
    one channel per piece.  After the last step every earlier
    certificate is re-verified against every later rule.
    """
    t0 = ChannelLandscape(z0, window)
    rules: list[LandscapeRule] = [t0]
    certificates: list[DoublingCertificate] = []
    reports: list[CertificateReport] = []
    allocator = ChannelAllocator()
    halted = None
    current = t0
    for target_spec in targets:
        # a callable target is built against the current rule, so later
        # steps can aim at height sets of the evolving landscape
        target = target_spec(current, window) if callable(target_spec) \
            else target_spec
        T = realize(target, current, window)
        search = find_doubling(T, window, K_start=K_start,
                               k_ceiling=k_ceiling)
        if not search.saturated:
            halted = (
                f"matching inconclusive for target m={target.m}: best "
                f"matched fraction {search.matched_fraction:.3f} at "
                f"K<={k_ceiling}"
            )
            break
        cert = extract_pieces(search, target, window)
        m_prime = max(target.m, allocator.floor)
        current, cert = relabel(current, cert, m_prime, allocator, window)
        rules.append(current)
        certificates.append(cert)
        reports.append(verify_certificate(current, cert, window))
    n = len(certificates)
    matrix: list[list[Optional[CertificateReport]]] = []
    for a in range(n):
        row: list[Optional[CertificateReport]] = []
        for k in range(n):
            if k < a:
                # rule predates the certificate's channels
                row.append(None)
            else:
                row.append(
                    verify_certificate(rules[k + 1], certificates[a], window)
                )
        matrix.append(row)
    return PipelineResult(
        initial_rule=t0,
        rules=rules,
        certificates=certificates,
        reports=reports,
        matrix=matrix,
        halted=halted,
    )
