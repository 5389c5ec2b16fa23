"""Doubling maps, piece extraction, relabeling, and the inductive pipeline.

The flow realizes a local set on a window, finds two injective
bounded-displacement self-maps with disjoint images by deterministic
bipartite matching, groups the images by their translator words, writes
each piece's binary code into fresh even label positions, and verifies
the two covering identities exactly on a stated core.  The positions
are worked out from the rule and the target (:func:`relabel`), so no
allocator state is kept.  Certificates survive later steps because
every later relabeling only touches even positions above the earlier
prefix ceiling.

The flow runs on window indices: the realization, the matching, the
maps and the pieces are index sets.  The offsets of B_(K-1) are
composed from the letter columns over the vertices at hand only
(:meth:`~riverscape.groups.Window.offset_rows` over T's core in the K
sweep and over the matched vertices in piece extraction), and a
translator is read off the offset row that matched a pair, as the
inverse of that offset.  Words appear only as translators.

One :class:`ChannelLandscape` per pipeline carries the labels: the base
labels spread to odd positions, read from the colour arrays as one row
per window vertex, and a channel write sets bits in the rows of a new
rule that shares the heights.  A rule keeps one
:class:`~riverscape.checking.Snapshot` per prefix length, and a derived
rule with no channel at or below that prefix shares its parent's very
snapshot.  Every scan goes through it: the targets' ``realize`` and
``observed_patterns``, relabeling's piece scan, and every step report
and matrix entry, which hands the rule's snapshot at the certificate's
prefix to :func:`riverscape.checking.verify_certificate`, the verifier
``riverscape check`` runs on snapshot files.  A snapshot memoizes its
scans and hands a scan below its prefix to the rule's snapshot at that
prefix, so a pattern scanned once, by construction or by a verifier, is
not scanned again for any rule that shares those rows.

All tie-breaking is enumeration-order; there is no randomness anywhere,
so reruns produce byte-identical certificates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import compress
from operator import eq
from typing import Optional, Sequence

from .checking import (CertificateReport, DoublingCertificate, Snapshot,
                       verify_certificate)
from .groups import Window
from .landscapes import LandscapeRule
from .patterns import LocalSetSpec, realize


# ---------------------------------------------------------------------------
# label-channel machinery

class ChannelLandscape(LandscapeRule):
    """A base rule with its labels spread to odd positions and channel
    bits written at even ones, compiled against one window.

    The odd subsequence of every label is exactly the base label, so the
    base channel survives any number of even-position writes.  The rule
    holds the base, the window, one heights list shared by every rule
    derived from it, and the channels it writes (position -> the window
    indices whose bit is set there; :func:`relabel` sets the bits of
    each piece's binary code).  Label rows are materialized once per
    prefix length, in a :class:`~riverscape.checking.Snapshot` with the
    heights: the first rule reads them from the base's colour arrays
    (``label_rule.padded_rows``), a derived rule copies its parent's rows
    and sets its own channel bits, once per distinct row, or shares its
    parent's snapshot when none of its channels lies inside the prefix.
    Equal rows are one shared string.  :meth:`snapshot` hands out that
    snapshot, which memoizes the scans made over its rows, so rules that
    share the rows share the scans, and hands a scan at a shorter prefix
    to the rule's snapshot there.  The base's labels are those of its
    ``label_rule``.  Asked about another window, or a word outside its
    own, the rule raises ``ValueError``.
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
        self._snapshots: dict[int, Snapshot] = {}

    def with_channels(self, channels: dict) -> "ChannelLandscape":
        """A new rule with the bit set for ``members`` at each even
        position ``pos`` of ``{pos: members}`` (members are window
        indices)."""
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

    def snapshot(self, window: Window, s: int) -> Snapshot:
        """The rule's snapshot at prefix s, kept with its scans."""
        self._check_window(window)
        return self._snapshot(s)

    def _snapshot(self, s: int) -> Snapshot:
        """The heights and the first s label bits of every window vertex,
        with the scans made over them; the parent's very snapshot when
        none of this rule's channels lies at or below s."""
        snap = self._snapshots.get(s)
        if snap is None:
            own = [pos for pos in self.channels if pos <= s]
            if self.parent is not None and not own:
                snap = self.parent._snapshot(s)
            else:
                rows = self.label_rule.padded_rows(self.window, s) \
                    if self.parent is None \
                    else list(self.parent._snapshot(s).labels)
                for pos in own:
                    # each distinct row is written once; a written row
                    # maps to itself, so a repeated member keeps it
                    written: dict[str, str] = {}
                    for i in self.channels[pos]:
                        row = rows[i]
                        new = written.get(row)
                        if new is None:
                            new = row[:pos - 1] + "1" + row[pos:]
                            written[row] = written[new] = new
                        rows[i] = new
                snap = Snapshot(self.window, self.heights, rows, s,
                                shorter=self._snapshot)
            self._snapshots[s] = snap
        return snap

    def _check_window(self, window: Window) -> None:
        if (window.spec, window.radius) != (self.spec, self.window.radius):
            raise ValueError(
                f"channel rule compiled against {self.spec!r} at radius "
                f"{self.window.radius}, asked about {window.spec!r} at "
                f"radius {window.radius}")

    def window_heights(self, window: Window) -> list[int]:
        self._check_window(window)
        return self.heights

    def height(self, word) -> int:
        return self.heights[self.window.index_of(word)]

    def label(self, word, s: int) -> str:
        return self._snapshot(s).labels[self.window.index_of(word)]


# ---------------------------------------------------------------------------
# deterministic Hopcroft-Karp matching

class _HopcroftKarp:
    """Maximum bipartite matching, deterministic in adjacency order.

    ``dist`` holds each left vertex's BFS layer.  ``INF`` marks a vertex
    off every layer: an integer above every layer plus one, since each
    layer holds a left vertex of its own and so layers stay below
    ``n_left``.
    """

    def __init__(self, adjacency: list[list[int]], n_right: int):
        self.adj = adjacency
        self.n_left = len(adjacency)
        self.INF = self.n_left + 1
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
                elif self.dist[w] == self.INF:
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
    phi: dict[int, int]
    psi: dict[int, int]
    matched_fraction: float
    attempts: list[tuple[int, float]] = field(default_factory=list)


def find_doubling(T: Sequence[int], window: Window,
                  k_ceiling: int = 8) -> DoublingSearch:
    """Sweep displacement bounds K = 2 .. ``k_ceiling`` until a
    saturating doubling is matched.

    ``T`` holds window indices, ascending; ``phi`` and ``psi`` map each
    core index of T to an index of T.  Never claims non-existence: an
    exhausted sweep reports the largest matched fraction and leaves the
    question open.  For each K the offsets of B_(K-1) are composed over
    T's core vertices only (:meth:`Window.offset_rows`), and the
    candidates of a vertex are its products, in enumeration order of the
    offsets.
    """
    R = window.radius
    if not T:
        return DoublingSearch(
            saturated=True, trivial=True, K=0, core_radius=R,
            phi={}, psi={}, matched_fraction=1.0,
        )
    right = list(T)
    if right[0] < 0 or right[-1] >= len(window):
        raise ValueError(f"vertices {right[0]}..{right[-1]} outside the "
                         f"window of {len(window)} vertices")
    right_pos = {t: j for j, t in enumerate(right)}
    best_fraction = 0.0
    attempts: list[tuple[int, float]] = []
    for K in range(2, k_ceiling + 1):
        core = right[:bisect_left(right, window.core_size(R - K))]
        if not core:
            continue
        per_vertex = [
            [right_pos[y] for y in reach if y in right_pos]
            for reach in zip(*window.offset_rows(K - 1, core))
        ]
        # the psi half shares the phi half's lists; the matcher only
        # reads them
        matcher = _HopcroftKarp(per_vertex + per_vertex, len(right))
        size = matcher.solve()
        fraction = size / (2 * len(core))
        attempts.append((K, fraction))
        best_fraction = max(best_fraction, fraction)
        if size == 2 * len(core):
            match = matcher.match_left
            phi = {x: right[match[i]] for i, x in enumerate(core)}
            psi = {x: right[match[len(core) + i]]
                   for i, x in enumerate(core)}
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
    """Group the doubling images by translator into disjoint pieces.

    The image y of x is x times an offset of B_(K-1), so y's translator
    (y^-1 x) is that offset's inverse; the pieces hold window indices.
    phi and psi map the same vertices, over which the offsets are
    composed once (:meth:`Window.offset_rows`); row j holds each vertex
    times offset j at the vertex's position.  Distinct offsets take x to
    distinct vertices, so each matched pair lies on exactly one row, and
    a piece is read off its row in one pass over the pairs.
    """
    if not search.saturated:
        raise ValueError("cannot extract pieces from an unsaturated search")
    if search.trivial:
        return trivial_certificate(target, window)
    spec = window.spec
    xs = list(search.phi)
    rows = window.offset_rows(search.K - 1, xs)
    # offset j of B_(K-1) is window word j; only those words are built
    inverses = list(map(spec.inverse, spec.ball_words(search.K - 1)))
    phi_pieces: dict = {}
    psi_pieces: dict = {}
    for assignment, pieces in ((search.phi, phi_pieces),
                               (search.psi, psi_pieces)):
        ys = list(map(assignment.__getitem__, xs))
        for row, inverse in zip(rows, inverses):
            members = frozenset(compress(ys, map(eq, row, ys)))
            if members:
                pieces[inverse] = members
    phi_translators = sorted(phi_pieces, key=spec.sort_key)
    psi_translators = sorted(psi_pieces, key=spec.sort_key)
    translators = tuple(phi_translators + psi_translators)
    pieces_vertices = tuple(map(phi_pieces.__getitem__, phi_translators)) \
        + tuple(map(psi_pieces.__getitem__, psi_translators))
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


def relabel(z: ChannelLandscape, cert: DoublingCertificate
            ) -> tuple[ChannelLandscape, DoublingCertificate]:
    """Write each piece's binary code into fresh even channels.

    The p + q pieces take ``(p + q).bit_length()`` channels: piece j
    (0-based, in certificate order) sets the channels of the 1-bits of
    j + 1 at its own vertices, and code 0 means "in no piece".  One code
    per vertex tells disjoint pieces apart, so pieces that share a
    vertex are a ``ValueError`` naming both.  The channels are the
    consecutive even positions from the first one above the rule's
    channels, the certificate's radius and the target's label prefix,
    so the bits never change the patterns that define the target or an
    earlier piece.  Returns the new rule and the certificate completed
    with its pattern sets, computed on the rule's window; a trivial
    certificate is returned as it is.
    """
    if cert.trivial:
        return z, cert
    pieces = cert.pieces_vertices
    # the members are counted on one mark of the window, and the shared
    # vertex is looked for only when the count shows one
    mark = bytearray(len(z.window))
    for members in pieces:
        for i in members:
            mark[i] = 1
    if mark.count(1) != sum(map(len, pieces)):
        owner: dict[int, int] = {}
        for j, members in enumerate(pieces):
            for i in members:
                k = owner.setdefault(i, j)
                if k != j:
                    raise ValueError(f"pieces {k} and {j} share window "
                                     f"vertex {i}")
    floor = max(max(z.positions, default=0), cert.m, cert.target.prefix_len)
    start = floor + 2 - floor % 2
    n_bits = (cert.p + cert.q).bit_length()
    positions = tuple(range(start, start + 2 * n_bits, 2))
    z_prime = z.with_channels({
        pos: frozenset().union(*(members
                                 for code, members in enumerate(pieces, 1)
                                 if code >> b & 1))
        for b, pos in enumerate(positions)})
    prefix_len = positions[-1]
    ids, patterns = z_prime.snapshot(z.window, prefix_len).scan(
        cert.l, prefix_len)
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
# the inductive pipeline

@dataclass
class PipelineResult:
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


def _verify(rule: ChannelLandscape, cert: DoublingCertificate
            ) -> CertificateReport:
    """Verify ``cert`` on the rule's rows at the prefix it reads."""
    s = max(cert.prefix_len, cert.target.prefix_len)
    return verify_certificate(rule.snapshot(rule.window, s), cert)


def paradoxicalize_sequence(z0: LandscapeRule,
                            targets: Sequence[LocalSetSpec],
                            window: Window,
                            k_ceiling: int = 8) -> PipelineResult:
    """Run the step-by-step paradoxicalization over the given targets.

    The base rule is first padded so that all even label positions are
    free channels; each step doubles one target's realization and burns
    ``(p + q).bit_length()`` channels, which hold the binary code of
    each vertex's piece.  After the last step every earlier
    certificate is re-verified against every later rule; the diagonal
    entry, a certificate against its own step's rule, is the step report.
    """
    t0 = ChannelLandscape(z0, window)
    rules: list[LandscapeRule] = [t0]
    certificates: list[DoublingCertificate] = []
    reports: list[CertificateReport] = []
    halted = None
    current = t0
    for target_spec in targets:
        # a callable target is built against the current rule, so later
        # steps can aim at height sets of the evolving landscape
        target = target_spec(current, window) if callable(target_spec) \
            else target_spec
        T = realize(target, current, window)
        search = find_doubling(T, window, k_ceiling=k_ceiling)
        if not search.saturated:
            halted = (
                f"matching inconclusive for target m={target.m}: best "
                f"matched fraction {search.matched_fraction:.3f} at "
                f"K<={k_ceiling}"
            )
            break
        cert = extract_pieces(search, target, window)
        current, cert = relabel(current, cert)
        rules.append(current)
        certificates.append(cert)
        reports.append(_verify(current, cert))
    n = len(certificates)
    matrix: list[list[Optional[CertificateReport]]] = []
    for a in range(n):
        row: list[Optional[CertificateReport]] = []
        for k in range(n):
            if k < a:
                # rule predates the certificate's channels
                row.append(None)
            elif k == a:
                # the step report verified this very pair
                row.append(reports[a])
            else:
                row.append(_verify(rules[k + 1], certificates[a]))
        matrix.append(row)
    return PipelineResult(
        rules=rules,
        certificates=certificates,
        reports=reports,
        matrix=matrix,
        halted=halted,
    )
