"""Whole-window reference implementations of the axiom check, the
sublevel components and the graph distances, kept as test oracles.

``verify_axioms`` runs axiom 2 and each m >= 2 of axiom 4 as a BFS over
the entire window (m = 1, where every vertex is tall, is set to 0
without a search) and certifies each distance against a per-vertex
slack array; ``components_leq`` and ``bfs_distances`` keep their own
BFS loops.  The shipped code walks only the sublevel sets, with one
level walk; its reports must equal these as ``asdict``.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from riverscape.groups import Window
from riverscape.landscapes import (DENSITY_MAX, AxiomReport, ComponentReport,
                                   LandscapeRule, StructureConstants)


def bfs_distances(window: Window, sources: Sequence[int]) -> list[int]:
    """Graph distances from a source set inside the window (-1 = unreached)."""
    dist = [-1] * len(window)
    columns = window.columns
    frontier = []
    for s in sources:
        if dist[s] == -1:
            dist[s] = 0
            frontier.append(s)
    k = 0
    while frontier:
        k += 1
        nxt = []
        for i in frontier:
            for column in columns:
                j = column[i]
                if j >= 0 and dist[j] == -1:
                    dist[j] = k
                    nxt.append(j)
        frontier = nxt
    return dist


def _slack(window: Window) -> array:
    """R - |w| for every window index, read off the sphere boundaries
    (enumeration sorts by length), as an int32 array."""
    R = window.radius
    slack = array("i")
    for r, size in enumerate(map(window.spec.ball_size, range(R + 1))):
        slack += array("i", (R - r,)) * (size - len(slack))
    return slack


def verify_axioms(z: LandscapeRule, window: Window) -> AxiomReport:
    """Check the four landscape axioms on the window, empirically.

    Axiom 3 reads the distances to the nearest ``DENSITY_MAX`` other
    height-1 vertices, and axiom 4 runs m = 1 .. max(2, max height).

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
    for i, row in enumerate(zip(*window.columns)):
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
        l_cap = min(DENSITY_MAX, len(h1_words) - 1)
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
    for m in range(1, max(2, max_height) + 1):
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
    columns = window.columns
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
