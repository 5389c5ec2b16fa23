"""Doubling certificates and their one verifier, over snapshot rows.

A certificate is checked against plain arrays: a :class:`Snapshot`
holds a window and, in window order, the height and the label prefix of
every window vertex.  :func:`verify_certificate` is the only verifier;
the pipeline calls it on its rule's rows and ``riverscape check`` on a
loaded snapshot file.  Construction imports the certificate types from
here, and this module imports nothing from construction.

What the checker shares with construction is window enumeration
(``ball``, the letter columns, core sizes) and the row-level
:func:`~riverscape.patterns.pattern_scan`, which is checked against
word-level θ.  It shares no rule, channel, matcher or relabeling code.
:meth:`Snapshot.scan` memoizes the scan per ``(m, s)`` for the life
of the snapshot, and hands the scan the snapshot's own rows at any
``s`` up to its prefix; no cut copy of the labels is made, the scan
cutting each distinct cell once.  A loaded bundle therefore scans each
distinct (pattern radius, prefix) pair once.  In a pipeline, rules that
share rows share one snapshot, and a rule's snapshot hands a scan at a
shorter prefix to the rule's snapshot there (``shorter``), so the
verifier reuses the scans that construction made.  Every rule hands
out its rows as a snapshot (``LandscapeRule.snapshot``).

Verification runs in window-index space: T is a byte mark over its
scan's core, every piece is its ascending core indices read off the
scan, "inside the core of radius r" is an index below
``window.core_size(r)``, and a translate reads the translator's
letters one letter column at a time.  A step that leaves the window
means the translate lies outside it, hence outside the core, because
balls in trees and on the line are convex.  Each covering identity
compares two byte marks over the core, T's and the family's
translates'.  Words appear only in the witness strings, each spelled
arithmetically (``window.word_at``) when a clause fails, and a witness
names the enumeration-least offender, found by a C-level pass over the
marks; a passing check builds no word.

:func:`load_snapshot` keeps one string per distinct label row, and
every row references it.  It counts the rows against the claimed
radius before building the window, and the row count is the window's
vertex budget, so any snapshot whose rows fit in memory can be read.
The file schemas are defined here, beside their readers: a certificate
file is a ``riverscape.bundle/2`` object, which does not embed the
snapshot, and any other schema or shape is an input error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import gt, lt
from typing import Callable, Optional

from .groups import GroupSpec, Window, ball, letter_index
from .patterns import (InputError, LocalSetSpec, PatternBall, json_expect,
                       json_int, json_strings, pattern_scan)

SNAPSHOT_SCHEMA = "riverscape.snapshot/1"
BUNDLE_SCHEMA = "riverscape.bundle/2"


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


def _ints(value, what: str) -> list:
    """``value`` when it is a JSON array of integers; otherwise an
    :class:`~riverscape.patterns.InputError` naming ``what`` and the
    first offending entry."""
    json_expect(value, list, what)
    for i, item in enumerate(value):
        json_int(item, f"{what}: entry {i}")
    return value


def bundle_certificates(payload) -> list:
    """The ``certificates`` array of a ``riverscape.bundle/2`` object; any
    other file is an :class:`~riverscape.patterns.InputError` naming the
    schema."""
    if not isinstance(payload, dict):
        raise InputError(f"certificate file must be a {BUNDLE_SCHEMA} "
                         f"object, not {type(payload).__name__}")
    if payload.get("schema") != BUNDLE_SCHEMA:
        raise InputError(f"unsupported bundle schema: "
                         f"{payload.get('schema')!r}, not {BUNDLE_SCHEMA!r}")
    if "certificates" not in payload:
        raise InputError("bundle is missing the field 'certificates'")
    return json_expect(payload["certificates"], list,
                       "bundle field 'certificates'")


def bundle_halted(payload: dict) -> Optional[str]:
    """The ``halted`` reason of a bundle that :func:`bundle_certificates`
    accepted: ``None`` when the pipeline ran to the end (or the field is
    absent), a string when it stopped; anything else is an
    :class:`~riverscape.patterns.InputError` naming the field."""
    halted = payload.get("halted")
    if halted is not None and type(halted) is not str:
        raise InputError(f"bundle field 'halted' must be a string or "
                         f"null, not {type(halted).__name__}")
    return halted


def certificate_from_dict(obj: dict, spec: GroupSpec) -> DoublingCertificate:
    """Parse a serialized certificate; a missing or wrong-typed field,
    translators and pieces that do not number p + q, an ``m`` that is
    not its target's, or a ``displacementBound`` below the length of the
    longest translator, are an :class:`~riverscape.patterns.InputError`.
    """
    json_expect(obj, dict, "certificate")
    if obj.get("schema") != "riverscape.certificate/1":
        raise InputError(
            f"unsupported certificate schema: {obj.get('schema')!r}"
        )
    try:
        ref = json_expect(obj["windowRef"], dict,
                          "certificate field 'windowRef'")
        if ref["group"] != spec.to_dict():
            raise InputError(
                "certificate group does not match the given group")
        target = json_expect(obj["target"], dict,
                             "certificate field 'target'")
        pieces = json_expect(obj["pieces"], list,
                             "certificate field 'pieces'")
        piece_patterns = []
        for i, pats in enumerate(pieces):
            what = f"certificate field 'pieces': piece {i}"
            piece_patterns.append(frozenset(
                PatternBall.deserialize(s, what)
                for s in json_strings(pats, what)))
        translators = json_expect(obj["translators"], list,
                                  "certificate field 'translators'")
        for i, t in enumerate(translators):
            _ints(t, f"certificate field 'translators': translator {i}")
        channels = _ints(obj["channelPositions"],
                         "certificate field 'channelPositions'")
        trivial = obj.get("trivial", False)
        if type(trivial) is not bool:
            raise InputError(f"certificate field 'trivial' must be a "
                             f"boolean, not {type(trivial).__name__}")

        def integer(name: str, default=None) -> int:
            value = obj[name] if default is None else obj.get(name, default)
            return json_int(value, f"certificate field {name!r}")

        cert = DoublingCertificate(
            m=integer("m"),
            target=LocalSetSpec.from_dict(target),
            l=integer("l"),
            prefix_len=integer("prefixLen"),
            translators=tuple(
                spec.word_from_json(t) for t in translators),
            p=integer("p"),
            q=integer("q"),
            pieces_vertices=tuple(frozenset() for _ in pieces),
            piece_patterns=tuple(piece_patterns),
            channel_positions=tuple(channels),
            window_group=ref["group"],
            window_radius=json_int(ref["radius"],
                                   "certificate field 'windowRef.radius'"),
            core_radius=integer("coreRadius"),
            K=integer("displacementBound", 0),
            trivial=trivial,
        )
    except KeyError as exc:
        raise InputError(
            f"certificate is missing the field {exc.args[0]!r}") from None
    # a negative core would be empty, a negative prefix would cut the
    # labels from the end, and a negative p or q would slice the
    # translators from the end
    for name, value in (("prefixLen", cert.prefix_len),
                        ("coreRadius", cert.core_radius),
                        ("p", cert.p), ("q", cert.q)):
        if value < 0:
            raise InputError(
                f"certificate field {name!r} must be >= 0, got {value}")
    if not len(cert.translators) == len(cert.piece_patterns) \
            == cert.p + cert.q:
        raise InputError(
            f"certificate has {len(cert.translators)} translators and "
            f"{len(cert.piece_patterns)} pieces, but p + q = {cert.p + cert.q}"
        )
    # the verifier reads neither; they are tied to what it verifies
    if cert.m != cert.target.m:
        raise InputError(f"certificate field 'm' is {cert.m}, but its "
                         f"target's m is {cert.target.m}")
    longest = max(map(spec.length, cert.translators), default=0)
    if cert.K < longest:
        raise InputError(
            f"certificate field 'displacementBound' is {cert.K}, below "
            f"the length {longest} of its longest translator")
    return cert


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


@dataclass(frozen=True)
class Snapshot:
    """The height and the first ``prefix_len`` label bits of every window
    vertex, index-aligned with the window.

    The rows are never mutated after the snapshot is built: callers must
    not mutate them, nor the scans :meth:`scan` returns, which it keeps
    for the life of the snapshot.  The scans read the rows themselves,
    at any prefix up to ``prefix_len``.  ``shorter``, when given, returns
    the snapshot its owner keeps for a shorter prefix, whose scans
    :meth:`scan` then reuses.
    """

    window: Window
    heights: list[int]
    labels: list[str]
    prefix_len: int
    shorter: Optional[Callable[[int], "Snapshot"]] = field(
        default=None, compare=False, repr=False)
    _scans: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    def scan(self, m: int, s: int) -> tuple[list[int], list[PatternBall]]:
        """:func:`~riverscape.patterns.pattern_scan` of the rows at prefix
        s, computed once per ``(m, s)`` and kept."""
        if s < self.prefix_len and self.shorter is not None:
            return self.shorter(s).scan(m, s)
        key = (m, s)
        got = self._scans.get(key)
        if got is None:
            got = pattern_scan((self.labels, self.heights), self.window,
                               m, s)
            self._scans[key] = got
        return got


def load_snapshot(obj: dict) -> Snapshot:
    """Parse a snapshot; a missing or wrong-typed field, a height that
    is not an integer, a label that is not a string of ``labelPrefixLen``
    0s and 1s, or rows that do not number the window's vertices, are an
    :class:`~riverscape.patterns.InputError` naming the field and the
    row."""
    json_expect(obj, dict, "snapshot")
    if obj.get("schema") != SNAPSHOT_SCHEMA:
        raise InputError(f"unsupported snapshot schema: {obj.get('schema')!r}")
    try:
        ref = json_expect(obj["windowRef"], dict,
                          "snapshot field 'windowRef'")
        group = json_expect(ref["group"], dict, "snapshot field 'group'")
        json_int(group["rank"], "snapshot field 'rank'")
        spec = GroupSpec.from_dict(group)
        radius = json_int(ref["radius"], "snapshot field 'radius'")
        prefix_len = json_int(obj["labelPrefixLen"],
                              "snapshot field 'labelPrefixLen'")
        heights = json_expect(obj["heights"], list,
                              "snapshot field 'heights'")
        labels = json_expect(obj["labels"], list, "snapshot field 'labels'")
    except KeyError as exc:
        raise InputError(
            f"snapshot is missing the field {exc.args[0]!r}") from None
    if radius < 0:
        raise InputError(f"snapshot field 'radius' is {radius}, not "
                         f"non-negative")
    # the rows are counted before any window is built, and their count
    # is the window's budget; |B_r| > r, so a radius at or above the
    # row count is a mismatch without computing the ball size
    size = spec.ball_size(radius) if radius < len(heights) else None
    for name, rows in (("heights", heights), ("labels", labels)):
        if len(rows) != size:
            vertices = size if size is not None and size <= len(heights) \
                else f"more than {len(heights)}"
            raise InputError(
                f"snapshot field {name!r} has {len(rows)} entries, the "
                f"window of radius {radius} has {vertices} vertices"
            )
    window = ball(spec, radius, budget=size)
    # each check runs over the distinct values; a row is located only
    # when one fails
    if set(map(type, heights)) - {int}:
        i = next(i for i, h in enumerate(heights) if type(h) is not int)
        raise InputError(
            f"snapshot field 'heights': height {i} is "
            f"{type(heights[i]).__name__}, not an integer")
    if set(map(type, labels)) - {str}:
        i = next(i for i, bits in enumerate(labels) if type(bits) is not str)
        raise InputError(
            f"snapshot field 'labels': label {i} is "
            f"{type(labels[i]).__name__}, not a string")
    if set(map(len, labels)) - {prefix_len}:
        i = next(i for i, bits in enumerate(labels) if len(bits) != prefix_len)
        raise InputError(
            f"snapshot field 'labels': label {i} has {len(labels[i])} bits, "
            f"'labelPrefixLen' is {prefix_len}")
    distinct = set(labels)
    bad = {bits for bits in distinct if bits.strip("01")}
    if bad:
        i = next(i for i, bits in enumerate(labels) if bits in bad)
        raise InputError(
            f"snapshot field 'labels': label {i} is {labels[i]!r}, not a "
            f"string of 0s and 1s")
    # every row references the one parsed string of its value
    canonical = {bits: bits for bits in distinct}
    return Snapshot(window, heights, list(map(canonical.__getitem__, labels)),
                    prefix_len)


def check_certificate_dict(snapshot: Snapshot, cert_obj: dict
                           ) -> CertificateReport:
    """Re-verify one serialized certificate against a loaded snapshot
    (:func:`load_snapshot`).

    Raises :class:`~riverscape.patterns.InputError` on schema or window
    mismatch; verification failures come back as a failing report, not
    an exception.
    """
    cert = certificate_from_dict(cert_obj, snapshot.window.spec)
    return verify_certificate(snapshot, cert)


def _select(patterns: list[PatternBall], wanted_sets) -> list[set[int]]:
    """For each pattern set of ``wanted_sets``, the ids of a scan's
    ``patterns`` that lie in it.  The patterns are indexed once, and
    each set looks up its own patterns."""
    index = dict(zip(patterns, range(len(patterns))))
    return [{j for j in map(index.get, wanted) if j is not None}
            for wanted in wanted_sets]


def _pieces(ids: list[int], hits: list[set[int]]) -> list[list[int]]:
    """For each id set of ``hits``, the ascending core indices whose
    pattern id in the scan ``ids`` lies in it.  One pass over ``ids``
    collects the sites of every id that some set names; a piece is the
    sorted union of its ids' sites, which are disjoint."""
    sites: dict[int, list[int]] = {j: [] for j in set().union(*hits)}
    named = bytes(map(sites.__contains__, ids))
    deque(map(list.append, map(sites.__getitem__, compress(ids, named)),
              compress(range(len(ids)), named)), maxlen=0)
    return [sorted(chain.from_iterable(map(sites.__getitem__, h)))
            for h in hits]


def verify_certificate(snapshot: Snapshot, cert: DoublingCertificate
                       ) -> CertificateReport:
    """Re-check containment, disjointness, and both covering identities
    on the certificate's core, exactly."""
    window = snapshot.window
    spec = window.spec
    if (cert.window_group, cert.window_radius) != \
            (spec.to_dict(), window.radius):
        raise InputError(
            f"certificate window (radius {cert.window_radius}) does not "
            f"match the snapshot window (radius {window.radius})"
        )
    if cert.core_radius > window.radius:
        raise InputError(
            f"certificate core radius {cert.core_radius} exceeds its "
            f"window radius {window.radius}"
        )
    target = cert.target
    # every scan the certificate names must fit the snapshot
    scans = [("target", target.m, target.prefix_len)]
    if not cert.trivial:
        scans.append(("piece", cert.l, cert.prefix_len))
    for what, m, s in scans:
        if not 1 <= m <= window.radius:
            raise InputError(
                f"certificate {what} radius {m} is not in 1 .. "
                f"{window.radius}, the snapshot window's radius")
        if not 0 <= s <= snapshot.prefix_len:
            raise InputError(
                f"certificate {what} prefix length {s} is not in 0 .. "
                f"{snapshot.prefix_len}, the snapshot's label prefix length")
    # a scanned pattern has its scan's radius and prefix, and one entry
    # per offset of its ball
    wanted = [("target field 'patterns'", target.m, target.prefix_len,
               target.patterns)]
    if not cert.trivial:
        wanted += [(f"certificate field 'pieces': piece {i}", cert.l,
                    cert.prefix_len, pats)
                   for i, pats in enumerate(cert.piece_patterns)]
    for what, m, s, pats in wanted:
        size = spec.ball_size(m)
        for pat in pats:
            if (pat.m, pat.prefix_len) != (m, s):
                raise InputError(
                    f"{what}: pattern {pat.serialize()!r} has radius "
                    f"{pat.m} and prefix length {pat.prefix_len}, not its "
                    f"scan's {m} and {s}")
            if len(pat.entries) != size:
                raise InputError(
                    f"{what}: pattern {pat.serialize()!r} has "
                    f"{len(pat.entries)} entries, not |B_{m}| = {size}")
    # past the core of radius R - m T's patterns do not fit the window,
    # and the scan would read T as empty there
    if cert.core_radius > window.radius - target.m:
        raise InputError(
            f"certificate field 'coreRadius' is {cert.core_radius}, above "
            f"R - m = {window.radius - target.m}, where the target's "
            f"patterns fit the window")
    # a translate y·g in the core of radius c comes from a piece point
    # with |y| <= c + |g|, and the piece scan reads only the core of
    # radius R - l, so past R - l - |g| it would read the pieces as empty
    if not cert.trivial:
        longest = max(map(spec.length, cert.translators), default=0)
        reach = window.radius - cert.l - longest
        if cert.core_radius > reach:
            raise InputError(
                f"certificate field 'coreRadius' is {cert.core_radius}, "
                f"above R - l - |g| = {reach}, |g| = {longest} the length "
                f"of its longest translator, where every translate's "
                f"piece point lies in the piece scan's core")
    T_ids, T_patterns = snapshot.scan(target.m, target.prefix_len)
    hit, = _select(T_patterns, [target.patterns])
    # byte t is 1 when core index t of the target's scan lies in T
    in_T = bytes(map(hit.__contains__, T_ids))
    if cert.trivial:
        ids: list[int] = []
        hits: list[set[int]] = [set() for _ in cert.piece_patterns]
    else:
        ids, patterns = snapshot.scan(cert.l, cert.prefix_len)
        hits = _select(patterns, cert.piece_patterns)
    pieces = _pieces(ids, hits)
    clauses: list[ClauseResult] = []

    # clause 1: pieces inside the target set; the piece scan's core may
    # reach past the target's, whose vertices are outside T
    in_T_l = in_T.ljust(len(ids), b"\0")
    witness = None
    for i, members in enumerate(pieces):
        k = bytes(map(in_T_l.__getitem__, members)).find(0)
        if k >= 0:
            witness = (f"piece {i} vertex {window.word_at(members[k])!r} "
                       f"outside target")
            break
    clauses.append(ClauseResult("pieces-contained", witness is None, witness))

    # clause 2: pairwise disjoint pieces.  A piece is every core vertex
    # whose pattern lies in its set, and each scanned pattern occurs, so
    # two pieces share a vertex exactly when their sets share a pattern
    witness = None
    earlier: set[int] = set()
    for i, (h, members) in enumerate(zip(hits, pieces)):
        shared = h & earlier
        if shared:
            k = bytes(map(shared.__contains__,
                          map(ids.__getitem__, members))).find(1)
            y = members[k]
            first = next(j for j, g in enumerate(hits) if ids[y] in g)
            witness = (f"vertex {window.word_at(y)!r} in pieces "
                       f"{first} and {i}")
            break
        earlier |= h
    clauses.append(ClauseResult("pieces-disjoint", witness is None, witness))

    # clause 3: both covering identities, exactly, on the stated core,
    # as marks over the core: T's and each family's translates
    n_core = window.core_size(cert.core_radius)
    T_core = in_T[:n_core].ljust(n_core, b"\0")
    columns = window.columns
    for name, lo, hi in (("phi-cover", 0, cert.p),
                         ("psi-cover", cert.p, cert.p + cert.q)):
        covered = bytearray(n_core)
        for g, members in zip(cert.translators[lo:hi], pieces[lo:hi]):
            xs = members
            # -1 marks a step out of the window, whose translate lies
            # outside the core
            for a in map(letter_index, spec.word_letters(g)):
                xs = list(filter((-1).__ne__, map(columns[a].__getitem__,
                                                  xs)))
            for x in filter(n_core.__gt__, xs):
                covered[x] = 1
        witness = None
        if covered != T_core:
            extra = bytes(map(gt, covered, T_core)).find(1)
            if extra >= 0:
                witness = (f"translated piece point "
                           f"{window.word_at(extra)!r} not in target core")
            else:
                missing = bytes(map(lt, covered, T_core)).find(1)
                witness = (f"target vertex {window.word_at(missing)!r} "
                           f"not covered")
        clauses.append(ClauseResult(name, witness is None, witness))

    passed = all(c.passed for c in clauses)
    return CertificateReport(passed=passed, clauses=clauses)
