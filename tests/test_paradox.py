import hashlib
import json
import tracemalloc
from dataclasses import replace

import pytest

from riverscape import (ChannelLandscape, FreeGroup, IntegerGroup,
                        LocalSetSpec, PatternBall, RiverLandscape, Snapshot,
                        ball, certificate_from_dict, check_certificate_dict,
                        checking, extract_pieces, find_doubling,
                        load_snapshot, paradox, paradoxicalize_sequence,
                        patterns, realize, relabel, trivial_certificate,
                        verify_certificate)
from riverscape.groups import Window
from riverscape.paradox import _HopcroftKarp, _verify
from riverscape.patterns import center_height_local_set, observed_patterns
from riverscape.snapshots import bundle_pipeline, dump_json, final_snapshot

from conftest import bundle_v1
from test_labels import project_even, project_odd, source_mutant
from test_landscapes import river_points

F2 = FreeGroup(2)
Z = IntegerGroup()


def height_target(heights):
    return lambda rule, win: center_height_local_set(
        rule, win, 1, heights, prefix_len=1
    )


class _RecursiveHopcroftKarp(_HopcroftKarp):
    """Reference: the same matcher with a recursive augmenting search."""

    def _dfs(self, u):
        for v in self.adj[u]:
            w = self.match_right[v]
            if w == -1 or (self.dist[w] == self.dist[u] + 1
                           and self._dfs(w)):
                self.match_left[u] = v
                self.match_right[v] = u
                return True
        self.dist[u] = self.INF
        return False


def rule_snapshot(rule, win, s):
    """A fresh snapshot of the rows of ``rule`` over ``win`` at prefix
    s, with no scan kept, for the verifier."""
    snap = rule.snapshot(win, s)
    return Snapshot(win, snap.heights, snap.labels, s)


def full_core_target(rule, win):
    occ = observed_patterns(rule, win, 1, prefix_len=1)
    return LocalSetSpec(1, 1, frozenset(occ))


class TestChannels:
    def test_padded_odd_positions_carry_base(self, river, win5):
        padded = ChannelLandscape(river, win5)
        for w in [(), (1,), (1, 2)]:
            assert project_odd(padded.label(w, 20)) == river.label(w, 10)
            assert project_even(padded.label(w, 20)) == "0" * 10
            assert padded.height(w) == river.height(w)

    def test_relabeled_bit_set_for_members(self, river, win5):
        padded = ChannelLandscape(river, win5)
        members = [win5.index_of(w) for w in [(), (1, 1)]]
        z = padded.with_channels({4: members})
        assert z.label((), 4)[3] == "1"
        assert z.label((1, 1), 4)[3] == "1"
        assert z.label((1,), 4)[3] == "0"
        assert project_odd(z.label((), 8)) == padded.label((), 8)[::2]
        # the parent is untouched and the heights are shared
        assert padded.label((), 4)[3] == "0"
        assert z.heights is padded.heights

    def test_channel_rows_are_shared_per_value(self, pipeline8_3):
        # after every relabel equal rows are one string, and the bits
        # are those of the word-level padded labels plus the members'
        result = pipeline8_3
        base = result.rules[0]
        for rule, cert in zip(result.rules[1:], result.certificates):
            s = cert.prefix_len
            rows = rule.snapshot(rule.window, s).labels
            assert len(set(map(id, rows))) == len(set(rows)) < len(rows)
            padded = base.snapshot(base.window, s).labels
            # channel b holds bit b of the code j + 1 of piece j
            for b, pos in enumerate(cert.channel_positions):
                assert {i for i, row in enumerate(rows)
                        if row[pos - 1] == "1"} == {
                    i for j, piece in enumerate(cert.pieces_vertices)
                    if (j + 1) >> b & 1 for i in piece}
            assert [project_odd(row) for row in rows] \
                == [project_odd(row) for row in padded]

    def test_repeated_member_keeps_one_row(self, river, win5):
        z = ChannelLandscape(river, win5).with_channels({4: [0, 7, 0]})
        rows = z.snapshot(win5, 6).labels
        assert len(set(map(id, rows))) == len(set(rows))
        assert [i for i, row in enumerate(rows) if row[3] == "1"] == [0, 7]

    def test_words_outside_the_window(self, river):
        # the rule answers only for the window it was compiled against
        z = ChannelLandscape(river, ball(F2, 2)).with_channels({2: [0]})
        w = (1, 2, 1)
        with pytest.raises(ValueError):
            z.label(w, 12)
        with pytest.raises(ValueError):
            z.height(w)

    def test_odd_positions_rejected(self, river, win5):
        with pytest.raises(ValueError):
            ChannelLandscape(river, win5).with_channels({3: []})

    def test_channel_collision_rejected(self, river, win5):
        base = ChannelLandscape(river, win5).with_channels({4: []})
        with pytest.raises(ValueError):
            base.with_channels({4: [0]})
        with pytest.raises(ValueError):
            base.with_channels({6: []}).with_channels({4: [0]})

    def test_relabel_channels_start_above_the_rule(self, river, win5):
        # the first even position above the rule's channels and the
        # certificate's radius, then every second position: two channels
        # hold the codes 1, 2 and 3 of three pieces
        z = ChannelLandscape(river, win5).with_channels({4: [0], 6: [1]})

        def cert(m):
            return replace(
                trivial_certificate(LocalSetSpec(1, 1, frozenset()), win5),
                trivial=False, m=m, p=1, q=2,
                pieces_vertices=(frozenset({0}), frozenset({2}),
                                 frozenset({3})))

        z_high, high = relabel(z, cert(9))
        assert high.channel_positions == (10, 12)
        assert high.prefix_len == 12
        assert z_high.positions == {4, 6, 10, 12}
        assert z_high.channels == {10: [0, 3], 12: [2, 3]}
        assert relabel(z, cert(1))[1].channel_positions == (8, 10)

    @pytest.mark.parametrize("n_pieces,n_channels", [
        (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (17, 5)])
    def test_relabel_writes_binary_piece_codes(self, river, win5, n_pieces,
                                               n_channels):
        # piece j sets the channels of the 1-bits of j + 1 at its own
        # vertex, so every vertex reads back its piece's code
        pieces = tuple(frozenset({j}) for j in range(n_pieces))
        cert = replace(
            trivial_certificate(LocalSetSpec(1, 1, frozenset()), win5),
            trivial=False, p=1, q=n_pieces - 1, pieces_vertices=pieces)
        z, done = relabel(ChannelLandscape(river, win5), cert)
        assert done.channel_positions == tuple(range(2, 2 * n_channels + 1,
                                                     2))
        rows = z.snapshot(win5, done.prefix_len).labels
        codes = [int(row[done.prefix_len - 1::-2], 2) for row in rows]
        assert codes == list(range(1, n_pieces + 1)) \
            + [0] * (len(win5) - n_pieces)

    def test_relabel_rejects_overlapping_pieces(self, river, win5):
        # one code per vertex cannot name two pieces
        cert = replace(
            trivial_certificate(LocalSetSpec(1, 1, frozenset()), win5),
            trivial=False, p=1, q=2,
            pieces_vertices=(frozenset({0, 1}), frozenset({2}),
                             frozenset({3, 1})))
        with pytest.raises(ValueError,
                           match="pieces 0 and 2 share window vertex 1"):
            relabel(ChannelLandscape(river, win5), cert)


class TestMatcher:
    def test_against_scipy_oracle(self):
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        rng = np.random.default_rng(7)
        for trial in range(20):
            n_left = int(rng.integers(1, 30))
            n_right = int(rng.integers(1, 30))
            density = rng.random() * 0.4
            matrix = rng.random((n_left, n_right)) < density
            adjacency = [list(np.flatnonzero(row)) for row in matrix]
            ours = _HopcroftKarp(adjacency, n_right).solve()
            sp = maximum_bipartite_matching(
                csr_matrix(matrix), perm_type="column"
            )
            assert ours == int((sp >= 0).sum())

    def test_same_matching_as_recursive_search(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for trial in range(40):
            n_left = int(rng.integers(1, 40))
            n_right = int(rng.integers(1, 40))
            density = rng.random() * 0.3
            adjacency = [
                [int(j) for j in rng.permutation(n_right)
                 if rng.random() < density]
                for _ in range(n_left)
            ]
            ours = _HopcroftKarp(adjacency, n_right)
            ref = _RecursiveHopcroftKarp(adjacency, n_right)
            assert ours.solve() == ref.solve()
            assert ours.match_left == ref.match_left

    def test_long_augmenting_path(self):
        # the last phase augments along a path through all 3000 vertices,
        # deeper than the default recursion limit
        n = 3000
        adjacency = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
        matcher = _HopcroftKarp(adjacency, n)
        assert matcher.solve() == n
        assert sorted(matcher.match_left) == list(range(n))

    def test_layers_are_integers(self):
        # the unreached-layer sentinel is an integer compared by value
        adjacency = [[0, 1], [0], [2], []]
        matcher = _HopcroftKarp(adjacency, 3)
        assert matcher.solve() == 3
        assert all(type(d) is int for d in matcher.dist)

    def test_matching_is_injective(self, river, win8):
        T = river_points(river, win8)
        search = find_doubling(T, win8)
        assert search.saturated
        images = list(search.phi.values()) + list(search.psi.values())
        assert len(images) == len(set(images))
        assert set(images) <= set(T)

    def test_displacement_bounded(self, river, win8):
        search = find_doubling(river_points(river, win8), win8)
        words = win8.vertices
        for fam in (search.phi, search.psi):
            for x, y in fam.items():
                assert F2.dist(words[x], words[y]) <= search.K - 1


class TestFindDoubling:
    def test_empty_set_trivial(self, win8):
        search = find_doubling([], win8)
        assert search.saturated and search.trivial

    def test_inconclusive_reported_not_claimed(self):
        # two far-apart points on the line cannot double at tiny K
        win = ball(Z, 6)
        search = find_doubling([0], win, k_ceiling=3)
        assert not search.saturated
        assert search.matched_fraction < 1.0

    def test_word_outside_window_rejected(self):
        # B_6(Z) has the 13 indices 0..12
        with pytest.raises(ValueError):
            find_doubling([0, 13], ball(Z, 6))

    def test_deterministic(self, river, win8):
        a = find_doubling(river_points(river, win8), win8)
        b = find_doubling(river_points(river, win8), win8)
        assert a.phi == b.phi and a.psi == b.psi and a.K == b.K


@pytest.fixture(scope="module")
def pipeline8(river, win8):
    return paradoxicalize_sequence(
        river, [height_target({1}), height_target({2})], win8
    )


class TestCertificates:
    def test_all_steps_verify(self, pipeline8):
        assert pipeline8.halted is None
        assert all(r.passed for r in pipeline8.reports)
        assert pipeline8.matrix_all_pass()

    def test_matrix_lower_triangle_is_na(self, pipeline8):
        assert pipeline8.matrix[1][0] is None
        assert pipeline8.matrix[0][1] is not None

    def test_matrix_diagonal_is_the_step_report(self, pipeline8):
        # the diagonal pair (rule of step a, certificate a) is the one
        # the step report verified; re-verifying it gives the same report
        rules, certs = pipeline8.rules, pipeline8.certificates
        for a, report in enumerate(pipeline8.reports):
            assert pipeline8.matrix[a][a] is report
            assert _verify(rules[a + 1], certs[a]) == report

    def test_pieces_disjoint_and_cover_twice(self, pipeline8, win8):
        cert = pipeline8.certificates[0]
        seen = set()
        for piece in cert.pieces_vertices:
            assert not (piece & seen)
            seen |= piece
        assert cert.p >= 1 and cert.q >= 1

    def test_channels_are_fresh_even_positions(self, pipeline8):
        used = []
        for cert in pipeline8.certificates:
            used.extend(cert.channel_positions)
        assert all(pos % 2 == 0 for pos in used)
        assert len(set(used)) == len(used)
        assert used == sorted(used)

    def test_odd_projection_untouched(self, pipeline8, win8):
        z0 = pipeline8.rules[0]
        zN = pipeline8.final_rule
        for w in win8.vertices[:500]:
            assert project_odd(zN.label(w, 30)) \
                == project_odd(z0.label(w, 30))

    def test_tampered_translator_fails(self, pipeline8, win8):
        import dataclasses

        # a letter of translator 1 flipped, so no translator grows and
        # the core stays within the pieces' reach
        cert = pipeline8.certificates[0]
        assert cert.translators[1] == (1, 1)
        bad_translators = (cert.translators[0], (1, 2)) \
            + cert.translators[2:]
        bad = dataclasses.replace(cert, translators=bad_translators)
        report = verify_certificate(
            rule_snapshot(pipeline8.rules[1], win8, bad.prefix_len), bad)
        assert not report.passed
        failing = [c for c in report.clauses if not c.passed]
        assert failing and failing[0].witness

    def test_wrong_window_rejected(self, pipeline8, river):
        cert = pipeline8.certificates[0]
        small = rule_snapshot(river, ball(F2, 4), cert.prefix_len)
        with pytest.raises(ValueError):
            verify_certificate(small, cert)

    def test_dict_round_trip_verifies(self, pipeline8, win8):
        cert = pipeline8.certificates[0]
        again = certificate_from_dict(cert.to_dict(), F2)
        assert again.translators == cert.translators
        assert again.piece_patterns == cert.piece_patterns
        report = verify_certificate(
            rule_snapshot(pipeline8.rules[1], win8, again.prefix_len), again)
        assert report.passed

    @pytest.mark.parametrize("target", [full_core_target,
                                        height_target({3})],
                             ids=["full-core", "height-3"])
    def test_translators_agree_with_words(self, river, win8, target):
        # a piece's translator is read off the offset rows; with words,
        # every pair (x, y) of its family has y^-1 x equal to it
        target = target(river, win8)
        search = find_doubling(realize(target, river, win8), win8)
        cert = extract_pieces(search, target, win8)
        words = win8.vertices
        for family, lo, hi in ((search.phi, 0, cert.p),
                               (search.psi, cert.p, cert.p + cert.q)):
            piece = {y: cert.translators[i] for i in range(lo, hi)
                     for y in cert.pieces_vertices[i]}
            assert len(piece) == len(family)
            for x, y in family.items():
                assert F2.mul(F2.inverse(words[y]), words[x]) == piece[y]

    def test_full_core_doubles(self, river, win8):
        result = paradoxicalize_sequence(river, [full_core_target], win8)
        assert result.halted is None
        assert result.reports[0].passed
        assert result.certificates[0].K <= 6


class TestTrivialCertificate:
    def test_empty_target_passes(self, river, win8):
        absent = PatternBall(1, 1, tuple(
            ("0", 99) for _ in range(5)
        ))
        target = LocalSetSpec(1, 1, frozenset({absent}))
        result = paradoxicalize_sequence(river, [target], win8)
        cert = result.certificates[0]
        assert cert.trivial
        assert cert.p == 0 and cert.q == 1
        assert cert.translators == ((),)
        assert result.reports[0].passed

    def test_trivial_fails_on_nonempty_realization(self, river, win8):
        target = center_height_local_set(river, win8, 1, {1}, prefix_len=1)
        cert = trivial_certificate(target, win8)
        report = verify_certificate(rule_snapshot(river, win8, 1), cert)
        assert not report.passed


class TestDeterminism:
    def test_bundles_byte_identical(self, win8):
        def run():
            z = RiverLandscape(F2)
            result = paradoxicalize_sequence(
                z, [height_target({1}), height_target({2})], win8
            )
            return json.dumps(
                [bundle_pipeline(result), final_snapshot(result, win8)],
                sort_keys=True
            )

        assert run() == run()

    def test_bundle_bytes_pinned(self, win8):
        # the criterion-10 bundle, pinned so that a change which alters
        # the bytes deterministically still fails; the pin is of its
        # riverscape.bundle/1 form, which embedded the final snapshot
        result = paradoxicalize_sequence(
            RiverLandscape(F2), [height_target({1}), height_target({2})],
            win8,
        )
        data = json.dumps(bundle_v1(bundle_pipeline(result),
                                    final_snapshot(result, win8)),
                          sort_keys=True).encode()
        assert len(data) == 293098
        assert hashlib.sha256(data).hexdigest() == (
            "5c33aa20a17a572824b612eef078ce6cd5e752058c5cdf7ab2ff3a97aa837e61"
        )


def counted_scans(monkeypatch):
    """Record the (m, s) of every ``pattern_scan`` call; every scan, by
    construction or by the checker, runs in ``Snapshot.scan``."""
    calls = []
    real = patterns.pattern_scan

    def counting(rows, window, m, prefix_len):
        calls.append((m, prefix_len))
        return real(rows, window, m, prefix_len)

    monkeypatch.setattr(checking, "pattern_scan", counting)
    return calls


def heights_pipeline(win):
    """The CLI's ``--target-heights "1;2;3"`` pipeline on the river."""
    return paradoxicalize_sequence(RiverLandscape(F2), [
        height_target({h}) for h in (1, 2, 3)], win)


@pytest.fixture(scope="module")
def pipeline8_3(win8):
    return heights_pipeline(win8)


# a channel rule that shares its parent's snapshot, and the scans made
# over it, even when it writes a channel at or below the prefix
SHARED_PAST_CHANNELS = source_mutant(
    paradox, "if self.parent is not None and not own:",
    "if self.parent is not None:")


class TestScanMemo:
    """Each distinct scan runs once per pipeline: a rule keeps one
    snapshot per prefix, shares its parent's when it writes no channel
    at or below that prefix, and the snapshot memoizes its scans and
    hands a scan at a shorter prefix to the rule's snapshot there."""

    def test_memoized_scans_equal_fresh_scans(self, pipeline8_3, win8):
        snapshots = []
        for rule in pipeline8_3.rules:
            for snap in rule._snapshots.values():
                if not any(snap is seen for seen in snapshots):
                    snapshots.append(snap)
        scans = [(snap, key, got) for snap in snapshots
                 for key, got in snap._scans.items()]
        assert len(scans) == 4
        for snap, (m, s), got in scans:
            cut = [bits[:s] for bits in snap.labels], snap.heights
            assert got == patterns.pattern_scan(cut, win8, m, s)

    def test_scans_counted_in_the_pipeline_and_its_check(self, win8,
                                                         monkeypatch):
        calls = counted_scans(monkeypatch)
        result = heights_pipeline(win8)
        assert result.matrix_all_pass()
        prefixes = [c.prefix_len for c in result.certificates]
        # one scan of the targets' pattern (prefix 1, the same rows for
        # every rule) and one per relabeling, reused by its step report
        # and every later matrix entry: 4, against 21 with no memo
        assert calls == [(1, 1)] + [(2, s) for s in prefixes]
        del calls[:]
        snapshot = load_snapshot(final_snapshot(result, win8))
        for cert in bundle_pipeline(result)["certificates"]:
            assert check_certificate_dict(snapshot, cert).passed
        assert calls == [(1, 1)] + [(2, s) for s in prefixes]

    def test_shorter_prefix_scans_equal_fresh_scans(self, pipeline8_3,
                                                    win8):
        # a scan below a snapshot's prefix is the rule's scan at that
        # prefix, channels of the rule and of its ancestors included
        s_max = pipeline8_3.certificates[-1].prefix_len
        for rule in pipeline8_3.rules:
            snap = rule.snapshot(win8, s_max)
            for s in (1, 2, 3, 15, s_max - 1):
                cut = [bits[:s] for bits in snap.labels], snap.heights
                assert snap.scan(1, s) == patterns.pattern_scan(
                    cut, win8, 1, s)

    def test_shared_rows_share_the_snapshot(self, pipeline8_3):
        first, later = pipeline8_3.rules[1], pipeline8_3.rules[-1]
        s = pipeline8_3.certificates[0].prefix_len
        win = first.window
        assert later.snapshot(win, s) is first.snapshot(win, s)
        assert later.snapshot(win, 1).labels \
            is pipeline8_3.rules[0].snapshot(win, 1).labels
        assert later.snapshot(win, s + 2) is not first.snapshot(win, s + 2)

    def test_snapshot_equality_ignores_the_memo(self, win8):
        rule = ChannelLandscape(RiverLandscape(F2), win8)
        snap = rule.snapshot(win8, 3)
        fresh = rule_snapshot(rule, win8, 3)
        snap.scan(1, 3)
        assert snap == fresh and repr(snap) == repr(fresh)
        assert snap.scan(1, 3) is snap.scan(1, 3)

    @pytest.mark.parametrize("module,passes", [(paradox, False),
                                               (SHARED_PAST_CHANNELS, True)],
                             ids=["channel-rule", "memo-shared-past-channel"])
    def test_channel_below_a_prefix_gets_a_fresh_scan(
            self, pipeline8_3, monkeypatch, module, passes):
        # a derived rule that writes piece 1's vertices into piece 0's
        # channel, at or below certificate 0's prefix: its rows differ
        # there, so its matrix entry for certificate 0 must scan afresh
        # and fail; a memo shared past that channel would pass it
        final, cert = pipeline8_3.final_rule, pipeline8_3.certificates[0]
        assert _verify(final, cert).passed
        bad = module.ChannelLandscape(
            final.base, final.window, final,
            {cert.channel_positions[0]: sorted(cert.pieces_vertices[1])})
        calls = counted_scans(monkeypatch)
        report = _verify(bad, cert)
        assert report.passed is passes
        if passes:
            assert calls == []
        else:
            assert calls == [(2, cert.prefix_len)]
            assert bad.snapshot(final.window, cert.prefix_len) \
                != final.snapshot(final.window, cert.prefix_len)
            assert [c.name for c in report.clauses if not c.passed] \
                == ["phi-cover", "psi-cover"]


@pytest.fixture(scope="module")
def dense9():
    """The dense B_9 pipeline (every core vertex, heights 1..10) on a
    window of its own, with its tracemalloc peak in bytes; the window's
    letter columns are built before tracing."""
    win = ball(F2, 9)
    win.columns
    tracemalloc.start()
    try:
        result = paradoxicalize_sequence(
            RiverLandscape(F2), [height_target(range(1, 11))], win)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.passed for r in result.reports] == [True]
    return win, result, peak


class TestMemoryShape:
    """Window-scale state stays compact: no pipeline step keeps the
    window's words, the K sweep composes offsets over T's rows only, and
    a snapshot is written in pieces."""

    def test_words_not_kept(self, dense9):
        win, _, _ = dense9
        assert "vertices" not in win.__dict__

    def test_traced_peak(self, dense9):
        # about 19.5 MiB with list tables, the cached word tuple and a
        # list of (label, height) pairs per scan; about 5.7 MiB with
        # whole-core offset tables for the K sweep and set-based clauses
        # in the verifier, and about 4.9 MiB without
        assert dense9[2] < 5.5 * 2**20

    def test_dump_json_holds_no_whole_text(self, dense9, tmp_path):
        # about 3.4 MiB above the snapshot when the whole text, its copy
        # with the newline and its bytes were held; about 0.4 MiB now
        win, result, _ = dense9
        snap = final_snapshot(result, win)
        tracemalloc.start()
        try:
            dump_json(snap, tmp_path / "final_snapshot.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("radius,targets", [
        (8, [height_target({h}) for h in (1, 2, 3)]),
        (9, [height_target(range(1, 11))]),
    ], ids=["sparse-B8", "dense-B9"])
    def test_doubling_reads_no_offset_table(self, monkeypatch, radius,
                                            targets):
        # no window-wide table: the K sweep and the piece extraction
        # compose offsets over at most the vertices of the step's T
        inside = []
        sizes = []
        calls = []
        rows = Window.offset_rows

        def recorded(self, m, xs):
            if inside:
                calls.append((inside[-1], len(xs), sizes[-1]))
            return rows(self, m, xs)

        def entered(fn):
            def run(*args, **kwargs):
                if fn.__name__ == "find_doubling":
                    sizes.append(len(args[0]))
                inside.append(fn.__name__)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()
            return run

        monkeypatch.setattr(Window, "offset_rows", recorded)
        for name in ("find_doubling", "extract_pieces"):
            monkeypatch.setattr(paradox, name, entered(getattr(paradox, name)))
        result = paradoxicalize_sequence(RiverLandscape(F2), targets,
                                         ball(F2, radius))
        assert len(result.reports) == len(targets)
        assert result.matrix_all_pass()
        assert {name for name, _, _ in calls} == {"find_doubling",
                                                  "extract_pieces"}
        assert all(0 < n <= t for _, n, t in calls)
