import hashlib
import json

import pytest

from riverscape import (ChannelAllocator, ChannelLandscape, FreeGroup,
                        IntegerGroup, LocalSetSpec, PatternBall,
                        RiverLandscape, Snapshot, ball, certificate_from_dict,
                        extract_pieces, find_doubling,
                        paradoxicalize_sequence, realize,
                        trivial_certificate, verify_certificate)
from riverscape.paradox import _HopcroftKarp, _verify
from riverscape.patterns import center_height_local_set, observed_patterns
from riverscape.snapshots import bundle_pipeline

from test_labels import project_even, project_odd
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
    """The rows of ``rule`` over ``win`` at prefix s, for the verifier."""
    labels, heights = rule.window_rows(win, s)
    return Snapshot(win, heights, labels, s)


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

    def test_allocator_monotone_and_even(self):
        alloc = ChannelAllocator()
        first = alloc.allocate(3, above=5)
        assert first == (6, 8, 10)
        second = alloc.allocate(2, above=1)
        assert second == (12, 14)
        assert alloc.floor == 14


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
        z0 = pipeline8.initial_rule
        zN = pipeline8.final_rule
        for w in win8.vertices[:500]:
            assert project_odd(zN.label(w, 30)) \
                == project_odd(z0.label(w, 30))

    def test_tampered_translator_fails(self, pipeline8, win8):
        import dataclasses

        cert = pipeline8.certificates[0]
        bad_translators = ((1, 2, 1),) + cert.translators[1:]
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
        # a piece's translator is read off the offset tables; with words,
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
                bundle_pipeline(result, win8), sort_keys=True
            )

        assert run() == run()

    def test_bundle_bytes_pinned(self, win8):
        # the criterion-10 bundle, pinned so that a change which alters
        # the bytes deterministically still fails
        result = paradoxicalize_sequence(
            RiverLandscape(F2), [height_target({1}), height_target({2})],
            win8,
        )
        data = json.dumps(bundle_pipeline(result, win8),
                          sort_keys=True).encode()
        assert len(data) == 660202
        assert hashlib.sha256(data).hexdigest() == (
            "00af71adf322a78ff30e54a74ef2142158e603064df5fd1eea585293b9bd36e3"
        )
