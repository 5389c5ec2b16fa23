"""The ten acceptance checks, one test each, at their stated tolerances.

Each test ends by printing a single PASS line (visible with ``-s`` or in
captured output); a failing criterion fails its test instead.
"""

import json
import time

import pytest

from riverscape import (CodeFormatError, FreeGroup, LocalSetSpec,
                        ProperLabelRule, RiverLandscape, components_leq,
                        defect_bound, encode_blocks, kappa, offset_ball,
                        paradoxicalize_sequence, parse_code,
                        separation_index, subset_from_index, subset_index,
                        ternary_height, theta, verify_axioms,
                        verify_certificate)
from riverscape.landscapes import LandscapeRule
from riverscape.patterns import center_height_local_set, observed_patterns
from riverscape.snapshots import bundle_pipeline, final_snapshot

import landscape_oracles as oracle
from test_labels import project_odd
from test_landscapes import brute_ternary_height

F2 = FreeGroup(2)


def height_target(heights):
    return lambda rule, win: center_height_local_set(
        rule, win, 1, heights, prefix_len=1
    )


@pytest.fixture(scope="module")
def kappa20(river, win10):
    """kappa paths to m = 20 for every vertex of B_10."""
    return {w: kappa(river, w, 20) for w in win10.vertices}


def test_criterion_01_proper_labeling_separation(win8):
    start = time.time()
    rule = ProperLabelRule(F2)
    s4 = separation_index(F2, 4)
    labels = {w: rule.label(w, s4) for w in win8.vertices}
    offsets = [w for w in offset_ball(F2, 4) if len(w) > 0]
    pairs = 0
    for g, lg in labels.items():
        for off in offsets:
            ld = labels.get(F2.mul(g, off))
            if ld is not None:
                pairs += 1
                assert lg != ld, (g, off)
    elapsed = time.time() - start
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    print(f"ACCEPTANCE 1 PASS: {pairs} close pairs separated at "
          f"S_4={s4} in {elapsed:.1f}s")


def test_criterion_02_landscape_axioms(river, win10, ternary, zwin_large):
    r1 = verify_axioms(river, win10)
    assert r1.passed, r1.violations
    r2 = verify_axioms(ternary, zwin_large)
    assert r2.passed, r2.violations
    for rep in (r1, r2):
        assert rep.constants.M and rep.constants.N and rep.constants.S
        assert all(v >= 0 for t in (rep.constants.M, rep.constants.N,
                                    rep.constants.S) for v in t.values())
    print("ACCEPTANCE 2 PASS: four axioms hold on B_10(F2) river and "
          "ternary [-1e4,1e4]; M/N/S tables finite")


def test_criterion_03_hilly_stabilization(ternary, zwin_small, zwin_large):
    q1 = components_leq(ternary, zwin_large, 1).max_interior_size
    assert q1 <= 3
    sizes = {}
    for n in (1, 2):
        a = components_leq(ternary, zwin_small, n).max_interior_size
        b = components_leq(ternary, zwin_large, n).max_interior_size
        assert a == b, f"W^{n} max {a} at 1e3 vs {b} at 1e4"
        sizes[n] = b
    print(f"ACCEPTANCE 3 PASS: Q_1={sizes[1]} <= 3; component maxima "
          f"{sizes} identical at radii 1e3 and 1e4")


def test_criterion_04_symdiff_inequality(river, win10, kappa20):
    start = time.time()
    checked = 0
    for i in range(win10.core_size(win10.radius - 1)):
        g = win10.vertices[i]
        lg = kappa20[g]
        bound = 2 * river.height(g) * 2  # 2 (d+1) C with d = H-1, C = 2
        # a core vertex has all of its neighbours inside the window
        for j in (column[i] for column in win10.columns):
            lh = kappa20[win10.vertices[j]]
            counts = {}
            size = 0
            for m in range(1, 21):
                for x, delta in ((lg[m - 1], 1), (lh[m - 1], -1)):
                    old = counts.get(x, 0)
                    counts[x] = old + delta
                    size += abs(old + delta) - abs(old)
                checked += 1
                assert size <= bound, (g, win10.vertices[j], m)
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"ACCEPTANCE 4 PASS: {checked} (edge, m) symmetric differences "
          f"within 2(d+1)C in {elapsed:.1f}s")


def test_criterion_05_defect_bound_and_trend(river, win10, kappa20):
    from fractions import Fraction

    sums = {5: Fraction(0), 10: Fraction(0), 20: Fraction(0)}
    count = 0
    for w in win10.vertices:
        if len(w) > win10.radius - 1 or river.height(w) > 3:
            continue
        lg = kappa20[w]
        for sigma in F2.letters():
            lh = kappa20[F2.apply_letter(w, sigma)]
            count += 1
            for m in (5, 10, 20):
                d = Fraction(len(set(lg[:m]) ^ set(lh[:m])), m)
                assert d <= defect_bound(river, w, m), (w, sigma, m)
                sums[m] += d
    mean10 = sums[10] / count
    mean20 = sums[20] / count
    assert mean20 <= Fraction(11, 10) * mean10 / 2, \
        f"trend: mean(20)={float(mean20):.4f} vs mean(10)={float(mean10):.4f}"
    print(f"ACCEPTANCE 5 PASS: {count} height<=3 edges within bound at "
          f"m=5,10,20; mean defect {float(mean10):.4f} -> "
          f"{float(mean20):.4f}")


def test_criterion_06_witness_code():
    # round-trip 1,000 canonical subsets at reference radii for m=1,
    # heights n <= 3 (radii 2, 3, 4 -> ball sizes 17, 53, 161)
    done = 0
    for n_ball in (17, 53, 161):
        for index in range(1, 335):
            subset = subset_from_index(index, n_ball)
            assert subset_index(subset, n_ball) == index
            assert parse_code(encode_blocks([index])) == [index]
            done += 1
    assert done >= 1000
    corpus = ["0", "10", "111", "1101", "110100", "11", "1101011",
              "11001", "1101001101", "01011010"]
    offsets = [0, 0, 2, 2, 5, 2, 7, 2, 5, 0]
    for bad, want in zip(corpus, offsets):
        with pytest.raises(CodeFormatError) as err:
            parse_code(bad)
        assert err.value.offset == want, bad
    print(f"ACCEPTANCE 6 PASS: {done} subset round-trips; "
          f"{len(corpus)} malformed frames rejected at correct offsets")


def test_criterion_07_doubling(river, win8, win10):
    start = time.time()
    # (a) the full core of B_8
    z8 = RiverLandscape(F2)
    occ = observed_patterns(z8, win8, 1, prefix_len=1)
    full = LocalSetSpec(1, 1, frozenset(occ))
    res_a = paradoxicalize_sequence(z8, [full], win8)
    cert_a = res_a.certificates[0]
    assert res_a.halted is None and cert_a.K <= 6
    assert res_a.reports[0].passed

    # (b) the river vertices of B_10
    res_b = paradoxicalize_sequence(
        RiverLandscape(F2), [height_target({1})], win10
    )
    cert_b = res_b.certificates[0]
    assert res_b.halted is None and cert_b.K <= 6
    assert res_b.reports[0].passed
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    print(f"ACCEPTANCE 7 PASS: doublings saturate at K={cert_a.K} "
          f"(B_8 core) and K={cert_b.K} (B_10 river); certificates "
          f"verify exactly in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def pipeline10(win10):
    return paradoxicalize_sequence(
        RiverLandscape(F2),
        [height_target({1}), height_target({2}), height_target({3})],
        win10,
    )


def test_criterion_08_pipeline_stability(pipeline10, win10):
    assert pipeline10.halted is None
    assert len(pipeline10.certificates) == 3
    for row in pipeline10.matrix:
        for entry in row:
            assert entry is None or entry.passed
    assert sum(e is not None for row in pipeline10.matrix for e in row) == 6
    prefix = 2 * max(c.prefix_len for c in pipeline10.certificates)
    z0, zN = pipeline10.rules[0], pipeline10.final_rule
    for w in win10.vertices:
        if len(w) <= win10.radius - 1:
            assert project_odd(zN.label(w, prefix)) \
                == project_odd(z0.label(w, prefix)), w
    print("ACCEPTANCE 8 PASS: 3x3 re-verification matrix all-pass; "
          "odd label projection identical at every core vertex")


class _Masked(LandscapeRule):
    provenance = "river"

    def __init__(self, base, center, radius):
        self.spec = base.spec
        self.base, self.center, self.radius = base, center, radius

    def height(self, w):
        return self.base.height(w) \
            if self.spec.dist(self.center, w) <= self.radius else 7

    def label(self, w, s):
        return self.base.label(w, s) \
            if self.spec.dist(self.center, w) <= self.radius else "1" * s


def test_criterion_09_oracles(river, win5):
    # theta locality: mangling outside the radius-m ball is invisible
    for g in ((), (1,), (2, -1)):
        for m in (1, 2):
            assert theta(_Masked(river, g, m), g, m) == theta(river, g, m)
    # word metric vs breadth-first distances on B_5
    dist = oracle.bfs_distances(win5, [0])
    for i, w in enumerate(win5.vertices):
        assert dist[i] == F2.dist((), w)
    # ternary height vs brute-force oracle
    for n in range(-1000, 1001):
        assert ternary_height(n) == brute_ternary_height(n)
    print("ACCEPTANCE 9 PASS: theta locality, metric-vs-BFS on B_5, and "
          "ternary brute-force oracle all exact")


def test_criterion_10_reproducibility(win8):
    def run():
        result = paradoxicalize_sequence(
            RiverLandscape(F2),
            [height_target({1}), height_target({2})],
            win8,
        )
        return json.dumps([bundle_pipeline(result),
                           final_snapshot(result, win8)],
                          sort_keys=True).encode()

    first, second = run(), run()
    assert first == second
    print(f"ACCEPTANCE 10 PASS: consecutive runs byte-identical "
          f"({len(first)} bytes)")
