"""The certificate verifier: clause mutations, snapshots, and its imports.

Each mutation edits a serialized bundle (certificate or snapshot) so that
an exact set of clauses fails, and is checked through the library
(``load_snapshot`` + ``check_certificate_dict``) and through
``riverscape check``.  The mutations are chosen by reading the
snapshot's arrays word by word (``F2.mul`` and the stored rows), not
through the verifier's index-space scan.
"""

import ast
import json
from bisect import bisect_left
from dataclasses import replace
from functools import lru_cache
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riverscape.checking
from riverscape.checking import (BUNDLE_SCHEMA, CertificateReport,
                                 ClauseResult)
from riverscape.groups import InputError, letter_index
from riverscape import (FreeGroup, IntegerGroup, LocalSetSpec, PatternBall,
                        RiverLandscape, Snapshot, TernaryLandscape, ball,
                        certificate_from_dict, check_certificate_dict,
                        load_snapshot, observed_patterns, offset_ball,
                        paradoxicalize_sequence, realize,
                        trivial_certificate, verify_certificate)
from riverscape.cli import main
from riverscape.patterns import center_height_local_set, pattern_scan
from riverscape.snapshots import bundle_pipeline, final_snapshot

F2 = FreeGroup(2)
Z = IntegerGroup()
R = 8


@lru_cache(maxsize=None)
def bundle_text() -> str:
    """The final snapshot and the bundle of the B_8 pipeline doubling
    the river (height-1 target), as one JSON array."""
    win = ball(F2, R)
    result = paradoxicalize_sequence(RiverLandscape(F2), [
        lambda rule, w: center_height_local_set(rule, w, 1, {1},
                                                prefix_len=1)
    ], win)
    return json.dumps([final_snapshot(result, win), bundle_pipeline(result)])


@pytest.fixture
def bundle():
    snap, doc = json.loads(bundle_text())
    return snap, doc["certificates"][0]


def occurrences(snap, m, s):
    """Pattern -> core words (radius R - m), read word by word from the
    snapshot's stored heights and labels."""
    win = ball(F2, R)
    index, heights, labels = win.index_of, snap["heights"], snap["labels"]
    occ = {}
    for w in win.vertices[:win.core_size(R - m)]:
        entries = []
        for delta in offset_ball(F2, m):
            i = index(F2.mul(w, delta))
            entries.append((labels[i][:s], heights[i]))
        occ.setdefault(PatternBall(m, s, tuple(entries)), []).append(w)
    return occ


def realized(snap, cert):
    """T and the pieces' member words, and the translators as words."""
    target = cert["target"]
    T = {w for pat, ws in occurrences(snap, target["m"],
                                      target["prefixLen"]).items()
         if pat.serialize() in target["patterns"] for w in ws}
    occ = occurrences(snap, cert["l"], cert["prefixLen"])
    pieces = [[w for pat, ws in occ.items() if pat.serialize() in pats
               for w in ws] for pats in cert["pieces"]]
    translators = [F2.word_from_json(t) for t in cert["translators"]]
    return T, occ, pieces, translators


def in_core(cert, word):
    return len(word) <= cert["coreRadius"]


def least_uncovered(snap, cert):
    """The enumeration-least core word of T that no phi piece covers."""
    T, _, pieces, translators = realized(snap, cert)
    covered = {F2.mul(y, translators[i])
               for i in range(cert["p"]) for y in pieces[i]}
    return min((w for w in T if in_core(cert, w) and w not in covered),
               key=F2.index_of)


# --- mutations: (snapshot, certificate) -> (snapshot, certificate) --------

def duplicate_piece(snap, cert):
    # a phi piece and its translator twice: the covers are sets, so only
    # disjointness notices
    cert["pieces"].insert(1, cert["pieces"][0])
    cert["translators"].insert(1, cert["translators"][0])
    cert["p"] += 1
    return snap, cert


def add_foreign_pattern(snap, cert):
    # a pattern that occurs only off T, at vertices whose translates by
    # piece 1's translator leave the core
    T, occ, _, translators = realized(snap, cert)
    g = translators[1]
    pat = next(pat for pat, ws in occ.items()
               if all(w not in T and not in_core(cert, F2.mul(w, g))
                      for w in ws))
    cert["pieces"][1].append(pat.serialize())
    return snap, cert


def tamper_phi_translator(snap, cert):
    # a wrong translator within the displacement bound (3)
    assert cert["displacementBound"] == 3
    cert["translators"][1] = [1, 2]
    return snap, cert


def drop_pattern(family):
    def mutate(snap, cert):
        # a pattern of the family occurring at a piece point whose
        # translate lies in the core
        _, occ, _, translators = realized(snap, cert)
        lo, hi = (0, cert["p"]) if family == "phi" \
            else (cert["p"], cert["p"] + cert["q"])
        for i in range(lo, hi):
            for text in cert["pieces"][i]:
                pat = PatternBall.deserialize(text, f"piece {i}")
                if any(in_core(cert, F2.mul(y, translators[i]))
                       for y in occ[pat]):
                    cert["pieces"][i].remove(text)
                    return snap, cert
        raise AssertionError("no pattern to drop")
    mutate.__name__ = f"drop_{family}_pattern"
    return mutate


def clear_member_bit(snap, cert):
    # the first phi piece point, in window order, whose translate lies in
    # the core loses its membership bit; the patterns of the piece points
    # within distance l of it change with it
    _, _, pieces, translators = realized(snap, cert)
    win = ball(F2, R)
    y, i = min(((y, i) for i in range(cert["p"]) for y in pieces[i]
                if in_core(cert, F2.mul(y, translators[i]))),
               key=lambda pair: win.index_of(pair[0]))
    v = win.index_of(y)
    pos = cert["channelPositions"][i]
    bits = snap["labels"][v]
    assert bits[pos - 1] == "1"
    snap["labels"][v] = bits[:pos - 1] + "0" + bits[pos:]
    return snap, cert


def grow_core(snap, cert):
    # past R - l - |g| (g the longest translator) the piece scan cannot
    # read the piece points of the core's translates: an input error
    cert["coreRadius"] = R - cert["l"]
    return snap, cert


def shrink_core(snap, cert):
    # the identities are exact, so they hold on every smaller core
    cert["coreRadius"] -= 1
    return snap, cert


MUTATIONS = [
    (duplicate_piece, {"pieces-disjoint"}),
    (add_foreign_pattern, {"pieces-contained"}),
    (tamper_phi_translator, {"phi-cover"}),
    (drop_pattern("phi"), {"phi-cover"}),
    (drop_pattern("psi"), {"psi-cover"}),
    (clear_member_bit, {"phi-cover", "psi-cover"}),
    (grow_core, InputError),
    (shrink_core, set()),
]

# the error grow_core raises on the B_8 bundle: l = 2 and |g| <= 2
GROWN_CORE = ("certificate field 'coreRadius' is 6, above R - l - |g| = 4, "
              "|g| = 2 the length of its longest translator, where every "
              "translate's piece point lies in the piece scan's core")


def failing_via_library(snap, cert):
    report = check_certificate_dict(load_snapshot(snap), cert)
    return {c.name for c in report.clauses if not c.passed}


def run_check(snap, cert, tmp_path):
    """``riverscape check`` on the snapshot and on a bundle holding the
    one certificate, written to files."""
    snap_path, cert_path = tmp_path / "snap.json", tmp_path / "cert.json"
    snap_path.write_text(json.dumps(snap))
    cert_path.write_text(json.dumps({"schema": BUNDLE_SCHEMA,
                                     "certificates": [cert]}))
    return main(["check", "--snapshot", str(snap_path),
                 "--certificate", str(cert_path)])


def failing_via_cli(snap, cert, tmp_path, capsys):
    code = run_check(snap, cert, tmp_path)
    lines = capsys.readouterr().out.splitlines()
    failing = {line.split()[1].rstrip(":") for line in lines
               if line.startswith("  clause ")}
    assert code == (1 if failing else 0)
    assert lines[0] == f"certificate 0: {'FAIL' if failing else 'pass'}"
    return failing


class TestClauseMutations:
    def test_unmutated_bundle_passes(self, bundle, tmp_path, capsys):
        snap, cert = bundle
        assert failing_via_library(snap, cert) == set()
        assert failing_via_cli(snap, cert, tmp_path, capsys) == set()

    @pytest.mark.parametrize("mutate,expected", MUTATIONS,
                             ids=[m.__name__ for m, _ in MUTATIONS])
    def test_library(self, bundle, mutate, expected):
        snap, cert = mutate(*bundle)
        if expected is InputError:
            with pytest.raises(InputError) as exc:
                failing_via_library(snap, cert)
            assert str(exc.value) == GROWN_CORE
        else:
            assert failing_via_library(snap, cert) == expected

    @pytest.mark.parametrize("mutate,expected", MUTATIONS,
                             ids=[m.__name__ for m, _ in MUTATIONS])
    def test_riverscape_check(self, bundle, tmp_path, capsys, mutate,
                              expected):
        snap, cert = mutate(*bundle)
        if expected is InputError:
            assert run_check(snap, cert, tmp_path) == 2
            assert capsys.readouterr().err == \
                f"error: certificate 0: {GROWN_CORE}\n"
        else:
            assert failing_via_cli(snap, cert, tmp_path, capsys) == expected

    def test_witness_names_the_least_uncovered_vertex(self, bundle):
        snap, cert = drop_pattern("phi")(*bundle)
        least = least_uncovered(snap, cert)
        report = check_certificate_dict(load_snapshot(snap), cert)
        phi = next(c for c in report.clauses if c.name == "phi-cover")
        assert phi.witness == f"target vertex {least!r} not covered"


def set_verify(snapshot, cert):
    """The verifier's clauses 1-3 as they were before they ran on byte
    marks: T, the pieces, the seen vertices and the covers are index sets
    and a dict.  It stays as the oracle of the witness strings and of the
    choice of the enumeration-least offender."""
    def select(scan, wanted_sets):
        ids, patterns = scan
        index = dict(zip(patterns, range(len(patterns))))
        selected = []
        for wanted in wanted_sets:
            hit = {j for j in map(index.get, wanted) if j is not None}
            selected.append(list(compress(range(len(ids)),
                                          map(hit.__contains__, ids))))
        return selected

    window = snapshot.window
    spec = window.spec
    target = cert.target
    T, = select(snapshot.scan(target.m, target.prefix_len),
                [target.patterns])
    if cert.trivial:
        pieces = [[] for _ in cert.piece_patterns]
    else:
        pieces = select(snapshot.scan(cert.l, cert.prefix_len),
                        cert.piece_patterns)
    clauses = []
    in_T = set(T)
    witness = next((f"piece {i} vertex {window.word_at(y)!r} "
                    f"outside target"
                    for i, members in enumerate(pieces)
                    for y in members if y not in in_T), None)
    clauses.append(ClauseResult("pieces-contained", witness is None, witness))
    witness = None
    seen = {}
    for i, members in enumerate(pieces):
        for y in members:
            if y in seen:
                witness = (f"vertex {window.word_at(y)!r} in pieces "
                           f"{seen[y]} and {i}")
                break
            seen[y] = i
        if witness:
            break
    clauses.append(ClauseResult("pieces-disjoint", witness is None, witness))
    n_core = window.core_size(cert.core_radius)
    T_core = set(T[:bisect_left(T, n_core)])
    columns = window.columns
    for name, lo, hi in (("phi-cover", 0, cert.p),
                         ("psi-cover", cert.p, cert.p + cert.q)):
        covered = set()
        for g, members in zip(cert.translators[lo:hi], pieces[lo:hi]):
            xs = members
            for a in map(letter_index, spec.word_letters(g)):
                column = columns[a]
                xs = [column[x] if x >= 0 else -1 for x in xs]
            covered.update(x for x in xs if 0 <= x < n_core)
        witness = None
        extra = covered - T_core
        missing = T_core - covered
        if extra:
            witness = (f"translated piece point "
                       f"{window.word_at(min(extra))!r} not in target core")
        elif missing:
            witness = (f"target vertex {window.word_at(min(missing))!r} "
                       f"not covered")
        clauses.append(ClauseResult(name, witness is None, witness))
    return CertificateReport(all(c.passed for c in clauses), clauses)


def agree_with_set_verify(snap, cert):
    """The report of ``cert`` on the loaded ``snap``, which the set-based
    oracle must reproduce field for field."""
    loaded = load_snapshot(snap) if isinstance(snap, dict) else snap
    parsed = certificate_from_dict(cert, F2)
    report = verify_certificate(loaded, parsed)
    assert report.to_dict() == set_verify(loaded, parsed).to_dict()
    return report


@lru_cache(maxsize=None)
def b7_bundle_text() -> str:
    """The final snapshot and the bundle of the B_7 pipeline doubling the
    river's height-1, -2 and -3 points in turn, as one JSON array."""
    win = ball(F2, 7)
    result = paradoxicalize_sequence(RiverLandscape(F2), [
        (lambda h: lambda rule, w: center_height_local_set(
            rule, w, 1, {h}, prefix_len=1))(h) for h in (1, 2, 3)
    ], win)
    return json.dumps([final_snapshot(result, win), bundle_pipeline(result)])


def drop_first_pattern(cert, i):
    # some pieces have no pattern in the core (they stay as they are)
    if cert["pieces"][i]:
        cert["pieces"][i].pop(0)


def duplicate_into_next(cert, i):
    j = (i + 1) % len(cert["pieces"])
    cert["pieces"][j] = sorted(set(cert["pieces"][j] + cert["pieces"][i]))


def flip_first_letter(cert, i):
    translator = cert["translators"][i]
    if translator:
        translator[0] = -translator[0]


def make_trivial(cert, i):
    cert["trivial"] = True


def thin_target(cert, i):
    # every other target pattern, so pieces reach outside the target
    del cert["target"]["patterns"][i % 2::2]


TAMPERINGS = [drop_first_pattern, duplicate_into_next, flip_first_letter,
              make_trivial, thin_target]


class TestSetOracle:
    """The mark-based clauses against the set-based ones they replaced:
    the same reports, witness strings included, on every clause
    mutation and on tampered B_7 and B_8 bundles."""

    @pytest.mark.parametrize("mutate", [None] + [m for m, _ in MUTATIONS],
                             ids=["unmutated"] + [m.__name__
                                                  for m, _ in MUTATIONS])
    def test_clause_mutations(self, bundle, mutate):
        snap, cert = bundle if mutate is None else mutate(*bundle)
        if mutate is grow_core:
            # the verifier refuses the core before any clause runs; the
            # set-based clauses, which know no reach, read the pieces
            # past it as empty and fail both covers
            parsed = certificate_from_dict(cert, F2)
            loaded = load_snapshot(snap)
            with pytest.raises(InputError, match="'coreRadius' is 6"):
                verify_certificate(loaded, parsed)
            failing = {c.name for c in set_verify(loaded, parsed).clauses
                       if not c.passed}
            assert failing == {"phi-cover", "psi-cover"}
        else:
            agree_with_set_verify(snap, cert)

    @pytest.mark.parametrize("text", [b7_bundle_text, bundle_text],
                             ids=["B7", "B8"])
    @pytest.mark.parametrize("tamper", TAMPERINGS,
                             ids=[t.__name__ for t in TAMPERINGS])
    def test_tampered_bundles(self, text, tamper):
        snap, doc = json.loads(text())
        loaded = load_snapshot(snap)
        failing = 0
        for cert in doc["certificates"]:
            for i in range(len(cert["pieces"])):
                tampered = json.loads(json.dumps(cert))
                del tampered["verification"]
                tamper(tampered, i)
                failing += not agree_with_set_verify(loaded, tampered).passed
        assert failing > 0


class TestWordView:
    """The checker works on window indices: a passing check builds no
    word, and a failing one spells only its offender (``word_at``),
    never the window's word tuple."""

    def test_passing_check_builds_no_word(self, bundle, tmp_path,
                                          monkeypatch):
        def no_words(self, radius):
            raise AssertionError("a passing check built the window's words")

        monkeypatch.setattr(FreeGroup, "ball_words", no_words)
        assert run_check(*bundle, tmp_path) == 0

    def test_failing_check_names_the_word(self, bundle, tmp_path, capsys,
                                          monkeypatch):
        snap, cert = drop_pattern("phi")(*bundle)
        least = least_uncovered(snap, cert)
        built = []
        words = FreeGroup.ball_words

        def counted(self, radius):
            built.append(radius)
            return words(self, radius)

        monkeypatch.setattr(FreeGroup, "ball_words", counted)
        assert run_check(snap, cert, tmp_path) == 1
        out = capsys.readouterr().out.splitlines()
        assert f"  clause phi-cover: target vertex {least!r} not covered" \
            in out
        assert built == []


class TestVerifier:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_pieces_equal_one_pass_per_piece(self, data):
        # every scanned id occurs; a set names ids, possibly shared
        width = data.draw(st.integers(1, 12))
        ids = data.draw(st.lists(st.integers(0, width - 1), max_size=200))
        present = sorted(set(ids))
        hits = data.draw(st.lists(
            st.sets(st.sampled_from(present)) if present else st.just(set()),
            max_size=6))
        assert riverscape.checking._pieces(ids, hits) == [
            list(compress(range(len(ids)), map(h.__contains__, ids)))
            for h in hits]

    def test_core_past_the_window_rejected(self, bundle):
        snap, cert = bundle
        cert["coreRadius"] = R + 1
        with pytest.raises(ValueError, match="core radius"):
            check_certificate_dict(load_snapshot(snap), cert)

    def test_translator_count_must_match_pieces(self, bundle):
        snap, cert = bundle
        cert["translators"].pop()
        with pytest.raises(ValueError, match="translators"):
            check_certificate_dict(load_snapshot(snap), cert)

    def test_prefix_past_the_snapshot_rejected(self, bundle):
        snap, cert = bundle
        short = Snapshot(ball(F2, R), snap["heights"],
                         [bits[:4] for bits in snap["labels"]], 4)
        with pytest.raises(ValueError, match="prefix"):
            check_certificate_dict(short, cert)

    def test_scans_below_the_prefix_equal_scans_of_cut_rows(self, bundle):
        # a loaded snapshot hands the scan its own rows, which the scan
        # cuts; the oracle cuts every label before scanning
        loaded = load_snapshot(bundle[0])
        for s in range(loaded.prefix_len + 1):
            cut = [bits[:s] for bits in loaded.labels], loaded.heights
            for m in (1, 2):
                assert loaded.scan(m, s) == pattern_scan(cut, loaded.window,
                                                         m, s)

    def test_scan_rejects_a_prefix_past_the_rows(self, bundle):
        # bits[:7] of the 6-bit rows would read 7-bit patterns as 6 bits
        loaded = load_snapshot(bundle[0])
        assert loaded.prefix_len == 6
        rows = loaded.labels, loaded.heights
        with pytest.raises(ValueError, match=r"^prefix 7 is not in 0 \.\. "
                                             r"6, the labels' length$"):
            pattern_scan(rows, loaded.window, 1, 7)

    @pytest.mark.parametrize("p, q", [(-3, 10), (10, -3)])
    def test_negative_p_or_q_rejected(self, bundle, p, q):
        # p + q still counts the translators; a negative p would slice
        # translators[0:p] from the end
        snap, cert = bundle
        assert cert["p"] + cert["q"] == p + q
        name = "p" if p < 0 else "q"
        with pytest.raises(ValueError,
                           match=f"field '{name}' must be >= 0"):
            check_certificate_dict(load_snapshot(snap),
                                   {**cert, "p": p, "q": q})

    def test_rows_reject_a_negative_prefix(self, bundle):
        # bits[:-1] would cut every label from the end
        with pytest.raises(ValueError, match=r"^prefix -1 is not in 0 \.\. "
                                             r"6, the labels' length$"):
            load_snapshot(bundle[0]).scan(1, -1)

    @staticmethod
    def line_certificate(n: int, rc: int):
        """On B_600(Z), one phi piece and one psi piece, both all of T
        (the ternary height-1 points), moved by n and -n, claimed on the
        core of radius rc; with T's words and the snapshot."""
        win = ball(Z, 600)
        rule = TernaryLandscape(Z)
        ones = frozenset(pat for pat in observed_patterns(rule, win, 1, 2)
                         if pat.center_height == 1)
        target = LocalSetSpec(1, 2, ones)
        T = [win.vertices[i] for i in realize(target, rule, win)]
        cert = replace(
            trivial_certificate(target, win), trivial=False, l=1, p=1, q=1,
            translators=(n, -n), piece_patterns=(ones, ones),
            pieces_vertices=(frozenset(), frozenset()), core_radius=rc)
        return rule.snapshot(win, 2), cert, T

    @pytest.mark.parametrize("n", [0, 3, -3, 300, 500, -500])
    def test_translates_on_the_line_against_words(self, n):
        # covers computed with integer words on the widest core within
        # the pieces' reach, R - l - |n|, translates leaving the window
        # included
        rc = 600 - 1 - abs(n)
        snap, cert, T = self.line_certificate(n, rc)
        report = verify_certificate(snap, cert)
        core = {t for t in T if abs(t) <= rc}
        want = [f"vertex {T[0]!r} in pieces 0 and 1"]
        for shift in (n, -n):
            covered = {t + shift for t in T if abs(t + shift) <= rc}
            extra, missing = covered - core, core - covered
            if extra:
                want.append(f"translated piece point "
                            f"{min(extra, key=Z.index_of)!r} not in target "
                            f"core")
            elif missing:
                want.append(f"target vertex {min(missing, key=Z.index_of)!r}"
                            f" not covered")
            else:
                want.append(None)
        assert [c.witness for c in report.clauses[1:]] == want
        assert report.clauses[0].passed

    def test_core_past_the_pieces_reach_on_the_line_rejected(self):
        # one more than R - l - |n| = 99: the core vertex 100 is the
        # translate by -500 of 600, past the piece scan's core of 599
        snap, cert, _ = self.line_certificate(-500, 100)
        with pytest.raises(
                InputError,
                match=r"^certificate field 'coreRadius' is 100, above "
                      r"R - l - \|g\| = 99, \|g\| = 500 "):
            verify_certificate(snap, cert)


def line_snapshot(radius: int, rows: int) -> dict:
    """A snapshot of B_radius(Z) claiming ``rows`` rows, every vertex at
    height 1 with the label ``"1"``."""
    return {
        "schema": "riverscape.snapshot/1",
        "provenance": "ternary",
        "windowRef": {"group": Z.to_dict(), "radius": radius},
        "labelPrefixLen": 1,
        "heights": [1] * rows,
        "labels": ["1"] * rows,
    }


class TestSnapshotSize:
    """A snapshot's own row count is the window's vertex budget, and the
    rows are counted before any window is built."""

    def test_check_reads_a_window_past_the_default_budget(self, tmp_path,
                                                          capsys):
        # B_250001(Z) has 500,003 vertices, above the default budget of
        # 500,000; ``check`` used to exit 3 on it
        snap = line_snapshot(250_001, 500_003)
        assert len(snap["labels"]) > riverscape.groups.DEFAULT_VERTEX_BUDGET
        loaded = load_snapshot(snap)
        assert len(loaded.window) == 500_003
        target = LocalSetSpec(1, 1, frozenset())
        cert = trivial_certificate(target, loaded.window).to_dict()
        assert run_check(snap, cert, tmp_path) == 0
        assert capsys.readouterr().out == "certificate 0: pass\n"

    @pytest.mark.parametrize("spec,radius,rows,vertices", [
        (Z, 10**12, 3, "more than 3"),
        (F2, 10**6, 3, "more than 3"),
        (F2, 3, 40, "more than 40"),
        (F2, 3, 60, "53"),
        (F2, 2, 18, "17"),
        (F2, 9000, 9001, "more than 9001"),
    ])
    def test_row_count_mismatch_builds_nothing(self, monkeypatch, spec,
                                               radius, rows, vertices):
        def no_table(self, radius):
            raise AssertionError("a window was built for a mismatched file")

        monkeypatch.setattr(type(spec), "ball_columns", no_table)
        snap = line_snapshot(radius, rows)
        snap["windowRef"]["group"] = spec.to_dict()
        with pytest.raises(ValueError, match=(
                f"'heights' has {rows} entries, the window of radius "
                f"{radius} has {vertices} vertices")):
            load_snapshot(snap)

    def test_short_labels_name_the_window_size(self):
        snap = line_snapshot(3, 7)
        snap["labels"].pop()
        with pytest.raises(ValueError, match=(
                "'labels' has 6 entries, the window of radius 3 has 7 "
                "vertices")):
            load_snapshot(snap)

    def test_negative_radius_is_input_error(self):
        with pytest.raises(ValueError, match="'radius' is -1"):
            load_snapshot(line_snapshot(-1, 1))


class TestSharedRows:
    """A loaded snapshot keeps one string per distinct label row, which
    every vertex holding it references."""

    def test_loaded_rows_are_shared(self, bundle):
        snap, _ = bundle
        # the JSON parser makes one string per row
        assert len(set(map(id, snap["labels"]))) == len(snap["labels"])
        loaded = load_snapshot(snap)
        rows = loaded.labels
        assert rows == snap["labels"]
        assert len(set(map(id, rows))) == len(set(rows)) < len(rows)


class TestImports:
    def test_checking_imports_no_construction_module(self):
        # the checker may share window enumeration and the pattern scan
        # with construction, never a rule, channel, matcher or relabeling
        tree = ast.parse(Path(riverscape.checking.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    imported.update(a.name.split("."))
        forbidden = {"paradox", "landscapes", "labels", "witness", "cli"}
        assert not imported & forbidden, imported & forbidden
