import csv
import hashlib
import json

import pytest

from riverscape import (ChannelLandscape, FreeGroup, RiverLandscape, ball,
                        checking, witness)
from riverscape.cli import main
from riverscape.groups import GroupSpec
from riverscape.patterns import LocalSetSpec, center_height_local_set
from riverscape.snapshots import dump_json, load_json

from conftest import bundle_v1


F2 = FreeGroup(2)


def run(argv):
    return main([str(a) for a in argv])


class TestBuild:
    def test_river_snapshot(self, tmp_path, capsys):
        code = run(["build", "--group", "f2", "--landscape", "river",
                    "--radius", 6, "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "axioms: pass" in out
        doc = load_json(tmp_path / "snapshot.json")
        assert doc["schema"] == "riverscape.snapshot/1"
        assert doc["provenance"] == "river"
        assert len(doc["heights"]) == 2 * 3**6 - 1
        assert doc["heights"][0] == 1

    def test_ternary_reports_q_constants(self, tmp_path, capsys):
        code = run(["build", "--group", "z", "--landscape", "ternary",
                    "--radius", 1000, "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "Q[1]=1" in out
        assert "Q[2]=21" in out

    def test_reports_constants_and_uncertified_count(self, tmp_path, capsys):
        code = run(["build", "--group", "f2", "--landscape", "river",
                    "--radius", 6, "--out", tmp_path])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "window: 1457 vertices at radius 6",
            "axioms: pass",
            "  M[2]=1, M[3]=2, M[4]=3",
            "  N[1]=2, N[2]=2, N[3]=2, N[4]=2, N[5]=4, N[6]=4, N[7]=4, "
            "N[8]=4",
            "  S[1]=0, S[2]=1, S[3]=2, S[4]=3, S[5]=4, S[6]=5, S[7]=6",
            "uncertified: 2696",
        ]

    def test_radius_too_small_names_minimum(self, tmp_path, capsys):
        code = run(["build", "--group", "f2", "--landscape", "river",
                    "--radius", 0, "--out", tmp_path])
        assert code == 2
        assert "minimal radius is 2" in capsys.readouterr().err

    def test_unknown_group(self, tmp_path, capsys):
        assert run(["build", "--group", "wat", "--radius", 3,
                    "--out", tmp_path]) == 2

    @pytest.mark.parametrize("group, radius, stdout_sha, snapshot_sha", [
        ("z", 40,
         "8435069a39ef218b19eb529cbc8c4716c8e8e420be5029f875af08221aa3574e",
         "ff203eb9ad22b0737b3c19a8969c6901ca1a2eb683376b6302b2c2aab33f3a96"),
        ("f2", 4,
         "bce3b1be781cae4701df5fdeb7b46772b4522d2f8958d480418d55dac9ca58cd",
         "768d72aa233cc1d28a8dd1858c41d339c8f46f127075e26518f0ec145008ee80"),
        # free:<rank> names the same group as f<rank>
        ("free:2", 4,
         "bce3b1be781cae4701df5fdeb7b46772b4522d2f8958d480418d55dac9ca58cd",
         "768d72aa233cc1d28a8dd1858c41d339c8f46f127075e26518f0ec145008ee80"),
    ])
    def test_fractal_bytes_pinned(self, tmp_path, capsys, group, radius,
                                  stdout_sha, snapshot_sha):
        # also pinned in CI
        code = run(["build", "--group", group, "--landscape", "fractal",
                    "--radius", radius, "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == stdout_sha
        data = (tmp_path / "snapshot.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == snapshot_sha

    @pytest.mark.parametrize("group, landscape, radius, message", [
        ("z", "river", 4, "the river landscape needs a free group f2+"),
        ("f1", "river", 4, "the river landscape needs a free group f2+"),
        ("f2", "ternary", 4, "the ternary landscape lives on z"),
        ("free:2", "wat", 4, "unknown landscape 'wat'"),
        ("z", "fractal", 2, "radius too small for the fractal landscape; "
                            "minimal radius is 3"),
        ("f2", "fractal", 2, "radius too small for the fractal landscape; "
                             "minimal radius is 3"),
    ])
    def test_landscape_mismatch_is_input_error(self, tmp_path, capsys, group,
                                               landscape, radius, message):
        out = tmp_path / "out"
        code = run(["build", "--group", group, "--landscape", landscape,
                    "--radius", radius, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_budget_exhausted(self, tmp_path):
        code = run(["build", "--group", "f2", "--radius", 10,
                    "--budget-vertices", 100, "--out", tmp_path])
        assert code == 3


class TestAmenability:
    def test_within_bounds(self, tmp_path, capsys):
        code = run(["amenability", "--group", "f2", "--radius", 5,
                    "--m-values", "2,4", "--out", tmp_path])
        assert code == 0
        with open(tmp_path / "defects.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["vertex", "generator", "m", "defect", "bound"]
        assert len(rows) > 1
        ms = {r[2] for r in rows[1:]}
        assert ms == {"2", "4"}

    def test_empty_m_list(self, tmp_path):
        code = run(["amenability", "--group", "f2", "--radius", 4,
                    "--out", tmp_path])
        assert code == 0
        with open(tmp_path / "defects.csv") as fh:
            assert len(list(csv.reader(fh))) == 1

    @pytest.mark.parametrize("option,value", [
        ("--m-values", "0,2"), ("--m-values", "-1"),
    ])
    def test_m_below_one_rejected_up_front(self, tmp_path, capsys, option,
                                           value):
        out = tmp_path / "out"
        code = run(["amenability", "--group", "f2", "--radius", 4,
                    option, value, "--out", out])
        assert code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not (out / "defects.csv").exists()

    def test_m_value_not_an_integer_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["amenability", "--group", "f2", "--radius", 4,
                    "--m-values", "5,x", "--out", out])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: --m-values: 'x' is not an integer\n"
        assert not (out / "defects.csv").exists()

    def test_defects_bytes_pinned(self, tmp_path, capsys):
        # pinned against the word-level table, so a fast path that
        # changes a single row fails
        code = run(["amenability", "--group", "f2", "--radius", 7,
                    "--m-values", "5,10,20", "--out", tmp_path])
        assert code == 0
        assert capsys.readouterr().out == \
            "defect rows: 17484; bound violations: 0\n"
        data = (tmp_path / "defects.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            "ea044de987f05cdb2961d85e9664a5471ac073afe0ad25e75b8055e1e7a07c9f"

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_boundaries_keep_the_bytes(self, tmp_path, capsys,
                                             monkeypatch, block):
        # blocks of one vertex and blocks that end inside a sphere
        monkeypatch.setattr(witness, "DEFECT_BLOCK", block)
        code = run(["amenability", "--group", "f2", "--radius", 7,
                    "--m-values", "5,10,20", "--out", tmp_path])
        assert code == 0
        assert capsys.readouterr().out == \
            "defect rows: 17484; bound violations: 0\n"
        data = (tmp_path / "defects.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            "ea044de987f05cdb2961d85e9664a5471ac073afe0ad25e75b8055e1e7a07c9f"

    def test_b9_defects_bytes_pinned(self, tmp_path, capsys):
        # the benchmark's table, also pinned in CI
        code = run(["amenability", "--group", "f2", "--radius", 9,
                    "--m-values", "5,10,20", "--out", tmp_path])
        assert code == 0
        assert capsys.readouterr().out == \
            "defect rows: 157452; bound violations: 0\n"
        data = (tmp_path / "defects.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            "96510b27afe7a1b850e0dbb32d2a4bda23cf3c67b7d2cc1bcb74c2eaec517409"


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    code = run(["build", "--group", "f2", "--landscape", "river",
                "--radius", 8, "--out", out])
    assert code == 0
    code = run(["paradoxicalize", "--group", "f2", "--landscape", "river",
                "--radius", 8, "--target-heights", "1", "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def bundle12_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle12")
    code = run(["paradoxicalize", "--group", "f2", "--radius", 6,
                "--target-heights", "1;2", "--out", out])
    assert code == 0
    return out


class TestParadoxicalize:
    def test_bundle_written(self, bundle_dir):
        doc = load_json(bundle_dir / "certificates.json")
        assert doc["schema"] == "riverscape.bundle/2"
        assert "finalSnapshot" not in doc
        assert len(doc["certificates"]) == 1
        assert doc["certificates"][0]["verification"]["pass"]
        assert doc["halted"] is None

    def test_no_targets_is_input_error(self, tmp_path, capsys):
        assert run(["paradoxicalize", "--group", "f2", "--radius", 6,
                    "--out", tmp_path]) == 2

    def test_target_height_not_an_integer_names_the_flag(self, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        assert run(["paradoxicalize", "--group", "f2", "--radius", 6,
                    "--target-heights", "1;x", "--out", out]) == 2
        assert capsys.readouterr().err == \
            "error: --target-heights: 'x' is not an integer\n"
        assert not (out / "certificates.json").exists()

    def test_targets_file(self, tmp_path, bundle_dir):
        doc = load_json(bundle_dir / "certificates.json")
        target = doc["certificates"][0]["target"]
        targets_file = tmp_path / "targets.json"
        targets_file.write_text(json.dumps([target]))
        code = run(["paradoxicalize", "--group", "f2", "--radius", 8,
                    "--targets", targets_file, "--out", tmp_path])
        assert code == 0

    @pytest.mark.parametrize("edit,message", [
        (lambda target: [5], "local set must be an object, not int"),
        (lambda target: [{**target, "patterns": 5}],
         "target field 'patterns' must be an array, not int"),
        (lambda target: [{**target, "patterns": [5]}],
         "target field 'patterns': entry 0 is int, not a string"),
        (lambda target: target, "targets file must be an array, not dict"),
        (lambda target: [{**target, "patterns": ["zzz"]}],
         "target field 'patterns': pattern 'zzz' is not of the form "
         "'m|prefixLen|bits:height;...'"),
        (lambda target: [{**target, "patterns": ["1|x|0:1"]}],
         "target field 'patterns': pattern '1|x|0:1' is not of the form "
         "'m|prefixLen|bits:height;...'"),
    ], ids=["number", "patterns-number", "pattern-number", "one-target",
            "pattern-no-fields", "pattern-prefix-not-int"])
    def test_malformed_targets_are_input_errors(self, tmp_path, bundle_dir,
                                                capsys, edit, message):
        # the first three used to crash with a traceback; the last two
        # named neither the field nor the pattern
        doc = load_json(bundle_dir / "certificates.json")
        target = doc["certificates"][0]["target"]
        targets_file = tmp_path / "targets.json"
        targets_file.write_text(json.dumps(edit(target)))
        code = run(["paradoxicalize", "--group", "f2", "--radius", 8,
                    "--targets", targets_file, "--out", tmp_path / "out"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("radius,heights,channels", [
        (9, "1;2;3", [3, 4, 5]),
        (10, ",".join(map(str, range(1, 12))), [3]),
    ], ids=["sparse-b9", "dense-b10"])
    def test_channels_hold_binary_piece_codes(self, tmp_path, radius,
                                              heights, channels):
        # each certificate burns (p + q).bit_length() consecutive even
        # channels, from 2 and then from just above the last one
        code = run(["paradoxicalize", "--group", "f2", "--radius", radius,
                    "--target-heights", heights, "--out", tmp_path])
        assert code == 0
        doc = load_json(tmp_path / "certificates.json")
        start = 2
        for cert, n in zip(doc["certificates"], channels, strict=True):
            assert (cert["p"] + cert["q"]).bit_length() == n
            assert cert["channelPositions"] == list(range(start,
                                                          start + 2 * n, 2))
            assert cert["prefixLen"] == cert["channelPositions"][-1]
            start += 2 * n

    def test_channels_clear_a_long_target_prefix(self, tmp_path, capsys):
        # a target that reads 30 label bits at radius 1: channels written
        # inside those bits would change the patterns that define it
        win = ball(F2, 6)
        target = center_height_local_set(
            ChannelLandscape(RiverLandscape(F2), win), win, 1, {1},
            prefix_len=30)
        assert len(target.patterns) == 5
        targets_file = tmp_path / "targets.json"
        targets_file.write_text(json.dumps([target.to_dict()]))
        code = run(["paradoxicalize", "--group", "f2", "--radius", 6,
                    "--targets", targets_file, "--out", tmp_path])
        assert code == 0
        assert "certificate 0: pass" in capsys.readouterr().out
        cert = load_json(tmp_path / "certificates.json")["certificates"][0]
        assert min(cert["channelPositions"]) > 30
        assert run(["check",
                    "--snapshot", tmp_path / "final_snapshot.json",
                    "--certificate", tmp_path / "certificates.json"]) == 0


@pytest.fixture(scope="module")
def bundle3_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle3")
    code = run(["paradoxicalize", "--group", "f2", "--radius", 7,
                "--target-heights", "1;2;3", "--out", out])
    assert code == 0
    return out


def pipeline_digests(out):
    """The sha256 of a pipeline's two files, and of the
    ``riverscape.bundle/1`` file the pair converts to (``bundle1.json``),
    whose digests were pinned before the bundle stopped embedding the
    final snapshot."""
    dump_json(bundle_v1(load_json(out / "certificates.json"),
                        load_json(out / "final_snapshot.json")),
              out / "bundle1.json")
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("certificates.json", "final_snapshot.json",
                     "bundle1.json")
    }


class TestArtifactBytes:
    def test_paradoxicalize_bytes_pinned(self, tmp_path):
        # pinned so that a change which alters the bytes deterministically
        # still fails; rerun determinism alone would not catch it
        code = run(["paradoxicalize", "--group", "f2", "--radius", 8,
                    "--target-heights", "1;2", "--out", tmp_path])
        assert code == 0
        assert pipeline_digests(tmp_path) == {
            "certificates.json": "fa0c94855d3433295b56a9b977b4fc45"
                                 "b5a61f5853225ac012dfd44fe1825925",
            "final_snapshot.json": "8b4836aff5d6a704baa8d49401a1fffa"
                                   "cb89a565a397c09c524394306b9ec8f3",
            "bundle1.json": "03edcef09b1e0453228f42925699562e"
                            "fec71a394369c68741639dfb41df3bec",
        }

    def test_dense_b11_pipeline_bytes_pinned(self, tmp_path, capsys):
        # every core vertex of B_11 as one target, heights 1..12: the
        # largest pipeline the colour blocks and the matching run on
        code = run(["paradoxicalize", "--group", "f2", "--radius", 11,
                    "--target-heights", ",".join(map(str, range(1, 13))),
                    "--out", tmp_path])
        assert code == 0
        assert "certificate 0: pass" in capsys.readouterr().out
        assert pipeline_digests(tmp_path) == {
            "certificates.json": "7cccf70c3e1f10952ce150b29a146db0"
                                 "77192286561bca36bf3ba9f2a0a0c08d",
            "final_snapshot.json": "e6b262e606cf7f768b512c0c32c8635e"
                                   "5771cfaf24f0676ac52dc2a7e700a76a",
            "bundle1.json": "31bf754151e7b5650401d551b3a88381"
                            "b4a6f08312d3b32acc8d2c159b17db4b",
        }

    def test_rank3_pipeline_bytes_pinned(self, tmp_path):
        # the one degree-6 run of matching, pieces and checker; a raised
        # height fails the check and a string height is an input error
        code = run(["paradoxicalize", "--group", "f3", "--radius", 7,
                    "--target-heights", "1,2,3,4,5,6,7,8", "--out",
                    tmp_path])
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest()
                   for name in ("certificates.json", "final_snapshot.json")}
        assert digests == {
            "certificates.json": "6e6cc6048d4a1113e4165d200615f143"
                                 "24d7f2b778f3fc871c577c9ffb066cda",
            "final_snapshot.json": "894bde58e4d4e1f892c972377ff51357"
                                   "13810765dc6767579a149abb3157b5e1",
        }
        cert = tmp_path / "certificates.json"
        assert run(["check", "--snapshot", tmp_path / "final_snapshot.json",
                    "--certificate", cert]) == 0
        snap = load_json(tmp_path / "final_snapshot.json")
        snap["heights"][0] += 1
        dump_json(snap, tmp_path / "raised.json")
        assert run(["check", "--snapshot", tmp_path / "raised.json",
                    "--certificate", cert]) == 1
        snap["heights"][0] = str(snap["heights"][0] - 1)
        dump_json(snap, tmp_path / "string.json")
        assert run(["check", "--snapshot", tmp_path / "string.json",
                    "--certificate", cert]) == 2

    @pytest.mark.parametrize("group,landscape,radius,digest", [
        ("z", "ternary", 20000,
         "a1b5cf63f89c8933723aa2fbfda5384eb4bd8bc53358f210296168a602aaf368"),
        ("f2", "river", 6,
         "75a1d7ef9781fa68fee0f5e6a3a467f57c3aabca3a9adda3a8db1ee0491da18c"),
    ])
    def test_build_snapshot_bytes_pinned(self, tmp_path, group, landscape,
                                         radius, digest):
        code = run(["build", "--group", group, "--landscape", landscape,
                    "--radius", radius, "--out", tmp_path])
        assert code == 0
        data = (tmp_path / "snapshot.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestCheck:
    def test_snapshot_loaded_once_per_bundle(self, bundle3_dir, tmp_path,
                                             capsys, monkeypatch):
        doc = load_json(bundle3_dir / "certificates.json")
        assert len(doc["certificates"]) == 3
        doc["certificates"][1]["translators"][0] = [1, 2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        calls = []
        real_ball = checking.ball

        def counting_ball(*args, **kwargs):
            calls.append(args)
            return real_ball(*args, **kwargs)

        monkeypatch.setattr(checking, "ball", counting_ball)
        code = run(["check",
                    "--snapshot", bundle3_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        verdicts = [line for line in lines if line.startswith("certificate")]
        assert verdicts == ["certificate 0: pass", "certificate 1: FAIL",
                            "certificate 2: pass"]
        assert len(calls) == 1

    def test_bundle_passes(self, bundle_dir, capsys):
        code = run([
            "check",
            "--snapshot", bundle_dir / "final_snapshot.json",
            "--certificate", bundle_dir / "certificates.json",
        ])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_tampered_translator_fails(self, bundle_dir, tmp_path, capsys):
        doc = load_json(bundle_dir / "certificates.json")
        # a wrong translator within the displacement bound (3)
        doc["certificates"][0]["translators"][0] = [1, 2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 1
        assert "clause" in capsys.readouterr().out

    def test_window_mismatch(self, bundle_dir, tmp_path):
        other = tmp_path / "other"
        assert run(["build", "--group", "f2", "--landscape", "river",
                    "--radius", 5, "--out", other]) == 0
        code = run(["check",
                    "--snapshot", other / "snapshot.json",
                    "--certificate", bundle_dir / "certificates.json"])
        assert code == 2

    @pytest.mark.parametrize("field,edit", [
        ("heights", lambda doc: doc["heights"].pop()),
        ("labels", lambda doc: doc["labels"].pop()),
        ("labels", lambda doc: doc["labels"].__setitem__(
            7, doc["labels"][7][:-1])),
        ("labels", lambda doc: doc.pop("labels")),
        ("labelPrefixLen", lambda doc: doc.pop("labelPrefixLen")),
    ], ids=["short-heights", "short-labels", "short-label",
            "missing-labels", "missing-prefix-len"])
    def test_malformed_snapshot_is_input_error(self, bundle_dir, tmp_path,
                                               capsys, field, edit):
        doc = load_json(bundle_dir / "final_snapshot.json")
        edit(doc)
        bad = tmp_path / "bad_snapshot.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--snapshot", bad,
                    "--certificate", bundle_dir / "certificates.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot") and repr(field) in err

    def test_missing_certificate_field_is_input_error(self, bundle_dir,
                                                      tmp_path, capsys):
        doc = load_json(bundle_dir / "certificates.json")
        del doc["certificates"][0]["target"]["patterns"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        assert "missing the field 'patterns'" in capsys.readouterr().err

    def test_certificate_of_the_wrong_type_is_input_error(
            self, bundle_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "riverscape.bundle/2",
                                   "certificates": [1]}))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: certificate 0: certificate must be an object, not " \
            "int\n"

    def test_window_ref_of_the_wrong_type_is_input_error(
            self, bundle_dir, tmp_path, capsys):
        doc = load_json(bundle_dir / "final_snapshot.json")
        doc["windowRef"] = [doc["windowRef"]]
        bad = tmp_path / "bad_snapshot.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--snapshot", bad,
                    "--certificate", bundle_dir / "certificates.json"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: snapshot field 'windowRef' must be an object, not list\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.__setitem__("heights",
                                     list(map(str, doc["heights"]))),
         "'heights': height 0 is str, not an integer"),
        (lambda doc: doc.__setitem__("heights",
                                     list(map(float, doc["heights"]))),
         "'heights': height 0 is float, not an integer"),
        (lambda doc: doc["heights"].__setitem__(5, None),
         "'heights': height 5 is NoneType, not an integer"),
        (lambda doc: doc["heights"].__setitem__(6, True),
         "'heights': height 6 is bool, not an integer"),
        (lambda doc: doc.__setitem__("labels",
                                     list(map(list, doc["labels"]))),
         "'labels': label 0 is list, not a string"),
        (lambda doc: doc["labels"].__setitem__(9, "2" * 6),
         f"'labels': label 9 is {'2' * 6!r}, not a string of 0s and 1s"),
    ], ids=["string-heights", "float-heights", "null-height", "bool-height",
            "array-labels", "ternary-label"])
    def test_wrong_typed_rows_are_input_errors(self, bundle_dir, tmp_path,
                                               capsys, edit, message):
        # such rows used to pass (string or float heights), or to fail as
        # a verification failure (a null height) or a traceback (arrays)
        doc = load_json(bundle_dir / "final_snapshot.json")
        assert doc["labelPrefixLen"] == 6
        edit(doc)
        bad = tmp_path / "bad_snapshot.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--snapshot", bad,
                    "--certificate", bundle_dir / "certificates.json"])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: snapshot field {message}\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.__setitem__("certificates", 5),
         "bundle field 'certificates' must be an array, not int"),
        (lambda doc: doc["certificates"][0].__setitem__("target", [1]),
         "certificate 0: certificate field 'target' must be an object, "
         "not list"),
        (lambda doc: doc["certificates"][0]["target"].__setitem__(
            "patterns", "1|1|0:1"),
         "certificate 0: target field 'patterns' must be an array, not "
         "str"),
        (lambda doc: doc["certificates"][0]["target"]["patterns"].insert(
            0, [1]),
         "certificate 0: target field 'patterns': entry 0 is list, not a "
         "string"),
        (lambda doc: doc["certificates"][0]["pieces"][1].insert(0, 7),
         "certificate 0: certificate field 'pieces': piece 1: entry 0 is "
         "int, not a string"),
        (lambda doc: doc["certificates"][0]["pieces"][1].insert(
            0, "1|1|0:1;"),
         "certificate 0: certificate field 'pieces': piece 1: pattern "
         "'1|1|0:1;' is not of the form 'm|prefixLen|bits:height;...'"),
        (lambda doc: doc["certificates"][0].__setitem__("translators", 5),
         "certificate 0: certificate field 'translators' must be an "
         "array, not int"),
        (lambda doc: doc["certificates"][0]["translators"].__setitem__(1, 7),
         "certificate 0: certificate field 'translators': translator 1 "
         "must be an array, not int"),
        (lambda doc: doc["certificates"][0]["translators"].__setitem__(
            0, ["1"]),
         "certificate 0: certificate field 'translators': translator 0: "
         "entry 0 must be an integer, not str"),
        (lambda doc: doc["certificates"][0]["translators"].__setitem__(
            0, [True]),
         "certificate 0: certificate field 'translators': translator 0: "
         "entry 0 must be an integer, not bool"),
    ], ids=["certificates-number", "target-array", "patterns-string",
            "pattern-array", "piece-number", "piece-empty-entry",
            "translators-number",
            "translator-number", "string-letter", "bool-letter"])
    def test_malformed_bundle_is_input_error(self, bundle_dir, tmp_path,
                                             capsys, edit, message):
        # malformed translators used to raise a TypeError, or to be read
        # as letter 1 ("1" and true) and fail verification
        doc = load_json(bundle_dir / "certificates.json")
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edit", [
        lambda cert: ("target field 'patterns'", cert["target"]["patterns"],
                      "1|1|2:1;x:2;0:2;0:2;0:2",
                      "has label '2', not a string of prefixLen = 1 0s and "
                      "1s"),
        lambda cert: ("certificate field 'pieces': piece 0",
                      cert["pieces"][0],
                      cert["pieces"][0][0].replace("|6|", "|7|"),
                      "has label '110000', not a string of prefixLen = 7 "
                      "0s and 1s"),
        lambda cert: ("certificate field 'pieces': piece 0",
                      cert["pieces"][0],
                      cert["pieces"][0][0].replace("2|6|", "3|6|"),
                      "has radius 3 and prefix length 6, not its scan's "
                      "2 and 6"),
        lambda cert: ("target field 'patterns'", cert["target"]["patterns"],
                      "1|1|0:1;0:2", "has 2 entries, not |B_1| = 5"),
        lambda cert: ("certificate field 'pieces': piece 0",
                      cert["pieces"][0],
                      cert["pieces"][0][0].rsplit(";", 1)[0],
                      "has 16 entries, not |B_2| = 17"),
    ], ids=["target-bits", "piece-prefix", "piece-radius",
            "target-entries", "piece-entries"])
    def test_pattern_no_scan_produces_is_input_error(
            self, bundle12_dir, tmp_path, capsys, edit):
        # each such pattern used to be read and to match no vertex, so
        # the check passed
        doc = load_json(bundle12_dir / "certificates.json")
        cert = doc["certificates"][0]
        assert (cert["l"], cert["prefixLen"]) == (2, 6)
        what, patterns, text, complaint = edit(cert)
        patterns.append(text)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check",
                    "--snapshot", bundle12_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: certificate 0: {what}: pattern {text!r} " \
            f"{complaint}\n"

    def test_core_past_the_target_patterns_is_input_error(self, tmp_path,
                                                          capsys):
        # the true radius-1 patterns of centre height 7, which B_6 holds
        # at |w| = 6 only: the scan cannot read them there, so a core of
        # radius 6 used to pass with T read as empty
        assert run(["paradoxicalize", "--group", "f2", "--radius", 6,
                    "--target-heights", 7, "--out", tmp_path]) == 0
        capsys.readouterr()
        doc = load_json(tmp_path / "certificates.json")
        cert = doc["certificates"][0]
        assert cert["trivial"] and cert["coreRadius"] == 5
        target = center_height_local_set(RiverLandscape(F2), ball(F2, 7), 1,
                                         {7}, prefix_len=1)
        assert len(target.patterns) == 4
        cert["target"] = target.to_dict()
        for core, want in ((6, 2), (5, 0)):
            cert["coreRadius"] = core
            bad = tmp_path / f"core{core}.json"
            bad.write_text(json.dumps(doc))
            assert run(["check",
                        "--snapshot", tmp_path / "final_snapshot.json",
                        "--certificate", bad]) == want
        assert capsys.readouterr().err == (
            "error: certificate 0: certificate field 'coreRadius' is 6, "
            "above R - m = 5, where the target's patterns fit the window\n")

    def test_core_past_the_pieces_reach_is_input_error(self, tmp_path,
                                                       capsys):
        # certificates 1 and 2 of the sparse B_9 bundle have l = 2 and
        # longest translators g of length 2 and 4, so the piece scan
        # reaches the core's translates within R - l - |g| = 5 and 3; in
        # a core one wider it would read the pieces as empty
        assert run(["paradoxicalize", "--group", "f2", "--radius", 9,
                    "--target-heights", "1;2;3", "--out", tmp_path]) == 0
        capsys.readouterr()
        doc = load_json(tmp_path / "certificates.json")
        certs = doc["certificates"]
        assert [c["coreRadius"] for c in certs[1:]] == [5, 3]
        bad = tmp_path / "wide.json"
        # both raised, then certificate 2 alone: check stops at the first
        for cores, (i, core, reach, length) in (((6, 4), (1, 6, 5, 2)),
                                                ((5, 4), (2, 4, 3, 4))):
            certs[1]["coreRadius"], certs[2]["coreRadius"] = cores
            bad.write_text(json.dumps(doc))
            assert run(["check",
                        "--snapshot", tmp_path / "final_snapshot.json",
                        "--certificate", bad]) == 2
            # the certificates before the failing one are reported, and
            # the error names it
            captured = capsys.readouterr()
            assert captured.out == "".join(
                f"certificate {j}: pass\n" for j in range(i))
            assert captured.err == (
                f"error: certificate {i}: certificate field 'coreRadius' "
                f"is {core}, above R - l - |g| = {reach}, |g| = {length} "
                f"the length of its longest translator, where every "
                f"translate's piece point lies in the piece scan's core\n")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["windowRef"].__setitem__("radius", 8.7),
         "'radius' must be an integer, not float"),
        (lambda doc: doc["windowRef"].__setitem__("radius", True),
         "'radius' must be an integer, not bool"),
        (lambda doc: doc.__setitem__("labelPrefixLen", "6"),
         "'labelPrefixLen' must be an integer, not str"),
        (lambda doc: doc["windowRef"]["group"].__setitem__("rank", "2"),
         "'rank' must be an integer, not str"),
        (lambda doc: doc["windowRef"]["group"].__setitem__("rank", 2.0),
         "'rank' must be an integer, not float"),
        (lambda doc: doc["windowRef"]["group"].__setitem__("rank", True),
         "'rank' must be an integer, not bool"),
    ], ids=["float-radius", "bool-radius", "string-prefix-len",
            "string-rank", "float-rank", "bool-rank"])
    def test_snapshot_scalars_are_strict(self, bundle_dir, tmp_path, capsys,
                                         edit, message):
        # such scalars used to be coerced with int(): 8.7 read as 8, and
        # a rank of true built F_1
        doc = load_json(bundle_dir / "final_snapshot.json")
        assert doc["windowRef"]["radius"] == 8
        assert doc["labelPrefixLen"] == 6
        edit(doc)
        bad = tmp_path / "bad_snapshot.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--snapshot", bad,
                    "--certificate", bundle_dir / "certificates.json"])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: snapshot field {message}\n"

    @pytest.mark.parametrize("field,value,message", [
        ("m", 1.0, "certificate field 'm' must be an integer, not float"),
        ("l", "2", "certificate field 'l' must be an integer, not str"),
        ("prefixLen", 6.0,
         "certificate field 'prefixLen' must be an integer, not float"),
        ("p", "1", "certificate field 'p' must be an integer, not str"),
        ("q", 1.0, "certificate field 'q' must be an integer, not float"),
        ("coreRadius", True,
         "certificate field 'coreRadius' must be an integer, not bool"),
        ("windowRef.radius", 8.0,
         "certificate field 'windowRef.radius' must be an integer, "
         "not float"),
        ("displacementBound", "3",
         "certificate field 'displacementBound' must be an integer, "
         "not str"),
        ("channelPositions.0", "15",
         "certificate field 'channelPositions': entry 0 must be an "
         "integer, not str"),
        ("trivial", "false",
         "certificate field 'trivial' must be a boolean, not str"),
        ("trivial", 0,
         "certificate field 'trivial' must be a boolean, not int"),
        ("target.m", "1",
         "local set field 'm' must be an integer, not str"),
        ("target.prefixLen", 1.0,
         "local set field 'prefixLen' must be an integer, not float"),
    ], ids=["float-m", "string-l", "float-prefix-len", "string-p",
            "float-q", "bool-core-radius", "float-window-radius",
            "string-displacement-bound", "string-channel",
            "string-trivial", "int-trivial", "string-target-m",
            "float-target-prefix-len"])
    def test_certificate_scalars_are_strict(self, bundle_dir, tmp_path,
                                            capsys, field, value, message):
        # such scalars used to be coerced: int() read "1" and 1.0 as 1,
        # and bool("false") is True, which emptied the pieces
        doc = load_json(bundle_dir / "certificates.json")
        cert = doc["certificates"][0]
        assert cert["trivial"] is False and cert["channelPositions"]
        parent, _, key = field.rpartition(".")
        if parent == "channelPositions":
            cert[parent][int(key)] = value
        else:
            (cert[parent] if parent else cert)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: certificate 0: {message}\n"

    @pytest.mark.parametrize("field,value,message", [
        ("m", -1, "'m' is -1, but its target's m is 1"),
        ("m", 0, "'m' is 0, but its target's m is 1"),
        ("displacementBound", -1,
         "'displacementBound' is -1, below the length 2 of its longest "
         "translator"),
    ], ids=["negative-m", "zero-m", "negative-displacement-bound"])
    def test_echoed_fields_are_checked(self, bundle_dir, tmp_path, capsys,
                                       field, value, message):
        # the verifier reads neither field, and each of these used to
        # print "certificate 0: pass"
        doc = load_json(bundle_dir / "certificates.json")
        cert = doc["certificates"][0]
        assert cert["m"] == cert["target"]["m"] == 1
        assert max(map(len, cert["translators"])) == 2
        cert[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: certificate 0: certificate field {message}\n"

    @pytest.mark.parametrize("field, value", [
        ("coreRadius", -5), ("prefixLen", -1)])
    def test_negative_certificate_fields_are_input_errors(
            self, bundle_dir, tmp_path, capsys, field, value):
        # a negative core radius used to check clause 3 on an empty core
        # and pass; a negative prefix cut every label to bits[:-1]
        doc = load_json(bundle_dir / "certificates.json")
        doc["certificates"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: certificate 0: certificate field {field!r} must be "
            f">= 0, "
            f"got {value}\n")

    @pytest.mark.parametrize("p, q", [(-3, 10), (10, -3)])
    def test_negative_p_or_q_is_input_error(self, bundle_dir, tmp_path,
                                            capsys, p, q):
        # p + q still counts the translators; a negative p or q would
        # slice them from the end, and p = -3 would pass the check
        doc = load_json(bundle_dir / "certificates.json")
        cert = doc["certificates"][0]
        assert cert["p"] + cert["q"] == p + q
        cert["p"], cert["q"] = p, q
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        name, value = ("p", p) if p < 0 else ("q", q)
        assert capsys.readouterr().err == (
            f"error: certificate 0: certificate field {name!r} must be "
            f">= 0, "
            f"got {value}\n")

    def test_certificate_file_of_the_wrong_type_is_input_error(
            self, bundle_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("5")
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        assert capsys.readouterr().err == ("error: certificate file must "
                                           "be a riverscape.bundle/2 "
                                           "object, not int\n")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc, snap: bundle_v1(doc, snap),
         "unsupported bundle schema: 'riverscape.bundle/1', not "
         "'riverscape.bundle/2'"),
        (lambda doc, snap: {**doc, "schema": "riverscape.bundle/9"},
         "unsupported bundle schema: 'riverscape.bundle/9', not "
         "'riverscape.bundle/2'"),
        (lambda doc, snap: doc["certificates"],
         "certificate file must be a riverscape.bundle/2 object, not list"),
        (lambda doc, snap: doc["certificates"][0],
         "unsupported bundle schema: 'riverscape.certificate/1', not "
         "'riverscape.bundle/2'"),
        (lambda doc, snap: {"schema": doc["schema"]},
         "bundle is missing the field 'certificates'"),
    ], ids=["bundle-1", "bundle-9", "bare-array", "one-certificate",
            "no-certificates"])
    def test_other_certificate_files_are_input_errors(
            self, bundle_dir, tmp_path, capsys, edit, message):
        # each of these used to pass; a /1 bundle embedded its snapshot
        doc = load_json(bundle_dir / "certificates.json")
        snap = load_json(bundle_dir / "final_snapshot.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(doc, snap)))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integers_of_another_rank_are_input_error(self, bundle_dir,
                                                      tmp_path, capsys):
        # a snapshot of Z claiming rank 7 used to load as Z
        assert run(["build", "--group", "z", "--landscape", "ternary",
                    "--radius", 30, "--out", tmp_path]) == 0
        doc = load_json(tmp_path / "snapshot.json")
        doc["windowRef"]["group"]["rank"] = 7
        bad = tmp_path / "bad_snapshot.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--snapshot", bad,
                    "--certificate", bundle_dir / "certificates.json"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: group field 'rank' is 7; the integers have rank 1\n"

    def test_halted_bundle_exits_inconclusive(self, tmp_path, capsys):
        # the ternary landscape on B_60(Z) stops at its first target
        code = run(["paradoxicalize", "--group", "z", "--landscape",
                    "ternary", "--radius", 60, "--target-heights", "1,2,3",
                    "--out", tmp_path])
        assert code == 3
        halted = capsys.readouterr().out.splitlines()[-1]
        assert halted.startswith("halted: matching inconclusive")
        code = run(["check",
                    "--snapshot", tmp_path / "final_snapshot.json",
                    "--certificate", tmp_path / "certificates.json"])
        assert code == 3
        assert capsys.readouterr().out == f"{halted}\n"

    @pytest.mark.parametrize("value", [5, True, ["stop"], {}])
    def test_halted_of_the_wrong_type_is_input_error(
            self, bundle_dir, tmp_path, capsys, value):
        doc = load_json(bundle_dir / "certificates.json")
        doc["halted"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bundle field 'halted' must be a string or null, "
            f"not {type(value).__name__}\n")

    def test_missing_file(self, bundle_dir):
        assert run(["check", "--snapshot", "/nonexistent.json",
                    "--certificate",
                    bundle_dir / "certificates.json"]) == 2


class TestInputErrors:
    """Exit 2 is kept for input errors, raised as ``InputError`` by the
    parsers; any other exception is a bug and propagates."""

    def test_negative_radius(self, tmp_path, capsys):
        assert run(["build", "--group", "z", "--landscape", "ternary",
                    "--radius", -1, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == \
            "error: radius must be non-negative\n"

    @pytest.mark.parametrize("group", ["f0", "free:0"])
    def test_free_group_of_rank_zero(self, tmp_path, capsys, group):
        assert run(["build", "--group", group, "--radius", 3,
                    "--out", tmp_path]) == 2
        assert "unknown group" in capsys.readouterr().err

    def test_a_bug_is_not_an_input_error(self, tmp_path, monkeypatch):
        from riverscape import landscapes

        def broken(z, window):
            raise ValueError("slice of the wrong length")

        monkeypatch.setattr(landscapes, "verify_axioms", broken)
        with pytest.raises(ValueError, match="wrong length"):
            run(["build", "--group", "z", "--landscape", "ternary",
                 "--radius", 30, "--out", tmp_path])

    @pytest.mark.parametrize("parser", [
        (LocalSetSpec, "from_dict"), (GroupSpec, "from_dict")],
        ids=["local-set", "group"])
    def test_a_parsers_key_error_is_not_a_missing_field(
            self, bundle_dir, monkeypatch, parser):
        # the certificate and snapshot parsers name a missing field only
        # for their own reads, not for a KeyError of a parser they call
        def broken(obj):
            raise KeyError("bug")

        monkeypatch.setattr(*parser, staticmethod(broken))
        with pytest.raises(KeyError, match="bug"):
            run(["check", "--snapshot", bundle_dir / "final_snapshot.json",
                 "--certificate", bundle_dir / "certificates.json"])

    def test_snapshot_group_without_kind(self, bundle_dir, tmp_path,
                                         capsys):
        doc = load_json(bundle_dir / "final_snapshot.json")
        del doc["windowRef"]["group"]["kind"]
        bad = tmp_path / "bad_snapshot.json"
        bad.write_text(json.dumps(doc))
        assert run(["check", "--snapshot", bad,
                    "--certificate", bundle_dir / "certificates.json"]) == 2
        assert capsys.readouterr().err == \
            "error: snapshot is missing the field 'kind'\n"

    def test_file_that_is_not_json(self, bundle_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["check", "--snapshot", bad,
                    "--certificate", bundle_dir / "certificates.json"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: not a JSON file: ")

    @pytest.mark.parametrize("field,value,message", [
        ("translators.0", [5], "letter 5 out of range for rank-2 group"),
        ("l", 9, "certificate piece radius 9 is not in 1 .. 8, the "
                 "snapshot window's radius"),
        ("prefixLen", 100, "certificate piece prefix length 100 is not in "
                           "0 .. 6, the snapshot's label prefix length"),
        ("target.m", 0, "local set field 'm' must be >= 1, got 0"),
    ], ids=["letter", "piece-radius", "piece-prefix", "target-m"])
    def test_certificate_that_does_not_fit(self, bundle_dir, tmp_path,
                                           capsys, field, value, message):
        doc = load_json(bundle_dir / "certificates.json")
        cert = doc["certificates"][0]
        parent, _, key = field.rpartition(".")
        if parent == "translators":
            cert[parent][int(key)] = value
        else:
            (cert[parent] if parent else cert)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["check",
                    "--snapshot", bundle_dir / "final_snapshot.json",
                    "--certificate", bad]) == 2
        assert capsys.readouterr().err == \
            f"error: certificate 0: {message}\n"

    def test_target_wider_than_the_window(self, tmp_path, capsys):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([{
            "schema": "riverscape.localset/1", "m": 5, "prefixLen": 1,
            "patterns": []}]))
        assert run(["paradoxicalize", "--group", "f2", "--radius", 4,
                    "--targets", targets, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == \
            "error: target 0: m = 5 exceeds the window radius 4\n"

    def test_target_heights_on_a_point(self, tmp_path, capsys):
        assert run(["paradoxicalize", "--group", "z", "--landscape",
                    "ternary", "--radius", 0, "--target-heights", "1",
                    "--out", tmp_path]) == 2
        assert "window radius must be >= 1" in capsys.readouterr().err
