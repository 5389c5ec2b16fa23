import csv
import hashlib
import json

import pytest

from riverscape import (ChannelLandscape, FreeGroup, RiverLandscape, ball,
                        checking)
from riverscape.cli import main
from riverscape.patterns import center_height_local_set
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
        ("--m-values", "0,2"), ("--m-values", "-1"), ("--m-max", "0"),
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


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    code = run(["build", "--group", "f2", "--landscape", "river",
                "--radius", 8, "--label-prefix", 40, "--out", out])
    assert code == 0
    code = run(["paradoxicalize", "--group", "f2", "--landscape", "river",
                "--radius", 8, "--target-heights", "1", "--out", out])
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
            "certificates.json": "fcc2f761055744164494eda88116ea3b"
                                 "d59521376e9d83fbab5775b86927994b",
            "final_snapshot.json": "dd6c5a1aedc38a6ba3d8b13a3b665aff"
                                   "c3c65f0c4c6cdf5e68d5488022d15838",
            "bundle1.json": "c6c09b0b906ced4a1a9542572b039e37"
                            "07ad2d8bf8205066bcf189550bdd0e1d",
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
            "certificates.json": "9efcf3bf48a12d87f2bb7ce31a0a8e96"
                                 "2545c84c3c3860e5314f395595cafb9f",
            "final_snapshot.json": "580527066d7091aadadb3af4d2ae8533"
                                   "2d4c0c5c00a3c6295bc8e019719e01e7",
            "bundle1.json": "58640dae577372279aae5faa9976834f"
                            "7446165e878705d3e13b0cfb41c011f9",
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
            "certificates.json": "67cb5ff91de223041d18a81f9d93a5ee"
                                 "4c86bf2c29884f5ad755828b19d11e6a",
            "final_snapshot.json": "a1d26c7aa82ba95ec2168b1b284a21ec"
                                   "59e4ee682edf34a8f38f83203dcbd0b5",
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
        doc["certificates"][1]["translators"][0] = [1, 2, 1, 2]
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
        doc["certificates"][0]["translators"][0] = [1, 2, 1, 2]
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
            "error: certificate must be an object, not int\n"

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
        (lambda doc: doc["labels"].__setitem__(9, "2" * 14),
         f"'labels': label 9 is {'2' * 14!r}, not a string of 0s and 1s"),
    ], ids=["string-heights", "float-heights", "null-height", "bool-height",
            "array-labels", "ternary-label"])
    def test_wrong_typed_rows_are_input_errors(self, bundle_dir, tmp_path,
                                               capsys, edit, message):
        # such rows used to pass (string or float heights), or to fail as
        # a verification failure (a null height) or a traceback (arrays)
        doc = load_json(bundle_dir / "final_snapshot.json")
        assert doc["labelPrefixLen"] == 14
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
         "certificate field 'target' must be an object, not list"),
        (lambda doc: doc["certificates"][0]["target"].__setitem__(
            "patterns", "1|1|0:1"),
         "target field 'patterns' must be an array, not str"),
        (lambda doc: doc["certificates"][0]["target"]["patterns"].insert(
            0, [1]),
         "target field 'patterns': entry 0 is list, not a string"),
        (lambda doc: doc["certificates"][0]["pieces"][1].insert(0, 7),
         "certificate field 'pieces': piece 1: entry 0 is int, not a "
         "string"),
        (lambda doc: doc["certificates"][0]["pieces"][1].insert(
            0, "1|1|0:1;"),
         "certificate field 'pieces': piece 1: pattern '1|1|0:1;' is not of "
         "the form 'm|prefixLen|bits:height;...'"),
        (lambda doc: doc["certificates"][0].__setitem__("translators", 5),
         "certificate field 'translators' must be an array, not int"),
        (lambda doc: doc["certificates"][0]["translators"].__setitem__(1, 7),
         "certificate field 'translators': translator 1 must be an array, "
         "not int"),
        (lambda doc: doc["certificates"][0]["translators"].__setitem__(
            0, ["1"]),
         "certificate field 'translators': translator 0: entry 0 must be "
         "an integer, not str"),
        (lambda doc: doc["certificates"][0]["translators"].__setitem__(
            0, [True]),
         "certificate field 'translators': translator 0: entry 0 must be "
         "an integer, not bool"),
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

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["windowRef"].__setitem__("radius", 8.7),
         "'radius' must be an integer, not float"),
        (lambda doc: doc["windowRef"].__setitem__("radius", True),
         "'radius' must be an integer, not bool"),
        (lambda doc: doc.__setitem__("labelPrefixLen", "14"),
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
        assert doc["labelPrefixLen"] == 14
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
        ("prefixLen", 14.0,
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
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_missing_file(self, bundle_dir):
        assert run(["check", "--snapshot", "/nonexistent.json",
                    "--certificate",
                    bundle_dir / "certificates.json"]) == 2
