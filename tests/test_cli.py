import csv
import hashlib
import json

import pytest

from riverscape import (ChannelLandscape, FreeGroup, RiverLandscape, ball,
                        checking)
from riverscape.cli import main
from riverscape.patterns import center_height_local_set
from riverscape.snapshots import load_json


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
        assert doc["schema"] == "riverscape.bundle/1"
        assert len(doc["certificates"]) == 1
        assert doc["certificates"][0]["verification"]["pass"]
        assert doc["halted"] is None

    def test_no_targets_is_input_error(self, tmp_path, capsys):
        assert run(["paradoxicalize", "--group", "f2", "--radius", 6,
                    "--out", tmp_path]) == 2

    def test_targets_file(self, tmp_path, bundle_dir):
        doc = load_json(bundle_dir / "certificates.json")
        target = doc["certificates"][0]["target"]
        targets_file = tmp_path / "targets.json"
        targets_file.write_text(json.dumps([target]))
        code = run(["paradoxicalize", "--group", "f2", "--radius", 8,
                    "--targets", targets_file, "--out", tmp_path])
        assert code == 0

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


class TestArtifactBytes:
    def test_paradoxicalize_bytes_pinned(self, tmp_path):
        # pinned so that a change which alters the bytes deterministically
        # still fails; rerun determinism alone would not catch it
        code = run(["paradoxicalize", "--group", "f2", "--radius", 8,
                    "--target-heights", "1;2", "--out", tmp_path])
        assert code == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("certificates.json", "final_snapshot.json")
        }
        assert digests == {
            "certificates.json": "c6c09b0b906ced4a1a9542572b039e37"
                                 "07ad2d8bf8205066bcf189550bdd0e1d",
            "final_snapshot.json": "dd6c5a1aedc38a6ba3d8b13a3b665aff"
                                   "c3c65f0c4c6cdf5e68d5488022d15838",
        }

    def test_dense_b11_pipeline_bytes_pinned(self, tmp_path, capsys):
        # every core vertex of B_11 as one target, heights 1..12: the
        # largest pipeline the colour blocks and the matching run on
        code = run(["paradoxicalize", "--group", "f2", "--radius", 11,
                    "--target-heights", ",".join(map(str, range(1, 13))),
                    "--out", tmp_path])
        assert code == 0
        assert "certificate 0: pass" in capsys.readouterr().out
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("certificates.json", "final_snapshot.json")
        }
        assert digests == {
            "certificates.json": "58640dae577372279aae5faa9976834f"
                                 "7446165e878705d3e13b0cfb41c011f9",
            "final_snapshot.json": "580527066d7091aadadb3af4d2ae8533"
                                   "2d4c0c5c00a3c6295bc8e019719e01e7",
        }

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
        bad.write_text("[1]")
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

    def test_missing_file(self, bundle_dir):
        assert run(["check", "--snapshot", "/nonexistent.json",
                    "--certificate",
                    bundle_dir / "certificates.json"]) == 2
