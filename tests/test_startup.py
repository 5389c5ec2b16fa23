"""The package resolves its public names lazily, and each command line
command loads only the riverscape modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import riverscape

SRC = Path(riverscape.__file__).resolve().parent.parent

PUBLIC = sorted("""
    AnchorSet AxiomReport BudgetExceededError CertificateReport
    ChannelLandscape ClauseResult CodeBlock CodeBudgetError CodeFormatError
    ComponentReport DoublingCertificate DoublingSearch FractalLandscape
    FreeGroup GreedyColoring GroupSpec IntegerGroup LandscapeRule
    LocalSetSpec PatternBall PipelineResult ProperLabelRule RiverLandscape
    Snapshot StructureConstants TernaryLandscape Window ball block_subset
    bundle_pipeline center_height_local_set certificate_from_dict
    check_certificate_dict components_leq decode_witness defect
    defect_bound defect_table double_word dump_json encode_blocks
    encode_witness extract_pieces final_snapshot find_doubling is_ternary
    kappa load_json load_snapshot observed_patterns offset_ball
    paradoxicalize_sequence parse_code pattern_scan realize
    reference_radius relabel separation_index snapshot_landscape
    subset_from_index subset_index ternary_height theta tree_witness_path
    trivial_certificate undouble_word verify_axioms verify_certificate
    witness_subset_index write_defects
""".split())


class TestLazyNames:
    def test_all_is_pinned(self):
        assert len(PUBLIC) == 70
        assert riverscape.__all__ == PUBLIC
        assert riverscape.__version__ == "0.1.0"

    def test_each_name_is_its_defining_modules_object(self):
        for name in PUBLIC:
            obj = getattr(riverscape, name)
            module = sys.modules[obj.__module__]
            assert module.__name__.startswith("riverscape."), name
            assert getattr(module, name) is obj, name
            assert name in dir(riverscape), name

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            riverscape.no_such_name
        with pytest.raises(ImportError):
            from riverscape import no_such_name  # noqa: F401

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from riverscape import *", namespace)
        assert {name: namespace[name] for name in PUBLIC} == \
            {name: getattr(riverscape, name) for name in PUBLIC}


def loaded_modules(code: str, cwd: Path) -> list[str]:
    """The riverscape modules besides the package and the CLI that a
    fresh interpreter holds after running ``code``."""
    probe = code + (
        "\nimport sys\nprint(*sorted(m for m in sys.modules"
        " if m.startswith('riverscape.') and m != 'riverscape.cli'))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                         check=True, capture_output=True, text=True).stdout
    return [m.removeprefix("riverscape.")
            for m in out.splitlines()[-1].split()]


def after_command(*argv: str) -> str:
    return (f"from riverscape import cli\n"
            f"assert cli.main({list(argv)!r}) == 0")


class TestModuleSets:
    def test_import_cli_loads_only_the_cli(self, tmp_path):
        assert loaded_modules("import riverscape.cli", tmp_path) == []

    def test_each_command_loads_its_modules(self, tmp_path):
        base = ["checking", "groups", "patterns"]
        assert loaded_modules(after_command(
            "paradoxicalize", "--group", "f2", "--radius", "4",
            "--target-heights", "1;2"), tmp_path) == sorted(
                base + ["labels", "landscapes", "paradox", "snapshots"])
        assert loaded_modules(after_command(
            "check", "--snapshot", "final_snapshot.json",
            "--certificate", "certificates.json"), tmp_path) == sorted(
                base + ["snapshots"])
        assert loaded_modules(after_command(
            "build", "--group", "f2", "--radius", "3"), tmp_path) == sorted(
                base + ["labels", "landscapes", "snapshots"])
        assert loaded_modules(after_command(
            "amenability", "--group", "f2", "--radius", "3",
            "--m-values", "5"), tmp_path) == sorted(
                base + ["labels", "landscapes", "witness"])
