"""Window-scale landscapes on Cayley graphs: proper Cantor labelings,
height functions with certified axioms, witness maps with defect bounds,
local sets, and matching-based doubling certificates.

The public names are resolved lazily (PEP 562): ``import riverscape``
loads no submodule, and the first use of a name such as
``riverscape.ball`` imports the one module that defines it, then keeps
the name in this module's globals.  ``from riverscape import X`` and
``from riverscape import *`` work as with eager imports.  The command
line relies on this: ``import riverscape.cli`` loads only the CLI, and
each command imports the modules it runs.
"""

from importlib import import_module

# public name -> the submodule that defines it
_NAMES = {
    name: module
    for module, names in (
        ("checking", (
            "CertificateReport", "ClauseResult", "DoublingCertificate",
            "Snapshot", "certificate_from_dict", "check_certificate_dict",
            "load_snapshot", "verify_certificate")),
        ("groups", (
            "BudgetExceededError", "FreeGroup", "GroupSpec", "IntegerGroup",
            "Window", "ball")),
        ("labels", (
            "GreedyColoring", "ProperLabelRule", "separation_index")),
        ("landscapes", (
            "AnchorSet", "AxiomReport", "ComponentReport",
            "FractalLandscape", "LandscapeRule", "RiverLandscape",
            "StructureConstants", "TernaryLandscape", "components_leq",
            "double_word", "is_ternary", "ternary_height", "undouble_word",
            "verify_axioms")),
        ("paradox", (
            "ChannelLandscape", "DoublingSearch", "PipelineResult",
            "extract_pieces", "find_doubling", "paradoxicalize_sequence",
            "relabel", "trivial_certificate")),
        ("patterns", (
            "LocalSetSpec", "PatternBall", "center_height_local_set",
            "observed_patterns", "offset_ball", "pattern_scan", "realize",
            "theta")),
        ("snapshots", (
            "bundle_pipeline", "dump_json", "final_snapshot", "load_json",
            "snapshot_landscape")),
        ("witness", (
            "CodeBlock", "CodeBudgetError", "CodeFormatError",
            "block_subset", "decode_witness", "defect", "defect_bound",
            "defect_table", "encode_blocks", "encode_witness", "kappa",
            "parse_code", "reference_radius", "subset_from_index",
            "subset_index", "tree_witness_path", "witness_subset_index",
            "write_defects")),
    )
    for name in names
}

__all__ = sorted(_NAMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _NAMES.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
