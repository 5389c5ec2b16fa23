"""Window-scale landscapes on Cayley graphs: proper Cantor labelings,
height functions with certified axioms, witness maps with defect bounds,
local sets, and matching-based doubling certificates."""

from .checking import (CertificateReport, ClauseResult, DoublingCertificate,
                       Snapshot, certificate_from_dict,
                       check_certificate_dict, load_snapshot,
                       verify_certificate)
from .groups import (BudgetExceededError, FreeGroup, GroupSpec, IntegerGroup,
                     Window, ball)
from .labels import GreedyColoring, ProperLabelRule, separation_index
from .landscapes import (AnchorSet, AxiomReport, ComponentReport,
                         FractalLandscape, LandscapeRule, RiverLandscape,
                         StructureConstants, TernaryLandscape, components_leq,
                         double_word, is_ternary, ternary_height,
                         undouble_word, verify_axioms)
from .paradox import (ChannelLandscape, DoublingSearch, PipelineResult,
                      extract_pieces, find_doubling, paradoxicalize_sequence,
                      relabel, trivial_certificate)
from .patterns import (LocalSetSpec, PatternBall, center_height_local_set,
                       observed_patterns, offset_ball, pattern_scan, realize,
                       theta)
from .snapshots import (bundle_pipeline, dump_json, final_snapshot,
                        load_json, snapshot_landscape)
from .witness import (CodeBlock, CodeBudgetError, CodeFormatError,
                      block_subset, decode_witness, defect, defect_bound,
                      defect_table, encode_blocks, encode_witness, kappa,
                      parse_code, reference_radius, subset_from_index,
                      subset_index, tree_witness_path, witness_subset_index)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
