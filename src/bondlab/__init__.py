"""bondlab: exact bondage numbers, surface embeddings, and bound verification."""

from .bondage import BondageResult, BPrimeResult, bondage_number, compute_b_prime, hartnell_rall_bound
from .domination import DominationResult, domination_number
from .embedding import (
    ChiSearchResult,
    EmbeddingSummary,
    RotationSystem,
    max_euler_characteristic,
    ringel_chi,
    trace_faces,
)
from .graphs import (
    DegreeStats,
    Graph,
    GraphFormatError,
    degree_stats,
    emit_graph6,
    enumerate_connected_graphs,
    girth,
    make_family,
    parse_graph6,
)
from .harness import VerificationRecord, emit_report, verify_corpus, verify_graph

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphFormatError",
    "DegreeStats",
    "parse_graph6",
    "emit_graph6",
    "make_family",
    "enumerate_connected_graphs",
    "girth",
    "degree_stats",
    "DominationResult",
    "domination_number",
    "BondageResult",
    "BPrimeResult",
    "bondage_number",
    "compute_b_prime",
    "hartnell_rall_bound",
    "RotationSystem",
    "EmbeddingSummary",
    "ChiSearchResult",
    "trace_faces",
    "max_euler_characteristic",
    "ringel_chi",
    "VerificationRecord",
    "verify_graph",
    "verify_corpus",
    "emit_report",
    "__version__",
]
