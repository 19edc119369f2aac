"""Book embeddings of k-trees: generators, validators, exact solver, heuristics."""

from .constructions import (
    QArtifacts,
    build_q,
    complete_bipartite,
    complete_split,
    dujwoo_gadget,
    path_power,
    random_ktree,
)
from .embedding import (
    BookEmbedding,
    ValidationResult,
    crosses,
    crossing_clique_lower_bound,
    density_lower_bound,
    validate_embedding,
)
from .errors import (
    BookEmbedError,
    InvalidCertificate,
    InvalidInput,
    InvalidOrder,
    InvalidSize,
    NotAClique,
    SizeTooSmall,
)
from .graph import (
    Graph,
    KTreeCertificate,
    add_simplicial,
    complete_graph,
    is_k_tree,
    ktree_edge_count,
)
from .heuristics import embed_ktree, first_fit_pages
from .solver import (
    SolverOptions,
    SolverReport,
    SolverStatus,
    book_thickness_exact,
    is_outerplanar,
    min_pages_for_order,
)
from .treedec import (
    DecompositionReport,
    TreeDecomposition,
    decomposition_from_certificate,
    validate_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "BookEmbedError",
    "BookEmbedding",
    "DecompositionReport",
    "Graph",
    "InvalidCertificate",
    "InvalidInput",
    "InvalidOrder",
    "InvalidSize",
    "KTreeCertificate",
    "NotAClique",
    "QArtifacts",
    "SizeTooSmall",
    "SolverOptions",
    "SolverReport",
    "SolverStatus",
    "TreeDecomposition",
    "ValidationResult",
    "add_simplicial",
    "book_thickness_exact",
    "build_q",
    "complete_bipartite",
    "complete_graph",
    "complete_split",
    "crosses",
    "crossing_clique_lower_bound",
    "decomposition_from_certificate",
    "density_lower_bound",
    "dujwoo_gadget",
    "embed_ktree",
    "first_fit_pages",
    "is_k_tree",
    "is_outerplanar",
    "ktree_edge_count",
    "min_pages_for_order",
    "path_power",
    "random_ktree",
    "validate_decomposition",
    "validate_embedding",
]
