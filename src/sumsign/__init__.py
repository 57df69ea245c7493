"""Signed graphs from sumset labelings.

Assign non-empty sets of non-negative integers to vertices, label each edge
with the sumset of its endpoints, and sign it by the parity of that label's
size. This package derives such signed graphs, checks balance and
clusterability, validates the arithmetic-progression labeling conditions,
applies label-preserving graph transforms, and exhaustively verifies the
structural claims about these objects at desk scale.
"""

from .balance import (
    Clusterability,
    CycleSignSummary,
    SignedGraph,
    is_balanced_fast,
    is_balanced_oracle,
    is_clusterable,
    negative_edges,
)
from .errors import (
    AdmissibilityViolation,
    BoundExceeded,
    DegreeNotTwo,
    DuplicateLabel,
    EmptyLabel,
    InjectivityCollision,
    MissingLabel,
    NotApLabel,
    NotBipartite,
    ParseError,
    SumsignError,
    UniverseViolation,
    UnknownEdge,
    UnknownTheorem,
    UnknownVertex,
    VertexInTriangle,
)
from .families import (
    bipartite_family,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    resolve_family,
    star_graph,
)
from .graphs import (
    DEFAULT_CYCLE_BOUND,
    Graph,
    bipartition,
    connected_components,
    cut_edges,
    edge_key,
    format_graph,
    in_triangle,
    is_bipartite,
    parse_graph,
    simple_cycles,
    vertices_on_cycles,
)
from .intsets import (
    ApProfile,
    IntegerSet,
    Parity,
    Sign,
    ap_pair,
    ap_profile,
    ap_sumset_cardinality,
    parse_set_literal,
    set_parity,
    sign_of_size,
    size_parity,
    sumset,
)
from .labeling import (
    AiaslCheck,
    Labeling,
    SignedLabeledGraph,
    derive,
    deterministic_ratio,
    format_labeling,
    iasi_collisions,
    parse_labeling,
    predicted_sign,
    validate_aiasl,
    validate_iasi,
)
from .transforms import (
    TransformOutcome,
    delete_vertex,
    elementary_transformation,
    spanned_subgraph,
    subdivide_edge,
)
from .verify import (
    Counterexample,
    PatternSweep,
    SearchBounds,
    TheoremId,
    Verdict,
    VerificationReport,
    construct_balanced_bipartite_labeling,
    count_aiasl,
    enumerate_aiasl,
    signed_graph_from_pattern,
    sweep_sign_patterns,
    verify_theorem,
)

__version__ = "0.1.0"
