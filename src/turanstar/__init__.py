"""Extremal graph theory toolkit for clique and star-forest avoidance.

Builds the conjectured extremal graphs, detects the forbidden patterns,
evaluates the closed-form edge counts, and checks everything at small
scale against exhaustive isomorph-free search.
"""

from .graphs import (
    Graph,
    bits,
    build_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    join,
    mask_of,
    respects_bipartition,
    symmetrize,
)
from .graph6 import (
    GRAPH6_MAX_N,
    graph6_decode,
    graph6_encode,
    to_edge_list_json,
)
from .canonical import (
    CANONICAL_MAX_N,
    are_isomorphic,
    canonical_code,
    canonical_form,
    canonical_graph,
    graph_from_code,
)
from .detectors import (
    Clique,
    ForbiddenFamily,
    StarForest,
    contains_clique,
    contains_star_forest,
    is_family_free,
    max_matching_size,
)
from .constructions import (
    BelowRangeError,
    CappedJoinDescriptor,
    CompleteBipartiteDescriptor,
    PartitionCertificate,
    RegularJoinDescriptor,
    capped_bipartite,
    clique_matching_extremal,
    clique_star_forest_extremal,
    complete_bipartite,
    family_membership,
    joined_capped_extremal,
    joined_regular_extremal,
    regular_triangle_free,
    turan_graph,
)
from .formulas import (
    FormulaResult,
    Validity,
    ex_clique_matching,
    ex_clique_star_forest,
    ex_star,
    ex_triangle_star_forest,
    exploration_threshold,
    extremal_family_edges,
    turan_edges,
)
from .oracle import (
    ExtremalRecord,
    ORACLE_MAX_N,
    ResultCache,
    brute_force_ex,
    enumerate_extremal,
    enumerate_free_graphs,
    extremal_records,
)
from .harness import (
    SUITE_NAMES,
    SuiteReport,
    SuiteRow,
    TOOL_VERSION,
    boundary_sweep,
    emit_report,
    run_suite,
    run_suites,
)

__version__ = TOOL_VERSION
