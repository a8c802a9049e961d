"""Rainbow substructures in edge-colored graphs.

Data model for edge-colored and oriented graphs, rainbow triangle/clique
detection with guaranteed-count lower bounds, generators for the tight
extremal colorings, recognizers (with certificates) for the extremal
families, the oriented-graph coloring transform, and an exhaustive
verification harness for all of the above on small instances.
"""

__version__ = "0.1.0"

from .characterize import (
    GkCertificate,
    HkCertificate,
    find_rainbow_spanning_turan,
    is_in_gk,
    is_in_hk,
    validate_gk_certificate,
    validate_hk_certificate,
)
from .constructions import (
    LabeledConstruction,
    TuranPartition,
    build_case2_figure,
    build_gk,
    build_hnk,
    turan_diff,
    turan_graph,
    turan_number,
)
from .graphs import (
    DegreeProfile,
    EdgeColoredGraph,
    FormatError,
    GraphError,
    GraphStats,
    OrientedGraph,
    canonicalize_colors,
    delete_edge,
    delete_vertex,
    format_dot,
    format_edgelist,
    format_json,
    is_complete,
    parse_edgelist,
    parse_graph,
    parse_json,
    stats,
)
from .rainbow import (
    count_rainbow_triangles,
    enumerate_rainbow_cliques,
    guaranteed_cliques_mc,
    guaranteed_triangles_colordeg,
    guaranteed_triangles_mc,
    list_rainbow_triangles,
)
from .transform import (
    AssociatedColoring,
    OrientationReport,
    associated_colored_graph,
    find_monochromatic_p3,
    find_monochromatic_p4,
    format_digraph,
    guaranteed_directed_triangles,
    orient_by_p3_rule,
    out_component_number,
    parse_digraph,
)
from .verify import (
    BudgetError,
    VerificationReport,
    bell_number,
    directed_triangles,
    enumerate_colorings,
    find_tightness_witness,
    random_oriented_graph,
    recheck_counterexample,
    recolor_witness_colordeg,
    sample_clique_free_extremal,
    stirling2,
    verify_theorem,
)

__all__ = [
    "AssociatedColoring", "BudgetError", "DegreeProfile", "EdgeColoredGraph",
    "FormatError", "GkCertificate", "GraphError", "GraphStats",
    "HkCertificate", "LabeledConstruction", "OrientationReport",
    "OrientedGraph", "TuranPartition", "VerificationReport",
    "associated_colored_graph", "bell_number", "build_case2_figure",
    "build_gk", "build_hnk", "canonicalize_colors", "count_rainbow_triangles",
    "delete_edge", "delete_vertex", "directed_triangles",
    "enumerate_colorings", "enumerate_rainbow_cliques",
    "find_monochromatic_p3", "find_monochromatic_p4",
    "find_rainbow_spanning_turan", "find_tightness_witness", "format_digraph",
    "format_dot", "format_edgelist", "format_json",
    "guaranteed_cliques_mc", "guaranteed_directed_triangles",
    "guaranteed_triangles_colordeg", "guaranteed_triangles_mc", "is_complete",
    "is_in_gk", "is_in_hk", "list_rainbow_triangles", "orient_by_p3_rule",
    "out_component_number", "parse_digraph", "parse_edgelist", "parse_graph",
    "parse_json", "random_oriented_graph", "recheck_counterexample",
    "recolor_witness_colordeg", "sample_clique_free_extremal", "stats",
    "stirling2", "turan_diff", "turan_graph", "turan_number",
    "validate_gk_certificate", "validate_hk_certificate", "verify_theorem",
]
