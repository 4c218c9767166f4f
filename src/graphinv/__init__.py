"""Exact arithmetic for the graphical algebra of invariants of weighted
points on the projective line: generators indexed by multigraphs,
straightening onto the non-crossing basis, matching decompositions,
relation generators with ideal-membership certificates, moduli-space
degrees, and the affine chart at the strictly semistable point."""

from .errors import (
    BadExponent,
    DegenerateModuli,
    DegreeMismatch,
    DimensionMismatch,
    EmptyModuli,
    GraphInvError,
    LengthMismatch,
    LoopEdge,
    NoStableConfiguration,
    NonContiguousClump,
    NotAMatching,
    NotInChart,
    NotMultipleOfWeight,
    NotNeutralRegular,
    NotRegular,
    OddDegreeSum,
    OddTotalWeight,
    OddVertexCount,
    SharedEndpoint,
    VertexCountMismatch,
    VertexCountTooSmall,
)
from .graphs import (
    Canonical,
    Graph,
    canonicalize,
    crossing_pairs,
    edges_cross,
    enumerate_matchings,
    enumerate_noncrossing,
    graph_from_json,
    graph_to_json,
    multiply,
    noncrossing_matchings,
)
from .evaluation import (
    Configuration,
    Stability,
    configuration_from_json,
    configuration_to_json,
    evaluate,
    evaluate_combination,
    random_stable_configuration,
    stability,
)
from .straightening import (
    GraphCombination,
    adjacent_clumps,
    clump_map,
    combination_from_json,
    combination_to_json,
    plucker_exchange,
    straighten,
    straighten_graph,
)
from .kempe import (
    Bipartition,
    MatchingProduct,
    hall_matching,
    kempe_decompose,
    lift_graph,
    matching_product_to_json,
    neutralize,
)
from .linalg import RationalMatrix, in_span, kernel_basis, rank
from .relations import (
    GraphPolynomial,
    certificate_to_json,
    evaluate_polynomial,
    expand_variable,
    ideal_membership,
    noncrossing_monomial_matrix,
    noncrossing_monomials,
    odd_power_relation,
    plucker_linear_relations,
    polynomial_from_json,
    polynomial_to_json,
    quadric_relation_space,
    reduce_to_noncrossing_vars,
    ring_normal_form,
    segre_cubic,
    simple_binomial_relations,
)
from .degree import degree_trace, greedy_multigraph, is_boundary, moduli_degree
from .chart import (
    ChartPoint,
    ChartReport,
    alternative_good_matchings,
    chart_coordinates,
    chart_point_to_json,
    good_matching,
    verify_chart,
)

__version__ = "0.1.0"
