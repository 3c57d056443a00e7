"""Boolean Toeplitz matrices: exact periods, competition graphs, walks."""

from .boolmat import BoolMatrix
from .compgraph import (
    SimpleGraph,
    competition_graph_formula,
    connected_components,
    digraph_dot,
    edges_respect_residues,
    graph_dot,
    limit_graph,
    m_step_graph,
    residue_clique_graph,
    strong_components,
)
from .packed import ToeplitzKernel
from .spectra import (
    BudgetExceeded,
    PeriodicTail,
    competition_limit,
    competition_matrix,
    competition_tail,
    matrix_period,
    power_is_eventually_toeplitz,
    power_tail,
    residue_block_matrix,
    residue_classes,
)
from .toeplitz import (
    BezoutCertificate,
    ConsecutiveRepresentations,
    ToeplitzSpec,
    bezout_certificate,
    build_matrix,
    consecutive_representations,
    generator_gcd,
    offset_generators,
    pair_sum_gcd,
    parse_literal,
    predicted_period,
    spec_from_json_dict,
    validate_spec,
)
from .verify import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    PREDICATES,
    InstanceReport,
    SweepReport,
    enumerate_specs,
    sweep,
    verify_instance,
)
from .walks import (
    Arc,
    EndpointOutOfRange,
    InsufficientArcCount,
    SchedulingFailure,
    StabilizationResult,
    StepSets,
    Walk,
    WalkConstructionError,
    WalkPlan,
    bound_hypothesis_holds,
    build_walk_with_counts,
    combination_offsets,
    competition_index_bound,
    congruence_recurrence_check,
    congruent_offsets,
    extend_walk_exact,
    realized_offsets,
    schedule_steps,
    step_set_run,
    step_set_stabilization,
    step_sets,
    walk_length_bound,
    walk_offset_decomposition,
)

__version__ = "0.1.0"
