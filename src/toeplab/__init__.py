"""Boolean Toeplitz matrices: exact periods, competition graphs, walks."""

from .boolmat import BoolMatrix
from .compgraph import (
    SimpleGraph,
    competition_graph_formula,
    digraph_dot,
    graph_dot,
    m_step_graph,
    residue_clique_graph,
    strong_components,
)
from .packed import ToeplitzKernel
from .spectra import (
    BudgetExceeded,
    PeriodicTail,
    competition_table,
    power_from_table,
    power_is_eventually_toeplitz,
    power_table,
    residue_classes,
)
from .toeplitz import (
    BezoutCertificate,
    ToeplitzSpec,
    bezout_certificate,
    build_matrix,
    offset_generators,
    pair_sum_gcd,
    parse_literal,
    predicted_period,
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
    Walk,
    WalkConstructionError,
    bound_hypothesis_holds,
    build_walk_with_counts,
    certify_stabilization,
    competition_index_bound,
    congruent_offsets,
    extend_walk_exact,
    schedule_steps,
    step_set_run,
    step_set_stabilization,
    walk_length_bound,
    walk_offset_decomposition,
)

__version__ = "0.1.0"
