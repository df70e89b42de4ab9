"""Complexity and information metrics for networked systems.

Public surface: functional topologies and classical graph metrics, the
functional-complexity metric, excess-entropy estimation on channel lattices,
centralized/self-organized channel allocation with exact repair-distance
search, a traffic ABM with event-triggered sensing over a contended MAC,
and a seeded ensemble/correlation harness.
"""

__version__ = "0.1.0"

from .graph import (
    FunctionalTopology,
    InputFormatError,
    SamplingPolicy,
    average_degree,
    average_path_length,
    build_topology,
    clustering_coefficient,
    diameter,
    is_connected,
    read_edge_list,
    sample_stream,
)
from .complexity import (
    ComplexityProfile,
    MeanInformation,
    functional_complexity,
    mean_information,
)
from .entropy import (
    EntropyProfile,
    conditional_entropy_profile,
    estimate_excess_entropy,
    excess_entropy,
)
from .lattice import (
    ChannelLattice,
    SonReport,
    StabilityRow,
    StabilityStudy,
    centralized_allocate,
    conflict_count,
    read_lattice,
    repair_distance,
    son_allocate,
    stability_experiment,
    write_lattice,
)
from .abm import (
    PerceptionRecord,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
)
from .harness import (
    CorrelationReport,
    EnsembleSpec,
    MetricCorrelation,
    ReportRow,
    correlation_report,
    generate_ensemble,
    pearson,
)

__all__ = [
    "__version__",
    # graph
    "FunctionalTopology",
    "InputFormatError",
    "SamplingPolicy",
    "average_degree",
    "average_path_length",
    "build_topology",
    "clustering_coefficient",
    "diameter",
    "is_connected",
    "read_edge_list",
    "sample_stream",
    # complexity
    "ComplexityProfile",
    "MeanInformation",
    "functional_complexity",
    "mean_information",
    # entropy
    "EntropyProfile",
    "conditional_entropy_profile",
    "estimate_excess_entropy",
    "excess_entropy",
    # lattice
    "ChannelLattice",
    "SonReport",
    "StabilityRow",
    "StabilityStudy",
    "centralized_allocate",
    "conflict_count",
    "read_lattice",
    "repair_distance",
    "son_allocate",
    "stability_experiment",
    "write_lattice",
    # abm
    "PerceptionRecord",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    # harness
    "CorrelationReport",
    "EnsembleSpec",
    "MetricCorrelation",
    "ReportRow",
    "correlation_report",
    "generate_ensemble",
    "pearson",
]
