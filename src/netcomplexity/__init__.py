"""Complexity and information metrics for networked systems.

Public surface: functional topologies and classical graph metrics, the
functional-complexity metric, excess-entropy estimation on channel lattices,
centralized/self-organized channel allocation with exact repair-distance
search, a traffic ABM with event-triggered sensing over a contended MAC,
and a seeded ensemble/correlation harness.
"""

import importlib

__version__ = "0.1.0"

# public names by defining module.  Importing the package loads none of
# them, and so no numpy: the first name asked for binds them all, so that
# the CLI can set up numpy's environment before numpy is imported.
_EXPORTS = {
    "graph": (
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
    ),
    "complexity": (
        "ComplexityProfile",
        "MeanInformation",
        "functional_complexity",
        "mean_information",
    ),
    "entropy": (
        "EntropyProfile",
        "conditional_entropy_profile",
        "estimate_excess_entropy",
        "excess_entropy",
    ),
    "lattice": (
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
    ),
    "abm": (
        "PerceptionRecord",
        "ScenarioConfig",
        "ScenarioResult",
        "run_scenario",
    ),
    "harness": (
        "CorrelationReport",
        "EnsembleSpec",
        "MetricCorrelation",
        "ReportRow",
        "correlation_report",
        "generate_ensemble",
        "pearson",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    """Bind every public name on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        loaded = importlib.import_module(f".{module}", __name__)
        globals().update((n, getattr(loaded, n)) for n in names)
    return globals()[name]
