"""Which netcomplexity names the traced run wraps, and the per-layer metrics
computed from the resulting spans.

Each entry below is (module, attribute, span name, tag).  The attribute is
replaced in the module that looks it up at call time, so a call counts under
the layer that does the work even when another module makes it.  Span names
start with the layer: graph, complexity, harness, lattice, abm or cli.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Span, Tracer, self_times

# (metric, unit) in the order they are reported; BENCHMARK.json lists the same
PER_LAYER = (
    ("complexity.exhaustive_s", "s"),
    ("complexity.exhaustive_subsets", "count"),
    ("complexity.exhaustive_rate", "1/s"),
    ("complexity.sampled_s", "s"),
    ("complexity.sampled_subsets", "count"),
    ("complexity.sampled_rate", "1/s"),
    ("complexity.cells", "count"),
    ("complexity.subsets_per_cell", "count"),
    ("complexity.profile_self_s", "s"),
    ("complexity.kernel_s", "s"),
    ("complexity.draw_s", "s"),
    ("graph.read_s", "s"),
    ("graph.metrics_s", "s"),
    ("harness.ensemble_s", "s"),
    ("harness.accept_ratio", "ratio"),
    ("lattice.son_s", "s"),
    ("lattice.son_sweeps", "count"),
    ("lattice.repair_s", "s"),
    ("lattice.repairs", "count"),
    ("lattice.repair_s.shallow", "s"),
    ("lattice.repair_s.deep", "s"),
    ("lattice.repair_s.censored", "s"),
    ("lattice.censored_share", "ratio"),
    ("abm.mac_round_s", "s"),
    ("abm.mac_rounds", "count"),
    ("abm.mean_backlog", "count"),
    ("abm.delivery_ratio", "ratio"),
    ("abm.step_s", "s"),
    ("abm.observe_s", "s"),
    ("abm.apply_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.parallel_efficiency", "ratio"),
    ("trace.overhead", "ratio"),
)

SHALLOW_MAX = 4  # repair distances up to this count as shallow
GRAPH_METRICS = ("diameter", "is_connected", "average_path_length",
                 "clustering_coefficient", "average_degree")


def _mean_info_tag(args, result):
    return (result.sampled, result.subset_count)


def _scenario_tag(args, result):
    return (sum(rec.delivered for rec in result.trace), result.reports_generated)


def install(tracer: Tracer) -> None:
    """Wrap every traced name; ``tracer.restore()`` undoes it."""
    from netcomplexity import abm, cli, complexity, harness, lattice

    for attr in ("cmd_cfc", "cmd_correlate", "cmd_son_stability", "cmd_abm"):
        tracer.wrap(cli, attr, f"cli.{attr}")
    tracer.wrap(cli, "read_edge_list", "graph.read_edge_list")
    tracer.wrap(cli, "functional_complexity", "complexity.functional_complexity")
    tracer.wrap(cli, "correlation_report", "harness.correlation_report")
    tracer.wrap(cli, "stability_experiment", "lattice.stability_experiment")
    tracer.wrap(cli, "run_scenario", "abm.run_scenario", _scenario_tag)

    tracer.wrap(complexity, "mean_information", "complexity.mean_information", _mean_info_tag)
    tracer.wrap(complexity, "_information_batch", "complexity.kernel")
    tracer.wrap_generator(complexity, "_sampled_batches", "complexity.draw")
    for attr in ("diameter", "is_connected"):
        tracer.wrap(complexity, attr, f"graph.{attr}")

    tracer.wrap(harness, "generate_ensemble", "harness.generate_ensemble",
                lambda args, result: len(result))
    tracer.wrap(harness, "build_topology", "graph.build_topology")
    tracer.wrap(harness, "functional_complexity", "complexity.functional_complexity")
    for attr in ("is_connected", "average_path_length", "clustering_coefficient",
                 "average_degree"):
        tracer.wrap(harness, attr, f"graph.{attr}")

    tracer.wrap(lattice, "son_allocate", "lattice.son_allocate",
                lambda args, result: result[1].sweeps)
    tracer.wrap(lattice, "repair_distance", "lattice.repair_distance",
                lambda args, result: result.distance)

    # backlog is read before the round drains it
    tracer.wrap(abm.MacChannel, "round", "abm.MacChannel.round",
                lambda args: len(args[1]), at_entry=True)
    tracer.wrap(abm.TrafficWorld, "step", "abm.TrafficWorld.step")
    tracer.wrap(abm.SensorField, "observe", "abm.SensorField.observe")
    tracer.wrap(abm.DecisionMaker, "apply", "abm.DecisionMaker.apply")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced run.  A layer the workload does not
    use reports 0 for each of its metrics."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    self_by_name: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_name[span.name].append(span)
        self_by_name[span.name] += own

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    m: dict[str, float] = {}
    cells = by_name["complexity.mean_information"]
    for mode, sampled in (("exhaustive", False), ("sampled", True)):
        part = [s for s in cells if s.tag[0] is sampled]
        seconds = sum(s.duration for s in part)
        subsets = sum(s.tag[1] for s in part)
        m[f"complexity.{mode}_s"] = seconds
        m[f"complexity.{mode}_subsets"] = subsets
        m[f"complexity.{mode}_rate"] = _ratio(subsets, seconds)
    m["complexity.cells"] = len(cells)
    m["complexity.subsets_per_cell"] = _ratio(
        m["complexity.exhaustive_subsets"] + m["complexity.sampled_subsets"], len(cells)
    )
    m["complexity.profile_self_s"] = self_by_name["complexity.functional_complexity"]
    m["complexity.kernel_s"] = total("complexity.kernel")
    m["complexity.draw_s"] = total("complexity.draw")

    m["graph.read_s"] = total("graph.read_edge_list")
    m["graph.metrics_s"] = sum(total(f"graph.{name}") for name in GRAPH_METRICS)

    ensembles = by_name["harness.generate_ensemble"]
    m["harness.ensemble_s"] = sum(s.duration for s in ensembles)
    m["harness.accept_ratio"] = _ratio(
        sum(s.tag for s in ensembles), len(by_name["graph.build_topology"])
    )

    m["lattice.son_s"] = total("lattice.son_allocate")
    m["lattice.son_sweeps"] = sum(s.tag for s in by_name["lattice.son_allocate"])
    repairs = by_name["lattice.repair_distance"]
    m["lattice.repair_s"] = sum(s.duration for s in repairs)
    m["lattice.repairs"] = len(repairs)
    m["lattice.repair_s.shallow"] = sum(
        s.duration for s in repairs if s.tag is not None and s.tag <= SHALLOW_MAX)
    m["lattice.repair_s.deep"] = sum(
        s.duration for s in repairs if s.tag is not None and s.tag > SHALLOW_MAX)
    censored = [s for s in repairs if s.tag is None]
    m["lattice.repair_s.censored"] = sum(s.duration for s in censored)
    m["lattice.censored_share"] = _ratio(len(censored), len(repairs))

    rounds = by_name["abm.MacChannel.round"]
    m["abm.mac_round_s"] = sum(s.duration for s in rounds)
    m["abm.mac_rounds"] = len(rounds)
    m["abm.mean_backlog"] = _ratio(sum(s.tag for s in rounds), len(rounds))
    scenarios = by_name["abm.run_scenario"]
    m["abm.delivery_ratio"] = _ratio(
        sum(s.tag[0] for s in scenarios), sum(s.tag[1] for s in scenarios)
    )
    m["abm.step_s"] = total("abm.TrafficWorld.step")
    m["abm.observe_s"] = total("abm.SensorField.observe")
    m["abm.apply_s"] = total("abm.DecisionMaker.apply")

    m["cli.self_s"] = sum(v for k, v in self_by_name.items() if k.startswith("cli.cmd_"))
    return m


def library_seconds(spans: list[Span]) -> float:
    """Time inside the library calls the CLI command makes (children of the
    ``cli.cmd_*`` span)."""
    tops = {i for i, s in enumerate(spans) if s.name.startswith("cli.cmd_")}
    return sum(s.duration for s in spans if s.parent in tops)
