"""Seeded graph ensembles and complexity-vs-classical-metric correlation.

Each graph is drawn on random.Random exactly as networkx 3.6.1 draws its
Erdos-Renyi, Watts-Strogatz and Barabasi-Albert models, without networkx.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from statistics import fmean
from typing import NamedTuple

from .complexity import functional_complexity
from .graph import (
    FunctionalTopology,
    SamplingPolicy,
    average_degree,
    average_path_length,
    build_topology,
    clustering_coefficient,
    is_connected,
    sample_stream,
)

# the EnsembleSpec fields each kind uses
_KIND_FIELDS = {
    "erdos-renyi": ("edge_probability",),
    "watts-strogatz": ("ring_degree", "rewiring_probability"),
    "barabasi-albert": ("attachment_count",),
}
ENSEMBLE_KINDS = tuple(_KIND_FIELDS)

# attempts per graph before declaring the connectivity filter unsatisfiable
_FILTER_RETRIES = 200

# graphs per correlation_report task; each task draws its own block, so
# neither the parent nor a task message holds the whole ensemble
_REPORT_BLOCK = 128


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of one random-graph ensemble.

    Exactly the fields for the chosen kind must be set: edge_probability for
    erdos-renyi, ring_degree and rewiring_probability for watts-strogatz,
    attachment_count for barabasi-albert.
    """

    kind: str
    node_count: int
    graph_count: int
    seed: int = 0
    connected_only: bool = True
    edge_probability: float | None = None
    ring_degree: int | None = None
    rewiring_probability: float | None = None
    attachment_count: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if self.graph_count < 0:
            raise ValueError("graph_count must be >= 0")
        own = _KIND_FIELDS[self.kind]
        missing = [name for name in own if getattr(self, name) is None]
        if missing:
            raise ValueError(f"{self.kind} requires {', '.join(missing)}")
        for names in _KIND_FIELDS.values():
            for name in names:
                if name not in own and getattr(self, name) is not None:
                    raise ValueError(f"{name} must be unset for {self.kind}")
        if self.kind == "erdos-renyi":
            if not 0.0 <= self.edge_probability <= 1.0:
                raise ValueError("edge_probability must lie in [0, 1]")
        elif self.kind == "watts-strogatz":
            if not 0.0 <= self.rewiring_probability <= 1.0:
                raise ValueError("rewiring_probability must lie in [0, 1]")
            if not 0 < self.ring_degree < self.node_count:
                raise ValueError("ring_degree must lie in 1..node_count-1")
        elif not 0 < self.attachment_count < self.node_count:
            raise ValueError("attachment_count must lie in 1..node_count-1")


def _sample_graph(spec: EnsembleSpec, seed: int) -> list[tuple[int, int]]:
    """Edges (u < v) of one draw, made as networkx 3.6.1's gnp_random_graph,
    watts_strogatz_graph and barabasi_albert_graph make them from
    random.Random(seed): the same calls on the stream, in the same order."""
    rng = random.Random(seed)
    n = spec.node_count
    if spec.kind == "erdos-renyi":
        p = spec.edge_probability
        return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    if spec.kind == "watts-strogatz":
        nodes = range(n)
        steps = range(1, spec.ring_degree // 2 + 1)
        adj = [{(u + j) % n for j in steps} | {(u - j) % n for j in steps} for u in nodes]
        for j in steps:
            for u in nodes:
                if rng.random() < spec.rewiring_probability:
                    w = rng.choice(nodes)
                    while w == u or w in adj[u]:
                        w = rng.choice(nodes)
                        if len(adj[u]) >= n - 1:
                            break  # u is saturated: keep the edge
                    else:
                        v = (u + j) % n
                        adj[u].remove(v)
                        adj[v].remove(u)
                        adj[u].add(w)
                        adj[w].add(u)
        return [(u, v) for u in nodes for v in adj[u] if u < v]
    # the star on 0..m, then preferential attachment: each node appears in
    # `repeated` once per edge it has
    m = spec.attachment_count
    edges = [(0, t) for t in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()  # its iteration order extends `repeated`, as in networkx
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        edges.extend((t, source) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return edges


def generate_ensemble(
    spec: EnsembleSpec, indices: range | None = None,
) -> list[FunctionalTopology]:
    """Reproducible graph list, graphs ``indices`` (default all) of the
    ensemble; resamples non-connected graphs when filtered.

    Each (graph, attempt) pair draws from its own derived stream, so graph i
    is independent of how many retries other graphs needed and of which
    indices are drawn together.
    """
    graphs: list[FunctionalTopology] = []
    for index in range(spec.graph_count) if indices is None else indices:
        for attempt in range(_FILTER_RETRIES):
            edges = _sample_graph(
                spec,
                sample_stream(spec.seed, "ensemble", index, attempt).getrandbits(63),
            )
            g = build_topology(spec.node_count, tuple(sorted(edges)))
            if not spec.connected_only or is_connected(g):
                graphs.append(g)
                break
        else:
            raise ValueError(
                f"connectivity filter unsatisfied for graph {index} after "
                f"{_FILTER_RETRIES} attempts; ensemble parameters are too sparse"
            )
    return graphs


def pearson(xs, ys) -> float:
    """Sample correlation coefficient, clamped into [-1, 1].

    Degenerate inputs are rejected rather than returning NaN: both sequences
    need at least two points and nonzero variance.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least 2 points")
    mx = fmean(xs)
    my = fmean(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    if sxx == 0.0:
        raise ValueError("zero variance in first sequence")
    if syy == 0.0:
        raise ValueError("zero variance in second sequence")
    sxy = sum(a * b for a, b in zip(dx, dy))
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


class ReportRow(NamedTuple):
    """One graph's line of the metric table, its fields in CSV column order."""

    graph_id: int
    complexity: float
    average_path_length: float
    average_degree: float
    clustering_coefficient: float


@dataclass(frozen=True)
class MetricCorrelation:
    metric: str
    rho: float | None  # None when the ensemble is degenerate for this pair
    note: str


@dataclass(frozen=True)
class CorrelationReport:
    rows: tuple[ReportRow, ...]
    correlations: tuple[MetricCorrelation, ...]
    flags: tuple[str, ...]


def report_blocks(graph_count: int) -> list[range]:
    """The contiguous index blocks of _REPORT_BLOCK graphs that
    correlation_report hands out as tasks; no row depends on the split."""
    return [range(lo, min(lo + _REPORT_BLOCK, graph_count))
            for lo in range(0, graph_count, _REPORT_BLOCK)]


def _report_rows(task) -> list[ReportRow]:
    """Draw one block of the ensemble and score it, its complexities in one
    block call.  The block call rejects its first disconnected graph, which
    the error then names."""
    spec, policy, block = task
    graphs = generate_ensemble(spec, block)
    try:
        profiles = functional_complexity(graphs, policy=policy)
    except ValueError as exc:
        index = next((i for i, g in zip(block, graphs) if not is_connected(g)), None)
        if index is None:
            raise
        raise ValueError(f"graph {index}: {exc}") from None
    return [
        ReportRow(index, profile.complexity, average_path_length(g),
                  average_degree(g), clustering_coefficient(g))
        for index, g, profile in zip(block, graphs, profiles)
    ]


METRIC_FIELDS = (
    ("average_path_length", "rho_apl"),
    ("average_degree", "rho_degree"),
    ("clustering_coefficient", "rho_clustering"),
)


def correlation_report(
    spec: EnsembleSpec,
    policy: SamplingPolicy | None = None,
    mapper=map,
) -> CorrelationReport:
    """Per-graph metric table plus complexity-vs-metric correlations.

    A zero-variance column yields a degenerate marker instead of a
    coefficient; any |rho| >= 0.5 is flagged in the report rather than
    treated as an error.  The mapper gets one task per block of
    report_blocks, which draws its own graphs; rows are joined in graph
    order, so they and the first error raised are the same whatever the
    mapper's parallelism.
    """
    if spec.graph_count < 2:
        raise ValueError(f"need >= 2 graphs to correlate, got {spec.graph_count}")
    tasks = [(spec, policy, block) for block in report_blocks(spec.graph_count)]
    rows = tuple(itertools.chain.from_iterable(mapper(_report_rows, tasks)))
    complexities = [row.complexity for row in rows]
    correlations = []
    flags = []
    for field, _ in METRIC_FIELDS:
        values = [getattr(row, field) for row in rows]
        try:
            rho = pearson(complexities, values)
        except ValueError as exc:
            correlations.append(MetricCorrelation(field, None, f"degenerate: {exc}"))
            continue
        correlations.append(MetricCorrelation(field, rho, ""))
        if abs(rho) >= 0.5:
            flags.append(f"|rho(complexity, {field})| = {abs(rho):.3f} >= 0.5")
    return CorrelationReport(
        rows=rows, correlations=tuple(correlations), flags=tuple(flags),
    )
