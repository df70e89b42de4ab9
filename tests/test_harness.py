"""Ensemble generation, Pearson correlation, and the metric report."""

import math
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from netcomplexity.graph import SamplingPolicy, average_degree, average_path_length, \
    clustering_coefficient, is_connected, sample_stream
from netcomplexity.complexity import functional_complexity
from netcomplexity import harness
from netcomplexity.harness import (
    _FILTER_RETRIES,
    _REPORT_BLOCK,
    ENSEMBLE_KINDS,
    EnsembleSpec,
    _sample_graph,
    correlation_report,
    generate_ensemble,
    pearson,
)

from oracles import oracle_ensemble_edges


def er_spec(**overrides):
    base = dict(
        kind="erdos-renyi",
        node_count=10,
        graph_count=5,
        seed=3,
        edge_probability=0.4,
    )
    base.update(overrides)
    return EnsembleSpec(**base)


# ---------------------------------------------------------------------------
# ensemble specs


def test_spec_validation():
    with pytest.raises(ValueError):
        er_spec(kind="configuration-model")
    with pytest.raises(ValueError):
        er_spec(node_count=1)
    with pytest.raises(ValueError):
        er_spec(graph_count=-1)
    with pytest.raises(ValueError):
        er_spec(edge_probability=None)
    with pytest.raises(ValueError):
        er_spec(edge_probability=1.2)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="watts-strogatz", node_count=8, graph_count=1,
                     rewiring_probability=0.1)  # ring_degree missing
    with pytest.raises(ValueError):
        EnsembleSpec(kind="watts-strogatz", node_count=8, graph_count=1,
                     ring_degree=8, rewiring_probability=0.1)
    with pytest.raises(ValueError, match="rewiring_probability must lie in"):
        EnsembleSpec(kind="watts-strogatz", node_count=8, graph_count=1,
                     ring_degree=2, rewiring_probability=1.5)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="barabasi-albert", node_count=8, graph_count=1,
                     attachment_count=0)


# the fields each kind uses, at valid values
KIND_FIELDS = {
    "erdos-renyi": {"edge_probability": 0.4},
    "watts-strogatz": {"ring_degree": 2, "rewiring_probability": 0.3},
    "barabasi-albert": {"attachment_count": 2},
}


@pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
def test_spec_rejects_the_fields_of_other_kinds(kind):
    own = KIND_FIELDS[kind]
    EnsembleSpec(kind=kind, node_count=6, graph_count=1, **own)
    for other, fields in KIND_FIELDS.items():
        if other == kind:
            continue
        for name, value in fields.items():
            with pytest.raises(ValueError, match=f"^{name} must be unset for {kind}$"):
                EnsembleSpec(kind=kind, node_count=6, graph_count=1, **own,
                             **{name: value})


def test_complete_graphs_from_full_probability():
    graphs = generate_ensemble(er_spec(edge_probability=1.0, graph_count=3))
    for g in graphs:
        assert g.node_count == 10
        assert len(g.edges) == math.comb(10, 2)


def test_ensemble_is_reproducible():
    a = generate_ensemble(er_spec())
    b = generate_ensemble(er_spec())
    assert [g.edges for g in a] == [g.edges for g in b]
    # a range of indices draws the same graphs as the whole ensemble
    assert generate_ensemble(er_spec(), range(2, 5)) == a[2:]
    c = generate_ensemble(er_spec(seed=4))
    assert [g.edges for g in a] != [g.edges for g in c]


def test_graphs_within_ensemble_differ():
    graphs = generate_ensemble(er_spec(graph_count=6))
    assert len({g.edges for g in graphs}) > 1


def test_connectivity_filter_unsatisfiable():
    with pytest.raises(ValueError, match="connectivity filter"):
        generate_ensemble(er_spec(edge_probability=0.0, graph_count=1))
    # without the filter, empty graphs are legitimate output
    graphs = generate_ensemble(
        er_spec(edge_probability=0.0, graph_count=2, connected_only=False)
    )
    assert all(g.edges == () for g in graphs)


def test_connectivity_filter_holds():
    graphs = generate_ensemble(er_spec(edge_probability=0.25, graph_count=12))
    assert all(is_connected(g) for g in graphs)


def test_other_ensemble_kinds():
    ws = generate_ensemble(EnsembleSpec(
        kind="watts-strogatz", node_count=12, graph_count=3, seed=1,
        ring_degree=4, rewiring_probability=0.2,
    ))
    ba = generate_ensemble(EnsembleSpec(
        kind="barabasi-albert", node_count=12, graph_count=3, seed=1,
        attachment_count=2,
    ))
    for g in ws + ba:
        assert g.node_count == 12
        assert is_connected(g)
    assert ws[0].edges != ba[0].edges


def replay_specs(kind, n):
    """One spec per probability and k or m: p in {0, 1, 0.05, 0.95} and one
    drawn value, every k and m in 1..n-1."""
    probabilities = (0.0, 1.0, 0.05, 0.95, random.Random(n).random())
    if kind == "erdos-renyi":
        return [EnsembleSpec(kind, n, 1, edge_probability=p) for p in probabilities]
    if kind == "watts-strogatz":
        return [EnsembleSpec(kind, n, 1, ring_degree=k, rewiring_probability=p)
                for k in range(1, n) for p in probabilities]
    return [EnsembleSpec(kind, n, 1, attachment_count=m) for m in range(1, n)]


class FiniteRandom(random.Random):
    """random.Random that fails, rather than hangs, when one stream is asked
    for more than 10,000 choices: a Watts-Strogatz redraw loop without its
    saturation break never ends."""

    choices = 0

    def choice(self, seq):
        self.choices += 1
        assert self.choices <= 10_000, "the redraw loop does not end"
        return super().choice(seq)


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_sampled_edges_match_networkx(kind, monkeypatch):
    monkeypatch.setattr(random, "Random", FiniteRandom)
    seeds = (0, 1, random.Random(kind).getrandbits(63))
    mismatches = [
        (spec, seed)
        for n in range(2, 26)
        for spec in replay_specs(kind, n)
        for seed in seeds
        if sorted(_sample_graph(spec, seed)) != oracle_ensemble_edges(spec, seed)
    ]
    assert mismatches == []


def test_saturated_watts_strogatz_node_keeps_its_edges(monkeypatch):
    # k = n - 1 at odd n builds the complete graph: with p = 1 every edge
    # draws w, redraws while u has degree n - 1, and keeps the edge
    monkeypatch.setattr(random, "Random", FiniteRandom)
    spec = EnsembleSpec("watts-strogatz", 7, 1, ring_degree=6, rewiring_probability=1.0)
    complete = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    assert sorted(_sample_graph(spec, 3)) == complete == oracle_ensemble_edges(spec, 3)


# ---------------------------------------------------------------------------
# pearson


def test_pearson_anchors():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_rejections():
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1, 2, 3], [5, 5, 5])
    with pytest.raises(ValueError, match="length"):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="2 points"):
        pearson([1], [2])


def test_pearson_symmetry_and_affine_invariance():
    xs = [1.0, 2.0, 4.0, 8.0, 3.0]
    ys = [2.0, 1.0, 5.0, 4.0, 9.0]
    base = pearson(xs, ys)
    assert pearson(ys, xs) == base
    # power-of-two scalings commute with rounding, so equality is exact
    assert pearson([4.0 * x for x in xs], ys) == base
    assert pearson([-0.5 * x for x in xs], ys) == -base
    for a, b in ((3.0, 1.0), (-2.5, 4.0), (0.1, -7.0)):
        got = pearson([a * x + b for x in xs], ys)
        want = math.copysign(base, a) if a < 0 else base
        assert got == pytest.approx(want, abs=1e-12)


def test_pearson_stays_in_range():
    xs = list(range(50))
    ys = [x * 1e-8 + 1e8 for x in xs]  # catastrophic-cancellation bait
    assert -1.0 <= pearson(xs, ys) <= 1.0


# ---------------------------------------------------------------------------
# correlation report


def test_report_rows_match_direct_recomputation():
    spec = er_spec(graph_count=4)
    report = correlation_report(spec)
    graphs = generate_ensemble(spec)
    assert len(report.rows) == 4
    for row, g in zip(report.rows, graphs):
        assert row.complexity == functional_complexity(g).complexity
        assert row.average_path_length == average_path_length(g)
        assert row.average_degree == average_degree(g)
        assert row.clustering_coefficient == clustering_coefficient(g)
        assert row.complexity >= 0.0


def test_report_emits_three_correlations():
    report = correlation_report(er_spec(graph_count=12, seed=11, edge_probability=0.35))
    metrics = [c.metric for c in report.correlations]
    assert metrics == [
        "average_path_length", "average_degree", "clustering_coefficient",
    ]
    for c in report.correlations:
        assert c.rho is not None and -1.0 <= c.rho <= 1.0 and c.note == ""


def test_complete_graph_ensemble_reports_degenerate():
    spec = er_spec(node_count=6, edge_probability=1.0, graph_count=4)
    report = correlation_report(spec)
    for c in report.correlations:
        assert c.rho is None
        assert "zero variance" in c.note
    assert report.flags == ()


def test_single_graph_report_rejected():
    with pytest.raises(ValueError, match=">= 2 graphs"):
        correlation_report(er_spec(graph_count=1))
    with pytest.raises(ValueError, match=">= 2 graphs"):
        correlation_report(er_spec(graph_count=0))


def test_report_is_deterministic():
    spec = er_spec(graph_count=8, seed=11, edge_probability=0.35)
    a = correlation_report(spec)
    b = correlation_report(spec)
    assert a.rows == b.rows
    assert a.correlations == b.correlations
    assert a.flags == b.flags


def test_report_independent_of_mapper():
    def eager_map(fn, items):
        return [fn(item) for item in list(items)]

    spec = er_spec(graph_count=5)
    assert correlation_report(spec) == correlation_report(spec, mapper=eager_map)


def test_report_hands_out_one_task_per_block():
    # a short last block: the count is not a multiple of the block size
    count = 2 * _REPORT_BLOCK + 5
    spec = er_spec(node_count=8, graph_count=count)
    tasks = []

    def recording_map(fn, items):
        items = list(items)
        tasks.extend(items)
        return map(fn, items)

    report = correlation_report(spec, mapper=recording_map)
    assert len(tasks) == math.ceil(count / _REPORT_BLOCK) == 3
    assert [len(task[2]) for task in tasks] == [_REPORT_BLOCK, _REPORT_BLOCK, 5]
    graphs = generate_ensemble(spec)
    assert [row.graph_id for row in report.rows] == list(range(count))
    for row, g in zip(report.rows, graphs, strict=True):
        assert row.complexity == functional_complexity(g).complexity
        assert row.average_path_length == average_path_length(g)
        assert row.average_degree == average_degree(g)
        assert row.clustering_coefficient == clustering_coefficient(g)


@pytest.mark.parametrize("nodes,policy", [
    (10, SamplingPolicy(seed=11)),  # correlate's default ensemble
    (14, SamplingPolicy(sample_count=200, exhaustive_limit=500, seed=11)),
], ids=["exhaustive", "sampled"])
def test_report_does_not_depend_on_block_size(monkeypatch, nodes, policy):
    # the rows and the footer are the same however the ensemble is split
    # into blocks, from one graph per block to one block for all
    graphs = 200
    spec = er_spec(node_count=nodes, graph_count=graphs, seed=11, edge_probability=0.35)
    assert policy.sampled(nodes, nodes // 2) == (nodes > 10)
    reports = []
    for block in (1, 7, 32, 128, graphs):
        monkeypatch.setattr(harness, "_REPORT_BLOCK", block)
        assert len(harness.report_blocks(graphs)) == math.ceil(graphs / block)
        report = correlation_report(spec, policy)
        reports.append((report.rows, report.correlations, report.flags))
    assert all(report == reports[0] for report in reports)


def _fork_pool_map(fn, items):
    # fork, so the workers see the monkeypatched module
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items))


@pytest.mark.parametrize("mapper", [map, _fork_pool_map], ids=["map", "pool"])
def test_filter_failure_in_a_later_block_names_that_graph(monkeypatch, mapper):
    # one graph in the second block and one in the third never draw a
    # connected graph; the lower index is reported
    spec = er_spec(node_count=6, graph_count=3 * _REPORT_BLOCK, edge_probability=0.9)
    first, second = _REPORT_BLOCK + 8, 2 * _REPORT_BLOCK + 11
    empty = {
        sample_stream(spec.seed, "ensemble", index, attempt).getrandbits(63)
        for index in (first, second) for attempt in range(_FILTER_RETRIES)
    }

    def sample_graph(spec, seed):
        return [] if seed in empty else _sample_graph(spec, seed)

    monkeypatch.setattr(harness, "_sample_graph", sample_graph)
    with pytest.raises(ValueError, match=(
        f"^connectivity filter unsatisfied for graph {first} after {_FILTER_RETRIES} attempts"
    )):
        correlation_report(spec, mapper=mapper)


def test_a_failing_block_is_scored_once_and_names_its_first_disconnected_graph(monkeypatch):
    spec = er_spec(graph_count=10, connected_only=False, edge_probability=0.9)
    empty = {sample_stream(spec.seed, "ensemble", index, 0).getrandbits(63) for index in (3, 7)}
    monkeypatch.setattr(harness, "_sample_graph",
                        lambda spec, seed: [] if seed in empty else _sample_graph(spec, seed))
    calls = []
    score = harness.functional_complexity
    monkeypatch.setattr(harness, "functional_complexity",
                        lambda *args, **kw: calls.append(args) or score(*args, **kw))
    with pytest.raises(ValueError, match=(
        "^graph 3: graph is disconnected: nodes 0 and 1 are in different components$"
    )):
        harness._report_rows((spec, None, range(10)))
    assert len(calls) == 1


def test_a_block_error_no_disconnected_graph_explains_propagates_unchanged(monkeypatch):
    error = ValueError("not a connectivity failure")

    def fail(*args, **kw):
        raise error

    monkeypatch.setattr(harness, "functional_complexity", fail)
    with pytest.raises(ValueError) as raised:
        harness._report_rows((er_spec(), None, range(5)))
    assert raised.value is error


def test_report_respects_policy():
    spec = er_spec(graph_count=3)
    policy = SamplingPolicy(sample_count=200, exhaustive_limit=1)
    sampled = correlation_report(spec, policy=policy)
    exact = correlation_report(spec)
    for row, g in zip(sampled.rows, generate_ensemble(spec), strict=True):
        assert row.complexity == functional_complexity(g, policy=policy).complexity
    assert [r.graph_id for r in sampled.rows] == [r.graph_id for r in exact.rows]
    # classical metrics are policy-independent
    for a, b in zip(sampled.rows, exact.rows):
        assert a.average_degree == b.average_degree
