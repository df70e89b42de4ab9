"""Graph core: construction, reachability, metrics, enumeration, file IO."""

import itertools
import math
import random

import networkx as nx
import pytest

from netcomplexity import (
    InputFormatError,
    SamplingPolicy,
    average_degree,
    average_path_length,
    build_topology,
    clustering_coefficient,
    diameter,
    is_connected,
    mean_information,
    read_edge_list,
    sample_stream,
)
from netcomplexity import graph as graph_module
from netcomplexity.graph import mean_and_stderr
from netcomplexity.complexity import _exhaustive_batches, _sampled_batches

from oracles import oracle_subgraph_information


def path(n):
    return build_topology(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return build_topology(n, list(itertools.combinations(range(n), 2)))


def star(n):
    return build_topology(n, [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------------------
# construction


def test_build_rejects_out_of_range_node():
    with pytest.raises(ValueError, match="outside"):
        build_topology(3, [(0, 3)])


def test_build_rejects_no_nodes():
    with pytest.raises(ValueError, match="node_count must be >= 1, got 0"):
        build_topology(0, [])


def test_build_rejects_non_integral_node():
    # an integer cast would store the edge (0, 1)
    with pytest.raises(ValueError, match=r"edge \(0, 1\.5\) has a non-integral node id"):
        build_topology(3, [(0, 1.5)])


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_topology(3, [(1, 1)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 0\)"):
        build_topology(3, [(0, 1), (1, 0)])


def test_directed_reverse_pair_is_not_duplicate():
    g = build_topology(3, [(0, 1), (1, 0)], directed=True)
    assert len(g.edges) == 2


def test_undirected_edges_canonicalized():
    g = build_topology(3, [(2, 0)])
    assert g.edges == ((0, 2),)


# ---------------------------------------------------------------------------
# reachability, through the whole-graph information of mean_information


def test_reach_star_center_one_hop():
    # each leaf of a 4-node star is reached by itself and the hub (one bit),
    # the hub by every node (zero bits)
    assert mean_information(star(4), 4, 1).value == 3.0


def test_reach_star_two_hops_covers_all():
    assert mean_information(star(4), 4, 2).value == 0.0


def test_reach_complete_one_hop():
    assert mean_information(complete(5), 5, 1).value == 0.0


def test_reach_confined_to_view():
    # paths stay inside each induced subgraph: in {0, 1, 3} of P4, node 3 is
    # isolated although node 2 links it to the rest of the parent graph
    subsets = list(itertools.combinations(range(4), 3))
    expected = sum(
        oracle_subgraph_information(nx.path_graph(4), s, 2) for s in subsets
    ) / len(subsets)
    got = mean_information(path(4), 3, 2)
    assert got.subset_count == len(subsets)
    assert got.value == pytest.approx(expected, abs=1e-12)


def test_reach_at_diameter_covers_component():
    # every node is reached by all N nodes, so each contributes H(1) = 0
    rng = random.Random(11)
    found = 0
    while found < 10:
        n = rng.randint(3, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = build_topology(n, edges)
        if not is_connected(g):
            continue
        found += 1
        assert mean_information(g, n, diameter(g)).value == 0.0


# ---------------------------------------------------------------------------
# classical metrics


def test_diameter_path_and_complete():
    assert diameter(path(4)) == 3
    assert diameter(complete(5)) == 1


def test_diameter_rejects_disconnected_with_pair():
    g = build_topology(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="different components"):
        diameter(g)


def test_diameter_rejects_single_node():
    with pytest.raises(ValueError, match="single-node"):
        diameter(build_topology(1, []))


def test_average_path_length_values():
    assert average_path_length(path(3)) == pytest.approx(4 / 3, abs=1e-12)
    assert average_path_length(path(4)) == pytest.approx(10 / 6, abs=1e-12)
    assert average_path_length(complete(6)) == pytest.approx(1.0, abs=1e-12)


def test_average_path_length_rejects_disconnected():
    g = build_topology(3, [(0, 1)])
    with pytest.raises(ValueError, match="different components"):
        average_path_length(g)


def test_average_path_length_rejects_single_node():
    with pytest.raises(ValueError, match="single-node"):
        average_path_length(build_topology(1, []))


@pytest.mark.parametrize("metric", [diameter, average_path_length])
def test_distance_metrics_name_the_first_unreached_node(metric):
    g = build_topology(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(ValueError) as exc:
        metric(g)
    assert str(exc.value) == (
        "graph is disconnected: nodes 0 and 3 are in different components"
    )


def bfs_sources(monkeypatch):
    """The source of every _bfs_distances call from now on."""
    calls = []
    bfs = graph_module._bfs_distances
    monkeypatch.setattr(graph_module, "_bfs_distances",
                        lambda adj, source: calls.append(source) or bfs(adj, source))
    return calls


def test_distance_metrics_share_one_all_pairs_pass(monkeypatch):
    # is_connected reads the all-pairs pass's row 0, before or after it
    calls = bfs_sources(monkeypatch)
    g = build_topology(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert is_connected(g)
    assert (diameter(g), average_path_length(g)) == (2, 1.5)
    assert diameter(g) == 2 and is_connected(g)
    assert calls == [0, 1, 2, 3, 4]


def test_disconnected_graph_costs_one_bfs(monkeypatch):
    calls = bfs_sources(monkeypatch)
    g = build_topology(5, [(0, 1), (2, 3), (3, 4)])
    assert not is_connected(g)
    with pytest.raises(ValueError, match="nodes 0 and 2 are in different components"):
        diameter(g)
    assert calls == [0]


def test_sparse_graph_names_its_first_unreached_node_from_its_edges():
    # below N - 1 edges the search stays in node 0's component, reached
    # through higher ids too; it names the node a full BFS row names
    rng = random.Random(31)
    graphs = [build_topology(50, [(0, 40), (40, 1), (1, 2), (5, 6)])]
    for _ in range(40):
        n = rng.randint(2, 12)
        pairs = list(itertools.combinations(range(n), 2))
        graphs.append(build_topology(n, rng.sample(pairs, rng.randint(0, n - 2))))
    for g in graphs:
        assert not is_connected(g)
        row = graph_module._bfs_distances(g.undirected_neighbors, 0)
        with pytest.raises(ValueError, match=f"nodes 0 and {row.index(-1)} are in"):
            diameter(g)
    assert graphs[0]._unreached == 3


def test_average_degree_values():
    assert average_degree(path(4)) == pytest.approx(1.5, abs=1e-15)
    assert average_degree(build_topology(5, [])) == 0.0


def test_clustering_complete_and_sparse():
    assert clustering_coefficient(complete(4)) == pytest.approx(1.0, abs=1e-12)
    assert clustering_coefficient(path(4)) == 0.0


def test_clustering_k4_minus_edge():
    # two degree-2 nodes close a triangle (coefficient 1); the two degree-3
    # nodes each see 2 of 3 neighbor pairs linked (2/3); mean = 5/6
    g = build_topology(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert clustering_coefficient(g) == pytest.approx(5 / 6, abs=1e-12)


# ---------------------------------------------------------------------------
# enumeration and sampling


def test_enumerate_exhaustive_lexicographic():
    # a fixed subset order fixes the summation order of exhaustive cells
    members = [tuple(row) for batch in _exhaustive_batches(5, 3)
               for row in batch.tolist()]
    assert members == list(itertools.combinations(range(5), 3))


def test_enumerate_counts_match_binomial():
    g = path(6)
    for j in range(2, 7):
        got = mean_information(g, j, 1)
        assert got.subset_count == math.comb(6, j)
        assert not got.sampled


def test_enumerate_rejects_bad_size():
    with pytest.raises(ValueError, match="outside"):
        mean_information(path(4), 5, 1)


def test_sampling_reproducible():
    g = path(20)
    pol = SamplingPolicy(sample_count=500, exhaustive_limit=1, seed=7)
    a = mean_information(g, 10, 1, pol)
    assert a == mean_information(g, 10, 1, pol)
    assert a.sampled and a.subset_count == 500
    # draws are without replacement within a subset
    rng = sample_stream(7, 1, 10)
    draws = [row for batch in _sampled_batches(20, 10, 500, rng)
             for row in batch.tolist()]
    assert len(draws) == 500
    assert all(len(set(row)) == 10 for row in draws)


def test_sampling_seed_changes_stream():
    g = path(20)
    a, b = (
        mean_information(g, 10, 1, SamplingPolicy(
            sample_count=50, exhaustive_limit=1, seed=seed))
        for seed in (1, 2)
    )
    assert a.value != b.value


def test_policy_resolves_switch_at_limit():
    pol = SamplingPolicy(exhaustive_limit=100)
    # C(10,2) = 45 stays exhaustive, C(10,3) = 120 crosses the limit
    assert not pol.sampled(10, 2)
    assert pol.sampled(10, 3)


def test_policy_full_size_always_exhaustive():
    # at the lowest limit every size below N is sampled, and size N never
    pol = SamplingPolicy(exhaustive_limit=1)
    for n in range(2, 31):
        for j in range(1, n + 1):
            assert pol.sampled(n, j) == (j < n)


def test_policy_exhaustive_count_sums_the_enumerated_sizes():
    for limit in (1, 2, 10, 100, 1000, 100_000, 10**20):
        pol = SamplingPolicy(exhaustive_limit=limit)
        for n in range(0, 41):
            want = sum(math.comb(n, j) for j in range(2, n + 1) if not pol.sampled(n, j))
            assert pol.exhaustive_count(n) == want, (limit, n)
    # a huge node count stops at the first sampled size
    assert SamplingPolicy().exhaustive_count(10**9) == 1


def test_mean_and_stderr_needs_two_values_for_an_error():
    mean, err = mean_and_stderr([])
    assert math.isnan(mean) and math.isnan(err)
    # one value gives a mean but no estimate of its spread
    mean, err = mean_and_stderr([2.5])
    assert mean == 2.5 and math.isnan(err)
    assert mean_and_stderr([1.0, 3.0]) == (2.0, 1.0)


def test_policy_validation():
    with pytest.raises(ValueError, match="exhaustive_limit must be >= 1"):
        SamplingPolicy(exhaustive_limit=0)
    with pytest.raises(ValueError):
        SamplingPolicy(sample_count=0)
    # one draw has no standard error
    with pytest.raises(ValueError, match="sample_count must be >= 2"):
        SamplingPolicy(sample_count=1)


# ---------------------------------------------------------------------------
# file format


def test_edge_list_roundtrip(tmp_path):
    g = build_topology(4, [(0, 1), (1, 2), (2, 3)])
    p = tmp_path / "g.edges"
    p.write_text("N 4 undirected\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    back = read_edge_list(str(p))
    assert back == g


def test_edge_list_comments_and_blanks(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("# a graph\nN 3 undirected\n\n0 1  # trailing note\n1 2\n")
    g = read_edge_list(str(p))
    assert g.node_count == 3
    assert g.edges == ((0, 1), (1, 2))


def test_edge_list_bad_header(tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("3 undirected\n0 1\n")
    with pytest.raises(InputFormatError, match="header"):
        read_edge_list(str(p))


def test_edge_list_bad_pair(tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("N 3 undirected\n0 1 2\n")
    with pytest.raises(InputFormatError, match="expected 'u v'"):
        read_edge_list(str(p))


@pytest.mark.parametrize("text,message", [
    ("# c\n\nN 3\n", ":3: expected header 'N <count> <directed|undirected>', got 'N 3'"),
    ("N x undirected\n", ":1: node count 'x' is not an integer"),
    ("N 3 both\n", ":1: mode must be 'directed' or 'undirected', got 'both'"),
    ("N 3 undirected # c\n\n0 a # e\n", ":3: non-integer node id in '0 a # e'"),
    ("# only a comment\n\n", ": empty file, missing header"),
])
def test_edge_list_errors_count_comment_and_blank_lines(tmp_path, text, message):
    p = tmp_path / "bad.edges"
    p.write_text(text)
    with pytest.raises(InputFormatError) as exc:
        read_edge_list(str(p))
    assert str(exc.value) == str(p) + message


def test_edge_list_semantic_error_is_input_error(tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("N 3 undirected\n0 0\n")
    with pytest.raises(InputFormatError, match="self-loop"):
        read_edge_list(str(p))
