"""Functional-complexity metric: frozen anchors, oracle equality, sampling."""

import itertools
import math
import random

import networkx as nx
import pytest

from netcomplexity import (
    SamplingPolicy,
    binary_entropy,
    build_topology,
    functional_complexity,
    is_connected,
    mean_information,
)

from oracles import oracle_functional_complexity, oracle_subgraph_information

# brute-force enumeration values, frozen (see oracles.oracle_functional_complexity)
P4_COMPLEXITY = 1.4309526058794129
S5_COMPLEXITY = 2.5691301234794075
H_QUARTER = 0.8112781244591328  # cross-checked against mpmath at 50 digits


def path(n):
    return build_topology(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return build_topology(n, list(itertools.combinations(range(n), 2)))


def star(n):
    return build_topology(n, [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------------------
# binary entropy


def test_binary_entropy_half_is_one_bit():
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_endpoints_zero():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_quarter_anchor():
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)


def test_binary_entropy_symmetry():
    for p in (0.1, 0.25, 0.33, 0.49):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


# ---------------------------------------------------------------------------
# subgraph information


def p4_information(members, r):
    """Information of the subgraph of P4 induced by members: the mean over
    the single full-size subset of that subgraph, checked against the oracle."""
    index = {m: k for k, m in enumerate(members)}
    edges = [(index[u], index[u + 1]) for u in range(3)
             if u in index and u + 1 in index]
    got = mean_information(build_topology(len(members), edges), len(members), r)
    assert got.subset_count == 1
    expected = oracle_subgraph_information(nx.path_graph(4), members, r)
    assert got.value == pytest.approx(expected, abs=1e-12)
    return got.value


def test_information_two_isolated_nodes():
    assert p4_information((0, 2), 1) == pytest.approx(2.0, abs=1e-12)


def test_information_edge_pair_is_zero():
    assert p4_information((0, 1), 1) == 0.0


def test_information_whole_path_one_hop():
    # two end nodes at H(2/4), two inner nodes at H(3/4)
    expected = 2 * 1.0 + 2 * H_QUARTER
    assert p4_information((0, 1, 2, 3), 1) == pytest.approx(expected, abs=1e-12)


def test_mean_information_full_size_equals_whole_graph():
    got = mean_information(path(4), 4, 1)
    assert got.value == pytest.approx(2 + 2 * H_QUARTER, abs=1e-12)
    assert got.stderr == 0.0
    assert got.subset_count == 1
    assert not got.sampled


def test_mean_information_rejects_size_below_scale():
    with pytest.raises(ValueError, match="outside"):
        mean_information(path(5), 2, 2)


# ---------------------------------------------------------------------------
# the metric itself


def test_complete_graphs_score_zero():
    for n in range(2, 9):
        prof = functional_complexity(complete(n))
        assert prof.complexity == 0.0
        assert prof.degenerate
        assert prof.diameter == 1
        assert prof.cells == ()


def test_path4_frozen_value():
    prof = functional_complexity(path(4))
    assert prof.complexity == pytest.approx(P4_COMPLEXITY, abs=1e-9)
    assert prof.diameter == 3
    assert not prof.degenerate


def test_star5_frozen_value():
    prof = functional_complexity(star(5))
    assert prof.complexity == pytest.approx(S5_COMPLEXITY, abs=1e-9)


def test_rejects_disconnected():
    g = build_topology(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="different components"):
        functional_complexity(g)


def test_cells_cover_expected_sizes():
    prof = functional_complexity(path(4))
    got = {(c.scale, c.size) for c in prof.cells}
    expected = {(r, j) for r in (1, 2) for j in range(1 + r, 5)}
    assert got == expected


def test_full_size_deviation_exactly_zero():
    prof = functional_complexity(path(5))
    for cell in prof.cells:
        if cell.size == prof.node_count:
            assert cell.deviation == 0.0


def test_baseline_zero_at_smallest_size():
    prof = functional_complexity(path(5))
    for cell in prof.cells:
        if cell.size == cell.scale + 1:
            assert cell.baseline == 0.0


def test_matches_oracle_small_random_graphs():
    rng = random.Random(23)
    checked = 0
    while checked < 12:
        n = rng.randint(3, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = build_topology(n, edges)
        if not is_connected(g):
            continue
        checked += 1
        expected = oracle_functional_complexity(n, edges)
        assert functional_complexity(g).complexity == pytest.approx(expected, abs=1e-9)


def test_isomorphism_invariance():
    rng = random.Random(5)
    base_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 2)]
    g = build_topology(5, base_edges)
    ref = functional_complexity(g).complexity
    for _ in range(5):
        perm = list(range(5))
        rng.shuffle(perm)
        relabeled = build_topology(5, [(perm[u], perm[v]) for u, v in base_edges])
        assert functional_complexity(relabeled).complexity == pytest.approx(ref, abs=1e-9)


def test_sampled_estimate_is_deterministic():
    g = path(12)
    pol = SamplingPolicy(mode="uniform-sample", sample_count=300, seed=17)
    a = mean_information(g, 6, 1, pol)
    b = mean_information(g, 6, 1, pol)
    assert a == b
    assert a.sampled
    assert a.stderr > 0.0


def test_sampled_close_to_exhaustive():
    # one seeded mid-density graph; cell-level 4-sigma check
    rng = random.Random(3)
    while True:
        edges = [e for e in itertools.combinations(range(9), 2) if rng.random() < 0.35]
        g = build_topology(9, edges)
        if is_connected(g):
            break
    exact = mean_information(g, 5, 1)
    pol = SamplingPolicy(mode="uniform-sample", sample_count=4000, seed=2)
    est = mean_information(g, 5, 1, pol)
    assert est.stderr > 0.0
    assert abs(est.value - exact.value) < 4 * est.stderr


def test_auto_switch_respects_limit():
    g = path(10)
    pol = SamplingPolicy(sample_count=200, exhaustive_limit=50, seed=1)
    prof = functional_complexity(g, pol)
    for cell in prof.cells:
        if cell.size == 10:
            assert not cell.sampled  # full size always exact
        elif math.comb(10, cell.size) > 50:
            assert cell.sampled and cell.subset_count == 200
        else:
            assert not cell.sampled


def test_pooled_standard_error_zero_when_exhaustive():
    prof = functional_complexity(path(5))
    assert prof.pooled_standard_error == 0.0
