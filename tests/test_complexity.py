"""Functional-complexity metric: frozen anchors, oracle equality, sampling."""

import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest

from netcomplexity import (
    SamplingPolicy,
    build_topology,
    functional_complexity,
    is_connected,
    mean_information,
)
from netcomplexity import complexity
from netcomplexity.complexity import MeanInformation

from oracles import (
    oracle_functional_complexity,
    oracle_information_batch,
    oracle_mean_information,
    oracle_profile,
    oracle_sampled_batches,
    oracle_subgraph_information,
)

# brute-force enumeration values, frozen (see oracles.oracle_functional_complexity)
P4_COMPLEXITY = 1.4309526058794129
S5_COMPLEXITY = 2.5691301234794075
H_QUARTER = 0.8112781244591328  # cross-checked against decimal at 50 digits


def path(n):
    return build_topology(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return build_topology(n, list(itertools.combinations(range(n), 2)))


def star(n):
    return build_topology(n, [(0, i) for i in range(1, n)])


def random_digraph(rng, n, p):
    """Each ordered pair is an arc with probability p; some arcs run both ways."""
    edges = [e for e in itertools.permutations(range(n), 2) if rng.random() < p]
    return edges, build_topology(n, edges, directed=True)


def connected_graphs(seed, count, sizes, directed):
    """Seeded graphs whose undirected view is connected, with their edges."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*sizes)
        if directed:
            edges, g = random_digraph(rng, n, 0.3)
        else:
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
            g = build_topology(n, edges)
        if is_connected(g):
            out.append((edges, g))
    return out


# ---------------------------------------------------------------------------
# binary entropy of reach fractions, on the kernel's domain (0, 1]


def binary_entropy(*fractions):
    return complexity._entropy_of_fractions(np.array(fractions))


def test_binary_entropy_half_is_one_bit():
    assert binary_entropy(0.5)[0] == 1.0


def test_binary_entropy_endpoints_zero():
    assert binary_entropy(1.0)[0] == 0.0


def test_binary_entropy_quarter_anchor():
    assert binary_entropy(0.25)[0] == pytest.approx(H_QUARTER, abs=1e-15)


def test_binary_entropy_symmetry():
    ps = (0.1, 0.25, 0.33, 0.49)
    mirrored = binary_entropy(*(1 - p for p in ps))
    assert binary_entropy(*ps) == pytest.approx(mirrored, abs=1e-15)


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


@pytest.mark.parametrize("r", [0, -1])
def test_mean_information_rejects_scale_below_one(r):
    with pytest.raises(ValueError, match=rf"scale r must be >= 1, got {r}$"):
        mean_information(path(3), 2, r)


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
    g = path(5)
    for cell in functional_complexity(g).cells:
        if cell.size == g.node_count:
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
    pol = SamplingPolicy(sample_count=300, exhaustive_limit=1, seed=17)
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
    pol = SamplingPolicy(sample_count=4000, exhaustive_limit=1, seed=2)
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


# ---------------------------------------------------------------------------
# directed graphs: a member counts the nodes that can reach it


def test_directed_mean_information_matches_oracle():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(3, 7)
        edges, g = random_digraph(rng, n, 0.3)
        G = nx.DiGraph(edges)
        G.add_nodes_from(range(n))
        for r in range(1, n):
            for size in range(1 + r, n + 1):
                got = mean_information(g, size, r)
                expected = oracle_mean_information(G, size, r)
                assert got.value == pytest.approx(expected, abs=1e-12)
                assert got.subset_count == math.comb(n, size)


def test_directed_information_counts_reachers_not_reachables():
    # out-star 0 -> 1, 0 -> 2: node 0 is reached by itself alone, each leaf
    # by two nodes; counting reachable nodes instead would give 2 H(1/3)
    g = build_topology(3, [(0, 1), (0, 2)], directed=True)
    got = mean_information(g, 3, 1).value
    assert got == pytest.approx(3 * binary_entropy(1 / 3)[0], abs=1e-12)
    assert got == pytest.approx(
        oracle_subgraph_information(nx.DiGraph([(0, 1), (0, 2)]), (0, 1, 2), 1),
        abs=1e-12,
    )


def test_directed_functional_complexity_matches_oracle():
    for edges, g in connected_graphs(43, 10, (3, 6), directed=True):
        expected = oracle_functional_complexity(g.node_count, edges, directed=True)
        assert functional_complexity(g).complexity == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# one pass per size against one cell at a time


@pytest.mark.parametrize("directed", [False, True])
def test_profile_cells_equal_single_cell_evaluation(directed):
    pol = SamplingPolicy(sample_count=150, exhaustive_limit=20, seed=9)
    kinds = set()
    for _, g in connected_graphs(47, 6, (6, 9), directed):
        prof = functional_complexity(g, pol)
        for c in prof.cells:
            kinds.add(c.sampled)
            assert mean_information(g, c.size, c.scale, pol) == MeanInformation(
                value=c.mean_information,
                stderr=c.stderr,
                subset_count=c.subset_count,
                sampled=c.sampled,
            )
    assert kinds == {False, True}


def test_kernel_values_do_not_depend_on_chunking(monkeypatch):
    rng = random.Random(53)
    _, g = random_digraph(rng, 12, 0.25)
    adj = complexity._dense_adjacency(g)[None]
    members = np.array(
        [sorted(rng.sample(range(12), 7)) for _ in range(700)], dtype=np.intp
    )
    ref = complexity._information_batch(adj, members, 5)[:, 0]
    assert ref.shape == (5, 700)
    cuts = sorted(rng.sample(range(1, 700), 6))
    parts = [
        complexity._information_batch(adj, part, 5)[:, 0]
        for part in np.split(members, cuts)
    ]
    assert np.array_equal(np.concatenate(parts, axis=1), ref)
    for rows in (1, 3, 255, 1000):  # _CHUNK counts entries: rows of 7 x 7
        monkeypatch.setattr(complexity, "_CHUNK", rows * 7 * 7)
        assert np.array_equal(complexity._information_batch(adj, members, 5)[:, 0], ref)


@pytest.mark.parametrize("directed", [False, True])
def test_kernel_equals_oracle_kernel(directed, monkeypatch):
    # every subset of every size, all scales 1..j-1 in one call; the oracle
    # sets the diagonal itself, so this also checks I|A from _dense_adjacency
    rng = random.Random(61)
    for n in range(3, 13):
        if directed:
            _, g = random_digraph(rng, n, 0.3)
        else:
            g = build_topology(n, [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4
            ])
        adj = complexity._dense_adjacency(g)
        for size in range(2, n + 1):
            members = np.array(
                list(itertools.combinations(range(n), size)), dtype=np.intp
            )
            ref = oracle_information_batch(adj, members, size - 1)
            for rows in (1, 3, 256):  # subsets per pass
                monkeypatch.setattr(complexity, "_CHUNK", rows * size * size)
                got = complexity._information_batch(adj[None], members, size - 1)
                assert np.array_equal(got[:, 0], ref), (n, size, rows)


@pytest.mark.parametrize("directed", [False, True])
def test_kernel_from_scale_equals_oracle_rows(directed, monkeypatch):
    # scales first..r with (I|A)^first by squaring along the bits of first;
    # first = r is what a sampled cell asks for
    rng = random.Random(67)
    for n in range(3, 11):
        if directed:
            _, g = random_digraph(rng, n, 0.3)
        else:
            g = build_topology(n, [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3
            ])
        adj = complexity._dense_adjacency(g)
        for size in range(2, n + 1):
            members = np.array(
                list(itertools.combinations(range(n), size)), dtype=np.intp
            )
            ref = oracle_information_batch(adj, members, size - 1)
            for rows in (3, 256):  # subsets per pass
                monkeypatch.setattr(complexity, "_CHUNK", rows * size * size)
                for r in range(1, size):
                    for first in range(1, r + 1):
                        got = complexity._information_batch(adj[None], members, r, first)
                        assert np.array_equal(got[:, 0], ref[first - 1:r]), (n, size, r, first)


def test_kernel_reaches_a_scale_in_logarithmically_many_products(monkeypatch):
    # a sampled cell asks for scale r alone: floor(log2 r) + popcount(r) - 1
    # products, where a chain from scale 1 would take r - 1
    calls = []
    product = complexity._reach_product
    monkeypatch.setattr(complexity, "_reach_product",
                        lambda a, b: calls.append(1) or product(a, b))
    adj = complexity._dense_adjacency(path(20))[None]
    members = np.arange(20)[None]
    for r in range(1, 20):
        calls.clear()
        complexity._information_batch(adj, members, r, r)
        assert len(calls) == r.bit_length() - 1 + bin(r).count("1") - 1, r
        calls.clear()
        complexity._information_batch(adj, members, r)
        assert len(calls) == r - 1, r


# ---------------------------------------------------------------------------
# subsets of at most _TABLE_SIZE members in undirected stacks read a table


def code_graph(j, code):
    """I | A of the labelled graph on j members whose bit p marks member
    pair p, in np.triu_indices(j, 1) order, as an edge."""
    a = np.eye(j, dtype=np.float32)
    for p, (u, v) in enumerate(zip(*np.triu_indices(j, 1))):
        if code >> p & 1:
            a[u, v] = a[v, u] = 1.0
    return a


@pytest.mark.parametrize("j", range(2, complexity._TABLE_SIZE + 1))
def test_code_table_equals_the_chain_alone_and_in_a_batch(j):
    table = complexity._code_table(j)
    assert complexity._code_table(j) is table and not table.flags.writeable
    codes = 1 << (j * (j - 1) // 2)
    assert table.shape == (j - 1, codes)
    stack = np.stack([code_graph(j, c) for c in range(codes)])

    def chain(graphs):
        return complexity._chain_batch(graphs, np.arange(j)[None], j - 1)[:, :, 0]

    for code in range(codes):  # each code alone
        assert np.array_equal(table[:, code], chain(stack[code:code + 1])[:, 0]), code
    assert np.array_equal(table[:, ::-1], chain(stack[::-1]))  # all in one batch
    # every j-subset of seeded 9-node graphs, from each first scale
    rng = random.Random(101 + j)
    for _ in range(3):
        g = build_topology(9, [e for e in itertools.combinations(range(9), 2)
                               if rng.random() < 0.45])
        adj = complexity._dense_adjacency(g)
        subsets = np.array(list(itertools.combinations(range(9), j)), dtype=np.intp)
        ref = complexity._chain_batch(adj[None], subsets, j - 1)[:, 0]
        for first in range(1, j):
            got = complexity._information_batch(adj[None], subsets, j - 1, first)
            assert np.array_equal(got[:, 0], ref[first - 1:])
            assert got.flags.c_contiguous


def record_table_sizes(monkeypatch):
    """The member counts of the passes that read the code table."""
    sizes = set()
    pair_bits = complexity._pair_bits

    def recorded(flat, members, n):
        sizes.add(members.shape[1])
        return pair_bits(flat, members, n)

    monkeypatch.setattr(complexity, "_pair_bits", recorded)
    return sizes


def test_asymmetric_stacks_take_the_chain(monkeypatch):
    sizes = record_table_sizes(monkeypatch)
    rng = random.Random(103)
    directed = complexity._dense_adjacency(random_digraph(rng, 8, 0.3)[1])
    undirected = complexity._dense_adjacency(star(8))
    members = np.array(list(itertools.combinations(range(8), 4)), dtype=np.intp)
    for stack, table_sizes in ((np.stack([undirected] * 3), {4}),
                               (np.stack([undirected, directed, undirected]), set())):
        sizes.clear()
        got = complexity._information_batch(stack, members, 3)
        assert sizes == table_sizes
        for a, cells in zip(stack, got.transpose(1, 0, 2)):
            assert np.array_equal(cells, oracle_information_batch(a, members, 3))


@pytest.mark.parametrize("limit", [10, 100_000])
def test_table_sizes_in_a_block_equal_one_graph_at_a_time(limit, monkeypatch):
    # 7-node graphs: sizes 2..5 read the table, and are sampled at limit 10
    sizes = record_table_sizes(monkeypatch)
    pol = SamplingPolicy(sample_count=40, exhaustive_limit=limit, seed=7)
    block = mixed_block(107, 7, 10)
    profiles = functional_complexity(block, pol)
    assert sizes == {2, 3, 4, 5}
    assert any(c.sampled for p in profiles for c in p.cells) == (limit == 10)
    for g, prof in zip(block, profiles, strict=True):
        one = functional_complexity(g, pol)
        assert (prof.cells, prof.complexity) == (one.cells, one.complexity)


def test_one_batch_member_arrays_are_cached_read_only(monkeypatch):
    monkeypatch.setattr(complexity, "_BATCH", 10)
    complexity._exhaustive_members.cache_clear()
    for size in range(1, 7):  # C(6, size) = 6, 15, 20, 15, 6, 1 against 10
        batches = list(complexity._exhaustive_batches(6, size))
        assert len(batches) == -(-math.comb(6, size) // 10)
        rows = [tuple(row) for batch in batches for row in batch.tolist()]
        assert rows == list(itertools.combinations(range(6), size))
    members = next(complexity._exhaustive_batches(6, 5))
    assert next(complexity._exhaustive_batches(6, 5)) is members
    assert not members.flags.writeable
    with pytest.raises(ValueError):
        members[0, 0] = 1
    table = complexity._entropy_table(5)
    assert complexity._entropy_table(5) is table
    assert not table.flags.writeable
    adj = complexity._dense_adjacency(star(6))
    assert np.array_equal(
        complexity._information_batch(adj[None], members, 4)[:, 0],
        oracle_information_batch(adj, members.copy(), 4),
    )


# ---------------------------------------------------------------------------
# a block of graphs in shared kernel passes against one graph at a time


def graph_of_diameter(n, d):
    """The complete graph for d = 1; else the path 0..d with every other
    node joined to node 1 and to each other, which keeps the diameter d."""
    if d == 1:
        return complete(n)
    edges = [(i, i + 1) for i in range(d)]
    extra = range(d + 1, n)
    edges += [(1, v) for v in extra] + list(itertools.combinations(extra, 2))
    return build_topology(n, edges)


def profile_key(prof):
    return prof.diameter, tuple(tuple(c) for c in prof.cells), prof.complexity


def oracle_key(g, pol=SamplingPolicy()):
    return oracle_profile(
        g.node_count, g.edges, g.directed, pol.sample_count, pol.exhaustive_limit, pol.seed
    )


def mixed_block(seed, n, count):
    """Every diameter 1..n-1 plus seeded connected graphs, shuffled."""
    rng = random.Random(seed)
    block = [graph_of_diameter(n, d) for d in range(1, n)]
    block += [g for _, g in connected_graphs(seed, count, (n, n), directed=False)]
    rng.shuffle(block)
    return block


def test_block_profiles_equal_one_graph_oracle():
    block = mixed_block(73, 10, 14)
    profiles = functional_complexity(block)
    assert {p.diameter for p in profiles} == set(range(1, 10))
    assert profiles[[g.edges for g in block].index(complete(10).edges)].degenerate
    for g, prof in zip(block, profiles, strict=True):
        assert profile_key(prof) == oracle_key(g)
        assert profile_key(functional_complexity(g)) == oracle_key(g)


def test_directed_block_profiles_equal_one_graph_oracle():
    block = [g for _, g in connected_graphs(79, 12, (9, 9), directed=True)]
    assert len({complexity.diameter(g) for g in block}) > 1
    for g, prof in zip(block, functional_complexity(block), strict=True):
        assert profile_key(prof) == oracle_key(g)


def test_block_cell_past_one_batch_equals_oracle():
    # size 7 of 15 nodes has C(15, 7) = 6435 subsets, two member batches
    assert math.comb(15, 7) > complexity._BATCH
    block = [graph_of_diameter(15, 3), graph_of_diameter(15, 5), graph_of_diameter(15, 3)]
    for g, prof in zip(block, functional_complexity(block), strict=True):
        assert profile_key(prof) == oracle_key(g)


@pytest.mark.parametrize("limit", [1, 100])
def test_block_with_sampled_sizes_equals_oracle(limit):
    pol = SamplingPolicy(sample_count=60, exhaustive_limit=limit, seed=5)
    block = mixed_block(83, 9, 4)
    profiles = functional_complexity(block, pol)
    assert {c.sampled for p in profiles for c in p.cells} == {False, True}
    for g, prof in zip(block, profiles, strict=True):
        assert profile_key(prof) == oracle_key(g, pol)


def test_block_draws_each_sampled_cell_once(monkeypatch):
    # five relabeled 7-node paths, all of diameter 6: limit 1 samples every
    # size below 7, and each sampled (scale, size) cell draws its stream
    # once for the whole block, not once per graph
    draws = []
    sampled_batches = complexity._sampled_batches

    def counted(n, size, count, rng):
        draws.append(size)
        return sampled_batches(n, size, count, rng)

    monkeypatch.setattr(complexity, "_sampled_batches", counted)
    rng = random.Random(97)
    block = []
    for _ in range(5):
        order = rng.sample(range(7), 7)
        block.append(build_topology(7, list(zip(order, order[1:]))))
    pol = SamplingPolicy(sample_count=20, exhaustive_limit=1, seed=2)
    profiles = functional_complexity(block, pol)
    sampled = [c.size for c in profiles[0].cells if c.sampled]
    assert len(sampled) == 5 + 4 + 3 + 2 + 1
    assert sorted(draws) == sorted(sampled)
    for g, prof in zip(block, profiles, strict=True):
        assert profile_key(prof) == oracle_key(g, pol)


@pytest.mark.parametrize("directed", [False, True])
def test_stacked_kernel_equals_oracle_kernel(directed, monkeypatch):
    rng = random.Random(89)
    for n in (4, 9, 11):
        if directed:
            block = [random_digraph(rng, n, 0.3)[1] for _ in range(5)]
        else:
            block = [graph_of_diameter(n, d) for d in range(1, n)]
        stack = np.stack([complexity._dense_adjacency(g) for g in block])
        for size in range(2, n + 1):
            members = np.array(list(itertools.combinations(range(n), size)), dtype=np.intp)
            refs = [oracle_information_batch(a, members, size - 1) for a in stack]
            for rows in (1, 7, len(members) + 1, 4 * len(members)):
                monkeypatch.setattr(complexity, "_CHUNK", rows * size * size)
                for r, first in {(size - 1, 1), (size - 1, size - 1), (1, 1)}:
                    got = complexity._information_batch(stack, members, r, first)
                    assert got.shape == (r - first + 1, len(block), len(members))
                    for g, ref in enumerate(refs):
                        assert np.array_equal(got[:, g], ref[first - 1:r]), (n, size, rows, r)


@pytest.mark.parametrize("pol", [
    SamplingPolicy(),
    # C(8, j) > 40 samples sizes 4, 5 and 6
    SamplingPolicy(sample_count=30, exhaustive_limit=40, seed=4),
], ids=["exhaustive", "sampled"])
def test_block_arrays_give_each_graph_its_own_profile(pol):
    # complete graphs (no cells), diameter-2 graphs and paths in one block:
    # each profile is the one-graph profile field for field, with the same
    # Python types, as repr shows
    block = [complete(8), star(8), path(8), graph_of_diameter(8, 2), complete(8), path(8)]
    profiles = functional_complexity(block, pol)
    assert [p.diameter for p in profiles] == [1, 2, 7, 2, 1, 7]
    assert {c.sampled for p in profiles for c in p.cells} == {False, pol.exhaustive_limit < 70}
    for g, prof in zip(block, profiles, strict=True):
        alone = functional_complexity(g, pol)
        assert prof == alone and repr(prof) == repr(alone)
        assert profile_key(prof) == oracle_key(g, pol)
        if prof.diameter == 1:
            assert prof.degenerate and prof.cells == () and prof.complexity == 0.0
    for sub in ([complete(8)], [complete(8), complete(8)], [star(8)]):
        assert functional_complexity(sub, pol) == [functional_complexity(g, pol) for g in sub]


def test_block_needs_one_node_count():
    with pytest.raises(ValueError, match="one node count"):
        functional_complexity([path(5), path(6)])
    assert functional_complexity([]) == []


def test_block_raises_for_its_first_disconnected_graph():
    broken = [build_topology(5, [(0, 1), (2, 3), (3, 4)]), build_topology(5, [(0, 2)])]
    with pytest.raises(ValueError) as one:
        functional_complexity(broken[0])
    with pytest.raises(ValueError) as block:
        functional_complexity([path(5), *broken])
    assert str(block.value) == str(one.value)


def record_passes(monkeypatch):
    """One (rows, j, width) entry per kernel pass of j-member subsets: a
    one-hop stack of width j, or a pair-bit gather of width j(j-1)/2."""
    shapes = []
    one_hop, pair_bits = complexity._one_hop, complexity._pair_bits

    def recorded(flat, members, n, gather):
        out = gather(flat, members, n)
        shapes.append((len(out), members.shape[1], out.shape[-1]))
        return out

    monkeypatch.setattr(complexity, "_one_hop",
                        lambda *args: recorded(*args, one_hop))
    monkeypatch.setattr(complexity, "_pair_bits",
                        lambda *args: recorded(*args, pair_bits))
    return shapes


# 256 subsets of a 20-node graph: the largest pass before blocks
LARGEST_STACK_BYTES = 256 * 20 * 20 * 4


def test_block_passes_stay_within_the_stack_bound(monkeypatch):
    # 32 graphs of diameter 3 need scales 1..2 at every size past 2: one
    # kernel call per size, its passes whole graphs while they fit.  Sizes
    # 2..5 gather pair bits for the code table in the passes a product
    # chain of their size would make
    shapes = record_passes(monkeypatch)
    profiles = functional_complexity([graph_of_diameter(10, 3)] * 32)
    assert len({p.complexity for p in profiles}) == 1
    assert shapes == [
        (1440, 2, 1), (3840, 3, 3),
        (3150, 4, 6), (3150, 4, 6), (420, 4, 6),
        *[(2016, 5, 10)] * 4,
        *[(1260, 6, 6)] * 5, (420, 6, 6),
        *[(960, 7, 7)] * 4,
        (765, 8, 8), (675, 8, 8),
        (320, 9, 9), (32, 10, 10),
    ]
    # a pair-bit gather's rows hold j(j-1)/2 < j * j entries, so the bound
    # on its pass bounds the gather too
    for rows, j, _ in shapes:
        assert rows * j * j <= complexity._CHUNK
        assert rows * j * j * 4 <= LARGEST_STACK_BYTES


def test_one_graph_passes_stay_within_the_stack_bound(monkeypatch):
    shapes = record_passes(monkeypatch)
    pol = SamplingPolicy(sample_count=500, exhaustive_limit=2000, seed=3)
    functional_complexity(graph_of_diameter(20, 6), pol)
    assert (1, 20, 20) in shapes and (20, 19, 19) in shapes
    for rows, j, _ in shapes:
        assert rows * j * j <= complexity._CHUNK
        assert rows * j * j * 4 <= LARGEST_STACK_BYTES
    # 500 draws of 12 members: passes of _CHUNK // 144 = 355 rows
    assert shapes.count((355, 12, 12)) == 5 and shapes.count((145, 12, 12)) == 5


# ---------------------------------------------------------------------------
# sampled draws replay random.Random.sample on each cell's stream


def draw_grid():
    """(n, size) cells over both random.sample methods: the pool method for
    n <= 21 at every size and for n <= 85 at sizes 6-21, the set method for
    larger n (setsize is 21 up to size 5 and 85 up to size 21)."""
    cells = [(n, size) for n in range(1, 22) for size in range(1, n + 1)]
    cells += [(n, size) for n in range(22, 41) for size in range(1, 6)]
    cells += [(n, size) for n in (85, 86, 100, 300) for size in (6, 7)]
    cells += [(85, 21), (300, 22)]
    return cells


@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_batches_replay_random_sample(seed):
    for n, size in draw_grid():
        ours = random.Random(f"{seed}:{n}:{size}")
        theirs = random.Random(f"{seed}:{n}:{size}")
        got = list(complexity._sampled_batches(n, size, 9, ours))
        expected = list(oracle_sampled_batches(n, size, 9, theirs))
        assert len(got) == len(expected) == 1, (n, size)
        assert got[0].dtype == np.intp
        assert np.array_equal(got[0], expected[0]), (n, size)
        # the stream is left where the per-draw sample calls leave it
        assert ours.getstate() == theirs.getstate(), (n, size)


@pytest.mark.parametrize("n, size", [(20, 10), (40, 5), (100, 6)])
def test_sampled_batches_past_one_batch(n, size):
    ours = random.Random(f"past:{n}:{size}")
    theirs = random.Random(f"past:{n}:{size}")
    got = list(complexity._sampled_batches(n, size, complexity._BATCH + 1, ours))
    expected = list(oracle_sampled_batches(
        n, size, complexity._BATCH + 1, theirs, complexity._BATCH
    ))
    assert [b.shape for b in got] == [(complexity._BATCH, size), (1, size)]
    assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))
    assert ours.getstate() == theirs.getstate()


def test_set_method_cells_equal_per_draw_sampling(monkeypatch):
    # 30 nodes at size 4 take random.sample's set method
    rng = random.Random(71)
    edges = [(i, i + 1) for i in range(29)]
    edges += [e for e in itertools.combinations(range(30), 2) if rng.random() < 0.04]
    g = build_topology(30, edges)
    pol = SamplingPolicy(sample_count=300, exhaustive_limit=1, seed=8)
    got = [mean_information(g, 4, r, pol) for r in (1, 2, 3)]
    monkeypatch.setattr(
        complexity, "_sampled_batches",
        lambda n, size, count, rng: oracle_sampled_batches(
            n, size, count, rng, complexity._BATCH
        ),
    )
    assert got == [mean_information(g, 4, r, pol) for r in (1, 2, 3)]
