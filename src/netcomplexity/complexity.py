"""Functional-complexity metric for connected topologies.

Each node n of an induced size-j subgraph contributes the binary entropy of
p = (nodes within r hops of n, n included) / j; summing over members gives
the subgraph information at scale r.  For every scale r = 1..R-1 (R = graph
diameter) the mean information per size j is compared against the straight
line through the two fixed endpoints (0 at j = r+1, whole-graph information
at j = N); the metric is the accumulated absolute deviation averaged over
scales.  Complete graphs (R = 1) have no scale to evaluate and score 0 by
convention, reported with a degenerate flag.

functional_complexity scores one graph or a block of graphs with one node
count.  A block reads each subset source once: an exhaustive size's member
array serves the graphs that need the same scales as one stack, and a
sampled (scale, size) cell's draw stream serves every graph that has that
scale.  Each graph's cell is summed on its own contiguous row, in the order
a one-graph evaluation sums it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graph import (
    FunctionalTopology,
    SamplingPolicy,
    diameter,
    is_connected,
    sample_stream,
)

# subsets per batch; fixes the summation order of each cell.  A cell of at
# most one batch keeps its member array cached (see _exhaustive_batches)
_BATCH = 4096
# matrix entries per kernel pass, (graph, subset) rows times j * j: bounds
# each float32 stack at 200 KB, 128 subsets of a 20-node graph
_CHUNK = 128 * 20 * 20
# largest subset scored from _code_table: 2 + 8 + 64 + 1,024 codes for
# 2..5 members, about 33 KB of float64
_TABLE_SIZE = 5


# ---------------------------------------------------------------------------
# batched reachability kernel


def _dense_adjacency(g: FunctionalTopology) -> np.ndarray:
    """I | A as float32: every node reaches itself in zero hops."""
    a = np.eye(g.node_count, dtype=np.float32)
    for u, v in g.edges:
        a[u, v] = 1.0
        if not g.directed:
            a[v, u] = 1.0
    return a


def _entropy_of_fractions(p: np.ndarray) -> np.ndarray:
    """Elementwise binary entropy; p is in (0, 1]."""
    q = 1.0 - p
    out = -p * np.log2(p)
    nz = q > 0.0
    out[nz] -= q[nz] * np.log2(q[nz])
    return out


@functools.lru_cache(maxsize=None)
def _entropy_table(j: int) -> np.ndarray:
    """Read-only table whose entry c is the binary entropy of c / j (0 at 0)."""
    table = np.zeros(j + 1)
    table[1:] = _entropy_of_fractions(np.arange(1, j + 1) / float(j))
    table.flags.writeable = False
    return table


def _reach_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of stacked 0/1 reach matrices, re-binarized in place."""
    out = np.matmul(a, b)
    np.minimum(out, 1.0, out=out)
    return out


def _one_hop(flat: np.ndarray, members: np.ndarray, n: int) -> np.ndarray:
    """One kernel pass's (G * S, j, j) stack: the submatrix induced by each
    of the S subsets of members in each of the G flat (n * n) adjacencies,
    graph-major, transposed so that row c lists the nodes reaching member c."""
    j = members.shape[1]
    pairs = members[:, None, :] * n + members[:, :, None]
    return np.take(flat, pairs, axis=1).reshape(-1, j, j)


@functools.lru_cache(maxsize=None)
def _pair_positions(j: int) -> tuple[np.ndarray, np.ndarray]:
    """The two member positions of each pair of j members, in
    np.triu_indices(j, 1) order."""
    return np.triu_indices(j, 1)


def _pair_bits(flat: np.ndarray, members: np.ndarray, n: int) -> np.ndarray:
    """One table pass's (G * S, j(j-1)/2) stack: for each of the S subsets
    of members in each of the G flat (n * n) adjacencies, graph-major, one
    0/1 entry per member pair in _pair_positions order."""
    lo, hi = _pair_positions(members.shape[1])
    pairs = members[:, lo] * n + members[:, hi]
    return np.take(flat, pairs, axis=1).reshape(-1, len(lo))


def _passes(g_count: int, s: int, j: int):
    """(graphs, subsets) slices of each kernel pass over G graphs and S
    subsets of j members: at most _CHUNK matrix entries, (graph, subset)
    rows times j * j, per pass.  A pass holds several whole graphs when
    all S subsets fit, else a slice of one graph's subsets."""
    rows = max(1, _CHUNK // (j * j))
    step = min(s, rows)  # subsets per pass
    span = rows // step  # graphs per pass
    for g0 in range(0, g_count, span):
        for lo in range(0, s, step):
            yield slice(g0, g0 + span), slice(lo, lo + step)


def _chain_batch(
    adj: np.ndarray, members: np.ndarray, r: int, first: int = 1
) -> np.ndarray:
    """_information_batch by the product chain alone.  The chain runs
    inline in the pass loop, so a pass's stacks stay allocated until the
    next pass replaces them: a function per pass freed them on return, and
    the next pass faulted their pages in again (six times the minor page
    faults, and 10-member passes 30% slower)."""
    g_count, n, _ = adj.shape
    flat = adj.reshape(g_count, n * n)
    s, j = members.shape
    table = _entropy_table(j)
    ones = np.ones(j, dtype=np.float32)
    out = np.empty((r - first + 1, g_count, s))
    for gs, ss in _passes(g_count, s, j):
        graphs, m = flat[gs], members[ss]
        one_hop = _one_hop(graphs, m, n)
        reach = one_hop
        for bit in f"{first:b}"[1:]:
            reach = _reach_product(reach, reach)
            if bit == "1":
                reach = _reach_product(reach, one_hop)
        for k in range(r - first + 1):
            if k:
                reach = _reach_product(reach, one_hop)
            # reachers of each member, one C-ordered row per subset
            counts = np.matmul(reach.reshape(-1, j), ones).astype(np.intp)
            info = table[counts.reshape(-1, j)].sum(axis=1)
            out[k, gs, ss] = info.reshape(len(graphs), len(m))
    return out


@functools.lru_cache(maxsize=None)
def _code_table(j: int) -> np.ndarray:
    """Read-only (j-1, 2 ** (j(j-1)/2)) table whose entry [k-1, code] is the
    information at scale k of the labelled undirected graph on j members
    with that code: bit p is set when member pair p, in _pair_positions
    order, is an edge.  Filled by one chain call over every code."""
    lo, hi = _pair_positions(j)
    codes = np.arange(1 << len(lo))
    bits = ((codes[:, None] >> np.arange(len(lo))) & 1).astype(np.float32)
    adj = np.zeros((len(codes), j, j), dtype=np.float32)
    adj[:, lo, hi] = adj[:, hi, lo] = bits
    adj[:, range(j), range(j)] = 1.0
    table = _chain_batch(adj, np.arange(j)[None], j - 1).reshape(j - 1, len(codes))
    table.flags.writeable = False
    return table


def _information_batch(
    adj: np.ndarray, members: np.ndarray, r: int, first: int = 1
) -> np.ndarray:
    """Information per subset at scales first..r for an (S, j) array of
    member indices in each graph of the (G, n, n) stack adj, as a
    C-contiguous (r-first+1, G, S) array whose row k-first holds scale k.

    adj is I | A from _dense_adjacency, so the induced submatrices, gathered
    transposed through the flat adjacency by _one_hop, already hold one-hop
    reach with self-loops.  Reachability within k hops is (I | A)^k over
    each submatrix, from re-binarized float32 matmuls: (I | A)^first by
    squaring along the bits of first, high bit first, with one more hop at
    each set bit (floor(log2 first) + popcount(first) - 1 products), then
    one product by the one-hop stack per scale past first.  Every product
    of 0/1 matrices sums at most j ones, so float32 is exact and any order
    of products gives the same matrix.  The reachers of each member are the
    row sums, taken as one matrix-vector product with a row of ones; they
    are integers of at most j too.  A member reached by c nodes contributes
    the binary entropy of c / j, read from a table and summed along the
    member's C-contiguous row.

    Subsets of at most _TABLE_SIZE members in a symmetric (undirected)
    stack skip the chain: _pair_bits gathers each induced subgraph's
    j(j-1)/2 pair bits, one float32 matrix-vector product with powers of
    two (exact below 2^24) turns them into the subgraph's code, and
    _code_table(j) holds the answer at every scale.  The table was filled
    by the same chain, and an entry is the same sum of the same j entropies
    along a C-contiguous row, which numpy adds in an order that does not
    depend on the number of rows, so both paths give the same bytes.

    Both paths take the same passes (_passes), each of at most _CHUNK
    matrix entries.
    """
    g_count, n, _ = adj.shape
    s, j = members.shape
    if j > _TABLE_SIZE or not np.array_equal(adj, adj.transpose(0, 2, 1)):
        return _chain_batch(adj, members, r, first)
    flat = adj.reshape(g_count, n * n)
    table = _code_table(j)[first - 1:r]
    powers = (2 ** np.arange(j * (j - 1) // 2)).astype(np.float32)
    out = np.empty((r - first + 1, g_count, s))
    for gs, ss in _passes(g_count, s, j):
        graphs, m = flat[gs], members[ss]
        codes = np.matmul(_pair_bits(graphs, m, n), powers).astype(np.intp)
        out[:, gs, ss] = np.take(table, codes.reshape(len(graphs), len(m)), axis=1)
    return out


def _member_array(rows, take: int, size: int) -> np.ndarray:
    """Stack take rows of size member ids into a (take, size) array."""
    flat = itertools.chain.from_iterable(rows)
    return np.fromiter(flat, dtype=np.intp, count=take * size).reshape(take, size)


@functools.lru_cache(maxsize=128)
def _exhaustive_members(n: int, size: int) -> np.ndarray:
    """Read-only array of every size-subset of range(n), in lexicographic order."""
    total = math.comb(n, size)
    members = _member_array(itertools.combinations(range(n), size), total, size)
    members.flags.writeable = False
    return members


def _exhaustive_batches(n: int, size: int):
    """Lexicographic member arrays in fixed-size batches.  A cell that fits
    in one batch yields its cached array, shared by every graph of n nodes;
    larger cells are built batch by batch, since keeping them would hold
    most of their subsets in memory for the life of the process."""
    remaining = math.comb(n, size)
    if remaining <= _BATCH:
        yield _exhaustive_members(n, size)
        return
    it = itertools.combinations(range(n), size)
    while remaining > 0:
        take = min(remaining, _BATCH)
        remaining -= take
        yield _member_array(itertools.islice(it, take), take, size)


def _sampled_batches(n: int, size: int, count: int, rng):
    """count sorted size-subsets of range(n) in fixed-size batches, each row
    exactly what rng.sample(range(n), size) would return next.

    The loop replays CPython's random.sample word for word on
    rng.getrandbits, so rows and stream position match a per-draw sample
    call.  With setsize = 21, plus 4 ** ceil(log(3 * size, 4)) when size > 5:
    - n <= setsize, the pool method: a partial Fisher-Yates over a fresh
      list(range(n)); for m = n, n-1, ..., n-size+1 it draws
      j = getrandbits(m.bit_length()) until j < m, takes pool[j] and moves
      pool[m-1] into the vacancy;
    - otherwise, the set method: it draws j = getrandbits(n.bit_length())
      until j < n and j is not yet in the row.
    """
    getrandbits = rng.getrandbits
    setsize = 21
    if size > 5:
        setsize += 4 ** math.ceil(math.log(size * 3, 4))
    use_pool = n <= setsize
    full = list(range(n))
    steps = [(m, m.bit_length()) for m in range(n, n - size, -1)]
    bits = n.bit_length()
    remaining = count
    while remaining > 0:
        take = min(remaining, _BATCH)
        remaining -= take
        flat: list[int] = []
        append = flat.append
        for _ in range(take):
            if use_pool:
                pool = full[:]
                for m, k in steps:
                    j = getrandbits(k)
                    while j >= m:
                        j = getrandbits(k)
                    append(pool[j])
                    pool[j] = pool[m - 1]
            else:
                seen: set[int] = set()
                for _ in range(size):
                    j = getrandbits(bits)
                    while j >= n or j in seen:
                        j = getrandbits(bits)
                    seen.add(j)
                    append(j)
        chunk = np.array(flat, dtype=np.intp).reshape(take, size)
        chunk.sort(axis=1)
        yield chunk


class MeanInformation(NamedTuple):
    """Mean subgraph information at one (scale, size) cell."""

    value: float
    stderr: float
    subset_count: int
    sampled: bool


def _subset_source(n: int, size: int, r: int, policy: SamplingPolicy):
    """(batches, count, sampled) for the size-subsets of n nodes: every
    subset of an exhaustive size, or the draws of the (r, size) stream of a
    sampled one, an independent stream per cell derived from the policy
    seed."""
    if policy.sampled(n, size):
        rng = sample_stream(policy.seed, r, size)
        count = policy.sample_count
        return _sampled_batches(n, size, count, rng), count, True
    return _exhaustive_batches(n, size), math.comb(n, size), False


def _scale_means(
    adj: np.ndarray, batches, r: int, total_count: int, sampled: bool, first: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """The cells at scales first..r over one stream of member batches, for
    each graph of the (G, n, n) stack adj: two (r - first + 1, G) arrays,
    the means and their standard errors, whose entry [k, g] holds scale
    first+k of graph g."""
    acc = acc_sq = 0.0
    seen = 0
    for members in batches:
        vals = _information_batch(adj, members, r, first)
        # each graph's cell is a C-contiguous row of the (rows, G, S) result,
        # so its sum adds in the same pairwise order as a 1-D sum of the
        # cell; exhaustive cells need no squares, their stderr is 0
        acc = acc + vals.sum(axis=2)
        if sampled:
            acc_sq = acc_sq + (vals * vals).sum(axis=2)
        seen += len(members)
    assert seen == total_count
    if not sampled:
        return acc / seen, np.zeros_like(acc)
    var = np.maximum(acc_sq - acc * acc / seen, 0.0) / (seen - 1)
    return acc / seen, np.sqrt(var / seen)


def mean_information(
    g: FunctionalTopology,
    size: int,
    r: int,
    policy: SamplingPolicy | None = None,
) -> MeanInformation:
    """Mean information over size-j induced subgraphs at scale r.

    Exhaustive cells average every subset (stderr 0); sampled cells report
    the unbiased sample mean and its standard error.  Sample draws come from
    an independent stream per (r, size) cell derived from the policy seed.
    The kernel evaluates scale r alone.
    """
    policy = policy or SamplingPolicy()
    n = g.node_count
    if r < 1:
        raise ValueError(f"scale r must be >= 1, got {r}")
    if not (1 + r <= size <= n):
        raise ValueError(f"size {size} outside {1 + r}..{n} for scale r={r}")
    batches, count, sampled = _subset_source(n, size, r, policy)
    means, stderrs = _scale_means(_dense_adjacency(g)[None], batches, r, count, sampled, r)
    return MeanInformation(float(means[0, 0]), float(stderrs[0, 0]), count, sampled)


# ---------------------------------------------------------------------------
# profile


class ScaleCell(NamedTuple):
    """One (scale, size) entry of a complexity profile, its fields in CSV
    column order."""

    scale: int
    size: int
    mean_information: float
    baseline: float
    deviation: float
    stderr: float
    subset_count: int
    sampled: bool


@dataclass(frozen=True)
class ComplexityProfile:
    """Full evaluation record of the functional-complexity metric."""

    diameter: int
    cells: tuple[ScaleCell, ...]
    complexity: float
    degenerate: bool

    @property
    def pooled_standard_error(self) -> float:
        """Standard error of the complexity value from per-cell sampling
        errors, treating cells as independent."""
        if self.diameter < 2:
            return 0.0
        var = sum(c.stderr ** 2 for c in self.cells)
        return math.sqrt(var) / (self.diameter - 1)


def functional_complexity(
    graphs: FunctionalTopology | Sequence[FunctionalTopology],
    policy: SamplingPolicy | None = None,
) -> ComplexityProfile | list[ComplexityProfile]:
    """Evaluate the metric over all scales 1..R-1 and sizes 1+r..N.

    graphs is one topology, giving its profile, or a sequence of topologies
    with one node count, giving their profiles in order; a sequence is
    scored as one block, with the same values as one graph at a time.
    Requires connected graphs; the first graph that is not raises before
    any is scored.  Diameter-1 graphs score 0 by convention
    (degenerate=True, empty per-scale table).
    """
    policy = policy or SamplingPolicy()
    single = isinstance(graphs, FunctionalTopology)
    block = [graphs] if single else list(graphs)
    node_counts = sorted({g.node_count for g in block})
    if len(node_counts) > 1:
        raise ValueError(f"a block needs one node count, got {node_counts}")
    diameters = []
    for g in block:
        if not is_connected(g):
            # surfaces the same node-pair diagnostic as the metric helpers
            diameter(g)
        diameters.append(diameter(g))
    means, stderrs, counts, sampled = _block_means(block, diameters, policy)
    profiles = [_profile(g.node_count, r_max, m, e, counts, sampled)
                for g, r_max, m, e in zip(block, diameters, means, stderrs)]
    return profiles[0] if single else profiles


def _block_means(
    block: list[FunctionalTopology], diameters: list[int], policy: SamplingPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """means[g, r, size] and stderrs[g, r, size] of graph g in block order,
    0 outside its cells, and each size's subset_count[size] and
    sampled[size], which depend only on (n, size) and the policy.

    The graphs are stacked in diameter order, so the graphs that need scale
    r of a size, top = min(R - 1, size - 1) >= r, form the tail of the
    stack, and each job scores one slice of it over one subset source:
    - an exhaustive size is enumerated once for all its scales: one job per
      run of equal top covers scales 1..top;
    - a sampled size keeps one draw stream per scale, read once: one job
      per scale r covers the tail whose top reaches r.
    """
    n = block[0].node_count if block else 0
    means = np.zeros((len(block), max(diameters, default=1), n + 1))
    stderrs = np.zeros_like(means)
    counts, sampled = np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=bool)
    order = sorted((d, i) for i, d in enumerate(diameters) if d >= 2)
    if not order:
        return means, stderrs, counts, sampled
    index = np.array([i for _, i in order])
    adj = np.stack([_dense_adjacency(block[i]) for i in index])
    for size in range(2, n + 1):
        tops = [min(d - 1, size - 1) for d, _ in order]
        if policy.sampled(n, size):
            jobs = [(r, r, bisect.bisect_left(tops, r), len(tops))
                    for r in range(1, tops[-1] + 1)]
        else:
            jobs = [(1, t, bisect.bisect_left(tops, t), bisect.bisect_right(tops, t))
                    for t in sorted(set(tops))]
        for first, top, lo, hi in jobs:
            batches, count, flag = _subset_source(n, size, top, policy)
            m, e = _scale_means(adj[lo:hi], batches, top, count, flag, first)
            # the advanced indices lead: entry [g, k] is graph g at scale first+k
            means[index[lo:hi], first:top + 1, size] = m.T
            stderrs[index[lo:hi], first:top + 1, size] = e.T
        counts[size], sampled[size] = count, flag
    return means, stderrs, counts, sampled


@functools.lru_cache(maxsize=None)
def _cells(n: int, r_max: int) -> np.ndarray:
    """Read-only (2, cells) array of the scales r = 1..r_max-1 and sizes
    1+r..n of an n-node graph of diameter r_max, in CSV order."""
    cells = np.array([(r, size) for r in range(1, r_max)
                      for size in range(1 + r, n + 1)]).T
    cells.flags.writeable = False
    return cells


def _profile(
    n: int, r_max: int, means: np.ndarray, stderrs: np.ndarray,
    counts: np.ndarray, sampled: np.ndarray,
) -> ComplexityProfile:
    """A graph's profile from its diameter and cell arrays, elementwise over
    the cells in CSV order (small ints cast exactly to float64), summed left
    to right by np.add.accumulate, not pairwise as np.sum: the bytes of a
    scalar loop over r, then size."""
    if r_max < 2:
        return ComplexityProfile(
            diameter=r_max, cells=(), complexity=0.0, degenerate=True,
        )
    r, size = _cells(n, r_max)
    value = means[r, size]
    baseline = (r + 1 - size) / (r + 1 - n) * means[r, n]  # [r, n]: the whole graph
    deviation = np.abs(value - baseline)
    cells = map(ScaleCell._make, zip(
        r.tolist(), size.tolist(), value.tolist(), baseline.tolist(), deviation.tolist(),
        stderrs[r, size].tolist(), counts[size].tolist(), sampled[size].tolist()))
    total = float(np.add.accumulate(deviation)[-1])
    return ComplexityProfile(diameter=r_max, cells=tuple(cells),
                             complexity=total / (r_max - 1), degenerate=False)
