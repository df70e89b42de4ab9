"""Functional-complexity metric for connected topologies.

Each node n of an induced size-j subgraph contributes the binary entropy of
p = (nodes within r hops of n, n included) / j; summing over members gives
the subgraph information at scale r.  For every scale r = 1..R-1 (R = graph
diameter) the mean information per size j is compared against the straight
line through the two fixed endpoints (0 at j = r+1, whole-graph information
at j = N); the metric is the accumulated absolute deviation averaged over
scales.  Complete graphs (R = 1) have no scale to evaluate and score 0 by
convention, reported with a degenerate flag.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

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
_CHUNK = 256  # subsets per kernel pass; bounds the float32 stacks in memory


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


def _information_batch(
    adj: np.ndarray, members: np.ndarray, r: int, first: int = 1
) -> np.ndarray:
    """Information per subset at scales first..r for an (S, j) array of
    member indices; row k-first of the (r-first+1, S) result holds scale k.

    adj is I | A from _dense_adjacency, so the induced submatrices, gathered
    through the flat adjacency, already hold one-hop reach with self-loops.
    Reachability within k hops is (I | A)^k over each submatrix: one float32
    matmul per scale past first, re-binarized each step, and (I | A)^first
    by binary exponentiation, floor(log2 first) + popcount(first) - 1
    products.  Every product of 0/1 matrices sums at most j ones, so float32
    is exact and both routes give the same matrix.  The reachers of each
    member are the column sums, taken as one matmul with a row of ones;
    they are integers of at most j too.  A member reached by c nodes
    contributes the binary entropy of c / j, read from a table.
    """
    s, j = members.shape
    n = adj.shape[0]
    flat = adj.ravel()
    table = _entropy_table(j)
    ones = np.ones(j, dtype=np.float32)
    out = np.empty((r - first + 1, s))
    for lo in range(0, s, _CHUNK):
        m = members[lo:lo + _CHUNK]
        one_hop = flat[m[:, :, None] * n + m[:, None, :]]
        reach, power, e = None, one_hop, first
        while True:  # binary exponentiation, low bit first
            if e & 1:
                reach = power if reach is None else _reach_product(reach, power)
            e >>= 1
            if not e:
                break
            power = _reach_product(power, power)
        for k in range(r - first + 1):
            if k:
                reach = _reach_product(reach, one_hop)
            counts = np.matmul(ones, reach).astype(np.intp)  # reachers of each member
            out[k, lo:lo + len(m)] = table[counts].sum(axis=1)
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


@dataclass(frozen=True)
class MeanInformation:
    """Mean subgraph information at one (scale, size) cell."""

    value: float
    stderr: float
    subset_count: int
    sampled: bool


def _scale_means(
    adj: np.ndarray, batches, r: int, total_count: int, sampled: bool, first: int = 1
) -> list[MeanInformation]:
    """Mean information at scales first..r over one stream of member batches."""
    rows = r - first + 1
    acc = [0.0] * rows
    acc_sq = [0.0] * rows
    seen = 0
    for members in batches:
        vals = _information_batch(adj, members, r, first)
        # row sums of the C-ordered (rows, S) array add in the same pairwise
        # order as a 1-D sum of each row; exhaustive cells need no squares,
        # their stderr is 0
        for k, total in enumerate(vals.sum(axis=1).tolist()):
            acc[k] += total
        if sampled:
            for k, total in enumerate((vals * vals).sum(axis=1).tolist()):
                acc_sq[k] += total
        seen += len(members)
    assert seen == total_count
    means = []
    for k in range(rows):
        if not sampled:
            stderr = 0.0
        else:
            var = max(acc_sq[k] - acc[k] * acc[k] / seen, 0.0) / (seen - 1)
            stderr = math.sqrt(var / seen)
        means.append(MeanInformation(
            value=acc[k] / seen, stderr=stderr, subset_count=seen, sampled=sampled,
        ))
    return means


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
    adj = _dense_adjacency(g)
    if policy.sampled(n, size):
        rng = sample_stream(policy.seed, r, size)
        batches = _sampled_batches(n, size, policy.sample_count, rng)
        total, sampled = policy.sample_count, True
    else:
        batches = _exhaustive_batches(n, size)
        total, sampled = math.comb(n, size), False
    return _scale_means(adj, batches, r, total, sampled, first=r)[0]


# ---------------------------------------------------------------------------
# profile


@dataclass(frozen=True)
class ScaleCell:
    """One (scale, size) entry of a complexity profile."""

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
    g: FunctionalTopology, policy: SamplingPolicy | None = None
) -> ComplexityProfile:
    """Evaluate the metric over all scales 1..R-1 and sizes 1+r..N.

    Requires a connected graph.  Diameter-1 graphs score 0 by convention
    (degenerate=True, empty per-scale table).
    """
    policy = policy or SamplingPolicy()
    if not is_connected(g):
        # surfaces the same node-pair diagnostic as the metric helpers
        diameter(g)
    r_max = diameter(g)
    if r_max < 2:
        return ComplexityProfile(
            diameter=r_max, cells=(), complexity=0.0, degenerate=True,
        )
    adj = _dense_adjacency(g)
    n = g.node_count
    # exhaustive sizes are enumerated once for all their scales; sampled
    # cells keep one draw stream each
    means: dict[tuple[int, int], MeanInformation] = {}
    for size in range(2, n + 1):
        top = min(r_max - 1, size - 1)
        if policy.sampled(n, size):
            for r in range(1, top + 1):
                means[r, size] = mean_information(g, size, r, policy)
        else:
            batches = _exhaustive_batches(n, size)
            row = _scale_means(adj, batches, top, math.comb(n, size), False)
            means.update(((r, size), mi) for r, mi in enumerate(row, 1))
    cells: list[ScaleCell] = []
    total = 0.0
    for r in range(1, r_max):
        whole_info = means[r, n].value  # the single full-size subset
        for size in range(1 + r, n + 1):
            mi = means[r, size]
            slope = (r + 1 - size) / (r + 1 - n)
            baseline = slope * whole_info
            deviation = abs(mi.value - baseline)
            total += deviation
            cells.append(
                ScaleCell(
                    scale=r,
                    size=size,
                    mean_information=mi.value,
                    baseline=baseline,
                    deviation=deviation,
                    stderr=mi.stderr,
                    subset_count=mi.subset_count,
                    sampled=mi.sampled,
                )
            )
    return ComplexityProfile(
        diameter=r_max,
        cells=tuple(cells),
        complexity=total / (r_max - 1),
        degenerate=False,
    )
