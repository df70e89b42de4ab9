"""Functional topologies: validated graphs, classical metrics, the subset
sampling policy, seeded streams, and the edge-list file format.

Nodes are dense integer ids 0..N-1.  Undirected edges are stored once as
(min, max) pairs.  Classical metrics (diameter, average path length,
clustering) use the undirected view of the graph.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class InputFormatError(ValueError):
    """A file or textual input could not be parsed."""


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class FunctionalTopology:
    """A validated graph.  Build instances through build_topology()."""

    node_count: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = False

    @cached_property
    def undirected_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors ignoring direction; used by the classical metrics."""
        adj: list[set[int]] = [set() for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _first_row(self) -> list[int]:
        """Hop distances from node 0 in the undirected view; _unreached and
        _distance_rows share this one pass."""
        return _bfs_distances(self.undirected_neighbors, 0)

    @cached_property
    def _unreached(self) -> int | None:
        """The lowest node that node 0 cannot reach in the undirected view,
        None when the graph is connected.

        From N - 1 edges on it reads _first_row, the first pass of
        _distance_rows.  Fewer edges cannot connect N nodes, so it searches
        node 0's component among the nodes the edges name alone: a header
        of 10^9 nodes builds nothing per node."""
        if len(self.edges) >= self.node_count - 1:
            first = self._first_row
            return first.index(-1) if -1 in first else None
        ids = sorted({0, *itertools.chain.from_iterable(self.edges)})
        local = {v: k for k, v in enumerate(ids)}
        adj: list[list[int]] = [[] for _ in ids]
        for u, v in self.edges:
            adj[local[u]].append(local[v])
            adj[local[v]].append(local[u])
        reached = {v for v, d in zip(ids, _bfs_distances(adj, 0)) if d >= 0}
        return next(v for v in itertools.count() if v not in reached)

    @cached_property
    def _distance_rows(self) -> tuple[list[int], ...]:
        """Hop distances of a connected graph's undirected view, one row per
        source node.  diameter and average_path_length share this one
        all-pairs pass."""
        adj = self.undirected_neighbors
        rest = (_bfs_distances(adj, s) for s in range(1, self.node_count))
        return (self._first_row, *rest)


def build_topology(
    node_count: int,
    edges: Iterable[Sequence[int]],
    directed: bool = False,
) -> FunctionalTopology:
    """Validate and construct a FunctionalTopology.

    Rejects node ids outside 0..node_count-1, self-loops, and duplicate
    edges (in undirected mode (u, v) and (v, u) are the same edge).
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    seen: set[tuple[int, int]] = set()
    canonical: list[tuple[int, int]] = []
    for edge in edges:
        u, v = int(edge[0]), int(edge[1])
        if u != edge[0] or v != edge[1]:
            raise ValueError(f"edge ({edge[0]!r}, {edge[1]!r}) has a non-integral node id")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(
                f"edge ({u}, {v}) references a node outside 0..{node_count - 1}"
            )
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        canonical.append(key)
    return FunctionalTopology(
        node_count=node_count,
        edges=tuple(canonical),
        directed=directed,
    )


# ---------------------------------------------------------------------------
# classical metrics


def _bfs_distances(adj: Sequence[Sequence[int]], source: int) -> list[int]:
    """Hop distances from source; -1 marks unreachable nodes."""
    dist = [-1] * len(adj)
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def is_connected(g: FunctionalTopology) -> bool:
    """Connectivity of the undirected view."""
    return g._unreached is None


def _distances(g: FunctionalTopology, metric: str) -> tuple[list[int], ...]:
    """g._distance_rows; rejects N = 1, naming the metric, and disconnected
    graphs."""
    if g.node_count < 2:
        raise ValueError(f"{metric} is undefined for a single-node graph")
    if g._unreached is not None:
        raise ValueError(
            f"graph is disconnected: nodes 0 and {g._unreached} "
            "are in different components"
        )
    return g._distance_rows


def diameter(g: FunctionalTopology) -> int:
    """Longest shortest path of the undirected view; rejects N = 1 and
    disconnected graphs."""
    return max(max(row) for row in _distances(g, "diameter"))


def average_path_length(g: FunctionalTopology) -> float:
    """Mean shortest-path length over unordered node pairs (undirected view)."""
    total = sum(sum(row) for row in _distances(g, "average path length"))
    # each unordered pair counted twice over the rows
    return total / (g.node_count * (g.node_count - 1))


def average_degree(g: FunctionalTopology) -> float:
    """2|E|/N (edge endpoints per node)."""
    return 2.0 * len(g.edges) / g.node_count


def clustering_coefficient(g: FunctionalTopology) -> float:
    """Mean local clustering; nodes of degree < 2 contribute 0."""
    adj = g.undirected_neighbors
    sets = [set(a) for a in adj]
    total = 0.0
    for n in range(g.node_count):
        k = len(adj[n])
        if k < 2:
            continue
        links = 0
        for a, b in itertools.combinations(adj[n], 2):
            if b in sets[a]:
                links += 1
        total += 2.0 * links / (k * (k - 1))
    return total / g.node_count


# ---------------------------------------------------------------------------
# subset sampling policy


@dataclass(frozen=True)
class SamplingPolicy:
    """How subgraphs of each size are visited.

    Every size-j subset is enumerated, except that sizes where C(N, j)
    exceeds exhaustive_limit are sampled instead (sample_count draws, each
    a uniform size-j subset).  exhaustive_limit=1 samples every size below
    N; the single full-size subset, C(N, N) = 1, is always exact.
    """

    sample_count: int = 10_000
    exhaustive_limit: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        # one draw has no standard error, so it could only print as exact
        if self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")
        if self.exhaustive_limit < 1:
            raise ValueError("exhaustive_limit must be >= 1")

    def sampled(self, node_count: int, size: int) -> bool:
        """Whether the size-subsets of node_count nodes are sampled."""
        return math.comb(node_count, size) > self.exhaustive_limit

    def exhaustive_count(self, node_count: int) -> int:
        """The subsets enumerated over the sizes 2..N that the metric scores.

        C(N, j) is symmetric in j and rises up to N/2, so the exhaustive
        sizes are the two ends: the count stops at the first sampled size,
        and a huge N costs no work per node."""
        n = node_count
        total = 1 if n >= 2 else 0  # the single full-size subset
        count = 1
        for size in range(1, n // 2 + 1):
            count = count * (n - size + 1) // size  # C(n, size)
            if count > self.exhaustive_limit:
                break
            # size itself from 2 on, and its mirror n - size once
            total += count * ((size >= 2) + (n - size > size))
        return total


def sample_stream(seed: int, *parts: object) -> random.Random:
    """Deterministic RNG derived from a base seed and a stream tag.

    String seeding hashes the tag, so distinct tags give independent
    reproducible streams.
    """
    tag = ":".join(str(p) for p in (seed, *parts))
    return random.Random(tag)


def mean_and_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and its standard error.  The mean is nan without values;
    the error is nan below two values, since one value gives no estimate
    of the spread."""
    n = len(values)
    mean = sum(values) / n if n else float("nan")
    if n < 2:
        return mean, float("nan")
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# edge-list file format


def data_lines(path: str):
    """Yield (lineno, raw, fields) for each line of a text file that holds
    data: '#' starts a comment and blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split("#", 1)[0].split()
            if fields:
                yield lineno, raw, fields


def read_edge_list(path: str) -> FunctionalTopology:
    """Parse a graph file.

    Format: header line "N <node_count> <directed|undirected>", then one
    "u v" pair per line.  '#' starts a comment; blank lines are ignored.
    """
    header: tuple[int, bool] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw, fields in data_lines(path):
        if header is None:
            if len(fields) != 3 or fields[0] != "N":
                raise InputFormatError(
                    f"{path}:{lineno}: expected header 'N <count> "
                    f"<directed|undirected>', got {raw.strip()!r}"
                )
            try:
                count = int(fields[1])
            except ValueError:
                raise InputFormatError(
                    f"{path}:{lineno}: node count {fields[1]!r} is not an integer"
                ) from None
            if fields[2] not in ("directed", "undirected"):
                raise InputFormatError(
                    f"{path}:{lineno}: mode must be 'directed' or "
                    f"'undirected', got {fields[2]!r}"
                )
            header = (count, fields[2] == "directed")
            continue
        if len(fields) != 2:
            raise InputFormatError(
                f"{path}:{lineno}: expected 'u v', got {raw.strip()!r}"
            )
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise InputFormatError(
                f"{path}:{lineno}: non-integer node id in {raw.strip()!r}"
            ) from None
    if header is None:
        raise InputFormatError(f"{path}: empty file, missing header")
    try:
        return build_topology(header[0], edges, directed=header[1])
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
