"""Independent brute-force oracles for the test suite.

Deliberately share no code with the production pipelines: reachability goes
through networkx shortest paths, enumeration through itertools, entropies
through math and decimal, the lattice repair oracle enumerates recolorings
literally, the repair witness checker applies a witness and lists the
conflicts it leaves, and the MAC oracle keys sensors by (lane, index) and
calls random() once per sender.  The reachability-kernel oracle keeps the
kernel's earlier numpy formulation, which must agree with the production
kernel bit for bit; the profile oracle keeps the earlier one-graph-at-a-time
profile, which block scoring must reproduce bit for bit.  The subset-draw
oracle calls random.sample once per subset, which the production draw loop
must match row for row.  The ensemble oracle draws each graph with
networkx's own generators, whose calls on random.Random the production
sampler replays.  The traffic-world check wraps the production step and
recounts the grid literally after every iteration.  Slow and obvious beats
fast and clever here.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np

from netcomplexity.abm import TrafficWorld


# ---------------------------------------------------------------------------
# functional complexity


def h2(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def oracle_subgraph_information(G: nx.Graph, members, r: int) -> float:
    """Sum over members n of h2(nodes that reach n within r hops / j).  On a
    DiGraph the search runs over reversed edges, so it counts the reachers."""
    sub = G.subgraph(members)
    if sub.is_directed():
        sub = sub.reverse(copy=False)
    j = len(members)
    total = 0.0
    for n in members:
        lengths = nx.single_source_shortest_path_length(sub, n, cutoff=r)
        total += h2(len(lengths) / j)
    return total


def oracle_mean_information(G: nx.Graph, size: int, r: int) -> float:
    """Mean subgraph information over every size-j subset of G's nodes."""
    vals = [
        oracle_subgraph_information(G, s, r)
        for s in itertools.combinations(sorted(G), size)
    ]
    return sum(vals) / len(vals)


def oracle_functional_complexity(node_count: int, edges, directed: bool = False) -> float:
    """Literal evaluation: every scale, every size, every subset.  The
    diameter is taken on the undirected view."""
    G = nx.DiGraph() if directed else nx.Graph()
    G.add_nodes_from(range(node_count))
    G.add_edges_from(edges)
    R = nx.diameter(G.to_undirected(as_view=True))
    if R < 2:
        return 0.0
    nodes = list(range(node_count))
    total = 0.0
    for r in range(1, R):
        whole = oracle_subgraph_information(G, nodes, r)
        for j in range(1 + r, node_count + 1):
            mean = oracle_mean_information(G, j, r)
            baseline = (r + 1 - j) / (r + 1 - node_count) * whole
            total += abs(mean - baseline)
    return total / (R - 1)


def oracle_information_batch(adj, members, r: int, chunk: int = 256):
    """Information per subset at scales 1..r, row k-1 for scale k, as the
    (r, S) array the production kernel returns for an (S, j) member array.

    Gathers each induced submatrix with a 2-D index and sets its diagonal,
    so the diagonal of adj is ignored; counts the reachers of each member
    with a float32 column sum; builds the entropy table on every call.
    """
    s, j = members.shape
    p = np.arange(1, j + 1) / float(j)
    q = 1.0 - p
    h = -p * np.log2(p)
    nz = q > 0.0
    h[nz] -= q[nz] * np.log2(q[nz])
    table = np.zeros(j + 1)
    table[1:] = h
    diag = np.arange(j)
    out = np.empty((r, s))
    for lo in range(0, s, chunk):
        m = members[lo:lo + chunk]
        one_hop = adj[m[:, :, None], m[:, None, :]]
        one_hop[:, diag, diag] = 1.0
        reach = one_hop
        for k in range(r):
            if k:
                reach = np.matmul(reach, one_hop)
                np.minimum(reach, 1.0, out=reach)
            counts = reach.sum(axis=1).astype(np.intp)
            out[k, lo:lo + len(m)] = table[counts].sum(axis=1)
    return out


def oracle_profile(
    node_count: int, edges, directed: bool = False,
    sample_count: int = 10_000, exhaustive_limit: int = 100_000, seed: int = 0,
    batch: int = 4096,
):
    """(diameter, cells, complexity) of one graph, evaluated one graph at a
    time as the production profile did before it scored blocks: each cell is
    (scale, size, mean, baseline, deviation, stderr, subset_count, sampled).

    An exhaustive size enumerates its subsets in lexicographic batches of
    batch rows, runs scales 1..top on each and adds each batch's row sums
    into a Python float; a sampled (scale, size) cell draws sample_count
    subsets from random.Random("seed:scale:size") one random.sample call at
    a time and also keeps the sum of squares for its standard error.  The
    kernel is oracle_information_batch; the diameter is networkx's on the
    undirected view.
    """
    G = nx.DiGraph() if directed else nx.Graph()
    G.add_nodes_from(range(node_count))
    G.add_edges_from(edges)
    R = nx.diameter(G.to_undirected(as_view=True))
    if R < 2:
        return R, (), 0.0
    adj = nx.to_numpy_array(G, nodelist=range(node_count), dtype=np.float32)
    n = node_count
    means = {}
    for size in range(2, n + 1):
        top = min(R - 1, size - 1)
        total = math.comb(n, size)
        if total > exhaustive_limit:
            for r in range(1, top + 1):
                rng = random.Random(f"{seed}:{r}:{size}")
                acc = acc_sq = 0.0
                for members in oracle_sampled_batches(n, size, sample_count, rng, batch):
                    vals = oracle_information_batch(adj, members, r)[r - 1]
                    acc += vals.sum()
                    acc_sq += (vals * vals).sum()
                var = max(acc_sq - acc * acc / sample_count, 0.0) / (sample_count - 1)
                means[r, size] = (acc / sample_count, math.sqrt(var / sample_count),
                                  sample_count, True)
            continue
        acc = [0.0] * top
        subsets = itertools.combinations(range(n), size)
        for lo in range(0, total, batch):
            members = np.array(list(itertools.islice(subsets, batch)), dtype=np.intp)
            for k, row in enumerate(oracle_information_batch(adj, members, top)):
                acc[k] += row.sum()
        for r in range(1, top + 1):
            means[r, size] = (acc[r - 1] / total, 0.0, total, False)
    cells = []
    deviations = 0.0
    for r in range(1, R):
        whole = means[r, n][0]
        for size in range(1 + r, n + 1):
            mean, stderr, count, sampled = means[r, size]
            baseline = (r + 1 - size) / (r + 1 - n) * whole
            deviation = abs(mean - baseline)
            deviations += deviation
            cells.append((r, size, mean, baseline, deviation, stderr, count, sampled))
    return R, tuple(cells), deviations / (R - 1)


def oracle_sampled_batches(n: int, size: int, count: int, rng, batch: int = 4096):
    """count sorted size-subsets of range(n) in batches of batch rows, one
    rng.sample(range(n), size) call per row, as the production draw loop
    replays it."""
    remaining = count
    while remaining > 0:
        take = min(remaining, batch)
        remaining -= take
        rows = [sorted(rng.sample(range(n), size)) for _ in range(take)]
        yield np.array(rows, dtype=np.intp).reshape(take, size)


# ---------------------------------------------------------------------------
# random-graph ensembles


def oracle_ensemble_edges(spec, seed: int) -> list[tuple[int, int]]:
    """Sorted edges (u < v) of networkx's own draw of one ensemble graph."""
    n = spec.node_count
    if spec.kind == "erdos-renyi":
        g = nx.gnp_random_graph(n, spec.edge_probability, seed=seed)
    elif spec.kind == "watts-strogatz":
        g = nx.watts_strogatz_graph(n, spec.ring_degree, spec.rewiring_probability, seed=seed)
    else:
        g = nx.barabasi_albert_graph(n, spec.attachment_count, seed=seed)
    return sorted(tuple(sorted(e)) for e in g.edges())


# ---------------------------------------------------------------------------
# lattice repair


def oracle_neighbor_pairs(width: int, height: int, neighborhood: str, boundary: str):
    """Unordered neighbor pairs as ((r1,c1),(r2,c2)) tuples, each pair once."""
    if neighborhood == "von-neumann":
        offs = [(0, 1), (1, 0)]
    else:
        offs = [(0, 1), (1, 0), (1, 1), (1, -1)]
    pairs = set()
    for r in range(height):
        for c in range(width):
            for dr, dc in offs:
                rr, cc = r + dr, c + dc
                if boundary == "toroidal":
                    rr %= height
                    cc %= width
                elif not (0 <= rr < height and 0 <= cc < width):
                    continue
                if (rr, cc) != (r, c):
                    pairs.add(frozenset(((r, c), (rr, cc))))
    return [tuple(sorted(p)) for p in sorted(pairs, key=lambda p: sorted(p))]


def oracle_repair_distance(
    cells,
    channel_count: int,
    neighborhood: str,
    boundary: str,
    cell,
    forced_channel: int,
    budget: int,
):
    """Exhaustive minimum-repair search.

    Enumerates every set of <= budget non-clamped cells and every recoloring
    of that set (new value != original value); returns the smallest size that
    restores conflict-freedom, or None if none exists within budget.
    """
    height = len(cells)
    width = len(cells[0])
    grid = {
        (r, c): cells[r][c] for r in range(height) for c in range(width)
    }
    grid[cell] = forced_channel
    pairs = oracle_neighbor_pairs(width, height, neighborhood, boundary)
    # checking pairs near the perturbation first makes rejection fast
    pairs.sort(key=lambda p: (min(_cheb(p[0], cell, width, height, boundary),
                                  _cheb(p[1], cell, width, height, boundary)),
                              p))

    def conflict_free(assign) -> bool:
        for a, b in pairs:
            if assign.get(a, grid[a]) == assign.get(b, grid[b]):
                return False
        return True

    if conflict_free({}):
        return 0
    others = [k for k in sorted(grid) if k != cell]
    alternatives = {
        k: [f for f in range(channel_count) if f != grid[k]] for k in others
    }
    for k in range(1, budget + 1):
        for subset in itertools.combinations(others, k):
            for values in itertools.product(*(alternatives[c] for c in subset)):
                if conflict_free(dict(zip(subset, values))):
                    return k
    return None


def oracle_witness_conflicts(lat, record):
    """Neighbor pairs sharing a channel once the record's forced channel and
    then its witness recolorings are applied to lat; [] when the witness is
    a repair.  A witness must recolor `distance` cells, never the clamped
    one."""
    assert len(record.changed_cells) == (record.distance or 0)
    grid = {
        (r, c): int(lat.cells[r][c])
        for r in range(lat.height) for c in range(lat.width)
    }
    grid[record.cell] = record.forced_channel
    for cell, channel in record.changed_cells:
        assert cell != record.cell, "witness recolors the clamped cell"
        grid[cell] = channel
    pairs = oracle_neighbor_pairs(lat.width, lat.height, lat.neighborhood, lat.boundary)
    return [(a, b) for a, b in pairs if grid[a] == grid[b]]


def _cheb(a, b, width, height, boundary):
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    if boundary == "toroidal":
        dr = min(dr, height - dr)
        dc = min(dc, width - dc)
    return max(dr, dc)


# ---------------------------------------------------------------------------
# entropy


def oracle_entropy_bits(counts) -> float:
    """Plug-in entropy via exact fractions, rounded only at the end."""
    total = sum(counts)
    acc = 0.0
    for c in counts:
        if c:
            p = Fraction(c, total)
            acc -= float(p) * math.log2(float(p))
    return acc


def oracle_stripe_h1() -> float:
    """Conditional entropy of a cell given its north neighbor, pooled over
    both phases of a horizontal 2-stripe pattern.  Literal joint counting."""
    width = height = 6
    joint: dict[tuple[int, int], int] = {}
    ctx: dict[int, int] = {}
    for phase in (0, 1):
        for r in range(height):
            for c in range(width):
                x = (r + phase) % 2
                north = ((r - 1) % height + phase) % 2
                joint[(x, north)] = joint.get((x, north), 0) + 1
                ctx[north] = ctx.get(north, 0) + 1
    hj = oracle_entropy_bits(joint.values())
    hc = oracle_entropy_bits(ctx.values())
    return hj - hc


def oracle_conditional_profile(samples, max_context, offsets):
    """h(M) for M = 1..max_context by literal per-cell dictionary counting,
    pooled across samples, contexts read with toroidal wrap."""
    out = []
    for m in range(1, max_context + 1):
        joint: dict[tuple, int] = {}
        ctx: dict[tuple, int] = {}
        for lat in samples:
            h, w = lat.height, lat.width
            cells = lat.cells
            for r in range(h):
                for c in range(w):
                    key = tuple(
                        int(cells[(r + dr) % h][(c + dc) % w])
                        for dr, dc in offsets[:m]
                    )
                    x = key + (int(cells[r][c]),)
                    joint[x] = joint.get(x, 0) + 1
                    ctx[key] = ctx.get(key, 0) + 1
        out.append(
            oracle_entropy_bits(joint.values())
            - oracle_entropy_bits(ctx.values())
        )
    return out


# ---------------------------------------------------------------------------
# slotted MAC channel


class _OracleTransmission:
    __slots__ = ("sid", "state", "end", "corrupted")

    def __init__(self, sid, state, end) -> None:
        self.sid = sid
        self.state = state
        self.end = end
        self.corrupted = False


class OracleMacChannel:
    """Reference slotted channel with the semantics of abm.MacChannel.

    Sensors are (lane, index) tuples; each slot visits the pending ones in
    sorted order and calls rng.random() once per sender that may transmit.
    Every transmission is its own object, marked corrupted by any collision
    while it is on the air.
    """

    def __init__(self, kind: str, persistence: float, message_duration: int) -> None:
        self.kind = kind
        self.persistence = persistence
        self.duration = message_duration
        self.slot = 0
        self.ongoing: list[_OracleTransmission] = []
        self.in_flight: set = set()

    def round(self, pending: dict, rng) -> tuple[list, int]:
        """Run one slot; mutates pending, returns (deliveries, collisions)."""
        if self.kind == "ideal":
            deliveries = sorted(pending.items())
            pending.clear()
            self.slot += 1
            return deliveries, 0
        slot = self.slot
        busy = bool(self.ongoing)
        starters = []
        for sid in sorted(pending):
            if sid in self.in_flight:
                continue
            if self.kind == "csma" and busy:
                continue
            if rng.random() < self.persistence:
                starters.append(sid)
        collided = len(starters) >= 2 or (starters and busy)
        for sid in starters:
            tx = _OracleTransmission(sid, pending.pop(sid), slot + self.duration - 1)
            tx.corrupted = collided
            self.ongoing.append(tx)
            self.in_flight.add(sid)
        collisions = 0
        if collided:
            collisions = 1
            for tx in self.ongoing:
                tx.corrupted = True
        deliveries = []
        keep = []
        for tx in self.ongoing:
            if tx.end > slot:
                keep.append(tx)
                continue
            self.in_flight.discard(tx.sid)
            if tx.corrupted:
                # retry unless the sensor queued a fresher state meanwhile
                pending.setdefault(tx.sid, tx.state)
            else:
                deliveries.append((tx.sid, tx.state))
        self.ongoing = keep
        self.slot += 1
        return deliveries, collisions


# ---------------------------------------------------------------------------
# traffic world


def check_world_invariants(monkeypatch) -> None:
    """Wrap TrafficWorld.step so that every later step checks the grid it
    leaves: the cars on it are exactly those created and not departed, and
    no car sits on two cells.  Outside step, an iteration of run_scenario
    changes only the light, so every state a scenario reaches is checked."""
    step = TrafficWorld.step

    def checked(world) -> None:
        step(world)
        it = world.iteration - 1
        cars = [car for car in world.cells if car is not None]
        if len(cars) != world.created - world.departed:
            raise AssertionError(
                f"conservation violated at iteration {it}: {len(cars)} on grid, "
                f"{world.created} created, {world.departed} departed"
            )
        if len({car.ident for car in cars}) != len(cars):
            raise AssertionError(f"duplicate car placement at iteration {it}")

    monkeypatch.setattr(TrafficWorld, "step", checked)
