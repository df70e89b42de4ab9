"""Channel allocation on 2-D cell lattices.

A lattice assigns one channel per cell; two neighboring cells (von Neumann
or Moore neighborhood, bounded or toroidal wrap) sharing a channel is an
interference conflict.  The module provides a deterministic periodic
planner, a decentralized trial-and-error allocator, and an exact
minimum-repair search that measures how many other cells must change after
one cell is forced to a given channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .graph import InputFormatError, data_lines, mean_and_stderr, sample_stream

NEIGHBORHOODS = {
    "moore": ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)),
    "von-neumann": ((-1, 0), (1, 0), (0, -1), (0, 1)),
}
BOUNDARIES = ("toroidal", "bounded")
ALLOCATORS = ("son", "centralized")
GENERATORS = ("son", "iid")


def _check_geometry(
    width: int, height: int, channel_count: int, neighborhood: str, boundary: str
) -> None:
    """Reject a lattice geometry that no ChannelLattice can hold."""
    if width < 1 or height < 1:
        raise ValueError(f"bad dimensions {width}x{height}")
    if channel_count < 1:
        raise ValueError("channel_count must be >= 1")
    if neighborhood not in NEIGHBORHOODS:
        raise ValueError(f"unknown neighborhood {neighborhood!r}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}")


@dataclass(frozen=True)
class ChannelLattice:
    """A width x height grid of channel ids in 0..channel_count-1."""

    width: int
    height: int
    channel_count: int
    cells: np.ndarray
    neighborhood: str = "moore"
    boundary: str = "toroidal"

    def __post_init__(self) -> None:
        _check_geometry(self.width, self.height, self.channel_count,
                        self.neighborhood, self.boundary)
        arr = np.asarray(self.cells)
        if arr.shape != (self.height, self.width):
            raise ValueError(
                f"cells shape {arr.shape} does not match "
                f"height x width = ({self.height}, {self.width})"
            )
        if arr.dtype.kind not in "iub" and not (
            arr.dtype.kind == "f" and np.isfinite(arr).all() and (arr == np.trunc(arr)).all()
        ):
            raise ValueError("cell values must be integers")
        if arr.size and (arr.min() < 0 or arr.max() >= self.channel_count):
            raise ValueError(
                f"cell values must lie in 0..{self.channel_count - 1}"
            )
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)


@lru_cache
def neighbor_index_table(
    width: int, height: int, neighborhood: str, boundary: str
) -> tuple[tuple[int, ...], ...]:
    """Flat-index neighbor tuples (row-major), duplicates removed.

    Cached: the table is shared by every caller with the same arguments.
    """
    offs = NEIGHBORHOODS[neighborhood]
    table: list[tuple[int, ...]] = []
    for r in range(height):
        for c in range(width):
            seen: list[int] = []
            for dr, dc in offs:
                rr, cc = r + dr, c + dc
                if boundary == "toroidal":
                    rr %= height
                    cc %= width
                elif not (0 <= rr < height and 0 <= cc < width):
                    continue
                idx = rr * width + cc
                if idx != r * width + c and idx not in seen:
                    seen.append(idx)
            table.append(tuple(seen))
    return tuple(table)


def _conflicts(grid: list[int], nbrs: tuple[tuple[int, ...], ...]) -> int:
    """Neighbor pairs of a flat grid sharing a channel, each pair once."""
    total = 0
    for i, own in enumerate(grid):
        for j in nbrs[i]:
            if j > i and grid[j] == own:
                total += 1
    return total


def _any_conflict(grid: list[int], nbrs: tuple[tuple[int, ...], ...]) -> bool:
    """Whether any two neighbors of a flat grid share a channel."""
    for i, own in enumerate(grid):
        for j in nbrs[i]:
            if grid[j] == own:
                return True
    return False


def conflict_count(lat: ChannelLattice) -> int:
    """Number of unordered neighbor pairs sharing a channel."""
    nbrs = neighbor_index_table(lat.width, lat.height, lat.neighborhood, lat.boundary)
    return _conflicts(lat.cells.ravel().tolist(), nbrs)


# ---------------------------------------------------------------------------
# allocators


def centralized_allocate(
    width: int,
    height: int,
    channel_count: int,
    neighborhood: str = "moore",
    boundary: str = "toroidal",
) -> ChannelLattice:
    """Interference-free periodic reuse pattern.

    von Neumann: 2-channel checkerboard.  Moore: 4-channel 2x2 tile.  On a
    toroidal lattice the pattern only closes when both dimensions are even.
    """
    _check_geometry(width, height, channel_count, neighborhood, boundary)
    need = 2 if neighborhood == "von-neumann" else 4
    if channel_count < need:
        raise ValueError(
            f"{neighborhood} reuse pattern needs at least {need} channels, "
            f"got {channel_count}"
        )
    if boundary == "toroidal" and (width % 2 or height % 2):
        raise ValueError(
            f"periodic pattern does not close on a {width}x{height} torus; "
            "both dimensions must be even"
        )
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    if neighborhood == "von-neumann":
        cells = (rows + cols) % 2
    else:
        cells = 2 * (rows % 2) + (cols % 2)
    return ChannelLattice(
        width=width,
        height=height,
        channel_count=channel_count,
        cells=cells,
        neighborhood=neighborhood,
        boundary=boundary,
    )


@dataclass(frozen=True)
class SonReport:
    """Outcome of a decentralized allocation run."""

    converged: bool
    sweeps: int
    conflicts: int


def son_allocate(
    width: int,
    height: int,
    channel_count: int,
    neighborhood: str = "moore",
    seed: int = 0,
    max_sweeps: int = 10_000,
    boundary: str = "toroidal",
) -> tuple[ChannelLattice, SonReport]:
    """Decentralized trial-and-error allocation.

    Start from a uniform random assignment; sweep cells in a fresh random
    order each round, and every cell in conflict with a neighbor resamples
    uniformly among the channels least used by its neighbors.  When any
    channel is entirely unused nearby that set is exactly the unused ones,
    so the move is a uniform pick over locally-free channels; otherwise it
    degrades to the least-bad choice instead of a blind restart, which is
    what lets dense neighborhoods settle.  Non-convergence within
    max_sweeps is reported, not raised.
    """
    if max_sweeps < 0:
        raise ValueError("max_sweeps must be >= 0")
    _check_geometry(width, height, channel_count, neighborhood, boundary)
    rng = random.Random(seed)
    cell_total = width * height
    grid = [rng.randrange(channel_count) for _ in range(cell_total)]
    nbrs = neighbor_index_table(width, height, neighborhood, boundary)
    order = list(range(cell_total))
    sweeps = 0
    while sweeps < max_sweeps and _any_conflict(grid, nbrs):
        rng.shuffle(order)
        for i in order:
            own = grid[i]
            for j in nbrs[i]:
                if grid[j] == own:
                    break
            else:
                continue
            counts = [0] * channel_count
            for j in nbrs[i]:
                counts[grid[j]] += 1
            least = min(counts)
            grid[i] = rng.choice([f for f in range(channel_count) if counts[f] == least])
        sweeps += 1
    conflicts = _conflicts(grid, nbrs)
    lat = ChannelLattice(
        width=width,
        height=height,
        channel_count=channel_count,
        cells=np.array(grid, dtype=np.int64).reshape(height, width),
        neighborhood=neighborhood,
        boundary=boundary,
    )
    return lat, SonReport(converged=(conflicts == 0), sweeps=sweeps, conflicts=conflicts)


# ---------------------------------------------------------------------------
# exact repair search


@dataclass(frozen=True)
class StabilityRecord:
    """Minimum-repair outcome for one forced (cell, channel) perturbation.

    distance is the number of other cells that must change (None when the
    search budget was exceeded); changed_cells lists ((row, col), channel)
    assignments realizing that minimum.
    """

    cell: tuple[int, int]
    forced_channel: int
    distance: int | None
    changed_cells: tuple[tuple[tuple[int, int], int], ...]


def repair_distance(
    lat: ChannelLattice,
    cell: tuple[int, int],
    forced_channel: int,
    budget: int = 8,
) -> StabilityRecord:
    """Exact minimum number of other cells to recolor after clamping one cell.

    Preconditions: lat is conflict-free and forced_channel is a valid channel.
    Iterative deepening over the repair size; within each depth, DFS branches
    on the free endpoint of a deterministic pivot conflict (every conflicting
    pair must have an endpoint changed, and the clamped cell never changes),
    so the first depth that admits a repair is the exact minimum.

    A cell is fixed when it is clamped or already changed, and free
    otherwise.  A change never takes a channel that a fixed neighbor holds,
    and the start is conflict-free, so every conflict joins a fixed cell to
    a free one, which must change.  The search keeps, for each free cell,
    hits: how many fixed neighbors share its channel; the forced cells are
    those with hits > 0.  A change updates hits at the changed cell's free
    neighbors only, and taking it back undoes that.

    The forced cells are a minimum vertex cover of the conflicts, so their
    count is an admissible bound: each is one change still to come.
    Lookahead: when the forced cells are exactly as many as the changes
    left, they are the only cells that change below the node, so the node
    is pruned when the neighbors of one of them outside that set already
    hold every channel.  Both prunes cut only subtrees without a repair, so
    the first repair found, and its witness, stay the same.
    """
    r0, c0 = cell
    if not (0 <= r0 < lat.height and 0 <= c0 < lat.width):
        raise ValueError(f"cell {cell} outside the {lat.width}x{lat.height} lattice")
    if not (0 <= forced_channel < lat.channel_count):
        raise ValueError(
            f"forced channel {forced_channel} outside 0..{lat.channel_count - 1}"
        )
    if budget < 0:
        raise ValueError("budget must be >= 0")

    width, height, f_count = lat.width, lat.height, lat.channel_count
    nbrs = neighbor_index_table(width, height, lat.neighborhood, lat.boundary)
    grid = lat.cells.ravel().tolist()
    if _conflicts(grid, nbrs):
        raise ValueError("repair_distance requires an interference-free lattice")
    clamped = r0 * width + c0
    grid[clamped] = forced_channel

    cell_total = len(grid)
    fixed = [False] * cell_total
    fixed[clamped] = True
    hits = [0] * cell_total
    # the clamped cell's conflicts, in pair order; a changed one is repaired
    at_clamped = sorted(j for j in nbrs[clamped] if grid[j] == forced_channel)
    forced = set(at_clamped)
    for j in forced:
        hits[j] = 1
    changed: dict[int, int] = {}

    def dfs(depth_left: int) -> bool:
        # the parent pruned len(forced) > depth_left before this call
        if not forced:
            return True
        if len(forced) == depth_left:
            # exactly the forced cells change below this node, so each needs
            # a channel that no neighbor outside them holds
            for e in forced:
                if len({grid[j] for j in nbrs[e] if j not in forced}) == f_count:
                    return False
        # pivot on the first conflict in pair order, preferring one at the
        # clamped cell, and branch on its free endpoint: the first unchanged
        # cell of at_clamped, else the least pair over the forced cells.  A
        # neighbor sharing a forced cell's channel is fixed, since free cells
        # keep their conflict-free start.
        for endpoint in at_clamped:
            if not fixed[endpoint]:
                break
        else:
            least = cell_total * cell_total
            for j in forced:
                v = grid[j]
                for i in nbrs[j]:
                    if grid[i] == v:
                        pair = i * cell_total + j if i < j else j * cell_total + i
                        if pair < least:
                            least, endpoint = pair, j
        # a channel held by a fixed neighbor (the old one among them) would
        # be a conflict of two fixed cells; each other value hits the free
        # neighbors that hold it
        held = set()
        free_by_channel: dict[int, list[int]] = {}
        for j in nbrs[endpoint]:
            if fixed[j]:
                held.add(grid[j])
            else:
                free_by_channel.setdefault(grid[j], []).append(j)
        old = grid[endpoint]
        fixed[endpoint] = True
        forced.remove(endpoint)
        for value in range(f_count):
            if value in held:
                continue
            grid[endpoint] = changed[endpoint] = value
            hit = free_by_channel.get(value, ())
            for j in hit:
                hits[j] += 1
                forced.add(j)
            if len(forced) < depth_left and dfs(depth_left - 1):
                return True
            for j in hit:
                hits[j] -= 1
                if not hits[j]:
                    forced.discard(j)
        changed.pop(endpoint, None)
        grid[endpoint] = old
        fixed[endpoint] = False
        forced.add(endpoint)
        return False

    # below len(forced) the root is pruned, as every node is before its call
    for depth in range(len(forced), budget + 1):
        if dfs(depth):
            witness = tuple(
                (divmod(i, width), v) for i, v in sorted(changed.items())
            )
            return StabilityRecord(
                cell=cell,
                forced_channel=forced_channel,
                distance=len(changed),
                changed_cells=witness,
            )
    return StabilityRecord(
        cell=cell,
        forced_channel=forced_channel,
        distance=None,
        changed_cells=(),
    )


# ---------------------------------------------------------------------------
# stability experiment


class StabilityRow(NamedTuple):
    """One perturbation's repair distance, its fields in CSV column order;
    distance is None, and exceeded True, when the search budget ran out."""

    instance: int
    row: int
    col: int
    forced_channel: int
    distance: int | None
    exceeded: bool


@dataclass(frozen=True)
class StabilityStudy:
    """Repair-distance distribution for one allocator."""

    rows: tuple[StabilityRow, ...]
    histogram: tuple[tuple[int, int], ...]
    exceeded_count: int
    mean_distance: float
    stderr: float
    max_distance: int | None


def _summarize(rows: list[StabilityRow]) -> StabilityStudy:
    finite = [r.distance for r in rows if r.distance is not None]
    hist: dict[int, int] = {}
    for d in finite:
        hist[d] = hist.get(d, 0) + 1
    mean, stderr = mean_and_stderr(finite)
    return StabilityStudy(
        rows=tuple(rows),
        histogram=tuple(sorted(hist.items())),
        exceeded_count=sum(1 for r in rows if r.distance is None),
        mean_distance=mean,
        stderr=stderr,
        max_distance=max(finite) if finite else None,
    )


def instance_lattice(
    generator: str,
    tag: str,
    index: int,
    width: int,
    height: int,
    channel_count: int,
    neighborhood: str,
    seed: int,
    max_sweeps: int,
    boundary: str = "toroidal",
) -> ChannelLattice:
    """Lattice index of a seeded sample, drawn from the stream (seed, tag,
    index): a converged son allocation, or iid uniform channels."""
    inst_seed = sample_stream(seed, tag, index).getrandbits(48)
    if generator == "iid":
        rng = np.random.default_rng(inst_seed)
        return ChannelLattice(
            width=width,
            height=height,
            channel_count=channel_count,
            cells=rng.integers(0, channel_count, size=(height, width), dtype=np.int64),
            neighborhood=neighborhood,
            boundary=boundary,
        )
    lat, report = son_allocate(
        width, height, channel_count, neighborhood,
        seed=inst_seed, max_sweeps=max_sweeps, boundary=boundary,
    )
    if not report.converged:
        raise ValueError(
            f"son allocation did not converge for instance {index} "
            f"({report.conflicts} conflicts after {report.sweeps} sweeps)"
        )
    return lat


def stability_instance_rows(
    instance: int,
    plan: ChannelLattice | None,
    width: int,
    height: int,
    channel_count: int,
    neighborhood: str,
    seed: int,
    budget: int,
    max_sweeps: int,
    boundary: str,
    cell_sample: int | None = None,
    channel_sample: int | None = None,
) -> list[StabilityRow]:
    """All (cell, forced channel) repair distances for one instance.

    plan is the centralized lattice every instance shares, or None for a
    seeded son allocation per instance.  cell_sample / channel_sample
    restrict the scan to a seeded uniform subset, for lattices too large to
    perturb exhaustively.
    """
    lat = plan if plan is not None else instance_lattice(
        "son", "instance", instance, width, height, channel_count,
        neighborhood, seed, max_sweeps, boundary,
    )
    cells = [(r, c) for r in range(height) for c in range(width)]
    channels = list(range(channel_count))
    if cell_sample is not None and cell_sample < len(cells):
        rng = sample_stream(seed, "cells", instance)
        cells = sorted(rng.sample(cells, cell_sample))
    if channel_sample is not None and channel_sample < len(channels):
        rng = sample_stream(seed, "channels", instance)
        channels = sorted(rng.sample(channels, channel_sample))
    rows = []
    for cell in cells:
        for ch in channels:
            rec = repair_distance(lat, cell, ch, budget)
            rows.append(StabilityRow(instance, *cell, ch, rec.distance,
                                     rec.distance is None))
    return rows


def stability_experiment(
    allocator: str,
    width: int,
    height: int,
    channel_count: int,
    neighborhood: str = "moore",
    instance_count: int = 20,
    seed: int = 0,
    budget: int = 8,
    max_sweeps: int = 10_000,
    boundary: str = "toroidal",
    cell_sample: int | None = None,
    channel_sample: int | None = None,
    mapper: Callable[..., Iterable] = map,
) -> StabilityStudy:
    """Perturb every instance at every scanned (cell, channel) pair.

    mapper allows a parallel map; per-instance work is independent and
    results are assembled in instance order either way.
    """
    if allocator not in ALLOCATORS:
        raise ValueError(f"unknown allocator {allocator!r}")
    if instance_count < 0:
        raise ValueError("instance_count must be >= 0")
    # the arguments and the centralized plan are checked before any task, so
    # a run of zero instances checks them too
    _check_geometry(width, height, channel_count, neighborhood, boundary)
    for name, value in (("budget", budget), ("max_sweeps", max_sweeps),
                        ("cell_sample", cell_sample),
                        ("channel_sample", channel_sample)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0")
    plan = (
        centralized_allocate(width, height, channel_count, neighborhood, boundary)
        if allocator == "centralized" else None
    )
    instance_rows = partial(
        stability_instance_rows,
        plan=plan, width=width, height=height,
        channel_count=channel_count, neighborhood=neighborhood, seed=seed,
        budget=budget, max_sweeps=max_sweeps, boundary=boundary,
        cell_sample=cell_sample, channel_sample=channel_sample,
    )
    rows: list[StabilityRow] = []
    for chunk in mapper(instance_rows, range(instance_count)):
        rows.extend(chunk)
    return _summarize(rows)


# ---------------------------------------------------------------------------
# lattice file format


def read_lattice(path: str) -> ChannelLattice:
    """Parse a lattice file: header "W H F", then H rows of W channel ids.

    '#' starts a comment; blank lines are ignored.
    """
    header: tuple[int, int, int] | None = None
    rows: list[list[int]] = []
    for lineno, raw, fields in data_lines(path):
        try:
            values = [int(x) for x in fields]
        except ValueError:
            raise InputFormatError(
                f"{path}:{lineno}: non-integer token in {raw.strip()!r}"
            ) from None
        if header is None:
            if len(values) != 3:
                raise InputFormatError(
                    f"{path}:{lineno}: expected header 'W H F', got {raw.strip()!r}"
                )
            header = (values[0], values[1], values[2])
            continue
        if len(values) != header[0]:
            raise InputFormatError(
                f"{path}:{lineno}: expected {header[0]} values, got {len(values)}"
            )
        rows.append(values)
    if header is None:
        raise InputFormatError(f"{path}: empty file, missing header")
    if len(rows) != header[1]:
        raise InputFormatError(
            f"{path}: expected {header[1]} rows, got {len(rows)}"
        )
    try:
        return ChannelLattice(
            width=header[0],
            height=header[1],
            channel_count=header[2],
            cells=np.array(rows, dtype=np.int64),
        )
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def write_lattice(lat: ChannelLattice, fh) -> None:
    """Write the lattice file body, the "W H F" line and then the rows, to
    an open text file."""
    fh.write(f"{lat.width} {lat.height} {lat.channel_count}\n")
    for row in lat.cells:
        fh.write(" ".join(str(int(v)) for v in row) + "\n")
