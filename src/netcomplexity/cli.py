"""Command-line front end: every experiment behind one seeded entry point.

Each subcommand writes a single CSV-style file that opens with a provenance
header (tool version, command, resolved parameter block, seed) and closes
with a structured summary block in comment lines.  Re-running a command with
the same flags reproduces the file byte for byte; the worker count is a pure
throughput knob and is deliberately left out of the header.

Each subcommand's parameters are declared once, in COMMANDS: the table
gives the flags, the keys a --config file may set, the type and choice
checks applied to flag and config values alike, and the parameter block of
the header.

Exit codes: 0 success, 1 unreadable/unparsable input or a pool worker
that died, 2 violated precondition or invalid configuration, 141 (128 +
SIGPIPE, as a shell shows for a process SIGPIPE ends) a reader that closed
the output pipe early, with nothing printed.  abm writes
each scenario's rows as the scenario finishes, so a run that fails partway
leaves a file without its "# summary:" block.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# the CLI parallelizes by processes, so OpenBLAS helper threads would only
# spin; set before numpy is first imported, and a user's own setting wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .abm import LIGHT_POLICIES, MACS, PerceptionRecord, ScenarioConfig, run_scenario
from .complexity import ScaleCell, functional_complexity
from .entropy import estimate_excess_entropy
from .graph import (
    InputFormatError,
    SamplingPolicy,
    mean_and_stderr,
    read_edge_list,
)
from .harness import (
    ENSEMBLE_KINDS,
    METRIC_FIELDS,
    EnsembleSpec,
    ReportRow,
    correlation_report,
)
from .lattice import (
    ALLOCATORS,
    BOUNDARIES,
    GENERATORS,
    NEIGHBORHOODS,
    StabilityRow,
    centralized_allocate,
    conflict_count,
    instance_lattice,
    read_lattice,
    son_allocate,
    stability_experiment,
    write_lattice,
)

SAMPLING_MODES = ("exhaustive", "uniform-sample")

# Size ceilings, each checked before anything of that size is built.  Each
# admits every documented run.  Runs near the lattice, pooled-cell and node
# ceilings peaked at 0.3-0.7 GB, where an unbounded size ends in MemoryError
# or runs for hours.  abm writes each scenario's rows as it finishes, so its
# ceilings bound run time and output size, not memory: at the seed ceiling
# and 2000 iterations, the CLI process peaked at 34.9 MB and its 2 pool
# workers at 33.2 MB, in 62 s on a 2-CPU Xeon VM.
LATTICE_CELL_CEILING = 1 << 20  # cells of one --dims lattice
POOLED_CELL_CEILING = 1 << 24  # excess-entropy cells over all its lattices
NODE_CEILING = 512  # correlate --nodes
SEED_COUNT_CEILING = 1024  # abm --seeds: 42 MB of output at 2000 iterations
# Count ceilings, each checked before the first graph, draw or scenario.
# Each admits a run of up to about an hour on one core of a 2-CPU Xeon VM;
# an unbounded count such as 10**20 ran until it was killed.
# correlate --graphs: rows of about 0.3 KB and 0.5 ms of work per graph
GRAPH_COUNT_CEILING = 1 << 20
# --samples, draws per sampled cell: about 3 us each on a 20-node graph,
# so 50 s per cell at the ceiling
SAMPLE_COUNT_CEILING = 1 << 24
# exhaustive subsets scored over all graphs: about 3 us each on a 22-node
# ring, so about 50 minutes at the ceiling; it admits correlate's --graphs
# ceiling at the default 10 nodes and --limit
EXHAUSTIVE_SUBSET_CEILING = 1 << 30
# abm seeds x iterations: the seed ceiling at the default 2000 iterations
TRACE_ROW_CEILING = SEED_COUNT_CEILING * 2000
# abm trace rows x slots per iteration: about 50 us per slot under a
# collapsed Aloha backlog, so 15 minutes at the ceiling
MAC_SLOT_CEILING = 1 << 24
# counts that size a list or a range; past the platform's index range they
# overflow where they are used, so each such count names this maximum
INDEX_CEILING = sys.maxsize


# ---------------------------------------------------------------------------
# parameter types: each takes a flag or JSON config value and returns the
# resolved value, or raises ValueError saying what it expected


def _integer(value):
    # JSON true/false load as Python bools, which are ints
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("an integer")


def _number(value) -> float:
    # a JSON config can hold NaN, Infinity and integers past the float
    # range; nan would pass every range check
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise ValueError("a finite number")


def _text(value) -> str:
    if isinstance(value, str):
        return value
    raise ValueError("a string")


def _switch(value) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError("true or false")


def _dims(value) -> str:
    """Lattice size as 'WxH', normalised to lowercase and plain integers."""
    try:
        width, height = (int(part) for part in value.lower().split("x"))
    except (AttributeError, ValueError):
        width = height = 0
    if width < 1 or height < 1:
        raise ValueError("a WxH string of positive sides such as 8x8")
    if width * height > LATTICE_CELL_CEILING:
        raise ValueError(
            f"at most {LATTICE_CELL_CEILING} cells (the lattice cell ceiling)"
        )
    return f"{width}x{height}"


def _seeds(value) -> list[int]:
    """A list of distinct integers, or text: '1..30' inclusive range, '3,7,9'
    list, '5' single seed.  A repeated seed would rerun one scenario and
    count it as another sample."""
    try:
        if isinstance(value, str):
            lo, dots, hi = value.partition("..")
            if dots:
                # one past the ceiling is enough to reject, and builds no
                # more than that
                seeds = list(range(int(lo), int(hi) + 1)[:SEED_COUNT_CEILING + 1])
            else:
                seeds = [int(tok) for tok in value.split(",") if tok.strip()]
        elif isinstance(value, list):
            seeds = [_integer(seed) for seed in value]
        else:
            seeds = []
    except ValueError:
        seeds = []
    if not seeds:
        raise ValueError(
            "a non-empty list of integers or text like '1..30', '3,7,9' or '5'"
        )
    if len(seeds) > SEED_COUNT_CEILING:
        raise ValueError(f"at most {SEED_COUNT_CEILING} seeds (the seed count ceiling)")
    repeated = sorted(seed for seed, n in Counter(seeds).items() if n > 1)
    if repeated:
        raise ValueError(f"distinct integers (repeated: {', '.join(map(str, repeated))})")
    return seeds


def _paths(value) -> list[str]:
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return value
    raise ValueError("a list of file names")


@dataclass(frozen=True)
class Param:
    """One subcommand parameter, declared once.

    The flag is --<name> with dashes unless ``flag`` names it; a flag
    without a leading dash is a positional taking any number of values.  A
    _switch flag takes no value and sets the opposite of the default.
    """

    name: str
    type: Callable[[object], object]
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    flag: str | None = None
    minimum: float | None = None
    maximum: int | None = None

    def check(self, value):
        """The resolved value; a ValueError names the parameter.  null is
        accepted only where the default is null."""
        if value is None and self.default is None:
            return None
        try:
            resolved = self.type(value)
        except ValueError as exc:
            raise ValueError(f"{self.name} must be {exc}, got {value!r}") from None
        if self.choices is not None and resolved not in self.choices:
            raise ValueError(
                f"{self.name} must be one of {', '.join(self.choices)}, "
                f"got {value!r}"
            )
        if self.minimum is not None and resolved < self.minimum:
            raise ValueError(f"{self.name} must be >= {self.minimum}, got {value!r}")
        if self.maximum is not None and resolved > self.maximum:
            raise ValueError(
                f"{self.name} must be at most {self.maximum} "
                f"(the {self.name} ceiling), got {value!r}"
            )
        return resolved

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        # absent flags stay absent, so resolution can tell them from defaults
        kwargs = {"default": argparse.SUPPRESS, "help": self.help}
        if self.type is _switch:
            kwargs.update(action="store_const", const=not self.default)
        elif self.type is _integer:
            kwargs["type"] = int
        elif self.type is _number:
            kwargs["type"] = float
        if self.choices is not None:
            kwargs["choices"] = self.choices
        flag = self.flag or "--" + self.name.replace("_", "-")
        if flag.startswith("-"):
            parser.add_argument(flag, dest=self.name, **kwargs)
        else:
            parser.add_argument(self.name, metavar=flag, nargs="*", **kwargs)


# the flags of every subcommand, and its only flag-only parameters: no
# config key, not in the provenance header
SHARED = (
    Param("out", _text, None, "output file (default: stdout)"),
    Param("workers", _integer, 1,
          "parallel workers (>= 1); never affects the output bytes", minimum=1),
    Param("config", _text, None, "JSON parameter file"),
)

_SEED = Param("seed", _integer, 0, "base RNG seed")
_MAX_SWEEPS = Param("max_sweeps", _integer, 10_000, minimum=0)
_NEIGHBORHOOD = Param("neighborhood", _text, "moore", choices=tuple(NEIGHBORHOODS))
_SAMPLING = (
    Param("mode", _text, "exhaustive", "uniform-sample is --limit 1",
          choices=SAMPLING_MODES),
    Param("samples", _integer, 10_000, "subset draws per sampled size", minimum=2,
          maximum=SAMPLE_COUNT_CEILING),
    Param("limit", _integer, 100_000,
          "max subsets per size before sampling kicks in", minimum=1),
)
_ALLOCATION = (
    Param("channels", _integer, 5, minimum=1, maximum=INDEX_CEILING),
    _NEIGHBORHOOD,
    Param("boundary", _text, "toroidal", choices=BOUNDARIES),
    Param("allocator", _text, "son", choices=ALLOCATORS),
)

# name -> (help, parameters in flag order); cmd_<name> runs the subcommand
COMMANDS = {
    "cfc": ("functional complexity of one graph", (
        Param("graph", _text, None, "edge-list file"),
        *_SAMPLING,
        _SEED,
        *SHARED,
    )),
    "son-stability": ("repair-distance experiment", (
        Param("dims", _dims, "8x8", "lattice size WxH"),
        *_ALLOCATION,
        Param("instances", _integer, 20, minimum=0, maximum=INDEX_CEILING),
        Param("budget", _integer, 8, "deepest repair distance searched", minimum=0),
        _MAX_SWEEPS,
        Param("cell_sample", _integer, None,
              "perturb only this many cells per instance", minimum=0),
        Param("channel_sample", _integer, None,
              "force only this many channels per cell", minimum=0),
        _SEED,
        *SHARED,
    )),
    "excess-entropy": ("spatial structure of lattices", (
        Param("lattices", _paths, (), "lattice files", flag="lattice"),
        Param("generate", _text, None,
              "generate sample lattices instead of reading files",
              choices=GENERATORS),
        Param("dims", _dims, "32x32", "generated lattice size WxH"),
        Param("channels", _integer, 6, minimum=1, maximum=INDEX_CEILING),
        Param("count", _integer, 10, "number of generated lattices", minimum=1),
        _NEIGHBORHOOD,
        _MAX_SWEEPS,
        Param("mmax", _integer, 4, "deepest context size", minimum=1),
        Param("tolerance", _number, 0.01,
              "convergence tolerance on the entropy-rate tail", minimum=0),
        _SEED,
        *SHARED,
    )),
    "abm": ("intersection traffic over a shared channel", (
        Param("iterations", _integer, 2000, minimum=0),
        Param("mac", _text, "aloha", choices=MACS),
        Param("arrival_probability", _number, 0.5),
        Param("road_length", _integer, 20, minimum=1, maximum=INDEX_CEILING),
        Param("green_period", _integer, 20, minimum=1),
        Param("light_policy", _text, "fixed", choices=LIGHT_POLICIES),
        Param("min_green", _integer, 5, minimum=1),
        Param("persistence", _number, 1.0, "per-slot transmission probability"),
        Param("message_duration", _integer, 1, "slots one report occupies",
              minimum=1),
        Param("slots_per_iteration", _integer, 1, minimum=1),
        Param("seeds", _seeds, (0,),
              "seed list: '1..30', '3,7,9', or one integer"),
        *SHARED,
    )),
    "correlate": ("complexity vs classical metrics", (
        Param("kind", _text, "erdos-renyi", choices=ENSEMBLE_KINDS),
        Param("nodes", _integer, 10, minimum=2, maximum=NODE_CEILING),
        Param("graphs", _integer, 200, minimum=0, maximum=GRAPH_COUNT_CEILING),
        Param("edge_probability", _number, None),
        Param("ring_degree", _integer, None),
        Param("rewiring_probability", _number, None),
        Param("attachment_count", _integer, None),
        Param("connected_only", _switch, True,
              "keep disconnected graphs in the ensemble; correlate needs "
              "connected graphs, so a disconnected draw exits 2 and "
              "otherwise only the header differs from the default's",
              flag="--no-connected-filter"),
        *_SAMPLING,
        Param("seed", _integer, 11, "base RNG seed"),
        *SHARED,
    )),
    "son-run": ("run one allocation, write the lattice", (
        Param("dims", _dims, "10x10", "lattice size WxH"),
        *_ALLOCATION,
        _MAX_SWEEPS,
        _SEED,
        *SHARED,
    )),
}


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve(args) -> dict:
    """The config parameters of args.command, each taken from its flag, else
    the --config file, else its default, and checked.  Flag-only parameters
    are checked and set on args, and args.given names the parameters that a
    flag or the config set."""
    table = COMMANDS[args.command][1]
    flags = vars(args)
    config = _load_config(flags.get("config"))
    unknown = sorted(set(config) - {p.name for p in table if p not in SHARED})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    # read before the loop below adds the flag-only parameters to flags
    args.given = {p.name for p in table if p.name in flags or p.name in config}
    params = {}
    for p in table:
        if p.name in flags:
            value = p.check(flags[p.name])
        elif p.name in config:
            value = p.check(config[p.name])
        else:
            value = p.default
        if p in SHARED:
            setattr(args, p.name, value)
        else:
            params[p.name] = value
    return params


def _width_height(dims: str) -> tuple[int, int]:
    width, height = (int(part) for part in dims.split("x"))
    return width, height


def _check_total(what: str, total: int, ceiling: int) -> None:
    """Reject a total of several parameters past its ceiling, named like
    the ceiling of one parameter."""
    if total > ceiling:
        raise ValueError(
            f"{what}s must be at most {ceiling} (the {what} ceiling), got {total}"
        )


def _provenance(command: str, params: dict) -> list[str]:
    blob = json.dumps(params, sort_keys=True)
    seed = params["seeds"] if "seeds" in params else params["seed"]
    return [
        f"# tool: netcomplexity {__version__}",
        f"# command: {command}",
        f"# config: {blob}",
        f"# seed: {json.dumps(seed)}",
    ]


@contextmanager
def _output(path: str | None):
    # newline="" hands line endings to the csv writer, so files are
    # byte-identical across platforms
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_csv(args, params: dict, columns, rows, summary=()) -> None:
    """Provenance header, CSV table and summary lines, to --out or stdout.
    csv.writer writes floats by repr, so they round-trip, and None as an
    empty cell.  rows and summary may be lazy: each row is written as it is
    read, and summary is read only after the last row."""
    with _output(args.out) as fh:
        for line in _provenance(args.command, params):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        for line in summary:
            fh.write(line + "\n")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mapper(workers: int):
    """A map(fn, tasks) that runs a process pool of min(workers, len(tasks),
    usable CPUs) workers, or is the builtin map when that is below 2.

    Its result is a lazy iterator over the results in task order: the pool
    starts at the first read and lives until the iterator is exhausted or
    closed, so a caller that drops each result once read holds only the
    results in flight.  The size is clamped before the pool exists: under
    the fork start method the pool forks all max_workers processes at its
    first submit.
    """
    def pool_map(fn, tasks):
        size = min(workers, len(tasks), _usable_cpus())
        if size < 2:
            yield from map(fn, tasks)
        else:
            with ProcessPoolExecutor(max_workers=size) as pool:
                yield from pool.map(fn, tasks)
    return pool_map


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: config root must be a JSON object")
    return data


def _policy(params: dict, node_count: int, graph_count: int = 1) -> SamplingPolicy:
    """The sampling policy of the params, once the subsets it enumerates
    for graph_count graphs of node_count nodes are within their ceiling.
    Every scored size is counted, as any graph of diameter 2 or more visits
    them all."""
    # uniform-sample is limit 1; params keeps the applied limit for the header
    if params["mode"] == "uniform-sample":
        params["limit"] = 1
    policy = SamplingPolicy(
        sample_count=params["samples"],
        exhaustive_limit=params["limit"],
        seed=params["seed"],
    )
    _check_total("exhaustive subset", graph_count * policy.exhaustive_count(node_count),
                 EXHAUSTIVE_SUBSET_CEILING)
    return policy


# ---------------------------------------------------------------------------
# cfc


def cmd_cfc(args) -> int:
    params = _resolve(args)
    if params["graph"] is None:
        raise ValueError("no graph file given (use --graph or a config file)")

    g = read_edge_list(params["graph"])
    profile = functional_complexity(g, policy=_policy(params, g.node_count))
    if profile.degenerate:
        print(
            "warning: graph diameter is 1, so there are no usable scales; "
            "complexity is 0 by construction",
            file=sys.stderr,
        )

    summary = [
        "# summary:",
        f"# node_count: {g.node_count}",
        f"# diameter: {profile.diameter}",
        f"# degenerate: {profile.degenerate}",
        f"# complexity: {profile.complexity!r}",
        f"# pooled_standard_error: {profile.pooled_standard_error!r}",
    ]
    _write_csv(args, params, ScaleCell._fields, profile.cells, summary)
    return 0


# ---------------------------------------------------------------------------
# son-stability


def cmd_son_stability(args) -> int:
    params = _resolve(args)

    width, height = _width_height(params["dims"])
    study = stability_experiment(
        params["allocator"], width, height, params["channels"],
        params["neighborhood"], instance_count=params["instances"],
        seed=params["seed"], budget=params["budget"],
        max_sweeps=params["max_sweeps"], boundary=params["boundary"],
        cell_sample=params["cell_sample"],
        channel_sample=params["channel_sample"],
        mapper=_mapper(args.workers),
    )
    hist = " ".join(f"{d}:{n}" for d, n in study.histogram)
    summary = [
        "# summary:",
        f"# allocator: {params['allocator']}",
        f"# perturbations: {len(study.rows)}",
        f"# histogram: {hist}",
        f"# exceeded_count: {study.exceeded_count}",
        f"# mean_distance: {study.mean_distance!r}",
        f"# stderr: {study.stderr!r}",
        f"# max_distance: {study.max_distance}",
        f"# budget: {params['budget']}",
    ]
    _write_csv(args, params, StabilityRow._fields, study.rows, summary)
    return 0


# ---------------------------------------------------------------------------
# excess-entropy


def cmd_excess_entropy(args) -> int:
    params = _resolve(args)
    paths, generator = params["lattices"], params["generate"]
    if paths and generator:
        raise ValueError("give lattice files or --generate, not both")

    # the header records only the keys of the lattice source in use
    generator_keys = ("generate", "dims", "channels", "count", "neighborhood",
                      "max_sweeps")
    if generator:
        width, height = _width_height(params["dims"])
        _check_total("pooled cell", params["count"] * width * height,
                     POOLED_CELL_CEILING)
        samples = [
            instance_lattice(
                generator, generator, i, width, height, params["channels"],
                params["neighborhood"], params["seed"], params["max_sweeps"],
            )
            for i in range(params["count"])
        ]
        del params["lattices"]
    elif paths:
        for key in generator_keys[1:]:  # generate is null here
            if key in args.given:
                raise ValueError(f"{key} must be unset with lattice files")
        samples = [read_lattice(p) for p in paths]
        _check_total("pooled cell", sum(s.width * s.height for s in samples),
                     POOLED_CELL_CEILING)
        for key in generator_keys:
            del params[key]
    else:
        raise ValueError("no lattice source: give files or --generate")

    profile = estimate_excess_entropy(
        samples, max_context=params["mmax"], tolerance=params["tolerance"],
    )
    pooled = sum(s.width * s.height for s in samples)

    rows = [
        (m, h) for m, h in enumerate(profile.conditional_entropies, start=1)
    ]
    summary = [
        "# summary:",
        f"# entropy_rate: {profile.entropy_rate!r}",
        f"# excess_entropy: {profile.excess!r}",
        f"# converged: {profile.converged}",
        f"# sample_count: {len(samples)}",
        f"# pooled_cells: {pooled}",
    ]
    _write_csv(args, params, ("context_depth", "conditional_entropy"), rows, summary)
    return 0


# ---------------------------------------------------------------------------
# abm


def cmd_abm(args) -> int:
    params = _resolve(args)
    rows = len(params["seeds"]) * params["iterations"]
    _check_total("trace row", rows, TRACE_ROW_CEILING)
    _check_total("MAC slot", rows * params["slots_per_iteration"], MAC_SLOT_CEILING)
    scenario = {key: value for key, value in params.items() if key != "seeds"}

    # every config is checked before the output file is opened
    configs = [ScenarioConfig(**scenario, seed=s) for s in params["seeds"]]
    seed_lines, gaps = ["# summary:"], []

    def rows():
        # each result is written as it arrives, then dropped
        for res in _mapper(args.workers)(run_scenario, configs):
            seed_lines.append(
                f"# seed {res.config.seed}: mean_gap={res.mean_gap!r} "
                f"delivery_ratio={res.delivery_ratio!r} "
                f"collision_rate={res.collision_rate!r} "
                f"created={res.created} departed={res.departed} "
                f"remaining={res.remaining} blocked_arrivals={res.blocked_arrivals} "
                f"reports={res.reports_generated}"
            )
            gaps.append(res.mean_gap)
            yield from ((res.config.seed, *rec) for rec in res.trace)

    def summary():
        # read after every row, so it sees every seed
        yield from seed_lines
        grand, spread = mean_and_stderr(gaps)
        yield f"# aggregate: seeds={len(gaps)} mean_gap={grand!r} stderr={spread!r}"

    _write_csv(args, params, ("seed", *PerceptionRecord._fields), rows(), summary())
    return 0


# ---------------------------------------------------------------------------
# correlate


def cmd_correlate(args) -> int:
    params = _resolve(args)
    if params["kind"] == "erdos-renyi" and params["edge_probability"] is None:
        params["edge_probability"] = 0.35

    spec = EnsembleSpec(
        kind=params["kind"],
        node_count=params["nodes"],
        graph_count=params["graphs"],
        seed=params["seed"],
        connected_only=params["connected_only"],
        edge_probability=params["edge_probability"],
        ring_degree=params["ring_degree"],
        rewiring_probability=params["rewiring_probability"],
        attachment_count=params["attachment_count"],
    )
    policy = _policy(params, params["nodes"], params["graphs"])
    report = correlation_report(spec, policy=policy, mapper=_mapper(args.workers))

    label_of = dict(METRIC_FIELDS)
    footer_rows = []
    notes = []
    for corr in report.correlations:
        label = label_of[corr.metric]
        if corr.rho is None:
            footer_rows.append((label, "degenerate", "", "", ""))
            notes.append(f"# note: {label}: {corr.note}")
        else:
            footer_rows.append((label, corr.rho, "", "", ""))
    summary = notes + [f"# flag: {flag}" for flag in report.flags]
    _write_csv(args, params, ReportRow._fields, [*report.rows, *footer_rows], summary)
    return 0


# ---------------------------------------------------------------------------
# son-run


def cmd_son_run(args) -> int:
    params = _resolve(args)
    width, height = _width_height(params["dims"])
    channels, neighborhood = params["channels"], params["neighborhood"]
    boundary, seed = params["boundary"], params["seed"]
    if params["allocator"] == "son":
        lat, report = son_allocate(
            width, height, channels, neighborhood,
            seed=seed, max_sweeps=params["max_sweeps"], boundary=boundary,
        )
        converged, sweeps, conflicts = report.converged, report.sweeps, report.conflicts
    else:
        lat = centralized_allocate(width, height, channels, neighborhood, boundary)
        converged, sweeps, conflicts = True, 0, conflict_count(lat)

    status = [
        f"# converged: {converged}",
        f"# sweeps: {sweeps}",
        f"# conflicts: {conflicts}",
    ]
    with _output(args.out) as fh:
        for line in _provenance(args.command, params) + status:
            fh.write(line + "\n")
        write_lattice(lat, fh)
    if not converged:
        print(
            f"warning: allocation still has {conflicts} conflicts "
            f"after {sweeps} sweeps",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcomplexity",
        description="complexity metrics, channel-allocation experiments, "
        "and the intersection traffic simulation",
    )
    parser.add_argument(
        "--version", action="version", version=f"netcomplexity {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, table) in COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        for param in table:
            param.add_to(sub)
        # looked up when the parser is built, so a wrapped cmd_* is the one run
        sub.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; remap usage to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed its end: not an error of the input.  fd 1 goes to
        # devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputFormatError, OSError, BrokenExecutor) as exc:
        # BrokenExecutor: a pool worker died, so its task has no result
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # a value past the platform's integer range, found where it is used
        print(f"error: value too large: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the last resort: the size ceilings stop the known cases before
        # they allocate
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
