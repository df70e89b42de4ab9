"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Every workload turns the workload seed into the files and flags one
``python -m netcomplexity`` run receives, and knows how to judge that run's
output in two ways:

* ``check`` needs nothing but the output and its inputs (structure, totals
  recomputed from the rows, and for ``cfc`` an independent brute-force
  evaluation of the cheapest exhaustive cells);
* ``pin_data`` / ``check_pin`` compare against a reference run of the same
  seed recorded in ``pinned.json``: when the bytes differ, the parts of the
  output that must not move (exhaustive rows, histograms, simulation rows)
  still have to match, and sampled estimates must agree within their error.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

INPUT_DIR = Path(".perfbench") / "inputs"
MAX_DRAWS = 20  # candidate inputs tried before input generation gives up


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Prepared:
    """What one workload run receives: CLI arguments (without ``--workers``
    and ``--out``) and the digests of the generated inputs."""

    argv: tuple[str, ...]
    inputs: dict[str, str]
    note: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Output:
    """An output file split at the column row: provenance header, column
    names, data rows and the ``#`` summary block."""

    header: list[str]
    columns: list[str]
    rows: list[list[str]]
    summary: dict[str, str]
    summary_lines: list[str]

    @classmethod
    def parse(cls, text: str) -> "Output":
        lines = text.splitlines()
        head = list(itertools.takewhile(lambda s: s.startswith("#"), lines))
        body = lines[len(head):]
        if not body:
            raise ValueError("output has no column row")
        data = list(itertools.takewhile(lambda s: not s.startswith("#"), body[1:]))
        tail = body[1 + len(data):]
        summary = {}
        for line in tail:
            key, sep, value = line[2:].partition(": ")
            if sep:
                summary[key] = value
        return cls(
            header=head,
            columns=next(csv.reader([body[0]])),
            rows=list(csv.reader(data)),
            summary=summary,
            summary_lines=tail,
        )

    def rows_digest(self, keep=lambda row: True) -> str:
        text = "\n".join(",".join(row) for row in self.rows if keep(row))
        return sha256(text.encode())


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


class Workload:
    name = ""
    why = ""
    workers = 1

    def prepare(self, seed: int, root: Path, run_cli) -> Prepared:
        raise NotImplementedError

    def check(self, out: Output, prep: Prepared) -> list[str]:
        raise NotImplementedError

    def work(self, out: Output) -> dict:
        raise NotImplementedError

    def pin_data(self, out: Output) -> dict:
        return {"rows_sha256": out.rows_digest()}

    def check_pin(self, out: Output, pin: dict) -> list[str]:
        if out.rows_digest() != pin["rows_sha256"]:
            return ["data rows differ from the pinned run"]
        return []


def _write_input(root: Path, name: str, text: str) -> tuple[str, str]:
    rel = INPUT_DIR / name
    (root / rel).parent.mkdir(parents=True, exist_ok=True)
    (root / rel).write_text(text, encoding="utf-8")
    return rel.as_posix(), sha256(text.encode())


# ---------------------------------------------------------------------------
# cfc on a Watts-Strogatz graph


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def brute_mean_information(adj: list[set[int]], size: int, r: int) -> float:
    """Mean over every size-``size`` induced subgraph of the summed binary
    entropy of (members within r hops of n) / size, by breadth-first search."""
    n = len(adj)
    total = []
    for members in itertools.combinations(range(n), size):
        inside = set(members)
        info = 0.0
        for source in members:
            seen = {source}
            frontier = [source]
            for _ in range(r):
                frontier = [v for u in frontier for v in adj[u] if v in inside and v not in seen]
                seen.update(frontier)
                if not frontier:
                    break
            info += _h2(len(seen) / size)
        total.append(info)
    return math.fsum(total) / len(total)


class CfcWs20(Workload):
    name = "cfc-ws20"
    why = ("single-graph complexity: 50 exhaustive and 20 sampled cells, "
           "uint8 matmul kernel and per-draw subset sampling")
    nodes, ring, rewire, want_diameter = 20, 4, 0.1, 5
    limit, samples = 100_000, 10_000
    oracle_max_subsets = 200

    def prepare(self, seed, root, run_cli):
        import networkx as nx

        rng = random.Random(f"{self.name}:{seed}")
        # keep drawing until the diameter is 5: it fixes the 70-cell layout
        # and with it the work, so seeds stay comparable
        for draws in range(1, MAX_DRAWS + 1):
            g = nx.connected_watts_strogatz_graph(
                self.nodes, self.ring, self.rewire, tries=1000, seed=rng.getrandbits(32)
            )
            if nx.diameter(g) == self.want_diameter:
                break
        else:
            raise RuntimeError(f"no graph of diameter {self.want_diameter} in {MAX_DRAWS} draws")
        edges = sorted(tuple(sorted(e)) for e in g.edges())
        text = f"N {self.nodes} undirected\n" + "".join(f"{u} {v}\n" for u, v in edges)
        rel, digest = _write_input(root, f"{self.name}-seed{seed}.edges", text)
        return Prepared(
            argv=("cfc", "--graph", rel, "--seed", str(seed), "--limit", str(self.limit),
                  "--samples", str(self.samples)),
            inputs={rel: digest},
            note={"graph_draws": draws, "edges": [list(e) for e in edges]},
        )

    def check(self, out, prep):
        problems = []
        cols = ["scale", "size", "mean_information", "baseline", "deviation",
                "stderr", "subset_count", "sampled"]
        if out.columns != cols:
            return [f"columns {out.columns}"]
        n, d = self.nodes, self.want_diameter
        expect = [(r, j) for r in range(1, d) for j in range(r + 1, n + 1)]
        got = [(int(row[0]), int(row[1])) for row in out.rows]
        if got != expect:
            return [f"cells {got[:3]}... do not cover scales 1..{d - 1}"]
        if (out.summary.get("node_count"), out.summary.get("diameter"),
                out.summary.get("degenerate")) != (str(n), str(d), "False"):
            problems.append(f"summary {out.summary}")
        adj = [set() for _ in range(n)]
        for u, v in prep.note["edges"]:
            adj[u].add(v)
            adj[v].add(u)
        whole = {int(row[0]): float(row[3]) for row in out.rows if int(row[1]) == n}
        devs, se2 = [], []
        for row in out.rows:
            r, j = int(row[0]), int(row[1])
            mi, base, dev, se = map(float, row[2:6])
            count, sampled = int(row[6]), row[7] == "True"
            exhaustive = math.comb(n, j) <= self.limit
            if sampled == exhaustive or count != (math.comb(n, j) if exhaustive else self.samples):
                problems.append(f"cell ({r},{j}): mode/count {row[6:]}")
            if (exhaustive and se != 0.0) or not 0.0 <= mi <= j:
                problems.append(f"cell ({r},{j}): value {mi} stderr {se}")
            if not close(base, (r + 1 - j) / (r + 1 - n) * whole[r], 1e-12):
                problems.append(f"cell ({r},{j}): baseline {base}")
            if not close(dev, abs(mi - base), 1e-12):
                problems.append(f"cell ({r},{j}): deviation {dev}")
            if exhaustive and count <= self.oracle_max_subsets:
                ref = brute_mean_information(adj, j, r)
                if not close(mi, ref):
                    problems.append(f"cell ({r},{j}): {mi} but brute force gives {ref}")
            devs.append(dev)
            se2.append(se * se)
        complexity = float(out.summary.get("complexity", "nan"))
        if not close(complexity, math.fsum(devs) / (d - 1)):
            problems.append(f"complexity {complexity} is not the mean deviation")
        pooled = float(out.summary.get("pooled_standard_error", "nan"))
        if not close(pooled, math.sqrt(math.fsum(se2)) / (d - 1)):
            problems.append(f"pooled_standard_error {pooled}")
        return problems

    def work(self, out):
        sampled = sum(int(row[6]) for row in out.rows if row[7] == "True")
        total = sum(int(row[6]) for row in out.rows)
        return {"cells": len(out.rows), "subset_evaluations": total,
                "sampled_subsets": sampled}

    def pin_data(self, out):
        return {
            "exhaustive_rows_sha256": out.rows_digest(lambda row: row[7] == "False"),
            "complexity": float(out.summary["complexity"]),
            "pooled_standard_error": float(out.summary["pooled_standard_error"]),
        }

    def check_pin(self, out, pin):
        problems = []
        if out.rows_digest(lambda row: row[7] == "False") != pin["exhaustive_rows_sha256"]:
            problems.append("exhaustive rows differ from the pinned run")
        value = float(out.summary["complexity"])
        se = math.hypot(float(out.summary["pooled_standard_error"]),
                        pin["pooled_standard_error"])
        if abs(value - pin["complexity"]) > 3.0 * se:
            problems.append(
                f"complexity {value} is more than 3 pooled SE ({se}) "
                f"from the pinned {pin['complexity']}"
            )
        return problems


# ---------------------------------------------------------------------------
# correlate on the default Erdos-Renyi ensemble


class CorrelateEr10(Workload):
    name = "correlate-er10"
    why = ("2000 connected ER(10, 0.35) graphs: ~40k tiny exhaustive cells, "
           "ensemble generation and a process pool of many small tasks")
    workers = 2
    graphs = 2000
    labels = ("rho_apl", "rho_degree", "rho_clustering")

    def prepare(self, seed, root, run_cli):
        argv = ("correlate", "--graphs", str(self.graphs), "--seed", str(seed))
        return Prepared(argv=argv, inputs={"argv": sha256(" ".join(argv).encode())})

    def check(self, out, prep):
        cols = ["graph_id", "complexity", "average_path_length", "average_degree",
                "clustering_coefficient"]
        if out.columns != cols:
            return [f"columns {out.columns}"]
        body, footer = out.rows[:self.graphs], out.rows[self.graphs:]
        problems = []
        if [int(row[0]) for row in body] != list(range(self.graphs)):
            problems.append("graph ids are not 0..graphs-1")
        table = [[float(x) for x in row[1:]] for row in body]
        for gid, (cfc, apl, deg, clu) in enumerate(table):
            # connected on 10 nodes: at least 9 edges, degree >= 1.8
            if not (cfc >= 0.0 and 1.0 <= apl <= 9.0 and 1.8 <= deg <= 9.0
                    and 0.0 <= clu <= 1.0):
                problems.append(f"graph {gid}: implausible row {body[gid]}")
        if [row[0] for row in footer] != list(self.labels):
            return problems + [f"footer rows {footer}"]
        cfc = [row[0] for row in table]
        for k, row in enumerate(footer, start=1):
            rho = statistics.correlation(cfc, [t[k] for t in table])
            if not close(float(row[1]), rho, 1e-9):
                problems.append(f"{row[0]} = {row[1]} but the rows give {rho}")
        return problems

    def work(self, out):
        return {"graphs": len(out.rows) - len(self.labels)}


# ---------------------------------------------------------------------------
# son-stability on 8x8 lattices


class Stability8x8(Workload):
    name = "stability-8x8"
    why = ("exact repair search over 1280 forced-channel perturbations on 128 "
           "lattices, censored cases included; SON allocation is a small share")
    workers = 2
    instances, cell_sample, channels, budget = 128, 2, 5, 8

    def flags(self, cli_seed: int, cell_sample: int) -> tuple[str, ...]:
        return ("son-stability", "--dims", "8x8", "--channels", str(self.channels),
                "--instances", str(self.instances), "--cell-sample", str(cell_sample),
                "--seed", str(cli_seed))

    def prepare(self, seed, root, run_cli):
        # a decentralised allocation occasionally fails to converge, and the
        # CLI then exits 2; pick the first derived seed whose allocations all
        # converge, checked by the same CLI with no cell perturbed
        rng = random.Random(f"{self.name}:{seed}")
        for draws in range(1, MAX_DRAWS + 1):
            cli_seed = rng.getrandbits(31)
            if run_cli(self.flags(cli_seed, 0)) == 0:
                break
        else:
            raise RuntimeError(f"son-stability failed for {MAX_DRAWS} seeds in a row")
        argv = self.flags(cli_seed, self.cell_sample)
        return Prepared(argv=argv, inputs={"argv": sha256(" ".join(argv).encode())},
                        note={"seed_draws": draws})

    def check(self, out, prep):
        cols = ["instance", "row", "col", "forced_channel", "distance", "exceeded"]
        if out.columns != cols:
            return [f"columns {out.columns}"]
        problems = []
        per = self.cell_sample * self.channels
        if len(out.rows) != self.instances * per:
            problems.append(f"{len(out.rows)} perturbations")
        hist: dict[int, int] = {}
        zero_cells = set()
        for i, row in enumerate(out.rows):
            inst, r, c, ch = map(int, row[:4])
            if inst != i // per or ch != i % self.channels or not (0 <= r < 8 and 0 <= c < 8):
                problems.append(f"row {i} out of order: {row}")
                break
            if (row[4] == "") != (row[5] == "True"):
                problems.append(f"row {i}: distance {row[4]!r} with exceeded {row[5]}")
                break
            if row[4]:
                dist = int(row[4])
                if not 0 <= dist <= self.budget:
                    problems.append(f"row {i}: distance {dist}")
                hist[dist] = hist.get(dist, 0) + 1
                if dist == 0:
                    zero_cells.add((inst, r, c))
        # forcing a cell's own channel needs no repair
        if len(zero_cells) != len(out.rows) // self.channels:
            problems.append(f"{len(zero_cells)} cells keep a zero-cost channel")
        want = " ".join(f"{d}:{k}" for d, k in sorted(hist.items()))
        if out.summary.get("histogram") != want:
            problems.append(f"histogram {out.summary.get('histogram')} but rows give {want}")
        exceeded = sum(row[5] == "True" for row in out.rows)
        if out.summary.get("exceeded_count") != str(exceeded):
            problems.append(f"exceeded_count {out.summary.get('exceeded_count')} vs {exceeded}")
        finite = [d for d, k in hist.items() for _ in range(k)]
        if finite and not close(float(out.summary.get("mean_distance", "nan")), statistics.fmean(finite)):
            problems.append(f"mean_distance {out.summary.get('mean_distance')}")
        return problems

    def work(self, out):
        return {"perturbations": len(out.rows),
                "censored": sum(row[5] == "True" for row in out.rows)}

    def pin_data(self, out):
        return {"histogram": out.summary["histogram"],
                "exceeded_count": out.summary["exceeded_count"]}

    def check_pin(self, out, pin):
        got = {key: out.summary.get(key) for key in ("histogram", "exceeded_count")}
        want = {key: pin[key] for key in got}
        return [] if got == want else [f"histogram {got} differs from the pinned {want}"]


# ---------------------------------------------------------------------------
# abm with a saturated slotted-Aloha channel


class AbmAloha(Workload):
    name = "abm-aloha"
    why = ("8 intersection scenarios, 160k slotted-Aloha rounds under a "
           "collapsed backlog, and the largest CSV to emit")
    workers = 2
    scenarios, iterations, slots = 8, 2000, 10

    def prepare(self, seed, root, run_cli):
        first = self.scenarios * seed + 1
        argv = ("abm", "--mac", "aloha", "--persistence", "0.05",
                "--message-duration", "2", "--slots-per-iteration", str(self.slots),
                "--iterations", str(self.iterations),
                "--seeds", f"{first}..{first + self.scenarios - 1}")
        return Prepared(argv=argv, inputs={"argv": sha256(" ".join(argv).encode())},
                        note={"scenario_seeds": [first, first + self.scenarios - 1]})

    def check(self, out, prep):
        cols = ["seed", "iteration", "actual", "perceived", "gap", "delivered", "collisions"]
        if out.columns != cols:
            return [f"columns {out.columns}"]
        first = prep.note["scenario_seeds"][0]
        seeds = list(range(first, first + self.scenarios))
        problems = []
        if len(out.rows) != self.scenarios * self.iterations:
            return [f"{len(out.rows)} rows"]
        gaps: dict[int, list[int]] = {s: [] for s in seeds}
        for i, row in enumerate(out.rows):
            seed, it, actual, perceived, gap, delivered, hits = map(int, row)
            if (seed, it) != (seeds[i // self.iterations], i % self.iterations):
                problems.append(f"row {i} out of order: {row}")
                break
            if gap != actual - perceived or delivered < 0 or not 0 <= hits <= self.slots:
                problems.append(f"row {i}: inconsistent {row}")
                break
            gaps[seed].append(gap)
        if problems:
            return problems
        means = []
        for seed in seeds:
            line = out.summary.get(f"seed {seed}", "")
            fields = dict(item.split("=", 1) for item in line.split())
            mean = statistics.fmean(gaps[seed])
            means.append(float(fields.get("mean_gap", "nan")))
            if not close(means[-1], mean):
                problems.append(f"seed {seed}: mean_gap {fields.get('mean_gap')} vs {mean}")
        agg = dict(item.split("=", 1) for item in out.summary.get("aggregate", "").split())
        if not close(float(agg.get("mean_gap", "nan")), statistics.fmean(means)):
            problems.append(f"aggregate {agg}")
        return problems

    def work(self, out):
        return {"scenarios": self.scenarios,
                "mac_rounds": len(out.rows) * self.slots}


WORKLOADS = {w.name: w for w in (CfcWs20(), CorrelateEr10(), Stability8x8(), AbmAloha())}


def load_pins(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def judge(workload: Workload, text: str, prep: Prepared, pin: dict | None) -> dict:
    """Validity verdict for one output: problems found, whether the bytes
    differ from the pinned run, and the work the output reports."""
    changed = None if pin is None else sha256(text.encode()) != pin["output_sha256"]
    try:
        out = Output.parse(text)
        problems = workload.check(out, prep)
        if changed:
            problems += workload.check_pin(out, pin)
        work = workload.work(out)
    except (ValueError, KeyError, IndexError) as exc:
        problems, work = [f"unreadable output: {exc!r}"], {}
    return {"problems": problems, "output_changed": changed, "work": work}

