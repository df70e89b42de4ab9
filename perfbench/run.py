"""netcomplexity benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/netcomplexity`` must exist; the
package is not installed, the runner puts ``src`` on ``PYTHONPATH``).

``--trace 0`` times complete CLI runs, each a separate
``python -m netcomplexity`` process, for about S seconds and reports the
medians of ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` plus ``setup_s`` (the
median ``--version`` start-up time).  ``--trace 1`` runs the workload once
as a process, then three times in this process with ``--workers 1``
(untraced, traced, untraced), and reports the per-layer metrics of
``layers.py``.

Every output is checked (see ``workloads.py``).  A full record, with the
environment, input and output digests and every sample, goes to
``.perfbench/results/``; the last line on stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import layers
from tracing import Tracer
from workloads import WORKLOADS, judge, load_pins, sha256

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench")
RUN_TIMEOUT = 100.0  # seconds one CLI run may take before it counts as failed
RUNNER_LIMIT = 170  # seconds after which the runner gives up without a result
SETUP_SAMPLES = 7  # --version start-ups timed per end-to-end run, at least
TRACE_SETUP_SAMPLES = 3

PER_RUN = ("wall_s", "cpu_s", "peak_rss_mb")  # read from each run's wait4 record
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def kill_group(pgid: int, patience: float = 5.0) -> None:
    """SIGKILL every process left in a group and wait until none is."""
    deadline = perf_counter() + patience
    while perf_counter() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Cli:
    """Spawns ``python -m netcomplexity`` from the checkout's ``src``."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def command(self, argv) -> list[str]:
        return [sys.executable, "-m", "netcomplexity", *argv]

    def _spawn(self, argv, stdout, stderr):
        """(exit code, wall seconds, rusage) of one run.  ``os.wait4`` blocks
        until exit, so the wall time has no polling granularity.  The run gets
        its own process group: on timeout or interrupt the whole group, pool
        workers included, is killed."""
        start = perf_counter()
        proc = subprocess.Popen(self.command(argv), cwd=self.root, env=self.env,
                                stdout=stdout, stderr=stderr, start_new_session=True)
        killer = threading.Timer(RUN_TIMEOUT, kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill_group(proc.pid)  # a killed CLI can leave pool workers behind
        return proc.returncode, wall, usage

    def quiet(self, argv) -> int:
        """Exit code of a run whose output is not needed."""
        return self._spawn(argv, subprocess.DEVNULL, subprocess.DEVNULL)[0]

    def setup_seconds(self) -> float:
        """Wall time of ``--version``: interpreter start, package import and
        parser build."""
        code, wall, _ = self._spawn(["--version"], subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise SystemExit(f"error: `python -m netcomplexity --version` exited {code}")
        return wall

    def timed(self, argv, out: Path) -> dict:
        """One run writing ``out``; CPU and peak RSS come from the wait4
        record, which includes the pool workers the CLI reaped."""
        with open(out.with_suffix(".err"), "wb") as err:
            code, wall, usage = self._spawn(
                [*argv, "--out", str(out.relative_to(self.root))], subprocess.DEVNULL, err
            )
        return {
            "kind": "process",
            "exit": code,
            "failure": None if code == 0 else f"exit {code}"
            + (" (killed after timeout)" if code == -9 else ""),
            "output": out,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }


def environment() -> dict:
    """Interpreter, library and machine description stored with each result."""
    import networkx
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}"
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "platform": platform.platform(),
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


def measure_end_to_end(cli: Cli, argv, out_dir: Path, seconds: float):
    """CLI runs until the next one would end past ``seconds``, with a timed
    ``--version`` start-up before each run."""
    cli.setup_seconds()  # warm-up: byte-compiles the package on a fresh checkout
    setups, runs = [], []
    start = perf_counter()
    while True:
        setups.append(cli.setup_seconds())
        runs.append(cli.timed(argv, out_dir / f"out-{len(runs)}.csv"))
        typical = statistics.median(r["wall_s"] for r in runs)
        if runs[-1]["exit"] != 0 or perf_counter() - start + typical > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(cli.setup_seconds())
    return setups, runs


def run_in_process(argv, out: Path, tracer=None) -> dict:
    """``cli.main`` in this process with one worker, optionally traced."""
    from netcomplexity import cli

    if tracer is not None:
        layers.install(tracer)
    try:
        start = perf_counter()
        code = cli.main([*argv, "--workers", "1", "--out", str(out)])
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return {"kind": "traced" if tracer else "in-process", "exit": code,
            "failure": None if code == 0 else f"exit {code}", "output": out, "wall_s": wall}


def measure_layers(workload, prep, cli: Cli, out_dir: Path):
    """One process run for ``wall_s`` and the reference bytes, then in-process
    runs untraced, traced and untraced again (the mean of the two untraced
    runs cancels a steady drift in machine speed); per-layer metrics come
    from the spans."""
    setups = [cli.setup_seconds() for _ in range(TRACE_SETUP_SAMPLES)]
    process = cli.timed([*prep.argv, "--workers", str(workload.workers)],
                        out_dir / "out-0.csv")
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # input files are named by paths relative to the root
    before = run_in_process(prep.argv, out_dir / "inprocess-0.csv")
    tracer = Tracer()
    traced = run_in_process(prep.argv, out_dir / "traced.csv", tracer)
    after = run_in_process(prep.argv, out_dir / "inprocess-1.csv")
    plain_s = (before["wall_s"] + after["wall_s"]) / 2

    layer = dict.fromkeys((name for name, _ in layers.PER_LAYER), 0.0)
    extra = {"in_process_s": [before["wall_s"], after["wall_s"]], "traced_s": traced["wall_s"]}
    if traced["exit"] == 0:
        layer.update(layers.layer_metrics(tracer.spans))
        layer["cli.output_bytes"] = traced["output"].stat().st_size
        extra["library_s"] = layers.library_seconds(tracer.spans)
    work_s = process["wall_s"] - statistics.median(setups)
    layer["cli.parallel_efficiency"] = plain_s / (workload.workers * work_s)
    layer["trace.overhead"] = traced["wall_s"] / plain_s - 1.0
    return setups, [process, before, traced, after], layer, extra


def check_outputs(workload, prep, pin, runs) -> dict:
    """Marks each run whose output is missing, invalid or different from the
    first run's bytes; returns the validity verdict of those bytes."""
    reference = None
    verdict = {"problems": [], "output_changed": None, "work": {}}
    for run in runs:
        if run["failure"]:
            continue
        if not run["output"].is_file():
            run["failure"] = "no output file"
            continue
        data = run["output"].read_bytes()
        run["output_sha256"] = sha256(data)
        if reference is None:
            reference = data
            verdict = judge(workload, data.decode(), prep, pin)
            verdict["output_sha256"] = run["output_sha256"]
        if verdict["problems"]:
            run["failure"] = "invalid output"
        elif data != reference:
            run["failure"] = "output differs from the first run of this seed"
    return verdict


def main(argv=None) -> int:
    # SIGTERM and the overall time limit unwind like Ctrl-C, so a running
    # CLI process is killed and reaped before the runner exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.signal(signal.SIGALRM, lambda signum, frame: sys.exit(
        f"error: gave up after {RUNNER_LIMIT} s without a result"))
    signal.alarm(RUNNER_LIMIT)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "netcomplexity" / "__main__.py").is_file():
        print(f"error: no netcomplexity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    cli = Cli(ROOT)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / WORK_DIR / "runs" / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    start = perf_counter()
    prep = workload.prepare(args.seed, ROOT, cli.quiet)
    prepare_s = perf_counter() - start
    pin = load_pins(HERE / "pinned.json").get(workload.name, {}).get(str(args.seed))
    if pin is not None and pin["inputs"] != prep.inputs:
        pin = None  # generated inputs differ from the pinned run's: no reference

    if args.trace == 0:
        argv_full = [*prep.argv, "--workers", str(workload.workers)]
        setups, runs = measure_end_to_end(cli, argv_full, out_dir, args.seconds)
    else:
        setups, runs, layer, extra = measure_layers(workload, prep, cli, out_dir)
    verdict = check_outputs(workload, prep, pin, runs)

    timed = [r for r in runs if r["kind"] == "process"]
    good = [r for r in timed if r["failure"] is None] or timed
    end_to_end = {k: statistics.median(r[k] for r in good) for k in PER_RUN}
    end_to_end["setup_s"] = statistics.median(setups)
    values, units = (end_to_end, END_TO_END) if args.trace == 0 else (layer, layers.PER_LAYER)
    report = {name: {"value": values[name], "unit": unit} for name, unit in units}
    failed = sum(r["failure"] is not None for r in runs)

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "argv": list(prep.argv), "workers": workload.workers,
        "inputs": prep.inputs,
        "input_note": {k: v for k, v in prep.note.items() if k != "edges"},
        "prepare_s": prepare_s,
        "environment": environment(),
        "pinned_output_sha256": None if pin is None else pin["output_sha256"],
        "output_sha256": verdict.get("output_sha256"),
        "output_changed": verdict["output_changed"],
        "problems": verdict["problems"],
        "work": verdict["work"],
        "attempted": len(runs),
        "failed": failed,
        "error_rate": failed / len(runs),
        "end_to_end": end_to_end,
        "samples": {"setup_s": quartiles(setups),
                    **{k: quartiles([r[k] for r in good]) for k in PER_RUN}},
        "runs": [{k: v for k, v in r.items() if k != "output"} for r in runs],
    }
    if args.trace == 1:
        record["per_layer"] = layer
        record["trace_extra"] = extra
    results = ROOT / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for i, run in enumerate(runs):
        if run["failure"]:
            print(f"FAIL {tag} run {i} ({run['kind']}): {run['failure']}", file=sys.stderr)
    for problem in verdict["problems"]:
        print(f"FAIL {tag}: {problem}", file=sys.stderr)
    changed = {None: "no pinned run for this seed", False: "same bytes as the pinned run",
               True: "bytes differ from the pinned run"}
    print(f"{tag}: {len(runs)} runs, {failed} failed; "
          f"output {changed[verdict['output_changed']]}; work {verdict['work']}")
    for name, item in report.items():
        print(f"  {name:<32} {item['value']:.6g} {item['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not verdict["problems"],
        "attempted": len(runs),
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
