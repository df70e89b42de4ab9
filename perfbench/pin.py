"""Record reference outputs for the benchmark's output checks.

    python3 perfbench/pin.py --seeds 0..19 [--workload NAME ...]

Runs each workload once per seed from the current checkout, requires the
output to pass its validity checks, and stores in ``pinned.json`` the input
and output digests plus the parts a later run must reproduce.  Re-pin only
when an output change is intended, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, ROOT, WORK_DIR, Cli
from workloads import WORKLOADS, Output, judge, load_pins, sha256


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range LO..HI")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split(".."))
    path = HERE / "pinned.json"
    pins = load_pins(path)
    cli = Cli(ROOT)
    out_dir = ROOT / WORK_DIR / "pin"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in range(lo, hi + 1):
            prep = workload.prepare(seed, ROOT, cli.quiet)
            out = out_dir / f"{name}-seed{seed}.csv"
            run = cli.timed([*prep.argv, "--workers", str(workload.workers)], out)
            if run["exit"] != 0:
                print(f"{name} seed {seed}: exit {run['exit']}", file=sys.stderr)
                return 1
            text = out.read_text()
            verdict = judge(workload, text, prep, None)
            if verdict["problems"]:
                print(f"{name} seed {seed}: {verdict['problems']}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = {
                "inputs": prep.inputs,
                "output_sha256": sha256(text.encode()),
                **workload.pin_data(Output.parse(text)),
            }
            print(f"{name} seed {seed}: pinned ({run['wall_s']:.2f} s)", flush=True)
            path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
