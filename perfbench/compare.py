"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds result files as ``run.py`` writes them to
``.perfbench/results/``.  For every file name present in both, prints each
end-to-end metric (and each per-layer metric of traced runs) as old, new and
new/old.  A pair recorded in different environments (interpreter, library
versions, CPU, BLAS) is flagged, because its ratios are not comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def environment_differences(old: dict, new: dict) -> list[str]:
    keys = sorted(set(old) | set(new))
    return [f"{k}: {old.get(k)!r} -> {new.get(k)!r}" for k in keys if old.get(k) != new.get(k)]


def compare(old: dict, new: dict) -> list[str]:
    lines = []
    for key in ("inputs", "pinned_output_sha256"):
        if old.get(key) != new.get(key):
            lines.append(f"  NOTE {key} differ")
    if old.get("output_sha256") != new.get("output_sha256"):
        lines.append("  NOTE output bytes differ")
    for diff in environment_differences(old["environment"], new["environment"]):
        lines.append(f"  ENVIRONMENT DIFFERS {diff}")
    for section in ("end_to_end", "per_layer"):
        for name, before in old.get(section, {}).items():
            after = new.get(section, {}).get(name)
            if after is None:
                continue
            ratio = f"{after / before:.3f}" if before else "-"
            lines.append(f"  {name:<32} {before:>14.6g} {after:>14.6g}  x{ratio}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_dir, new_dir = map(Path, args)
    names = sorted(p.name for p in old_dir.glob("*.json") if (new_dir / p.name).is_file())
    if not names:
        print("no result files present in both directories", file=sys.stderr)
        return 1
    for name in names:
        old = json.loads((old_dir / name).read_text())
        new = json.loads((new_dir / name).read_text())
        print(name)
        print("\n".join(compare(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
