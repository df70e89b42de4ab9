"""Seeded fuzz of the CLI surface: no input ends in a traceback or a hang.

Each case is one mutation of a small valid run: a flag value, a --config
file or an input file.  It runs in a child process under a 1 GiB
address-space limit and a timeout, and must exit 0, 1 or 2 with no
Traceback on stderr.  Mutated values stay small where a flag sets the
amount of work (graphs, instances, iterations, seeds, workers), so a
correct run ends in well under a second; sizes that have a ceiling also
get values far past it.
"""

import json
import random
import subprocess

from netcomplexity import cli

from test_limits import run_bounded

GRAPH = "N 6 undirected\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
LATTICE = "4 4 3\n0 1 2 0\n1 2 0 1\n2 0 1 2\n0 1 2 0\n"

# small valid runs; {graph} and {lattice} stand for input files, which a
# case may mutate, and {config} for its --config file
BASES = (
    ("cfc", "--graph", "{graph}"),
    ("son-stability", "--dims", "4x4", "--instances", "2", "--budget", "1",
     "--cell-sample", "2", "--channel-sample", "2"),
    ("excess-entropy", "--generate", "iid", "--dims", "8x8", "--count", "2",
     "--mmax", "2"),
    ("excess-entropy", "{lattice}", "{lattice}"),
    ("abm", "--iterations", "20", "--seeds", "1,2", "--road-length", "5"),
    ("correlate", "--graphs", "3", "--nodes", "6"),
    ("son-run", "--dims", "5x5", "--out", "-"),
)

WORDS = ("-1", "0", "1", "2", "x", "1.5", "", "nan", "1e400")
SEED_WORDS = ("1,1", "3..1", "1..3", "1,,2", "0..9223372036854775807")
# values far past each size ceiling, tried first on every base that has the
# flag, then drawn at random with the other values
OVERSIZED = {
    "dims": ("100000x100000", "5000x5000"),
    "nodes": (100000,),
    "count": (10**9,),
}
JSON_VALUES = (None, True, "x", [], {}, -1, 0, 2, 1.5, float("inf"),
               float("nan"), [1, 1], ["x"], "2x2")
TOKENS = ("-1", "0", "x", "1.5", "", "1000000000", "99999999999999999999",
          "directed", "7", "#")


def _params(command):
    """name -> (flag, Param) of the mutable parameters of a command."""
    skip = {"out", "config", "graph", "lattices"}
    return {
        p.name: (p.flag or "--" + p.name.replace("_", "-"), p)
        for p in cli.COMMANDS[command][1] if p.name not in skip
    }


def _values(name, param):
    extra = SEED_WORDS if name == "seeds" else param.choices or ()
    return (*WORDS, *extra, *map(str, OVERSIZED.get(name, ())))


def _mutate_text(rng, text):
    """text with one line dropped, repeated or garbled, or cut short, as
    bytes (some not UTF-8)."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        tokens = lines[i].split() or [""]
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        lines[i] = " ".join(tokens)
    elif kind == 3:
        return text.encode()[:rng.randrange(len(text))]
    else:
        return b"\xff\xfe" + text.encode()
    return ("\n".join(lines) + "\n").encode()


def _cases(rng, per_base):
    """(argv, files) pairs, files mapping each placeholder to its content:
    the oversized values first, then random single mutations of each
    base."""
    for base in BASES:
        params = _params(base[0])
        inputs = {key: text for key, text in (("{graph}", GRAPH), ("{lattice}", LATTICE))
                  if key in base}
        for name, values in OVERSIZED.items():
            if name in params:
                yield (*base, params[name][0], str(values[0])), inputs
        kinds = ("flag", "config", "file") if inputs else ("flag", "config")
        for _ in range(per_base):
            kind = rng.choice(kinds)
            if kind == "flag":
                name = rng.choice(sorted(params))
                flag, param = params[name]
                value = () if param.type is cli._switch else (
                    rng.choice(_values(name, param)),
                )
                yield (*base, flag, *value), inputs
            elif kind == "config":
                # a flag on the base run would win over its config key
                keys = [k for k, (flag, _) in params.items() if flag not in base]
                name = rng.choice([*sorted(keys), "bogus"])
                text = json.dumps(
                    {name: rng.choice((*JSON_VALUES, *OVERSIZED.get(name, ())))}
                )
                if rng.random() < 0.1:
                    text = text[:rng.randrange(len(text))]
                yield (*base, "--config", "{config}"), {**inputs, "{config}": text}
            else:
                key = rng.choice(sorted(inputs))
                yield base, {**inputs, key: _mutate_text(rng, inputs[key])}


def test_fuzzed_cli_inputs_exit_cleanly(tmp_path):
    rng = random.Random(20261019)
    failures = []
    for n, (argv, files) in enumerate(_cases(rng, per_base=5)):
        paths = {}
        for i, (key, content) in enumerate(files.items()):
            paths[key] = tmp_path / f"case{n}-{i}"
            paths[key].write_bytes(
                content if isinstance(content, bytes) else content.encode()
            )
        argv = [paths.get(a, a) for a in argv]
        try:
            proc = run_bounded(argv, limit=1 << 30, timeout=20)
        except subprocess.TimeoutExpired:
            failures.append((argv, files, "timed out"))
            continue
        err = proc.stderr.decode(errors="replace")
        if proc.returncode not in (0, 1, 2) or "Traceback" in err:
            failures.append((argv, files, proc.returncode, err[-300:]))
    assert not failures, "\n".join(map(repr, failures))
