"""CLI surface: exit codes, provenance headers, byte-identical reruns."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import netcomplexity
from netcomplexity import (
    ScenarioConfig,
    run_scenario,
    stability_experiment,
)
from netcomplexity import cli
from netcomplexity.cli import main
from netcomplexity.harness import _REPORT_BLOCK

from test_complexity import P4_COMPLEXITY
from test_entropy import bounded_offsets


SRC = str(Path(netcomplexity.__file__).resolve().parents[1])


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_python(*args, **kwargs):
    """subprocess.run of this interpreter on args, keyword arguments passed
    on.  pytest's pythonpath setting does not reach a child's environment,
    so the child's PYTHONPATH starts with the directory this suite imports
    netcomplexity from.  One BLAS thread keeps OpenBLAS's per-thread
    buffers out of a limited address space."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def run_bounded(argv, limit=None, timeout=60, text=False):
    """cli.main(argv) in a child process, under an address-space limit of
    limit bytes (none if None) and a timeout, its output captured."""
    cap = "" if limit is None else (
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
    )
    script = (
        f"import resource, sys; {cap}"
        "from netcomplexity.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    return run_python("-c", script, *map(str, argv), capture_output=True,
                      timeout=timeout, text=text)


def write_graph(path, n, edges, directed=False):
    """Write an edge-list file: the header 'N n mode', then one 'u v' line
    per edge."""
    mode = "directed" if directed else "undirected"
    lines = [f"N {n} {mode}", *(f"{u} {v}" for u, v in edges)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def parse_output(path):
    """Split a CLI file into header comments, data rows, summary comments."""
    header, rows, summary = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        header.append(lines[i])
        i += 1
    while i < len(lines) and not lines[i].startswith("#"):
        rows.append(lines[i].split(","))
        i += 1
    summary = lines[i:]
    return header, rows, summary


def summary_value(summary, key):
    prefix = f"# {key}: "
    for line in summary:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise AssertionError(f"{key!r} not in summary block {summary}")


# ---------------------------------------------------------------------------
# generic behavior


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "cfc" in capsys.readouterr().out


def test_unknown_flag_is_parse_error(capsys):
    assert run_cli("cfc", "--bogus") == 1
    capsys.readouterr()


def test_missing_subcommand_is_parse_error(capsys):
    assert run_cli() == 1
    capsys.readouterr()


def test_every_output_starts_with_provenance(tmp_path):
    graph = write_graph(tmp_path / "p4.edges", 4, [(0, 1), (1, 2), (2, 3)])
    out = tmp_path / "out.csv"
    assert run_cli("cfc", "--graph", graph, "--out", out) == 0
    header, _, _ = parse_output(out)
    assert header[0] == "# tool: netcomplexity 0.1.0"
    assert header[1] == "# command: cfc"
    assert header[2].startswith("# config: {")
    assert header[3] == "# seed: 0"
    json.loads(header[2][len("# config: "):])  # header config is valid JSON


def test_malformed_config_file_is_parse_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert run_cli("cfc", "--config", cfg) == 1
    capsys.readouterr()


def test_config_root_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert run_cli("cfc", "--config", cfg) == 1
    assert "config root must be a JSON object" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    # abm's one seed parameter is seeds, so a seed key is unknown there
    for command, config in (("cfc", {"graphs": 10}), ("abm", {"seed": 3})):
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli(command, "--config", cfg) == 2, command
        assert "unknown config keys" in capsys.readouterr().err


def test_each_command_declares_each_parameter_once():
    for name, (_, table) in cli.COMMANDS.items():
        names = [p.name for p in table]
        assert len(names) == len(set(names)), name
        assert len({"seed", "seeds"} & set(names)) == 1, name


# (flags, config or None, the start of the error message: the parameter's
# name, and for an out-of-range value its minimum too; the rejected value is
# the last flag, or the config's value of that name)
BAD_INPUT = (
    (("cfc", "--graph", "p4.edges"), {"samples": [1]}, "samples"),
    (("cfc", "--graph", "p4.edges"), {"samples": True}, "samples"),
    (("cfc", "--graph", "p4.edges"), {"seed": None}, "seed"),
    (("son-stability", "--instances", 0), {"dims": 5}, "dims"),
    (("son-stability", "--instances", 0), {"neighborhood": "hex"}, "neighborhood"),
    (("son-stability", "--instances", 0), {"cell_sample": "1"}, "cell_sample"),
    (("son-run", "--out", "x.lat"), {"channels": "5"}, "channels"),
    (("excess-entropy",), {"lattices": "x.lat"}, "lattices"),
    (("correlate", "--graphs", 2, "--nodes", 4), {"connected_only": "no"},
     "connected_only"),
    (("abm", "--iterations", 5), {"seeds": []}, "seeds"),
    (("cfc",), {"graph": 5}, "graph must be a string, got 5"),
    (("abm", "--iterations", 5), {"seeds": 5},
     "seeds must be a non-empty list of integers or text like '1..30', "
     "'3,7,9' or '5', got 5"),
    (("abm", "--iterations", 5), {"seeds": "1..x"},
     "seeds must be a non-empty list of integers or text like '1..30', "
     "'3,7,9' or '5', got '1..x'"),
    (("abm", "--iterations", 5, "--workers", 0), None, "workers"),
    (("abm", "--iterations", 5, "--workers", -3), None, "workers"),
    (("son-stability", "--channels", 0), None, "channels must be >= 1"),
    (("son-run", "--out", "x.lat", "--channels", 0), None, "channels must be >= 1"),
    (("excess-entropy", "--generate", "iid", "--channels", 0), None,
     "channels must be >= 1"),
    (("excess-entropy", "--generate", "iid", "--count", 0), None,
     "count must be >= 1"),
    (("son-stability", "--cell-sample", -1), None, "cell_sample must be >= 0"),
    (("son-stability", "--channel-sample", -2), None, "channel_sample must be >= 0"),
    (("correlate", "--graphs", 2, "--nodes", 0), None, "nodes must be >= 2"),
    (("correlate", "--graphs", 2, "--mode", "uniform-sample", "--samples", -1), None,
     "samples must be >= 2"),
    (("cfc", "--graph", "p4.edges", "--mode", "uniform-sample", "--samples", 1), None,
     "samples must be >= 2, got 1"),
    (("cfc", "--graph", "p4.edges", "--limit", 0), None, "limit must be >= 1, got 0"),
    (("excess-entropy", "--generate", "iid", "--dims", "8x8", "--tolerance", -1), None,
     "tolerance must be >= 0"),
    (("excess-entropy", "--generate", "iid", "--dims", "8x8", "--tolerance", "nan"), None,
     "tolerance must be a finite number, got nan"),
    (("excess-entropy", "--generate", "iid", "--dims", "8x8", "--tolerance", "inf"), None,
     "tolerance must be a finite number, got inf"),
    (("excess-entropy", "--generate", "iid", "--dims", "8x8"), {"tolerance": float("nan")},
     "tolerance must be a finite number"),
    (("abm", "--iterations", 5), {"persistence": 10 ** 400}, "persistence must be a finite"),
    (("cfc", "--graph", "p4.edges", "--mode", "uniform-sample"), {"samples": 0},
     "samples must be >= 2"),
    (("correlate", "--graphs", -1), None, "graphs must be >= 0"),
    (("excess-entropy", "--generate", "iid", "--dims", "8x8", "--mmax", 0), None,
     "mmax must be >= 1"),
    (("son-stability", "--max-sweeps", -1), None, "max_sweeps must be >= 0"),
    (("son-stability", "--allocator", "centralized", "--max-sweeps", -1), None,
     "max_sweeps must be >= 0, got -1"),
    (("son-run", "--out", "x.lat", "--allocator", "centralized", "--max-sweeps", -1),
     None, "max_sweeps must be >= 0"),
    (("son-stability", "--budget", -1), None, "budget must be >= 0"),
    (("son-stability", "--dims", "0x3"), None, "dims must be a WxH string of positive"),
    (("excess-entropy", "--generate", "iid", "--dims", "2x-2"), None,
     "dims must be a WxH string of positive"),
    (("abm", "--iterations", -1), None, "iterations must be >= 0, got -1"),
    (("abm", "--road-length", 0), None, "road_length must be >= 1, got 0"),
    (("abm", "--green-period", 0), None, "green_period must be >= 1, got 0"),
    (("abm", "--min-green", 0), None, "min_green must be >= 1, got 0"),
    (("abm", "--message-duration", 0), None, "message_duration must be >= 1, got 0"),
    (("abm", "--slots-per-iteration", 0), None,
     "slots_per_iteration must be >= 1, got 0"),
    (("abm", "--iterations", 5, "--seeds", "1,1"), None,
     "seeds must be distinct integers (repeated: 1), got '1,1'"),
    (("abm", "--iterations", 5), {"seeds": [4, 2, 4, 2]},
     "seeds must be distinct integers (repeated: 2, 4)"),
    (("correlate", "--kind", "watts-strogatz", "--ring-degree", 2,
      "--rewiring-probability", 0.3, "--edge-probability", 0.9), None,
     "edge_probability must be unset for watts-strogatz"),
    (("correlate", "--kind", "barabasi-albert", "--attachment-count", 2),
     {"ring_degree": 4}, "ring_degree must be unset for barabasi-albert"),
    # generator keys with lattice files, the first in table order named
    # before any file is read
    (("excess-entropy", "x.lat", "--count", 10 ** 9, "--channels", 9,
      "--dims", "3x3"), None, "dims must be unset with lattice files"),
    (("excess-entropy", "x.lat"), {"neighborhood": "moore"},
     "neighborhood must be unset with lattice files"),
    (("excess-entropy", "x.lat"), {"max_sweeps": 5, "count": 3},
     "count must be unset with lattice files"),
)


@pytest.mark.parametrize(
    "flags,config,key", BAD_INPUT,
    ids=[f"{flags[0]}-{key}" for flags, _, key in BAD_INPUT],
)
def test_bad_value_exits_two_naming_the_key(tmp_path, monkeypatch, capsys,
                                            flags, config, key):
    monkeypatch.chdir(tmp_path)
    write_graph("p4.edges", 4, [(0, 1), (1, 2), (2, 3)])
    argv = list(flags)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", "cfg.json"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    name = key.split()[0]
    lines = [line for line in err.splitlines() if line.startswith(f"error: {name} must")]
    assert lines and lines[0].startswith(f"error: {key}")
    if " >= " in key:
        value = flags[-1] if config is None else config[name]
        assert float(lines[0].rpartition(", got ")[2]) == value
    assert "Traceback" not in err


def test_module_entry_point_runs():
    proc = run_python("-m", "netcomplexity", "--version",
                      capture_output=True, text=True)
    assert proc.returncode == 0
    assert "netcomplexity 0.1.0" in proc.stdout


def test_all_lists_the_public_bindings():
    # a stale name in __all__ would make `from netcomplexity import *` fail
    public = {
        name for name, value in vars(netcomplexity).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(netcomplexity.__all__) == sorted(public | {"__version__"})


def test_cli_import_leaves_networkx_unloaded(tmp_path):
    # networkx is a test dependency only: with every import of it failing,
    # correlate still draws and reports each ensemble kind
    kinds = {
        "erdos-renyi": ["--edge-probability", "0.5"],
        "watts-strogatz": ["--ring-degree", "4", "--rewiring-probability", "0.2"],
        "barabasi-albert": ["--attachment-count", "2"],
    }
    script = (
        "import sys; sys.modules['networkx'] = None; "
        "from netcomplexity.cli import main; "
        f"print([main(['correlate', '--kind', kind, *flags, '--graphs', '5', "
        f"'--nodes', '8', '--out', {str(tmp_path / 'out.csv')!r}]) "
        f"for kind, flags in {kinds!r}.items()])"
    )
    proc = run_python("-c", script, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0]"


def test_sampled_cfc_leaves_numpy_random_unloaded(tmp_path):
    # importing numpy.random adds about 6 MB of resident memory; the sampled
    # cells draw from random.Random streams and must not pull it in
    graph = write_graph(tmp_path / "p12.edges", 12, [(i, i + 1) for i in range(11)])
    script = (
        "import sys; from netcomplexity.cli import main; "
        f"code = main(['cfc', '--graph', {graph!r}, '--mode', 'uniform-sample', "
        f"'--samples', '50', '--out', {str(tmp_path / 'out.csv')!r}]); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    proc = run_python("-c", script, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


# ---------------------------------------------------------------------------
# cfc


def test_cfc_path4_matches_frozen_constant(tmp_path):
    graph = write_graph(tmp_path / "p4.edges", 4, [(0, 1), (1, 2), (2, 3)])
    out = tmp_path / "out.csv"
    assert run_cli("cfc", "--graph", graph, "--out", out) == 0
    _, rows, summary = parse_output(out)
    assert float(summary_value(summary, "complexity")) == pytest.approx(
        P4_COMPLEXITY, abs=1e-12
    )
    # scales 1..diameter-1 with sizes r+1..4: (1,2),(1,3),(1,4),(2,3),(2,4)
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
    ]


def test_cfc_complete_graph_warns_and_scores_zero(tmp_path, capsys):
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    graph = write_graph(tmp_path / "k5.edges", 5, edges)
    out = tmp_path / "out.csv"
    assert run_cli("cfc", "--graph", graph, "--out", out) == 0
    assert "no usable scales" in capsys.readouterr().err
    _, rows, summary = parse_output(out)
    assert len(rows) == 1  # column header only, no scale cells
    assert summary_value(summary, "complexity") == "0.0"
    assert summary_value(summary, "degenerate") == "True"


def test_cfc_disconnected_graph_exits_two(tmp_path, capsys):
    graph = write_graph(tmp_path / "d.edges", 4, [(0, 1), (2, 3)])
    assert run_cli("cfc", "--graph", graph, "--out", tmp_path / "o") == 2
    assert "disconnected" in capsys.readouterr().err


def test_cfc_huge_sparse_header_exits_two_without_per_node_work(tmp_path, capsys):
    # a header of 10^9 nodes with one edge is disconnected by its edge count;
    # run in a child under a 1 GiB address-space limit, where building
    # anything per node fails, with the same message a 5-node file gives
    small = tmp_path / "small.edges"
    small.write_text("N 5 undirected\n0 1\n")
    assert run_cli("cfc", "--graph", small) == 2
    expected = capsys.readouterr().err
    assert expected == "error: graph is disconnected: nodes 0 and 2 are in different components\n"
    huge = tmp_path / "huge.edges"
    huge.write_text("N 1000000000 undirected\n0 1\n")
    proc = run_bounded(("cfc", "--graph", huge), limit=1 << 30, timeout=60, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (2, expected, "")


def test_cfc_missing_graph_flag_exits_two(capsys):
    assert run_cli("cfc") == 2
    capsys.readouterr()


def test_cfc_unreadable_file_exits_one(tmp_path, capsys):
    assert run_cli("cfc", "--graph", tmp_path / "absent.edges") == 1
    capsys.readouterr()


def test_cfc_malformed_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n", encoding="utf-8")
    assert run_cli("cfc", "--graph", bad) == 1
    capsys.readouterr()


def test_cfc_uniform_sample_mode_is_limit_one(tmp_path):
    graph = write_graph(tmp_path / "p8.edges", 8, [(i, i + 1) for i in range(7)])
    bodies = []
    configs = []
    for flags in (("--mode", "uniform-sample", "--limit", 5), ("--limit", 1)):
        out = tmp_path / "out.csv"
        assert run_cli("cfc", "--graph", graph, *flags, "--samples", 50,
                       "--seed", 4, "--out", out) == 0
        header, rows, summary = parse_output(out)
        bodies.append((rows, summary))
        configs.append(json.loads(header[2][len("# config: "):]))
    assert bodies[0] == bodies[1]
    # the header records the limit that ran, not the one given
    assert [c.pop("mode") for c in configs] == ["uniform-sample", "exhaustive"]
    assert configs[0] == configs[1]
    assert configs[0]["limit"] == 1
    # every size below N is sampled, size N is exact
    assert {(row[1], row[-1]) for row in bodies[0][0][1:]} == {
        *((str(j), "True") for j in range(2, 8)), ("8", "False"),
    }


def test_cfc_flag_overrides_config(tmp_path):
    p4 = write_graph(tmp_path / "p4.edges", 4, [(0, 1), (1, 2), (2, 3)])
    k3 = write_graph(tmp_path / "k3.edges", 3, [(0, 1), (1, 2), (0, 2)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": k3}), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert run_cli("cfc", "--config", cfg, "--graph", p4, "--out", out) == 0
    header, _, _ = parse_output(out)
    assert json.loads(header[2][len("# config: "):])["graph"] == p4


# ---------------------------------------------------------------------------
# son-stability


def test_stability_empty_runs_print_the_same_summary_keys(tmp_path):
    summaries = []
    for flags in (("--instances", 0), ("--instances", 2, "--cell-sample", 0)):
        out = tmp_path / "out.csv"
        assert run_cli("son-stability", *flags, "--out", out) == 0
        header, rows, summary = parse_output(out)
        assert len(header) == 4
        assert rows == [
            ["instance", "row", "col", "forced_channel", "distance", "exceeded"]
        ]
        summaries.append([line.partition(":")[0] for line in summary])
    assert summaries[0] == summaries[1]
    assert "# perturbations" in summaries[0]


def test_stability_centralized_matches_library(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(
        "son-stability", "--allocator", "centralized", "--dims", "4x4",
        "--channels", 2, "--neighborhood", "von-neumann",
        "--instances", 1, "--budget", 8, "--out", out,
    ) == 0
    study = stability_experiment(
        "centralized", 4, 4, 2, "von-neumann",
        instance_count=1, seed=0, budget=8,
    )
    _, rows, summary = parse_output(out)
    data = rows[1:]
    assert len(data) == len(study.rows)
    for line, row in zip(data, study.rows):
        assert (int(line[0]), int(line[1]), int(line[2]), int(line[3])) == (
            row.instance, row.row, row.col, row.forced_channel,
        )
        if row.distance is None:
            assert line[4] == "" and line[5] == "True"
        else:
            assert int(line[4]) == row.distance and line[5] == "False"
    hist = " ".join(f"{d}:{n}" for d, n in study.histogram)
    assert summary_value(summary, "histogram") == hist
    assert int(summary_value(summary, "exceeded_count")) == study.exceeded_count


def test_stability_checks_the_centralized_plan_without_instances(capsys):
    # an odd torus cannot close the reuse pattern, with or without instances
    errors = []
    for instances in (0, 1):
        assert run_cli(
            "son-stability", "--allocator", "centralized", "--dims", "3x3",
            "--instances", instances,
        ) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "does not close on a 3x3 torus" in errors[0]


def test_stability_son_not_converging_exits_two(capsys):
    assert run_cli(
        "son-stability", "--dims", "6x6", "--channels", 5, "--instances", 2,
        "--max-sweeps", 0,
    ) == 2
    assert capsys.readouterr().err == (
        "error: son allocation did not converge for instance 0 "
        "(29 conflicts after 0 sweeps)\n"
    )


def test_stability_infeasible_channels_exits_two(capsys):
    assert run_cli(
        "son-stability", "--allocator", "centralized",
        "--dims", "4x4", "--channels", 2,
    ) == 2
    assert "channels" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# excess-entropy


def constant_lattice_file(path, width=6, height=6, channels=3, value=1):
    body = "\n".join(" ".join(str(value) for _ in range(width)) for _ in range(height))
    path.write_text(f"{width} {height} {channels}\n{body}\n", encoding="utf-8")
    return str(path)


def test_excess_entropy_constant_lattice_is_exactly_zero(tmp_path):
    lat = constant_lattice_file(tmp_path / "c.lat")
    out = tmp_path / "out.csv"
    assert run_cli("excess-entropy", lat, "--out", out) == 0
    _, rows, summary = parse_output(out)
    assert [r[1] for r in rows[1:]] == ["0.0", "0.0", "0.0", "0.0"]
    assert summary_value(summary, "excess_entropy") == "0.0"
    assert summary_value(summary, "entropy_rate") == "0.0"


def test_excess_entropy_mmax_zero_exits_two(tmp_path, capsys):
    lat = constant_lattice_file(tmp_path / "c.lat")
    assert run_cli("excess-entropy", lat, "--mmax", 0) == 2
    capsys.readouterr()


def test_excess_entropy_mixed_dims_exits_two(tmp_path, capsys):
    a = constant_lattice_file(tmp_path / "a.lat", width=6)
    b = constant_lattice_file(tmp_path / "b.lat", width=4)
    assert run_cli("excess-entropy", a, b) == 2
    assert "dimensions" in capsys.readouterr().err


def test_excess_entropy_requires_exactly_one_source(tmp_path, capsys):
    lat = constant_lattice_file(tmp_path / "c.lat")
    assert run_cli("excess-entropy") == 2
    assert run_cli("excess-entropy", lat, "--generate", "iid") == 2
    capsys.readouterr()


def test_excess_entropy_context_deeper_than_the_lattice_exits_two(capsys):
    assert run_cli(
        "excess-entropy", "--generate", "iid", "--dims", "2x2", "--channels", 4,
        "--count", 200, "--mmax", 9, "--seed", 1,
    ) == 2
    assert "context depth 9 does not fit on a 2x2 lattice" in capsys.readouterr().err


def test_excess_entropy_huge_context_exits_two_without_building_it(monkeypatch, capsys):
    bounded_offsets(monkeypatch, 24)
    assert run_cli(
        "excess-entropy", "--generate", "iid", "--dims", "5x5", "--count", 2,
        "--mmax", 1_000_000,
    ) == 2
    assert "context depth 1000000 does not fit on a 5x5 lattice" in capsys.readouterr().err


def test_excess_entropy_alphabet_overflowing_the_code_space_exits_two(capsys):
    assert run_cli(
        "excess-entropy", "--generate", "iid", "--dims", "4x4", "--channels", 100,
        "--mmax", 9,
    ) == 2
    assert capsys.readouterr().err == (
        "error: alphabet 100 with context depth 9 overflows the dense code space\n"
    )


def test_excess_entropy_son_generator_defaults_converge(capsys):
    assert run_cli("excess-entropy", "--generate", "son") == 0
    out = capsys.readouterr().out
    assert '"channels": 6' in out
    assert "# sample_count: 10" in out


def test_excess_entropy_iid_generator_near_full_rate(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(
        "excess-entropy", "--generate", "iid", "--dims", "128x128",
        "--channels", "2", "--count", 8, "--mmax", 3, "--seed", 5,
        "--out", out,
    ) == 0
    _, _, summary = parse_output(out)
    assert float(summary_value(summary, "entropy_rate")) == pytest.approx(1.0, abs=0.01)
    assert int(summary_value(summary, "pooled_cells")) == 128 * 128 * 8


def test_son_run_output_feeds_excess_entropy(tmp_path):
    lat_path = tmp_path / "son.lat"
    assert run_cli(
        "son-run", "--dims", "10x10", "--channels", 5,
        "--seed", 7, "--out", lat_path,
    ) == 0
    text = lat_path.read_text(encoding="utf-8")
    assert "# converged: True" in text
    assert "# conflicts: 0" in text
    assert "10 10 5" in text.splitlines()
    out = tmp_path / "out.csv"
    assert run_cli("excess-entropy", lat_path, "--mmax", 3, "--out", out) == 0
    _, _, summary = parse_output(out)
    # an interference-free allocation carries real spatial structure
    assert float(summary_value(summary, "excess_entropy")) > 0.5


def test_excess_entropy_son_generator_not_converging_exits_two(capsys):
    assert run_cli(
        "excess-entropy", "--generate", "son", "--dims", "4x4", "--channels", 1,
        "--max-sweeps", 1, "--mmax", 2,
    ) == 2
    assert capsys.readouterr().err == (
        "error: son allocation did not converge for instance 0 "
        "(64 conflicts after 1 sweeps)\n"
    )


def test_son_run_centralized_reports_no_sweeps(tmp_path):
    out = tmp_path / "c.lat"
    assert run_cli("son-run", "--allocator", "centralized", "--out", out) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    for line in ("# converged: True", "# sweeps: 0", "# conflicts: 0"):
        assert line in lines


def test_son_run_warns_when_not_converged(tmp_path, capsys):
    out = tmp_path / "s.lat"
    assert run_cli("son-run", "--dims", "4x4", "--channels", 1,
                   "--max-sweeps", 2, "--out", out) == 0
    assert "warning: allocation still has" in capsys.readouterr().err
    lines = out.read_text(encoding="utf-8").splitlines()
    assert "# converged: False" in lines and "# sweeps: 2" in lines


def test_son_run_dash_writes_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flags = ("son-run", "--dims", "6x6", "--channels", 5, "--seed", 2)
    assert run_cli(*flags, "--out", "son.lat") == 0
    capsys.readouterr()
    for out in (("--out", "-"), ()):
        assert run_cli(*flags, *out) == 0
        assert capsys.readouterr().out.encode() == (tmp_path / "son.lat").read_bytes()
    assert not (tmp_path / "-").exists()


# ---------------------------------------------------------------------------
# abm


def test_abm_zero_iterations_header_only(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli("abm", "--iterations", 0, "--out", out) == 0
    _, rows, summary = parse_output(out)
    assert rows == [
        ["seed", "iteration", "actual", "perceived", "gap",
         "delivered", "collisions"]
    ]
    assert "# summary:" in summary
    # statistics over no iterations and no reports are nan, not 0.0
    assert summary[1].startswith(
        "# seed 0: mean_gap=nan delivery_ratio=nan collision_rate=nan "
    )
    assert summary[2].startswith("# aggregate: seeds=1 mean_gap=nan ")


def test_abm_one_seed_prints_no_standard_error(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli("abm", "--iterations", 30, "--seeds", 3, "--out", out) == 0
    _, _, summary = parse_output(out)
    assert summary[-1].startswith("# aggregate: seeds=1 mean_gap=")
    assert summary[-1].endswith(" stderr=nan")
    assert "mean_gap=nan" not in summary[-1]


def test_abm_ideal_channel_gap_all_zero(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(
        "abm", "--mac", "ideal", "--iterations", 120,
        "--seeds", "1,2", "--out", out,
    ) == 0
    _, rows, _ = parse_output(out)
    data = rows[1:]
    assert len(data) == 240
    assert all(line[4] == "0" for line in data)


def test_abm_seed_range_parses_inclusive(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(
        "abm", "--iterations", 10, "--seeds", "3..6", "--out", out,
    ) == 0
    _, rows, summary = parse_output(out)
    assert sorted({line[0] for line in rows[1:]}) == ["3", "4", "5", "6"]
    assert any(line.startswith("# aggregate: seeds=4 ") for line in summary)


def test_abm_trace_matches_library(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(
        "abm", "--iterations", 40, "--mac", "csma", "--persistence", 0.3,
        "--seeds", 9, "--out", out,
    ) == 0
    res = run_scenario(ScenarioConfig(iterations=40, mac="csma",
                                      persistence=0.3, seed=9))
    _, rows, summary = parse_output(out)
    data = rows[1:]
    assert len(data) == 40
    for line, rec in zip(data, res.trace):
        assert [int(x) for x in line] == [
            9, rec.iteration, rec.actual, rec.perceived,
            rec.gap, rec.delivered, rec.collisions,
        ]
    seed_line = next(line for line in summary if line.startswith("# seed 9: "))
    mean_token = dict(tok.split("=") for tok in seed_line.split()[3:])["mean_gap"]
    assert float(mean_token) == pytest.approx(res.mean_gap)


def test_abm_invalid_config_value_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mac": "token-ring"}), encoding="utf-8")
    assert run_cli("abm", "--config", cfg) == 2
    assert "mac" in capsys.readouterr().err


def test_abm_config_file_supplies_seeds_and_params(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({
            "iterations": 15, "mac": "ideal", "arrival_probability": 0.0,
            "seeds": [4, 8],
        }),
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    assert run_cli("abm", "--config", cfg, "--out", out) == 0
    _, rows, summary = parse_output(out)
    assert sorted({line[0] for line in rows[1:]}) == ["4", "8"]
    # no arrivals: every seed reports zero cars created
    assert all(" created=0 " in line for line in summary if line.startswith("# seed"))


def test_abm_config_takes_seed_text_and_integer_for_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"iterations": 5, "arrival_probability": 0, "seeds": "4..5"}),
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    assert run_cli("abm", "--config", cfg, "--out", out) == 0
    header, _, _ = parse_output(out)
    params = json.loads(header[2][len("# config: "):])
    assert params["seeds"] == [4, 5]
    assert repr(params["arrival_probability"]) == "0.0"


# ---------------------------------------------------------------------------
# correlate


def test_correlate_emits_three_rho_footer_rows(tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli("correlate", "--graphs", 8, "--out", out) == 0
    _, rows, _ = parse_output(out)
    footer = rows[-3:]
    assert [line[0] for line in footer] == ["rho_apl", "rho_degree", "rho_clustering"]
    for line in footer:
        assert -1.0 <= float(line[1]) <= 1.0
    assert len(rows) == 1 + 8 + 3


def test_correlate_default_header_records_the_reference_ensemble(tmp_path):
    # criterion 04 of test_acceptance.py restates these defaults
    out = tmp_path / "out.csv"
    assert run_cli("correlate", "--out", out) == 0
    header, rows, _ = parse_output(out)
    params = json.loads(header[2][len("# config: "):])
    assert {key: params[key] for key in (
        "kind", "nodes", "graphs", "seed", "edge_probability", "connected_only",
    )} == {
        "kind": "erdos-renyi", "nodes": 10, "graphs": 200, "seed": 11,
        "edge_probability": 0.35, "connected_only": True,
    }
    assert header[3] == "# seed: 11"
    assert len(rows) == 1 + 200 + 3


def test_correlate_single_graph_exits_two(monkeypatch, capsys):
    # too few graphs, none included, exit before any graph is drawn
    from netcomplexity import harness

    drawn = []
    monkeypatch.setattr(harness, "_sample_graph", lambda *args: drawn.append(args))
    for graphs in (1, 0):
        assert run_cli("correlate", "--graphs", graphs) == 2
        assert f"need >= 2 graphs to correlate, got {graphs}" in capsys.readouterr().err
    assert drawn == []


def test_correlate_names_the_first_disconnected_graph(tmp_path, capsys):
    # graphs 93 and 108 of this ensemble are disconnected; they lie in
    # different blocks, and the lower index is reported at any worker count
    errors = []
    for workers in (1, 2):
        assert run_cli("correlate", "--graphs", 120, "--edge-probability", 0.55,
                       "--no-connected-filter", "--workers", workers,
                       "--out", tmp_path / "out.csv") == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: graph 93: graph is disconnected: nodes 0 and 1 "
        "are in different components\n"
    )


def test_correlate_names_the_lower_of_two_disconnected_graphs_in_a_block(tmp_path, capsys):
    # graphs 33 and 37 of this ensemble are disconnected, both in the second
    # block of 32, which is scored in one call; the lower index is reported
    errors = []
    for workers in (1, 2):
        assert run_cli("correlate", "--graphs", 64, "--seed", 5, "--edge-probability", 0.5,
                       "--no-connected-filter", "--workers", workers,
                       "--out", tmp_path / "out.csv") == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: graph 33: graph is disconnected: nodes 0 and 6 "
        "are in different components\n"
    )


def test_correlate_degenerate_metric_marked(tmp_path):
    # complete graphs: zero variance everywhere, no coefficient defined
    out = tmp_path / "out.csv"
    assert run_cli(
        "correlate", "--nodes", 5, "--graphs", 3,
        "--edge-probability", "1.0", "--out", out,
    ) == 0
    _, rows, summary = parse_output(out)
    assert all(line[1] == "degenerate" for line in rows[-3:])
    assert any(line.startswith("# note: rho_apl") for line in summary)


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path):
    graph = write_graph(tmp_path / "p4.edges", 4, [(0, 1), (1, 2), (2, 3)])
    pairs = []
    for tag in ("a", "b"):
        cfc = tmp_path / f"cfc_{tag}.csv"
        run_cli("cfc", "--graph", graph, "--out", cfc)
        ee = tmp_path / f"ee_{tag}.csv"
        run_cli("excess-entropy", "--generate", "iid", "--dims", "16x16",
                "--channels", 3, "--count", 2, "--seed", 3, "--out", ee)
        son = tmp_path / f"son_{tag}.lat"
        run_cli("son-run", "--dims", "8x8", "--channels", 5, "--seed", 2,
                "--out", son)
        pairs.append((cfc.read_bytes(), ee.read_bytes(), son.read_bytes()))
    assert pairs[0] == pairs[1]


class FakePool:
    """Stands in for ProcessPoolExecutor: records the size, starts nothing."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("argv,cpus,sizes", [
    (("abm", "--seeds", "1,2", "--workers", 10000), 64, [2]),
    (("abm", "--seeds", "1..8", "--workers", 10000), 3, [3]),
    (("abm", "--seeds", "1..8", "--workers", 2), 64, [2]),
    (("abm", "--seeds", "1..8", "--workers", 10000), None, []),
    (("abm", "--seeds", "5", "--workers", 4), 64, []),
    (("son-stability", "--dims", "4x4", "--instances", 3, "--budget", 1,
      "--cell-sample", 1, "--channel-sample", 1, "--workers", 10000), 64, [3]),
    # correlate's tasks are blocks of graphs: 3 blocks, the last one short
    (("correlate", "--graphs", 2 * _REPORT_BLOCK + 17, "--nodes", 6,
      "--workers", 10000), 64, [3]),
])
def test_pool_size_is_clamped_to_tasks_and_cpus(tmp_path, monkeypatch,
                                                argv, cpus, sizes):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    # the fallback for platforms without an affinity set
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = (*argv, "--out", tmp_path / "out.csv")
    if argv[0] == "abm":
        argv = (*argv, "--iterations", 5)
    assert run_cli(*argv) == 0
    assert FakePool.sizes == sizes


@pytest.mark.parametrize("argv,affinity,sizes", [
    # 3 blocks of graphs, so only the single CPU keeps the pool from starting
    (("correlate", "--graphs", 2 * _REPORT_BLOCK + 17, "--nodes", 6,
      "--workers", 8), {0}, []),
    (("abm", "--seeds", "1..8", "--iterations", 5, "--workers", 8), {0}, []),
    (("abm", "--seeds", "1..8", "--iterations", 5, "--workers", 8), {1, 5, 7}, [3]),
])
def test_pool_size_follows_the_cpu_affinity(tmp_path, monkeypatch,
                                            argv, affinity, sizes):
    # a process pinned to fewer CPUs than the machine has starts no idle workers
    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert run_cli(*argv, "--out", tmp_path / "out.csv") == 0
    assert FakePool.sizes == sizes


def test_worker_count_does_not_change_bytes(tmp_path):
    outputs = []
    for workers in (1, 3):
        corr = tmp_path / f"corr_{workers}.csv"
        assert run_cli("correlate", "--graphs", 10, "--nodes", 8,
                       "--workers", workers, "--out", corr) == 0
        # two blocks whose sampled cells read shared draw streams
        sampled = tmp_path / f"sampled_{workers}.csv"
        assert run_cli("correlate", "--graphs", 40, "--nodes", 8,
                       "--mode", "uniform-sample", "--samples", 50,
                       "--workers", workers, "--out", sampled) == 0
        stab = tmp_path / f"stab_{workers}.csv"
        assert run_cli("son-stability", "--dims", "5x5", "--channels", 5,
                       "--instances", 3, "--budget", 2,
                       "--workers", workers, "--out", stab) == 0
        abm = tmp_path / f"abm_{workers}.csv"
        assert run_cli("abm", "--iterations", 60, "--seeds", "1..4",
                       "--workers", workers, "--out", abm) == 0
        outputs.append((corr.read_bytes(), sampled.read_bytes(),
                        stab.read_bytes(), abm.read_bytes()))
    assert outputs[0] == outputs[1]


# Small runs of every subcommand with non-default values, in order: the
# excess-entropy file case reads the lattice that son-run writes.  Input
# paths are relative to the working directory so the header bytes are fixed.
# The second correlate run keeps every cell exhaustive (ER, 10 nodes).
PINNED_RUNS = (
    ("cfc", ("cfc", "--graph", "p6.edges", "--mode", "uniform-sample",
             "--samples", 40, "--limit", 5, "--seed", 3, "--out", "cfc.csv")),
    # the directed path 0 -> 1 -> ... -> 11: diameter 11, sampled scales
    # up to 10, reached by long chains of products
    ("cfc-directed", ("cfc", "--graph", "d12.edges", "--mode", "uniform-sample",
                      "--samples", 40, "--seed", 3, "--out", "cfc-directed.csv")),
    ("son-run", ("son-run", "--dims", "7x5", "--channels", 5,
                 "--neighborhood", "von-neumann", "--boundary", "bounded",
                 "--max-sweeps", 500, "--seed", 4, "--out", "son.lat")),
    ("son-stability", ("son-stability", "--dims", "5x5", "--channels", 5,
                       "--instances", 2, "--budget", 2, "--cell-sample", 3,
                       "--channel-sample", 2, "--seed", 1,
                       "--out", "stab.csv")),
    ("excess-entropy-iid", ("excess-entropy", "--generate", "iid",
                            "--dims", "12x10", "--channels", 3, "--count", 2,
                            "--neighborhood", "von-neumann", "--mmax", 3,
                            "--tolerance", 0.05, "--seed", 6, "--out", "ee.csv")),
    ("excess-entropy-son", ("excess-entropy", "--generate", "son",
                            "--dims", "6x6", "--channels", 5, "--count", 3,
                            "--mmax", 3, "--seed", 3, "--out", "ees.csv")),
    ("excess-entropy-files", ("excess-entropy", "son.lat", "--mmax", 2,
                              "--out", "eef.csv")),
    ("abm", ("abm", "--iterations", 30, "--mac", "csma", "--persistence", 0.5,
             "--arrival-probability", 0.3, "--road-length", 8,
             "--light-policy", "queue", "--min-green", 3,
             "--message-duration", 2, "--slots-per-iteration", 3,
             "--seeds", "1,2", "--out", "abm.csv")),
    ("correlate", ("correlate", "--kind", "watts-strogatz", "--nodes", 7,
                   "--graphs", 5, "--ring-degree", 2,
                   "--rewiring-probability", 0.3, "--samples", 30,
                   "--limit", 10, "--seed", 2, "--out", "corr.csv")),
    ("correlate-exhaustive", ("correlate", "--graphs", 40, "--nodes", 10,
                              "--seed", 5, "--out", "corr-er.csv")),
)

PINNED_SHA256 = {
    "cfc": "88636f5e42d01a3bc15444cc7eacda1396fdf3b6cc13bdf078cc83cef562ec4e",
    "cfc-directed": "cd6e85834b1759ecfe77728ea39eee784d5f610510aadc34cec012ae430d2cb6",
    "son-run": "409989f3ae1cebd7da180546b2515d4888fecdb2f598e353fdace107785645b3",
    "son-stability": "7465bcef0d9ea421e91b1549cc19a7649c3f902d2e29e9a2483e23b578e8b7e8",
    "excess-entropy-iid": "59f5bb064d2794555ccc23f139d25e89ad1a423f8acc435245798d6299692944",
    "excess-entropy-son": "1afec31f12771e90905877c6e6c45a3a18ff6fe8a33d9adf8ece029c246eec74",
    "excess-entropy-files": "b95f7859eb3892cc356671e1b70d5f7d918222dd854e66e33a41308647836073",
    "abm": "1ce04dea92f55fa62cc0e65866aee7b5024677b86a17f94a5de8920b9f7dbdd7",
    "correlate": "f447ae9827bd30b4945112a18de79a1994ef368a4a70258b627e133b3a161bb8",
    "correlate-exhaustive": "6872063c619f6a2faa58b1bac87a2be5a10f1dc6a4ad760d32c971f994cf3f40",
}


def test_pinned_outputs_and_config_round_trip(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    write_graph("p6.edges", 6, [(i, i + 1) for i in range(5)])
    write_graph("d12.edges", 12, [(i, i + 1) for i in range(11)], directed=True)
    for name, argv in PINNED_RUNS:
        assert run_cli(*argv) == 0, name
        out = argv[-1]
        data = (tmp_path / out).read_bytes()
        assert hashlib.sha256(data).hexdigest() == PINNED_SHA256[name], name
        # the header's resolved config, fed back as --config, is the same run
        config_line = next(
            line for line in data.decode().splitlines()
            if line.startswith("# config: ")
        )
        (tmp_path / "again.json").write_text(
            config_line[len("# config: "):], encoding="utf-8"
        )
        assert run_cli(argv[0], "--config", "again.json",
                       "--out", f"again-{out}") == 0, name
        assert (tmp_path / f"again-{out}").read_bytes() == data, name
