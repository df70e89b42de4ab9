"""Memory bounds: size ceilings checked before allocating, and excess entropy
whose peak memory does not grow with the context depth."""

import hashlib
import sys

import pytest

from netcomplexity import cli

from test_cli import run_bounded, run_cli, run_python, write_graph


def test_excess_entropy_memory_does_not_grow_with_depth():
    # 3,145,728 pooled cells at depth 16.  One rolled plane at a time needs
    # about 250 MB of address space on numpy 2.4; a plane per depth needed
    # about 630 MB.  The 384 MB limit admits only the first.
    argv = ("excess-entropy", "--generate", "iid", "--dims", "512x512",
            "--channels", 2, "--count", 12, "--mmax", 16)
    free = run_bounded(argv)
    assert free.returncode == 0, free.stderr.decode()
    bounded = run_bounded(argv, limit=384 << 20)
    assert bounded.returncode == 0, bounded.stderr.decode()
    assert (hashlib.sha256(bounded.stdout).hexdigest()
            == hashlib.sha256(free.stdout).hexdigest())


@pytest.mark.parametrize("argv,message", [
    (("correlate", "--graphs", 5, "--nodes", 100000),
     "nodes must be at most 512 (the nodes ceiling), got 100000"),
    (("excess-entropy", "--generate", "iid", "--dims", "3000x3000",
      "--channels", 4, "--count", 16, "--mmax", 6),
     "dims must be at most 1048576 cells (the lattice cell ceiling), "
     "got '3000x3000'"),
    (("excess-entropy", "--generate", "iid", "--dims", "1024x1024",
      "--count", 17),
     "pooled cells must be at most 16777216 (the pooled cell ceiling), "
     "got 17825792"),
    (("son-run", "--dims", "100000x100000", "--channels", 5, "--out", "-"),
     "dims must be at most 1048576 cells (the lattice cell ceiling), "
     "got '100000x100000'"),
    (("son-stability", "--dims", "5000x5000", "--instances", 1,
      "--cell-sample", 1, "--channel-sample", 1),
     "dims must be at most 1048576 cells (the lattice cell ceiling), "
     "got '5000x5000'"),
], ids=["correlate-nodes", "excess-entropy-dims", "excess-entropy-pooled",
        "son-run-dims", "son-stability-dims"])
def test_oversized_input_exits_two_before_allocating(argv, message):
    proc = run_bounded(argv, limit=1 << 30, timeout=15)
    assert (proc.returncode, proc.stderr.decode(), proc.stdout) == (
        2, f"error: {message}\n", b"",
    )


HUGE = 10**20  # past the range of a C long and of a C ssize_t


def past_the_index_range(name):
    return (f"{name} must be at most {sys.maxsize} (the {name} ceiling), "
            f"got {HUGE}\n")


@pytest.mark.parametrize("argv,message", [
    (("son-stability", "--dims", "4x4", "--instances", HUGE),
     past_the_index_range("instances")),
    (("son-stability", "--dims", "4x4", "--instances", 1, "--channels", HUGE),
     past_the_index_range("channels")),
    (("son-run", "--dims", "4x4", "--channels", HUGE, "--out", "-"),
     past_the_index_range("channels")),
    (("excess-entropy", "--generate", "son", "--dims", "4x4", "--channels", HUGE),
     past_the_index_range("channels")),
    (("abm", "--iterations", 5, "--road-length", HUGE),
     past_the_index_range("road_length")),
    (("abm", "--iterations", 0, "--seeds", "0..9223372036854775807"),
     "seeds must be at most 1024 seeds (the seed count ceiling), "
     "got '0..9223372036854775807'\n"),
], ids=["son-stability-instances", "son-stability-channels", "son-run-channels",
        "excess-entropy-channels", "abm-road-length", "abm-seeds"])
def test_integer_past_the_platform_range_exits_two(argv, message):
    # each message names the key, as for every other bad value
    proc = run_bounded(argv, limit=1 << 30, timeout=15, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (2, "error: " + message, "")


def test_seed_count_ceiling_starts_no_scenario(monkeypatch, capsys):
    def no_scenario(config):
        raise AssertionError("a scenario started")

    monkeypatch.setattr(cli, "run_scenario", no_scenario)
    for seeds in ("0..1000000", "0..1024", ",".join(map(str, range(1025)))):
        assert run_cli("abm", "--iterations", 0, "--seeds", seeds) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: seeds must be at most 1024 seeds (the seed count ceiling), "
        ), err
    seeds = {p.name: p for p in cli.COMMANDS["abm"][1]}["seeds"]
    assert seeds.check("0..1023") == list(range(1024))
    assert seeds.check(list(range(1024))) == list(range(1024))


@pytest.mark.parametrize("argv,message", [
    (("abm", "--iterations", HUGE),
     f"trace rows must be at most 2048000 (the trace row ceiling), got {HUGE}"),
    (("abm", "--iterations", 2, "--slots-per-iteration", HUGE),
     f"MAC slots must be at most 16777216 (the MAC slot ceiling), got {2 * HUGE}"),
    (("correlate", "--graphs", HUGE),
     f"graphs must be at most 1048576 (the graphs ceiling), got {HUGE}"),
    (("correlate", "--graphs", 2, "--mode", "uniform-sample", "--samples", HUGE),
     f"samples must be at most 16777216 (the samples ceiling), got {HUGE}"),
    (("cfc", "--graph", "ring20.edges", "--samples", HUGE),
     f"samples must be at most 16777216 (the samples ceiling), got {HUGE}"),
], ids=["abm-iterations", "abm-slots", "correlate-graphs", "correlate-samples",
        "cfc-samples"])
def test_huge_count_exits_two_before_any_work(argv, message, tmp_path, monkeypatch):
    # without the count ceilings each ran until killed: the count sizes the
    # work, not one allocation
    write_graph(tmp_path / "ring20.edges", 20,
                [(i, (i + 1) % 20) for i in range(20)] + [(0, 10), (5, 15)])
    monkeypatch.chdir(tmp_path)
    proc = run_bounded(argv, limit=1 << 30, timeout=15, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (2, f"error: {message}\n", "")


class Started(Exception):
    """Raised by a stub that stands for the first piece of work."""


def test_count_ceilings_start_no_scenario_graph_or_draw(monkeypatch, capsys):
    def started(*args, **kwargs):
        raise Started

    for name in ("run_scenario", "correlation_report", "read_edge_list"):
        monkeypatch.setattr(cli, name, started)
    over = [
        ("abm", "--iterations", 2001, "--seeds", "0..1023"),
        ("abm", "--iterations", 16385, "--slots-per-iteration", 1024),
        ("correlate", "--graphs", 1048577),
        ("correlate", "--samples", 16777217),
        ("cfc", "--graph", "absent.edges", "--samples", 16777217),
    ]
    for argv in over:
        assert run_cli(*argv) == 2, argv
        assert " ceiling), got " in capsys.readouterr().err
    at = [
        ("abm", "--iterations", 2000, "--seeds", "0..1023"),
        ("abm", "--iterations", 16384, "--slots-per-iteration", 1024),
        ("correlate", "--graphs", 1048576),
        ("correlate", "--samples", 16777216),
        ("cfc", "--graph", "absent.edges", "--samples", 16777216),
    ]
    for argv in at:
        with pytest.raises(Started):
            run_cli(*argv)


def test_ceilings_admit_their_own_size():
    table = {p.name: p for p in cli.COMMANDS["son-run"][1]}
    assert table["dims"].check("1024x1024") == "1024x1024"
    with pytest.raises(ValueError, match="lattice cell ceiling"):
        table["dims"].check("1025x1024")
    nodes = {p.name: p for p in cli.COMMANDS["correlate"][1]}["nodes"]
    assert nodes.check(512) == 512
    with pytest.raises(ValueError, match="nodes ceiling"):
        nodes.check(513)


def test_pooled_ceiling_applies_to_lattice_files(tmp_path, monkeypatch, capsys):
    # files are read before the check, but not stacked
    monkeypatch.setattr(cli, "POOLED_CELL_CEILING", 128)
    body = "8 8 3\n" + "0 1 2 0 1 2 0 1\n" * 8
    paths = []
    for i in range(3):
        paths.append(tmp_path / f"l{i}.lat")
        paths[-1].write_text(body)
    assert run_cli("excess-entropy", *paths[:2], "--mmax", 2,
                   "--out", tmp_path / "out.csv") == 0
    assert run_cli("excess-entropy", *paths, "--mmax", 2) == 2
    assert capsys.readouterr().err == (
        "error: pooled cells must be at most 128 (the pooled cell ceiling), "
        "got 192\n"
    )


@pytest.mark.parametrize("exc,line", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 8.00 GiB"),
     "error: out of memory Unable to allocate 8.00 GiB\n"),
])
def test_memory_error_exits_two(monkeypatch, capsys, exc, line):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "estimate_excess_entropy", exhausted)
    assert run_cli("excess-entropy", "--generate", "iid", "--dims", "4x4") == 2
    assert capsys.readouterr().err == line


def run_unscored(argv, directory):
    """cli.main(argv) in a child under a 1 GiB address-space limit, with the
    scoring kernel replaced by one that ends the run with exit code 1."""
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from netcomplexity import cli, complexity; "
        "complexity._information_batch = lambda *args: sys.exit('a subset was scored'); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    return run_python("-c", script, *map(str, argv), capture_output=True,
                      timeout=15, text=True, cwd=directory)


def test_exhaustive_subset_ceiling_scores_no_subset(tmp_path):
    # a huge --limit enumerates every size: each ran until killed
    write_graph(tmp_path / "ring40.edges", 40, [(i, (i + 1) % 40) for i in range(40)])
    over = [
        (("cfc", "--graph", "ring40.edges", "--limit", HUGE), 2**40 - 41),
        (("correlate", "--nodes", 60, "--graphs", 2, "--limit", HUGE), 2 * (2**60 - 61)),
    ]
    for argv, total in over:
        proc = run_unscored(argv, tmp_path)
        assert (proc.returncode, proc.stderr, proc.stdout) == (
            2,
            "error: exhaustive subsets must be at most 1073741824 "
            f"(the exhaustive subset ceiling), got {total}\n",
            "",
        ), argv
    # the defaults are admitted and reach the kernel
    for argv in (("cfc", "--graph", "ring40.edges"),
                 ("correlate", "--nodes", 60, "--graphs", 2)):
        proc = run_unscored(argv, tmp_path)
        assert (proc.returncode, proc.stderr) == (1, "a subset was scored\n"), argv


def test_exhaustive_subset_ceiling_counts_every_enumerated_size(
        tmp_path, monkeypatch, capsys):
    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(cli, "functional_complexity", started)
    monkeypatch.setattr(cli, "correlation_report", started)
    ring = write_graph(tmp_path / "ring40.edges", 40,
                       [(i, (i + 1) % 40) for i in range(40)])
    subsets = 204_141  # sizes 2-4 and 36-40 of 40 nodes at the default --limit
    for argv, total in ((("cfc", "--graph", ring), subsets),
                        (("correlate", "--nodes", 40, "--graphs", 3), 3 * subsets),
                        (("cfc", "--graph", ring, "--mode", "uniform-sample"), 1)):
        monkeypatch.setattr(cli, "EXHAUSTIVE_SUBSET_CEILING", total)
        with pytest.raises(Started):
            run_cli(*argv)
        monkeypatch.setattr(cli, "EXHAUSTIVE_SUBSET_CEILING", total - 1)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: exhaustive subsets must be at most {total - 1} "
            f"(the exhaustive subset ceiling), got {total}\n"
        )
