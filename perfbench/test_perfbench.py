"""Tests of the benchmark's own logic: output checks, spans and self time.

    python -m pytest perfbench -q

The workloads are shrunk (same checks, smaller parameters) and run through
``netcomplexity.cli.main`` in this process, so the file runs in seconds.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


class SmallCfc(wl.CfcWs20):
    nodes, ring, rewire, want_diameter = 10, 4, 0.1, 3
    limit, samples = 100, 200


class SmallCorrelate(wl.CorrelateEr10):
    graphs = 20


class SmallStability(wl.Stability8x8):
    instances, cell_sample = 2, 2


class SmallAbm(wl.AbmAloha):
    scenarios, iterations = 2, 40


def _bump(row: list[str], col: int, delta: float) -> None:
    row[col] = repr(float(row[col]) + delta)


def _set(row: list[str], col: int, value: str) -> None:
    row[col] = value


# (workload, corruption of the parsed rows) per kind of output
CASES = [
    (SmallCfc(), lambda rows: _bump(rows[0], 2, 1e-6)),
    (SmallCorrelate(), lambda rows: _bump(rows[0], 1, 0.5)),
    (SmallStability(), lambda rows: _set(rows[1], 4, "" if rows[1][4] == "1" else "1")),
    (SmallAbm(), lambda rows: _set(rows[5], 3, str(int(rows[5][3]) + 1))),
]


def _rewrite(text: str, corrupt) -> str:
    out = wl.Output.parse(text)
    corrupt(out.rows)
    body = "".join(",".join(row) + "\n" for row in out.rows)
    return ("\n".join(out.header) + "\n" + ",".join(out.columns) + "\n" + body
            + "".join(line + "\n" for line in out.summary_lines))


@pytest.fixture(params=CASES, ids=lambda case: case[0].name)
def produced(request, tmp_path, monkeypatch):
    from netcomplexity import cli

    monkeypatch.chdir(tmp_path)
    workload, corrupt = request.param
    scratch = tmp_path / "probe.csv"
    prep = workload.prepare(3, tmp_path, lambda argv: cli.main([*argv, "--out", str(scratch)]))
    out = tmp_path / "out.csv"
    assert cli.main([*prep.argv, "--out", str(out)]) == 0
    return workload, prep, out.read_text(), corrupt


def test_real_output_passes_and_matches_its_pin(produced):
    workload, prep, text, _ = produced
    assert wl.judge(workload, text, prep, None)["problems"] == []
    pin = {"output_sha256": wl.sha256(text.encode()),
           **workload.pin_data(wl.Output.parse(text))}
    verdict = wl.judge(workload, text, prep, pin)
    assert verdict == {**verdict, "problems": [], "output_changed": False}


def test_corrupted_output_is_a_failure(produced):
    workload, prep, text, corrupt = produced
    bad = _rewrite(text, corrupt)
    assert bad != text
    assert wl.judge(workload, bad, prep, None)["problems"]
    pin = {"output_sha256": wl.sha256(text.encode()),
           **workload.pin_data(wl.Output.parse(text))}
    verdict = wl.judge(workload, bad, prep, pin)
    assert verdict["output_changed"] is True and verdict["problems"]


def test_changed_header_alone_is_output_changed_not_failure(produced):
    workload, prep, text, _ = produced
    pin = {"output_sha256": wl.sha256(text.encode()),
           **workload.pin_data(wl.Output.parse(text))}
    changed = text.replace("# tool: netcomplexity", "# tool: netcomplexity-next", 1)
    verdict = wl.judge(workload, changed, prep, pin)
    assert verdict["output_changed"] is True and verdict["problems"] == []


def test_truncated_output_is_a_failure(produced):
    workload, prep, text, _ = produced
    assert wl.judge(workload, text[: len(text) // 2], prep, None)["problems"]


def test_cfc_brute_force_matches_a_hand_count():
    # path 0-1-2: at r=1 the ends see 2 of 3 nodes, the middle all 3
    path = [{1}, {0, 2}, {1}]
    h = wl._h2(2 / 3)
    assert wl.brute_mean_information(path, 3, 1) == pytest.approx(2 * h)
    assert wl.brute_mean_information(path, 3, 2) == 0.0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),   # overlaps a: the union [1, 6] counts once
        Span("c", 9.0, 12.0, 0),  # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_tracer_nests_spans_tags_calls_and_restores():
    class Channel:
        def round(self, pending):
            pending.clear()
            return "done"

    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * 2
    original_round = Channel.round
    tracer = Tracer()
    tracer.wrap(mod, "outer", "t.outer")
    tracer.wrap(mod, "leaf", "t.leaf", lambda args, result: result)
    tracer.wrap(Channel, "round", "t.round", lambda args: len(args[1]), at_entry=True)
    assert mod.outer(1) == 4
    assert Channel().round({1: 2, 3: 4}) == "done"
    tracer.restore()
    assert Channel.round is original_round and mod.outer(1) == 4
    names = [(s.name, s.parent, s.tag) for s in tracer.spans]
    assert names == [("t.outer", -1, None), ("t.leaf", 0, 2), ("t.round", -1, 2)]


def test_layer_metrics_split_repairs_by_outcome():
    spans = [
        Span("cli.cmd_son_stability", 0.0, 10.0, -1),
        Span("lattice.stability_experiment", 0.5, 9.5, 0),
        Span("lattice.repair_distance", 1.0, 2.0, 1, 3),
        Span("lattice.repair_distance", 2.0, 5.0, 1, 7),
        Span("lattice.repair_distance", 5.0, 9.0, 1, None),
    ]
    m = layers.layer_metrics(spans)
    assert m["lattice.repairs"] == 3
    assert m["lattice.repair_s"] == pytest.approx(8.0)
    assert (m["lattice.repair_s.shallow"], m["lattice.repair_s.deep"],
            m["lattice.repair_s.censored"]) == pytest.approx((1.0, 3.0, 4.0))
    assert m["lattice.censored_share"] == pytest.approx(1 / 3)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert layers.library_seconds(spans) == pytest.approx(9.0)


def test_benchmark_json_lists_the_runner_workloads_and_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in layers.PER_LAYER]
