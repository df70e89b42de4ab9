"""The traced benchmark run wraps library names given as strings in
perfbench/layers.py; a renamed or removed name must fail here, not only in
a traced benchmark run."""

import sys
from pathlib import Path

from netcomplexity import abm, cli, complexity, harness, lattice

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

OWNERS = (
    cli, complexity, harness, lattice,
    abm.TrafficWorld, abm.SensorField, abm.DecisionMaker, abm.MacChannel,
)


def test_install_wraps_existing_names_and_restore_puts_them_back():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for owner, names in zip(OWNERS, before):
            wrapped = {
                attr: original for attr, original in names.items()
                if vars(owner)[attr] is not original
            }
            assert wrapped, f"nothing wrapped in {owner.__name__}"
            for attr, original in wrapped.items():
                assert vars(owner)[attr].__wrapped__ is original
    finally:
        tracer.restore()
    for owner, names in zip(OWNERS, before):
        assert vars(owner).keys() == names.keys()
        assert all(vars(owner)[attr] is value for attr, value in names.items())


def test_traced_son_stability_counts_every_repair_and_sweep(tmp_path):
    # the tracer wraps lattice.repair_distance and lattice.son_allocate by
    # name; per-case work moved behind another name would read 0 here
    out = tmp_path / "stability.csv"
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert cli.main(["son-stability", "--dims", "4x4", "--channels", "5",
                         "--instances", "2", "--budget", "2", "--workers", "1",
                         "--out", str(out)]) == 0
    finally:
        tracer.restore()
    metrics = layers.layer_metrics(tracer.spans)
    lines = out.read_text().splitlines()
    perturbations = int(next(line for line in lines
                             if line.startswith("# perturbations: ")).split()[-1])
    assert perturbations == 2 * 16 * 5
    assert metrics["lattice.repairs"] == perturbations
    assert metrics["lattice.son_sweeps"] > 0


def test_traced_abm_counts_every_round_step_and_observe(tmp_path):
    # the tracer wraps MacChannel.round, TrafficWorld.step and
    # SensorField.observe by name; per-slot work moved behind another name,
    # or a round that no longer runs through the method, would miscount here
    out = tmp_path / "abm.csv"
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert cli.main(["abm", "--mac", "aloha", "--persistence", "0.05",
                         "--message-duration", "2", "--slots-per-iteration", "10",
                         "--iterations", "50", "--seeds", "1..2", "--workers", "1",
                         "--out", str(out)]) == 0
    finally:
        tracer.restore()
    metrics = layers.layer_metrics(tracer.spans)
    names = [span.name for span in tracer.spans]
    assert metrics["abm.mac_rounds"] == 2 * 50
    assert names.count("abm.TrafficWorld.step") == 2 * 50
    assert names.count("abm.SensorField.observe") == 2 * 50
    assert metrics["abm.mean_backlog"] > 0
