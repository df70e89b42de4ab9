"""Lattice allocation: conflicts, allocators, exact repair, stability."""

import hashlib
import random
import types

import numpy as np
import pytest

from netcomplexity import lattice
from netcomplexity.graph import InputFormatError
from netcomplexity.lattice import (
    ChannelLattice,
    centralized_allocate,
    conflict_count,
    read_lattice,
    repair_distance,
    son_allocate,
    stability_experiment,
    write_lattice,
)

from oracles import (
    oracle_neighbor_pairs,
    oracle_repair_distance,
    oracle_witness_conflicts,
)


def constant_lattice(width, height, channels, value=0, neighborhood="von-neumann"):
    return ChannelLattice(
        width=width,
        height=height,
        channel_count=channels,
        cells=np.full((height, width), value),
        neighborhood=neighborhood,
    )


# ---------------------------------------------------------------------------
# conflicts


def test_constant_von_neumann_conflicts():
    # every one of the 2 * 16 unordered neighbor pairs conflicts
    assert conflict_count(constant_lattice(4, 4, 3)) == 32


def test_constant_moore_conflicts():
    assert conflict_count(constant_lattice(4, 4, 3, neighborhood="moore")) == 64


def test_checkerboard_is_conflict_free():
    lat = centralized_allocate(8, 8, 2, "von-neumann")
    assert conflict_count(lat) == 0


def test_tile_pattern_is_conflict_free():
    lat = centralized_allocate(8, 8, 4, "moore")
    assert conflict_count(lat) == 0


def test_conflict_count_bounded_vs_toroidal():
    cells = np.array([[0, 1], [1, 0]])
    tor = ChannelLattice(width=2, height=2, channel_count=2, cells=cells,
                         neighborhood="von-neumann", boundary="toroidal")
    bnd = ChannelLattice(width=2, height=2, channel_count=2, cells=cells,
                         neighborhood="von-neumann", boundary="bounded")
    # 2x2 checkerboard: proper either way
    assert conflict_count(tor) == 0
    assert conflict_count(bnd) == 0


def test_conflict_count_small_torus_no_double_count():
    # constant 2x2 von Neumann torus: wrap collapses east/west neighbors,
    # leaving 4 distinct unordered pairs, all conflicting
    assert conflict_count(constant_lattice(2, 2, 2)) == 4


@pytest.mark.parametrize("boundary", ["toroidal", "bounded"])
@pytest.mark.parametrize("neighborhood", ["von-neumann", "moore"])
def test_conflict_count_matches_oracle_pairs(neighborhood, boundary):
    # W, H down to 1 cover the small tori where wrapped neighbors coincide
    rng = np.random.default_rng(0)
    for width in range(1, 7):
        for height in range(1, 7):
            pairs = oracle_neighbor_pairs(width, height, neighborhood, boundary)
            for channels in (1, 2, 3):
                cells = rng.integers(0, channels, size=(height, width))
                lat = ChannelLattice(width=width, height=height,
                                     channel_count=channels, cells=cells,
                                     neighborhood=neighborhood, boundary=boundary)
                expect = sum(1 for a, b in pairs if cells[a] == cells[b])
                assert conflict_count(lat) == expect, (width, height, channels)


def test_centralized_patterns_always_clean():
    for dims in ((4, 4), (6, 4), (10, 8)):
        for nb, f in (("von-neumann", 2), ("von-neumann", 3), ("moore", 4), ("moore", 5)):
            lat = centralized_allocate(dims[0], dims[1], f, nb)
            assert conflict_count(lat) == 0


def test_centralized_rejects_odd_torus():
    with pytest.raises(ValueError, match="even"):
        centralized_allocate(7, 7, 2, "von-neumann")


def test_centralized_allows_odd_bounded():
    lat = centralized_allocate(7, 7, 2, "von-neumann", boundary="bounded")
    assert conflict_count(lat) == 0


def test_centralized_rejects_too_few_channels():
    with pytest.raises(ValueError, match="at least 4"):
        centralized_allocate(8, 8, 3, "moore")
    with pytest.raises(ValueError, match="at least 2"):
        centralized_allocate(8, 8, 1, "von-neumann")


def test_lattice_validates_cell_range():
    with pytest.raises(ValueError, match="0..1"):
        ChannelLattice(width=2, height=2, channel_count=2,
                       cells=np.array([[0, 1], [2, 0]]))


def test_lattice_rejects_non_integral_cells():
    # an integer cast would store [[0, 1]]
    with pytest.raises(ValueError, match="cell values must be integers"):
        ChannelLattice(width=2, height=1, channel_count=3, cells=[[0.5, 1.7]])


@pytest.mark.parametrize("fields,message", [
    ({"width": 0}, "bad dimensions 0x2"),
    ({"height": -1}, "bad dimensions 2x-1"),
    ({"channel_count": 0}, "channel_count must be >= 1"),
    ({"neighborhood": "hex"}, "unknown neighborhood 'hex'"),
    ({"boundary": "weird"}, "unknown boundary 'weird'"),
    ({"cells": np.zeros((2, 3))}, r"cells shape \(2, 3\) does not match"),
])
def test_lattice_validates_geometry(fields, message):
    args = {"width": 2, "height": 2, "channel_count": 2,
            "cells": np.zeros((2, 2), dtype=int), **fields}
    with pytest.raises(ValueError, match=message):
        ChannelLattice(**args)


# ---------------------------------------------------------------------------
# son allocator


def test_son_deterministic_per_seed():
    a, ra = son_allocate(8, 8, 5, "moore", seed=3)
    b, rb = son_allocate(8, 8, 5, "moore", seed=3)
    assert np.array_equal(a.cells, b.cells)
    assert ra == rb


def test_son_seeds_differ():
    a, _ = son_allocate(8, 8, 5, "moore", seed=1)
    b, _ = son_allocate(8, 8, 5, "moore", seed=2)
    assert not np.array_equal(a.cells, b.cells)


def test_son_converges_with_slack():
    lat, report = son_allocate(10, 10, 5, "moore", seed=0)
    assert report.converged
    assert conflict_count(lat) == 0
    assert report.conflicts == 0


def no_draws(seed):
    raise AssertionError("a random stream was built")


@pytest.mark.parametrize("args,kwargs,message", [
    ((4, 4, 5, "hex"), {}, "unknown neighborhood 'hex'"),
    ((4, 4, 0), {}, "channel_count must be >= 1"),
    ((4, 4, 3), {"boundary": "weird"}, "unknown boundary 'weird'"),
    ((0, 4, 3), {}, "bad dimensions 0x4"),
])
def test_son_checks_the_geometry_before_any_draw(monkeypatch, args, kwargs, message):
    # no stream, so no draw and no sweep, before the geometry is checked
    monkeypatch.setattr(lattice, "random", types.SimpleNamespace(Random=no_draws))
    with pytest.raises(ValueError, match=message):
        son_allocate(*args, **kwargs)


def test_son_rejects_negative_sweeps():
    with pytest.raises(ValueError, match="max_sweeps must be >= 0"):
        son_allocate(4, 4, 5, max_sweeps=-1)


def test_son_single_channel_never_converges():
    lat, report = son_allocate(4, 4, 1, "von-neumann", seed=0, max_sweeps=25)
    assert not report.converged
    assert report.conflicts > 0
    assert report.sweeps == 25
    assert report.conflicts == conflict_count(lat)


def test_son_stream_pinned():
    # every grid and report of 400 seeded runs, 75 of them stopped
    # unconverged at max_sweeps: a skipped or reordered draw, or a final
    # conflict count that drifts, changes the digest
    digest = hashlib.sha256()
    unconverged = 0
    for width, height, channels, neighborhood, boundary in (
        (8, 8, 5, "moore", "toroidal"),
        (6, 5, 3, "von-neumann", "bounded"),
    ):
        for seed in range(200):
            lat, report = son_allocate(width, height, channels, neighborhood,
                                       seed=seed, max_sweeps=20, boundary=boundary)
            unconverged += not report.converged
            digest.update(repr((lat.cells.tolist(), report.converged,
                                report.sweeps, report.conflicts)).encode())
    assert unconverged == 75
    assert digest.hexdigest() == (
        "a3073b7c0fc2c8c6be60765be432f3cfb31bfd570cab553b0791205008ffed9f"
    )


# ---------------------------------------------------------------------------
# repair distance


def test_repair_zero_when_forcing_own_channel():
    lat = centralized_allocate(4, 4, 2, "von-neumann")
    own = int(lat.cells[1, 1])
    rec = repair_distance(lat, (1, 1), own)
    assert rec.distance == 0
    assert rec.changed_cells == ()


def test_repair_zero_when_forcing_unused_channel():
    lat = centralized_allocate(4, 4, 5, "moore")
    rec = repair_distance(lat, (2, 2), 4)
    assert rec.distance == 0


def test_repair_requires_conflict_free_input():
    bad = constant_lattice(4, 4, 3)
    with pytest.raises(ValueError, match="interference-free"):
        repair_distance(bad, (0, 0), 1)


def test_repair_validates_channel():
    lat = centralized_allocate(4, 4, 2, "von-neumann")
    with pytest.raises(ValueError, match="forced channel"):
        repair_distance(lat, (0, 0), 2)
    with pytest.raises(ValueError, match=r"cell \(4, 0\) outside the 4x4 lattice"):
        repair_distance(lat, (4, 0), 0)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        repair_distance(lat, (0, 0), 0, budget=-1)


def test_repair_checkerboard_needs_full_flip():
    # a 2-channel torus has exactly two proper colorings; clamping one cell
    # to the wrong parity forces every other cell to flip
    lat = centralized_allocate(4, 4, 2, "von-neumann")
    wrong = 1 - int(lat.cells[0, 0])
    rec = repair_distance(lat, (0, 0), wrong, budget=15)
    assert rec.distance == 15
    assert oracle_witness_conflicts(lat, rec) == []


def test_repair_budget_exceeded_reported():
    lat = centralized_allocate(4, 4, 2, "von-neumann")
    wrong = 1 - int(lat.cells[0, 0])
    rec = repair_distance(lat, (0, 0), wrong, budget=8)
    assert rec.distance is None
    # a censored record carries no witness, so the clamp stays unrepaired
    assert oracle_witness_conflicts(lat, rec)


def test_repair_moore_tile_row_neighbor():
    # forcing a row-neighbor color conflicts with the two lateral cells;
    # the spare 5th channel absorbs both
    lat = centralized_allocate(4, 4, 5, "moore")
    target = int(lat.cells[0, 1])  # color of the east neighbor
    rec = repair_distance(lat, (0, 0), target)
    assert rec.distance == 2
    assert oracle_witness_conflicts(lat, rec) == []


def test_repair_witness_respects_clamp():
    lat, report = son_allocate(6, 6, 5, "moore", seed=4)
    assert report.converged
    for ch in range(5):
        rec = repair_distance(lat, (2, 3), ch)
        assert rec.distance is not None
        assert all(cell != (2, 3) for cell, _ in rec.changed_cells)
        assert oracle_witness_conflicts(lat, rec) == []


def test_repair_matches_exhaustive_oracle_three_color():
    # 3-channel proper coloring of a 4x4 von Neumann torus (striped rows)
    rng = random.Random(0)
    cells = np.array([[0, 1] * 2, [2, 0] * 2, [0, 1] * 2, [2, 0] * 2])
    lat = ChannelLattice(width=4, height=4, channel_count=3, cells=cells,
                         neighborhood="von-neumann")
    assert conflict_count(lat) == 0
    for _ in range(6):
        cell = (rng.randrange(4), rng.randrange(4))
        ch = rng.randrange(3)
        got = repair_distance(lat, cell, ch, budget=4)
        want = oracle_repair_distance(
            cells.tolist(), 3, "von-neumann", "toroidal", cell, ch, budget=4
        )
        assert got.distance == want


@pytest.mark.parametrize("width, height", [(3, 3), (4, 3)])
@pytest.mark.parametrize("boundary", ["bounded", "toroidal"])
@pytest.mark.parametrize("neighborhood", ["von-neumann", "moore"])
def test_repair_matches_exhaustive_oracle_small_lattices(width, height, neighborhood, boundary):
    # a 3-row torus makes every row adjacent to the other two under Moore,
    # so a proper coloring needs three channels per column class
    channels = 4 if neighborhood == "von-neumann" else 5
    if (neighborhood, boundary) == ("moore", "toroidal"):
        channels = 9 if width == 3 else 6
    rng = random.Random(f"{width}x{height} {neighborhood} {boundary}")
    lattices = [
        son_allocate(width, height, channels, neighborhood, seed=seed,
                     boundary=boundary)
        for seed in range(3)
    ]
    assert all(report.converged for _, report in lattices)
    lattices = [lat for lat, _ in lattices]
    if boundary == "bounded":  # the periodic pattern cannot close on an odd torus
        lattices.append(centralized_allocate(width, height, channels, neighborhood, boundary))
    perturbations = [
        ((r, c), ch) for r in range(height) for c in range(width) for ch in range(channels)
    ]
    for lat in lattices:
        for cell, ch in perturbations:
            budget = rng.randint(0, 4)
            rec = repair_distance(lat, cell, ch, budget=budget)
            want = oracle_repair_distance(
                lat.cells.tolist(), channels, neighborhood, boundary, cell, ch, budget
            )
            assert rec.distance == want, (lat.cells.tolist(), cell, ch, budget)
            if rec.distance is not None:
                assert oracle_witness_conflicts(lat, rec) == []


@pytest.fixture(scope="module")
def full_scans():
    """Every (distance, witness) of a budget-8 scan of four 8x8 lattices,
    keyed by (neighborhood, boundary)."""
    scans = {}
    for neighborhood, channels in (("moore", 5), ("von-neumann", 3)):
        for boundary in ("toroidal", "bounded"):
            lat, report = son_allocate(8, 8, channels, neighborhood, seed=0,
                                       boundary=boundary)
            assert report.converged
            scans[neighborhood, boundary] = [
                repair_distance(lat, (r, c), ch, budget=8)
                for r in range(8) for c in range(8) for ch in range(channels)
            ]
    return scans


def test_repair_witnesses_pinned_on_full_size_lattices(full_scans):
    # several repairs can share the minimum; the DFS branch order picks the
    # witness, so every (distance, witness) of a full scan is pinned
    digest = hashlib.sha256()
    for records in full_scans.values():
        for rec in records:
            digest.update(repr((rec.distance, rec.changed_cells)).encode())
    assert digest.hexdigest() == (
        "0f1580e1062803263af3808c7a1dfa2520f8d6946bca18e0387d4b0d0699296e"
    )


def test_repair_censored_counts_pinned_on_full_size_lattices(full_scans):
    # a bound that prunes a real repair shows up here as a count, not only as
    # a digest mismatch
    censored = {
        key: sum(rec.distance is None for rec in records)
        for key, records in full_scans.items()
    }
    assert censored == {
        ("moore", "toroidal"): 32,
        ("moore", "bounded"): 8,
        ("von-neumann", "toroidal"): 47,
        ("von-neumann", "bounded"): 6,
    }


@pytest.mark.parametrize("size", [5, 6])
@pytest.mark.parametrize("boundary", ["toroidal", "bounded"])
@pytest.mark.parametrize("neighborhood, channels", [("von-neumann", 3), ("moore", 5)])
def test_repair_is_consistent_across_budgets(size, neighborhood, channels, boundary):
    # a distance d found at budget 8 is found again, with the same witness,
    # when d is the last depth searched, where the lookahead prunes; budget
    # d - 1 must then come back censored
    lat, report = son_allocate(size, size, channels, neighborhood, seed=1,
                               boundary=boundary)
    assert report.converged
    finite = 0
    for r in range(size):
        for c in range(size):
            for ch in range(channels):
                rec = repair_distance(lat, (r, c), ch, budget=8)
                if rec.distance is None:
                    continue
                finite += 1
                assert repair_distance(lat, (r, c), ch, budget=rec.distance) == rec
                if rec.distance:
                    shallow = repair_distance(lat, (r, c), ch, budget=rec.distance - 1)
                    assert shallow.distance is None
    assert finite > 0


# ---------------------------------------------------------------------------
# stability experiment


def test_stability_checkerboard_distribution():
    # forcing the own channel is free; forcing the other color exceeds a
    # budget of 8 on the 4x4 torus (true distance 15)
    study = stability_experiment(
        "centralized", 4, 4, 2, "von-neumann", instance_count=1, seed=0, budget=8
    )
    assert len(study.rows) == 16 * 2
    assert study.histogram == ((0, 16),)
    assert study.exceeded_count == 16
    assert study.mean_distance == 0.0


def test_stability_son_deterministic():
    a = stability_experiment("son", 4, 4, 5, "moore", instance_count=2, seed=9, budget=4)
    b = stability_experiment("son", 4, 4, 5, "moore", instance_count=2, seed=9, budget=4)
    assert a == b


def no_tasks(fn, items):
    raise AssertionError("a task was mapped")


def test_stability_rejects_unknown_allocator():
    with pytest.raises(ValueError, match="unknown allocator 'bogus'"):
        stability_experiment("bogus", 4, 4, 5, instance_count=1, seed=0,
                             mapper=no_tasks)


@pytest.mark.parametrize("kwargs,message", [
    ({"neighborhood": "hex"}, "unknown neighborhood 'hex'"),
    ({"cell_sample": -1}, "cell_sample must be >= 0"),
    ({"channel_sample": -1}, "channel_sample must be >= 0"),
    ({"budget": -1, "instance_count": 0}, "budget must be >= 0"),
])
def test_stability_checks_its_arguments_before_any_task(kwargs, message):
    args = {"instance_count": 1, "mapper": no_tasks, **kwargs}
    with pytest.raises(ValueError, match=message):
        stability_experiment("son", 4, 4, 5, **args)


@pytest.mark.parametrize("allocator,kwargs", [
    ("son", {"instance_count": 0}),
    ("centralized", {"instance_count": 1, "budget": 1}),
])
def test_stability_rejects_negative_sweeps_without_a_son_run(allocator, kwargs):
    # neither call runs son_allocate, whose own check would catch it
    with pytest.raises(ValueError, match="max_sweeps must be >= 0"):
        stability_experiment(allocator, 4, 4, 5, max_sweeps=-1, **kwargs)


def test_stability_rejects_negative_instance_count():
    with pytest.raises(ValueError, match="instance_count must be >= 0"):
        stability_experiment("son", 4, 4, 5, instance_count=-1)


def test_stability_sampling_reduces_rows():
    study = stability_experiment(
        "son", 6, 6, 5, "moore", instance_count=1, seed=2, budget=3,
        cell_sample=5, channel_sample=2,
    )
    assert len(study.rows) == 5 * 2


# ---------------------------------------------------------------------------
# file format


def test_lattice_roundtrip(tmp_path):
    lat, _ = son_allocate(5, 3, 4, "moore", seed=7)
    p = str(tmp_path / "l.lat")
    with open(p, "w", encoding="utf-8", newline="") as fh:
        fh.write("# demo\n")
        write_lattice(lat, fh)
    back = read_lattice(p)
    assert np.array_equal(back.cells, lat.cells)
    assert (back.width, back.height, back.channel_count) == (5, 3, 4)


def test_lattice_file_bad_row_width(tmp_path):
    p = tmp_path / "bad.lat"
    p.write_text("3 2 4\n0 1 2\n0 1\n")
    with pytest.raises(ValueError, match="expected 3 values"):
        read_lattice(str(p))


@pytest.mark.parametrize("text,message", [
    ("# c\n\n2 2\n", ":3: expected header 'W H F', got '2 2'"),
    ("2 2 3 # h\n\n0 1\n1 a # r\n", ":4: non-integer token in '1 a # r'"),
    ("2 2 3\n# c\n0 1 2\n", ":3: expected 2 values, got 3"),
    ("2 2 3\n0 1\n\n", ": expected 2 rows, got 1"),
    ("# only a comment\n", ": empty file, missing header"),
])
def test_lattice_file_errors_count_comment_and_blank_lines(tmp_path, text, message):
    p = tmp_path / "bad.lat"
    p.write_text(text)
    with pytest.raises(InputFormatError) as exc:
        read_lattice(str(p))
    assert str(exc.value) == str(p) + message


def test_lattice_file_bad_value(tmp_path):
    p = tmp_path / "bad.lat"
    p.write_text("2 1 2\n0 5\n")
    with pytest.raises(ValueError, match="0..1"):
        read_lattice(str(p))
