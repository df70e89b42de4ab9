"""Acceptance gate: one test per criterion, strictest stated tolerances.

Each test prints one "criterion NN PASS/FAIL: ..." line with the measured
evidence; run with -v to get the per-criterion verdicts from pytest itself.
Soft checks (4 and 8) pass with a recorded deviation message rather than a
failure when the measured direction disagrees with the expectation, since
the generating algorithms are reconstructions.
"""

import math
import time

import numpy as np
import pytest

from netcomplexity import (
    ChannelLattice,
    EnsembleSpec,
    SamplingPolicy,
    ScenarioConfig,
    build_topology,
    centralized_allocate,
    conflict_count,
    correlation_report,
    estimate_excess_entropy,
    functional_complexity,
    is_connected,
    repair_distance,
    run_scenario,
    sample_stream,
    son_allocate,
    stability_experiment,
)
from netcomplexity.cli import main as cli_main
from netcomplexity.entropy import _entropy_of_count_vector
from netcomplexity.harness import _REPORT_BLOCK, report_blocks

from oracles import oracle_functional_complexity, oracle_repair_distance


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def complete_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def seeded_connected_graph(tag, index, n_lo, n_hi, p_lo, p_hi):
    rng = sample_stream(202, tag, index)
    n = rng.randint(n_lo, n_hi)
    while True:
        p = rng.uniform(p_lo, p_hi)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = build_topology(n, edges)
        if is_connected(g):
            return g


def test_criterion_01_complete_graph_anchor():
    t0 = time.perf_counter()
    worst = max(
        abs(functional_complexity(build_topology(n, complete_edges(n))).complexity)
        for n in range(2, 9)
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"complete graphs N=2..8 worst |c|={worst:.3e} "
                   f"(tol 1e-12), {elapsed:.2f}s (budget 1s)")


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        g = seeded_connected_graph("acceptance-oracle", i, 3, 7, 0.25, 0.9)
        got = functional_complexity(g).complexity
        want = oracle_functional_complexity(g.node_count, g.edges)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(2, ok, f"50 connected graphs N<=7 worst |production-oracle|="
                   f"{worst:.3e} (tol 1e-9), {elapsed:.1f}s (budget 60s)")


def test_criterion_03_sampling_consistency():
    t0 = time.perf_counter()
    hits = 0
    for i in range(20):
        g = seeded_connected_graph("acceptance-sampling", i, 10, 10, 0.35, 0.35)
        exact = functional_complexity(g).complexity
        prof = functional_complexity(
            g, policy=SamplingPolicy(sample_count=10_000, exhaustive_limit=1,
                                     seed=i),
        )
        band = 3.0 * prof.pooled_standard_error
        if abs(prof.complexity - exact) <= band:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 19
    _report(3, ok, f"sampled complexity within 3 pooled SE of exhaustive on "
                   f"{hits}/20 ER(10) graphs (need >=19), {elapsed:.1f}s")


def test_criterion_04_correlation_report_soft_check():
    t0 = time.perf_counter()
    # the defaults of `correlate`: 200 connected ER(10, 0.35) graphs, seed 11
    spec = EnsembleSpec(kind="erdos-renyi", node_count=10, graph_count=200,
                        seed=11, connected_only=True, edge_probability=0.35)
    first = correlation_report(spec)
    second = correlation_report(spec)
    elapsed = time.perf_counter() - t0
    deterministic = first == second
    rhos = {c.metric: c.rho for c in first.correlations}
    emitted = len(rhos) == 3 and all(r is not None for r in rhos.values())
    over = {m for m, r in rhos.items() if abs(r) >= 0.5}
    flagged = {m for m in rhos if any(m in f for f in first.flags)}
    soft_consistent = over == flagged
    ok = deterministic and emitted and soft_consistent and elapsed < 300.0
    vals = ", ".join(f"{m}={r:+.3f}" for m, r in sorted(rhos.items()))
    deviation = (
        f"; DEVIATION: |rho| >= 0.5 for {sorted(over)} on this reconstructed "
        f"ensemble (expected < 0.5), flagged in-report as designed"
        if over else ""
    )
    _report(4, ok, f"deterministic={deterministic}, {vals}{deviation}, "
                   f"{elapsed:.1f}s (budget 300s)")


def test_criterion_05_entropy_anchors():
    # constant lattice: exactly zero structure
    const = ChannelLattice(
        width=8, height=8, channel_count=3,
        cells=np.ones((8, 8), dtype=np.int64), neighborhood="von-neumann",
    )
    prof_const = estimate_excess_entropy([const])
    exact_zero = prof_const.excess == 0.0 and prof_const.entropy_rate == 0.0

    # iid uniform F=4, >= 1e6 pooled cells
    samples = []
    for i in range(16):
        rng = np.random.default_rng(sample_stream(505, "iid", i).getrandbits(63))
        samples.append(ChannelLattice(
            width=256, height=256, channel_count=4,
            cells=rng.integers(0, 4, size=(256, 256), dtype=np.int64),
        ))
    pooled = sum(s.width * s.height for s in samples)
    prof_iid = estimate_excess_entropy(samples)
    iid_ok = pooled >= 10**6 and abs(prof_iid.excess) <= 0.05

    # monotone non-increasing h(M) on varied inputs
    son_lat, _ = son_allocate(12, 12, 5, "moore", seed=4)
    monotone = True
    for lat in (const, samples[0], son_lat):
        h = estimate_excess_entropy([lat], max_context=6).conditional_entropies
        monotone &= all(h[m + 1] <= h[m] + 1e-12 for m in range(len(h) - 1))

    # plug-in entropy equals the closed form on exact count tables
    plug_a = abs(_entropy_of_count_vector(np.array([3, 1]))
                 - (2.0 - 0.75 * math.log2(3.0)))
    plug_b = abs(_entropy_of_count_vector(np.full(8, 5)) - 3.0)
    plugin_ok = plug_a <= 1e-12 and plug_b <= 1e-12

    ok = exact_zero and iid_ok and monotone and plugin_ok
    _report(5, ok, f"constant excess={prof_const.excess!r} (exact 0), iid F=4 "
                   f"|excess|={abs(prof_iid.excess):.4f} over {pooled} cells "
                   f"(tol 0.05), monotone={monotone}, plug-in errors "
                   f"{plug_a:.1e}/{plug_b:.1e} (tol 1e-12)")


def test_criterion_06_son_convergence():
    t0 = time.perf_counter()
    converged = 0
    worst_sweeps = 0
    for s in range(100):
        _, rep = son_allocate(10, 10, 5, "moore", seed=s, max_sweeps=10_000)
        converged += rep.converged
        worst_sweeps = max(worst_sweeps, rep.sweeps)
    elapsed = time.perf_counter() - t0
    ok = converged == 100 and elapsed < 30.0
    _report(6, ok, f"10x10 Moore F=5: {converged}/100 seeds conflict-free, "
                   f"max {worst_sweeps} sweeps (cap 1e4), {elapsed:.1f}s "
                   f"(budget 30s)")


def test_criterion_07_repair_distance_exactness():
    t0 = time.perf_counter()
    striped = ChannelLattice(
        width=4, height=4, channel_count=3,
        cells=np.array([[0, 1] * 2, [2, 0] * 2, [0, 1] * 2, [2, 0] * 2]),
        neighborhood="von-neumann",
    )
    regression_set = [
        (centralized_allocate(4, 4, 2, "von-neumann"), 8),
        (centralized_allocate(4, 4, 3, "von-neumann"), 3),
        (centralized_allocate(4, 4, 4, "moore"), 2),
        (striped, 4),
        (son_allocate(4, 4, 5, "moore", seed=0)[0], 3),
        (son_allocate(4, 4, 4, "von-neumann", seed=1)[0], 3),
    ]
    pairs = 0
    witnesses = 0
    for lat, budget in regression_set:
        assert conflict_count(lat) == 0
        f_count = lat.channel_count
        for row in range(4):
            for col in range(4):
                for ch in range(f_count):
                    rec = repair_distance(lat, (row, col), ch, budget=budget)
                    want = oracle_repair_distance(
                        lat.cells.tolist(), f_count, lat.neighborhood,
                        lat.boundary, (row, col), ch, budget=budget,
                    )
                    assert rec.distance == want, (
                        f"cell ({row},{col}) forced {ch}: "
                        f"production {rec.distance}, oracle {want}"
                    )
                    pairs += 1
                    if rec.distance is None:
                        continue
                    cells = lat.cells.copy()
                    cells[row, col] = ch
                    assert len(rec.changed_cells) == rec.distance
                    for (rr, cc), value in rec.changed_cells:
                        assert (rr, cc) != (row, col)
                        cells[rr, cc] = value
                    repaired = ChannelLattice(
                        width=4, height=4, channel_count=f_count, cells=cells,
                        neighborhood=lat.neighborhood, boundary=lat.boundary,
                    )
                    assert conflict_count(repaired) == 0
                    witnesses += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0
    _report(7, ok, f"{pairs} (cell, channel) pairs across "
                   f"{len(regression_set)} lattices match the exhaustive "
                   f"oracle; {witnesses} witnesses restore zero conflicts, "
                   f"{elapsed:.1f}s (budget 300s)")


def test_criterion_08_stability_comparison():
    t0 = time.perf_counter()
    son = stability_experiment(
        "son", 8, 8, 5, "moore", instance_count=20, seed=0, budget=8
    )
    cen_a = stability_experiment(
        "centralized", 8, 8, 5, "moore", instance_count=20, seed=0, budget=8
    )
    cen_b = stability_experiment(
        "centralized", 8, 8, 5, "moore", instance_count=20, seed=0, budget=8
    )
    son_small_a = stability_experiment(
        "son", 8, 8, 5, "moore", instance_count=3, seed=0, budget=8
    )
    son_small_b = stability_experiment(
        "son", 8, 8, 5, "moore", instance_count=3, seed=0, budget=8
    )
    elapsed = time.perf_counter() - t0
    deterministic = cen_a == cen_b and son_small_a == son_small_b
    half = 1.96 * math.sqrt(son.stderr**2 + cen_a.stderr**2)
    diff = son.mean_distance - cen_a.mean_distance
    emitted = (
        math.isfinite(son.mean_distance) and math.isfinite(cen_a.mean_distance)
        and math.isfinite(half)
    )
    expected_direction = diff < 0  # smaller mean repair = more stable
    deviation = (
        "" if expected_direction else
        "; DEVIATION: centralized repairs cheaper here (its 4-channel tile "
        "leaves channel 5 spare, so any cell can move to it), reported per "
        "the soft-check design"
    )
    ok = deterministic and emitted
    _report(8, ok, f"SON mean={son.mean_distance:.3f}+/-{1.96*son.stderr:.3f} "
                   f"(exceeded {son.exceeded_count}/{len(son.rows)}), "
                   f"centralized mean={cen_a.mean_distance:.3f}"
                   f"+/-{1.96*cen_a.stderr:.3f}, diff={diff:+.3f}+/-{half:.3f}"
                   f"{deviation}, deterministic={deterministic}, "
                   f"{elapsed:.0f}s")


def test_criterion_09_abm_soundness(tmp_path):
    t0 = time.perf_counter()
    total_steps = 0
    gap_zero = True
    for s in range(30):
        res = run_scenario(
            ScenarioConfig(iterations=3334, mac="ideal", seed=s),
            check_invariants=True,
        )
        total_steps += res.config.iterations
        gap_zero &= all(rec.gap == 0 for rec in res.trace)
    # the MACs compared over seeds 0..29 through the CLI, at the settings
    # where they differ (the per-flag defaults make them coincide); each
    # run's aggregate line holds the mean over seeds and its standard error
    aggregates = []
    for mac in ("aloha", "csma"):
        out = tmp_path / f"{mac}.csv"
        assert cli_main([
            "abm", "--mac", mac, "--persistence", "0.05",
            "--message-duration", "2", "--slots-per-iteration", "10",
            "--seeds", "0..29", "--workers", "2", "--out", str(out),
        ]) == 0
        line, = (line for line in out.read_text(encoding="utf-8").splitlines()
                 if line.startswith("# aggregate: seeds=30 "))
        fields = dict(field.split("=") for field in line.split()[2:])
        aggregates.append((float(fields["mean_gap"]), float(fields["stderr"])))
    (mean_a, se_a), (mean_b, se_b) = aggregates
    diff = mean_a - mean_b
    half = 1.96 * math.sqrt(se_a ** 2 + se_b ** 2)
    separated = abs(diff) > half
    elapsed = time.perf_counter() - t0
    ok = total_steps >= 10**5 and gap_zero and separated and elapsed < 120.0
    _report(9, ok, f"conservation+occupancy over {total_steps} steps/30 seeds, "
                   f"ideal gap==0 everywhere={gap_zero}, aloha-csma mean gap "
                   f"diff={diff:.2f}+/-{half:.2f} "
                   f"(95% CI excludes 0: {separated}), {elapsed:.0f}s "
                   f"(budget 120s)")


def test_criterion_10_cli_worker_determinism(tmp_path):
    t0 = time.perf_counter()
    graph = tmp_path / "p4.edges"
    graph.write_text("N 4 undirected\n0 1\n1 2\n2 3\n", encoding="utf-8")
    # correlate's pool tasks are blocks of graphs: at least three, the last
    # one short, so workers 8 starts a pool and joins uneven blocks
    graphs = 2 * _REPORT_BLOCK + 17
    blocks = report_blocks(graphs)
    assert len(blocks) >= 3 and len(blocks[-1]) < len(blocks[0])
    commands = {
        "cfc": ["cfc", "--graph", str(graph)],
        "son-stability": ["son-stability", "--dims", "6x6", "--channels", "5",
                          "--instances", "4", "--budget", "3"],
        "excess-entropy": ["excess-entropy", "--generate", "iid", "--dims",
                           "32x32", "--channels", "3", "--count", "4",
                           "--mmax", "3"],
        "abm": ["abm", "--iterations", "300", "--seeds", "1..8"],
        "correlate": ["correlate", "--graphs", str(graphs), "--nodes", "8"],
        "son-run": ["son-run", "--dims", "10x10", "--channels", "5",
                    "--seed", "2"],
    }
    mismatched = []
    for name, argv in commands.items():
        outputs = []
        for workers in (1, 8):
            out = tmp_path / f"{name}-w{workers}.out"
            code = cli_main(argv + ["--workers", str(workers), "--out", str(out)])
            assert code == 0, f"{name} exited {code} at workers={workers}"
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    _report(10, ok, f"all 6 subcommands byte-identical at workers 1 vs 8"
                    f"{'' if ok else f' except {mismatched}'}, {elapsed:.0f}s")
