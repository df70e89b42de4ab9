"""Intersection simulator: traffic mechanics, sensing, MAC, perception gap."""

import hashlib
import math
import random

import pytest

from netcomplexity.abm import (
    BOX_PATHS,
    INACTIVE,
    LANE_AXIS,
    LANES,
    MACS,
    MOVING,
    STATIC,
    Car,
    DecisionMaker,
    MacChannel,
    ScenarioConfig,
    SensorField,
    TrafficWorld,
    fixed_phase,
    queue_phase,
    run_scenario,
)

from oracles import OracleMacChannel, check_world_invariants

# the MAC comparison settings, as `abm` flags in criterion 09: with 1-slot
# messages and persistence 1, the per-flag defaults, Aloha and CSMA coincide
COMPARISON = {"persistence": 0.05, "message_duration": 2, "slots_per_iteration": 10}


def sensor_id(lane, index, road_length):
    """A sensor's id: its position in sorted (lane, index) order."""
    names = sorted((name, i) for name in LANES for i in range(road_length))
    return names.index((lane, index))


# sensor ids on a 20-cell road, for the channel tests
EAST0 = sensor_id("east", 0, 20)
WEST1 = sensor_id("west", 1, 20)
SOUTH3 = sensor_id("south", 3, 20)


def locate(world, ident):
    length = world.length
    for lane in LANES:
        for k, cell in enumerate(world.paths[lane]):
            car = world.cells[cell]
            if car is None or car.ident != ident:
                continue
            if k < length:
                return ("approach", lane, k)
            if k < length + 2:
                return ("box",) + BOX_PATHS[lane][k - length]
            return ("exit", lane, k - length - 2)
    return None


def place_car(world, lane, index, ident=0):
    car = Car(ident, lane, arrived_at=-1)
    world.cells[world.paths[lane][index]] = car
    world.created += 1
    return car


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    for bad in (
        {"iterations": -1},
        {"mac": "tdma"},
        {"arrival_probability": 1.5},
        {"arrival_probability": -0.1},
        {"road_length": 0},
        {"green_period": 0},
        {"light_policy": "night"},
        {"min_green": 0},
        {"persistence": 0.0},
        {"persistence": 1.1},
        {"message_duration": 0},
        {"slots_per_iteration": 0},
    ):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad)


# ---------------------------------------------------------------------------
# traffic mechanics


def test_empty_world_stays_empty():
    res = run_scenario(ScenarioConfig(iterations=50, arrival_probability=0.0))
    assert res.created == 0
    assert len(res.trace) == 50
    assert all(row.actual == row.perceived == row.gap == 0 for row in res.trace)


def test_single_car_advances_one_cell_per_iteration():
    length = 20
    world = TrafficWorld(length, 0.0, random.Random(0))
    world.green = "h"
    car = place_car(world, "east", 0)
    expected = (
        [("approach", "east", i) for i in range(length)]
        + [("box", 1, 0), ("box", 1, 1)]
        + [("exit", "east", i) for i in range(length)]
    )
    for step, want in enumerate(expected):
        assert locate(world, car.ident) == want, f"step {step}"
        world.step()
    assert locate(world, car.ident) is None
    assert world.departed == 1 and world.created == 1
    assert all(cell is None for cell in world.cells)


def test_red_light_holds_car_at_stop_line():
    length = 5
    world = TrafficWorld(length, 0.0, random.Random(0))
    world.green = "v"  # east/west axis sees red
    car = place_car(world, "east", length - 1)
    for _ in range(3):
        world.step()
        assert locate(world, car.ident) == ("approach", "east", length - 1)
        assert car.moved is False
    world.green = "h"
    world.step()
    assert locate(world, car.ident) == ("box", 1, 0)
    assert car.moved is True


def test_stop_line_waits_for_clear_box_path():
    length = 4
    world = TrafficWorld(length, 0.0, random.Random(0))
    world.green = "h"
    blocker = Car(7, "south", arrived_at=-1)
    # south car on its second box cell, (1, 0)
    world.cells[world.paths["south"][length + 1]] = blocker
    world.created += 1
    car = place_car(world, "east", length - 1, ident=1)
    world.step()
    # blocker advanced to the south exit, but it occupied the east path when
    # east was processed, so the east car must wait one iteration
    assert locate(world, 7) == ("exit", "south", 0)
    assert locate(world, 1) == ("approach", "east", length - 1)
    world.step()
    assert locate(world, 1) == ("box", 1, 0)


def test_queue_compresses_toward_stop_line():
    length = 6
    world = TrafficWorld(length, 0.0, random.Random(0))
    world.green = "v"
    place_car(world, "east", 0, ident=0)
    place_car(world, "east", 2, ident=1)
    for _ in range(length):
        world.step()
    assert locate(world, 1) == ("approach", "east", length - 1)
    assert locate(world, 0) == ("approach", "east", length - 2)


def test_opposite_lanes_do_not_interact():
    length = 8
    world = TrafficWorld(length, 0.0, random.Random(0))
    world.green = "h"
    place_car(world, "east", length - 1, ident=0)
    place_car(world, "west", length - 1, ident=1)
    world.step()
    assert locate(world, 0) == ("box", 1, 0)
    assert locate(world, 1) == ("box", 0, 1)
    world.step()
    assert locate(world, 0) == ("box", 1, 1)
    assert locate(world, 1) == ("box", 0, 0)


def test_fresh_arrival_sits_out_the_movement_phase():
    world = TrafficWorld(4, 1.0, random.Random(0))
    world.green = "h"
    world.step()
    # all four entries filled this iteration; none advanced yet
    for lane in LANES:
        car = world.cells[world.paths[lane][0]]
        assert car is not None and car.moved is True
        assert world.cells[world.paths[lane][1]] is None


def test_conservation_and_occupancy_under_load(monkeypatch):
    check_world_invariants(monkeypatch)
    res = run_scenario(ScenarioConfig(iterations=600, mac="ideal", seed=4))
    assert res.created == res.departed + res.remaining
    assert res.created + res.blocked_arrivals >= res.created


@pytest.mark.parametrize("keep_count, message", [
    (False, "conservation violated at iteration 50: "),
    (True, "duplicate car placement at iteration 50$"),
])
def test_world_check_names_the_broken_iteration(monkeypatch, keep_count, message):
    # at iteration 50 one car is copied onto a free cell; keep_count also
    # takes another car off the grid, so the number on it stays right and
    # only the duplicate is left to find
    step = TrafficWorld.step

    def broken(world):
        step(world)
        if world.iteration - 1 == 50:
            cells = world.cells
            occupied = [k for k, car in enumerate(cells) if car is not None]
            cells[cells.index(None)] = cells[occupied[0]]
            if keep_count:
                cells[occupied[1]] = None

    monkeypatch.setattr(TrafficWorld, "step", broken)
    check_world_invariants(monkeypatch)
    with pytest.raises(AssertionError, match=message):
        run_scenario(ScenarioConfig(iterations=100, mac="ideal", seed=4))


def test_box_paths_cover_the_shared_block():
    cells = {cell for path in BOX_PATHS.values() for cell in path}
    assert cells == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for lane, (first, second) in BOX_PATHS.items():
        assert first != second


# ---------------------------------------------------------------------------
# sensing and decision maker


def test_sensor_states_follow_cell_occupancy():
    length = 3
    world = TrafficWorld(length, 0.0, random.Random(0))
    world.green = "v"
    sensors = SensorField(length)
    pending = {}
    car = place_car(world, "east", 0)
    car.moved = True
    east = [sensor_id("east", i, length) for i in range(length)]
    waiting = sensors.observe(world, pending)
    assert waiting == 0
    assert sensors.state[east[0]] == MOVING
    assert pending[east[0]] == MOVING
    world.step()  # car advances to cell 1
    pending.clear()
    sensors.observe(world, pending)
    assert sensors.state[east[0]] == INACTIVE
    assert sensors.state[east[1]] == MOVING
    world.step()  # car reaches the stop line
    world.step()  # red light: car now static
    pending.clear()
    waiting = sensors.observe(world, pending)
    assert waiting == 1
    assert sensors.state[east[2]] == STATIC
    assert pending[east[2]] == STATIC


def test_reports_are_event_triggered():
    length = 3
    world = TrafficWorld(length, 0.0, random.Random(0))
    world.green = "v"
    sensors = SensorField(length)
    pending = {}
    place_car(world, "east", length - 1).moved = False
    sensors.observe(world, pending)
    assert sensors.reports_generated == 1
    pending.clear()
    sensors.observe(world, pending)  # unchanged scene: no new report
    assert sensors.reports_generated == 1
    assert pending == {}


def test_dm_tracks_static_counts_per_axis():
    dm = DecisionMaker(4)
    east1, south0 = sensor_id("east", 1, 4), sensor_id("south", 0, 4)
    dm.apply([(east1, STATIC)])
    assert dm.perceived == {"h": 1, "v": 0}
    dm.apply([(south0, STATIC), (east1, STATIC)])
    assert dm.perceived == {"h": 1, "v": 1}
    dm.apply([(east1, INACTIVE)])
    assert dm.perceived == {"h": 0, "v": 1}
    assert dm.perceived_waiting() == 1
    dm.apply([])
    assert dm.perceived_waiting() == 1


def test_sensor_ids_follow_sorted_lane_order():
    length = 3
    names = sorted((lane, i) for lane in LANES for i in range(length))
    assert names[length][0] == "north"  # sorted order, not LANES order
    for sid, (lane, i) in enumerate(names):
        world = TrafficWorld(length, 0.0, random.Random(0))
        place_car(world, lane, i)
        pending = {}
        SensorField(length).observe(world, pending)
        assert pending == {sid: MOVING}
    assert DecisionMaker(length).axis == [LANE_AXIS[lane] for lane, _ in names]


# ---------------------------------------------------------------------------
# channel access


def test_single_pending_sensor_delivers_under_both_macs():
    for kind in ("aloha", "csma"):
        channel = MacChannel(kind, random.Random(0))
        pending = {EAST0: STATIC}
        delivered, collisions = channel.round(pending)
        assert delivered == [(EAST0, STATIC)]
        assert collisions == 0
        assert pending == {}


def test_two_pending_aloha_collide_and_retry():
    channel = MacChannel("aloha", random.Random(0), persistence=1.0, message_duration=1)
    pending = {EAST0: STATIC, WEST1: MOVING}
    delivered, collisions = channel.round(pending)
    assert delivered == []
    assert collisions == 1
    # both senders re-queued for another attempt
    assert pending == {EAST0: STATIC, WEST1: MOVING}


def test_csma_defers_to_ongoing_transmission():
    channel = MacChannel("csma", random.Random(0), persistence=1.0, message_duration=2)
    pending = {EAST0: STATIC}
    delivered, collisions = channel.round(pending)
    assert delivered == [] and collisions == 0  # in flight for one more slot
    pending[WEST1] = MOVING
    delivered, collisions = channel.round(pending)
    assert delivered == [(EAST0, STATIC)]
    assert collisions == 0
    assert pending == {WEST1: MOVING}  # deferred, not lost
    delivered, collisions = channel.round(pending)
    assert delivered == [] and collisions == 0
    delivered, collisions = channel.round(pending)
    assert delivered == [(WEST1, MOVING)]


def test_csma_simultaneous_starters_collide():
    channel = MacChannel("csma", random.Random(0), persistence=1.0, message_duration=2)
    pending = {EAST0: STATIC, WEST1: MOVING}
    delivered, collisions = channel.round(pending)
    assert delivered == [] and collisions == 1
    delivered, collisions = channel.round(pending)
    assert delivered == []  # corrupted messages never deliver
    assert pending == {EAST0: STATIC, WEST1: MOVING}


def test_aloha_tramples_ongoing_transmission():
    channel = MacChannel("aloha", random.Random(0), persistence=1.0, message_duration=2)
    pending = {EAST0: STATIC}
    channel.round(pending)  # starts, occupies two slots
    pending[WEST1] = MOVING
    delivered, collisions = channel.round(pending)  # no sensing: overlap
    assert delivered == [] and collisions == 1
    assert pending == {EAST0: STATIC}  # first sender re-queued
    # with persistence 1 the re-queued sender restarts at once and collides
    # with the still-occupying second message: the livelock regime
    delivered, collisions = channel.round(pending)
    assert delivered == [] and collisions == 1
    assert pending == {WEST1: MOVING}


def test_corrupted_retry_keeps_fresher_pending_state():
    channel = MacChannel("aloha", random.Random(0), persistence=1.0, message_duration=2)
    pending = {EAST0: STATIC}
    channel.round(pending)
    pending[EAST0] = INACTIVE  # state changed while in flight
    pending[WEST1] = MOVING  # second sender corrupts the channel
    channel.round(pending)
    assert pending[EAST0] == INACTIVE  # retry does not clobber it


def test_ideal_channel_delivers_everything_at_once():
    channel = MacChannel("ideal", random.Random(0))
    pending = {EAST0: STATIC, SOUTH3: MOVING}
    delivered, collisions = channel.round(pending)
    assert delivered == sorted(delivered)
    assert len(delivered) == 2 and collisions == 0 and pending == {}


def advanced(seed, count):
    """A random.Random(seed) after `count` calls of random()."""
    rng = random.Random(seed)
    for _ in range(count):
        rng.random()
    return rng


def check_against_oracle(tag, kind, duration, persistence, slots, calls,
                         length=5, full=False):
    """Drive MacChannel.round(pending, slots) and OracleMacChannel.round,
    called slot by slot, through `calls` calls with bursts and lulls of
    fresh reports between calls only, as SensorField.observe queues them
    once per iteration.  After every call both must have delivered the same
    reports in order, counted the same collisions, left the same pending
    reports and consumed the same number of uniforms.  The sensors are
    those of road length `length`; with `full`, every one of them starts
    with a pending report.  Returns the channel."""
    names = sorted((lane, i) for lane in LANES for i in range(length))
    schedule = random.Random(tag + ":schedule")
    oracle, rng = OracleMacChannel(kind, persistence, duration), random.Random(tag)
    source = random.Random(tag)
    channel = MacChannel(kind, source, persistence, duration)
    oracle_pending, pending = {}, {}
    if full:
        for sid, name in enumerate(names):
            oracle_pending[name] = pending[sid] = schedule.choice((MOVING, STATIC))
    events = 0
    for _ in range(calls):
        # latest state wins
        for _ in range(schedule.choice((0, 0, 1, 2, 6))):
            sid = schedule.randrange(len(names))
            state = schedule.choice((INACTIVE, MOVING, STATIC))
            oracle_pending[names[sid]] = state
            pending[sid] = state
        want_out, want_hits = [], 0
        for _ in range(slots):
            out, hits = oracle.round(oracle_pending, rng)
            want_out += out
            want_hits += hits
        out, hits = channel.round(pending, slots)
        assert [(names[sid], state) for sid, state in out] == want_out
        assert hits == want_hits
        assert {names[sid]: state for sid, state in pending.items()} == oracle_pending
        # by stream position, not by the next value: at persistence 1 every
        # value is a start
        assert advanced(tag, channel.position).getstate() == rng.getstate()
        events += len(out) + hits
    assert events > 0
    # the channel replays the stream of `rng` without advancing it
    assert source.getstate() == random.Random(tag).getstate()
    return channel


@pytest.mark.parametrize("kind", MACS)
@pytest.mark.parametrize("duration", (1, 2, 3))
@pytest.mark.parametrize("persistence", (0.05, 0.3, 1.0))
def test_channel_matches_tuple_key_oracle(kind, duration, persistence):
    tag = f"mac-oracle:{kind}:{duration}:{persistence}"
    check_against_oracle(tag, kind, duration, persistence, slots=1, calls=300)


@pytest.mark.parametrize("kind", MACS)
@pytest.mark.parametrize("duration", (1, 2, 3))
@pytest.mark.parametrize("persistence", (0.05, 0.3, 1.0))
@pytest.mark.parametrize("slots", (1, 3, 10))
def test_multi_slot_round_matches_oracle_slot_by_slot(kind, duration, persistence, slots):
    # within a call only the channel changes pending, so the eligible list
    # it keeps between slots must take back every sender whose batch ends
    tag = f"mac-slots:{kind}:{duration}:{persistence}:{slots}"
    check_against_oracle(tag, kind, duration, persistence, slots, calls=60)


def test_saturated_aloha_matches_oracle_across_refills():
    # the benchmark's regime: 80 sensors, most of them pending in every
    # slot, so each call reads hundreds of uniforms and the stream refills
    # every few calls with hits left over from the block before
    channel = check_against_oracle(
        "mac-saturated:aloha", "aloha", duration=2, persistence=0.05, slots=10,
        calls=80, length=20, full=True,
    )
    # each refill draws one block, as no slot reads more
    assert channel.drawn >= 10 * MacChannel.BLOCK


def test_slot_wider_than_a_block_draws_what_it_reads():
    # 4,100 sensors, all pending in every call (1-slot messages end in the
    # slot they start), so each slot reads more uniforms than a block holds
    # and each refill draws exactly that many
    channel = check_against_oracle(
        "mac-wide:aloha", "aloha", duration=1, persistence=0.05, slots=1,
        calls=3, length=1025, full=True,
    )
    assert channel.drawn == 3 * 4 * 1025 > 3 * MacChannel.BLOCK


def test_unknown_mac_rejected():
    with pytest.raises(ValueError):
        MacChannel("token-ring", random.Random(0))


# ---------------------------------------------------------------------------
# lights


def test_fixed_cycle_alternates_axes():
    assert [fixed_phase(i, 20) for i in (0, 19, 20, 39, 40)] == [
        "h", "h", "v", "v", "h",
    ]


def test_queue_phase_rules():
    assert queue_phase("h", 10, {"h": 0, "v": 5}, 5) == "v"
    assert queue_phase("h", 1, {"h": 0, "v": 5}, 5) == "h"  # min green not met
    assert queue_phase("h", 10, {"h": 5, "v": 5}, 5) == "h"  # tie keeps phase
    assert queue_phase("v", 10, {"h": 7, "v": 2}, 5) == "h"


def test_queue_policy_scenario_runs_clean(monkeypatch):
    check_world_invariants(monkeypatch)
    res = run_scenario(
        ScenarioConfig(iterations=400, mac="ideal", light_policy="queue", seed=2)
    )
    assert all(row.gap == 0 for row in res.trace)


# ---------------------------------------------------------------------------
# end-to-end perception


def test_ideal_channel_gap_is_identically_zero():
    for seed in (0, 1, 2):
        res = run_scenario(ScenarioConfig(iterations=400, mac="ideal", seed=seed))
        assert all(row.gap == 0 for row in res.trace)
        assert all(row.actual == row.perceived for row in res.trace)


def test_scenario_is_deterministic():
    cfg = ScenarioConfig(**COMPARISON, iterations=200, mac="csma", seed=17)
    assert run_scenario(cfg).trace == run_scenario(cfg).trace
    other = ScenarioConfig(**COMPARISON, iterations=200, mac="csma", seed=18)
    assert run_scenario(cfg).trace != run_scenario(other).trace


def test_same_seed_gives_identical_traffic_across_macs():
    a, b = (run_scenario(ScenarioConfig(**COMPARISON, iterations=300, mac=mac, seed=5))
            for mac in ("aloha", "csma"))
    assert [row.actual for row in a.trace] == [row.actual for row in b.trace]
    assert a.created == b.created and a.departed == b.departed


def test_kpi_bounds():
    res = run_scenario(ScenarioConfig(**COMPARISON, iterations=300, mac="csma", seed=1))
    assert 0.0 <= res.delivery_ratio <= 1.0
    assert 0.0 <= res.collision_rate <= 1.0
    assert len(res.trace) == 300


# sha256 of each run's trace and summary, captured from the channel that
# keyed sensors by (lane, index) and drew one random() per sender: the
# 2000-iteration runs reach the collapsed-backlog regime
LONG_RUN_DIGESTS = {
    ("aloha", 1): "54551f241ba62dea8e7d1df57feb869135c14023fa52dc6f5b804240ace0705a",
    ("aloha", 2): "2495557a95569d37f43722bdd4934f9a5380ecbadbb2adb6d24cd8fdc7a48cb0",
    ("csma", 1): "e5d04b4ffaff2d7416ae4f2ef8f4573d80c7ed2297d231530eb25652a1c3d7fc",
    ("csma", 2): "bbb3b0ba84f365db53f2e027607dd121261d537b6113726dfc35aed6a986131d",
}


@pytest.mark.parametrize("mac,seed", sorted(LONG_RUN_DIGESTS))
def test_long_runs_pinned(mac, seed):
    cfg = ScenarioConfig(**COMPARISON, iterations=2000, mac=mac, seed=seed)
    res = run_scenario(cfg)
    body = repr(([tuple(row) for row in res.trace], res.delivery_ratio,
                 res.collision_rate, res.reports_generated, res.remaining))
    assert hashlib.sha256(body.encode()).hexdigest() == LONG_RUN_DIGESTS[mac, seed]


def test_empty_denominators_give_nan():
    res = run_scenario(ScenarioConfig(iterations=0))
    assert math.isnan(res.mean_gap) and math.isnan(res.collision_rate)
    assert math.isnan(res.delivery_ratio)
    # no arrivals, so no reports: the delivery ratio is undefined
    res = run_scenario(ScenarioConfig(iterations=20, arrival_probability=0.0))
    assert res.reports_generated == 0 and math.isnan(res.delivery_ratio)
    assert res.mean_gap == 0.0 and res.collision_rate == 0.0
