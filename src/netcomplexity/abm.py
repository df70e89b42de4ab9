"""Single-intersection traffic microsimulation with wireless queue sensing.

Two perpendicular roads, one lane per direction, cross in a 2x2 block of
shared cells.  Cars enter at the four edges, drive straight at one cell per
iteration, queue at stop lines, and leave at the far edge.  A sensor on every
approach cell reports occupancy changes over a shared channel (Aloha or CSMA)
to a decision maker whose perceived queue lengths are compared with ground
truth each iteration.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import sample_stream

INACTIVE, MOVING, STATIC = 0, 1, 2

LANES = ("east", "west", "south", "north")
LANE_AXIS = {"east": "h", "west": "h", "south": "v", "north": "v"}
# Sensors are numbered 0..4L-1 in sorted (lane, cell) order, so lane by lane
# in this order (not LANES order) and cell by cell within a lane.
SENSOR_LANES = tuple(sorted(LANES))
# Right-hand traffic through the shared 2x2 block, cells keyed (row, col).
# Each lane crosses two block cells; each block cell is shared by exactly
# one horizontal and one vertical lane.
BOX_PATHS = {
    "east": ((1, 0), (1, 1)),
    "west": ((0, 1), (0, 0)),
    "south": ((0, 0), (1, 0)),
    "north": ((1, 1), (0, 1)),
}

MACS = ("aloha", "csma", "ideal")
LIGHT_POLICIES = ("fixed", "queue")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated run parameters; invalid combinations raise ValueError."""

    iterations: int = 2000
    mac: str = "aloha"
    arrival_probability: float = 0.5
    road_length: int = 20
    green_period: int = 20
    light_policy: str = "fixed"
    min_green: int = 5
    persistence: float = 1.0
    message_duration: int = 1
    slots_per_iteration: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.mac not in MACS:
            raise ValueError(f"unknown mac {self.mac!r}")
        if not 0.0 <= self.arrival_probability <= 1.0:
            raise ValueError("arrival_probability must lie in [0, 1]")
        if self.road_length < 1:
            raise ValueError("road_length must be >= 1")
        if self.green_period < 1:
            raise ValueError("green_period must be >= 1")
        if self.light_policy not in LIGHT_POLICIES:
            raise ValueError(f"unknown light_policy {self.light_policy!r}")
        if self.min_green < 1:
            raise ValueError("min_green must be >= 1")
        if not 0.0 < self.persistence <= 1.0:
            raise ValueError("persistence must lie in (0, 1]")
        if self.message_duration < 1:
            raise ValueError("message_duration must be >= 1")
        if self.slots_per_iteration < 1:
            raise ValueError("slots_per_iteration must be >= 1")


class Car:
    __slots__ = ("ident", "lane", "moved", "arrived_at")

    def __init__(self, ident: int, lane: str, arrived_at: int) -> None:
        self.ident = ident
        self.lane = lane
        # entering the grid counts as displacement, so fresh cars read as
        # moving to the cell sensor
        self.moved = True
        self.arrived_at = arrived_at


class TrafficWorld:
    """Mutable grid state; step() applies arrivals, movement, removal.

    Every cell of the grid is one slot of `cells`, holding a Car or None.
    `paths[lane]` lists the cell indices a car of that lane visits, from the
    entry cell to the far edge: `length` approach cells, the lane's two
    BOX_PATHS cells, then `length` exit cells.  Each box cell lies on one
    horizontal and one vertical path.  Cells 0..4*length-1 are the approach
    cells in SENSOR_LANES order, so a sensor's id is its cell index.
    """

    def __init__(self, road_length: int, arrival_probability: float, rng) -> None:
        self.length = road_length
        self.arrival_probability = arrival_probability
        self.rng = rng
        length = road_length
        exits = len(LANES) * length  # first exit cell
        box = 2 * exits  # box cell (row, col) is box + 2 * row + col
        self.cells: list[Car | None] = [None] * (box + 4)
        self.paths = {
            lane: (
                *range(k * length, (k + 1) * length),
                *(box + 2 * row + col for row, col in BOX_PATHS[lane]),
                *range(exits + k * length, exits + (k + 1) * length),
            )
            for k, lane in enumerate(SENSOR_LANES)
        }
        self.green = "h"
        self.iteration = 0
        self.created = 0
        self.departed = 0
        self.blocked_arrivals = 0

    def step(self) -> None:
        now = self.iteration
        cells = self.cells
        # arrivals: sample every edge so the arrival stream is independent
        # of blocking; a blocked car is discarded, not queued
        for lane in LANES:
            if self.rng.random() < self.arrival_probability:
                entry = self.paths[lane][0]
                if cells[entry] is None:
                    cells[entry] = Car(self.created, lane, now)
                    self.created += 1
                else:
                    self.blocked_arrivals += 1
        # movement, one lane at a time front to back: a car advances one
        # cell when the next cell is free.  Cars placed this iteration sit
        # out, so speed is one cell per iteration from the entry cell on,
        # and a car of the crossing lane in a shared box cell moves with
        # its own lane.
        for lane in LANES:
            path = self.paths[lane]
            if cells[path[-1]] is not None:
                cells[path[-1]] = None
                self.departed += 1
            # stop line: cross only on green and only when the whole box
            # path is clear, which provably rules out gridlock
            stop, second = path[self.length - 1], path[self.length + 1]
            green = self.green == LANE_AXIS[lane]
            ahead = path[-1]
            for here in path[-2::-1]:
                car = cells[here]
                if car is not None and car.lane == lane and car.arrived_at != now:
                    if cells[ahead] is None and (
                        here != stop or (green and cells[second] is None)
                    ):
                        cells[ahead] = car
                        cells[here] = None
                        car.moved = True
                    else:
                        car.moved = False
                ahead = here
        self.iteration += 1


class SensorField:
    """One sensor per approach cell; reports are event-triggered.  `state`
    is indexed by sensor id."""

    def __init__(self, road_length: int) -> None:
        self.state = [INACTIVE] * (len(SENSOR_LANES) * road_length)
        self.reports_generated = 0

    def observe(self, world: TrafficWorld, pending: dict) -> int:
        """Refresh all sensors from cell occupancy; queue a report for each
        state change (latest state wins).  Returns the actual waiting count,
        i.e. static cars on approach cells."""
        waiting = 0
        state = self.state
        # the first `length` cells of each path, in SENSOR_LANES order, are
        # the cells 0..len(state)-1
        for sid, car in enumerate(world.cells[:len(state)]):
            if car is None:
                new = INACTIVE
            elif car.moved:
                new = MOVING
            else:
                new = STATIC
                waiting += 1
            if state[sid] != new:
                state[sid] = new
                pending[sid] = new
                self.reports_generated += 1
        return waiting


class DecisionMaker:
    """Sink of sensor reports; remembers the last delivered state per sensor
    id, and the axis each id's lane belongs to."""

    def __init__(self, road_length: int) -> None:
        self.store = [INACTIVE] * (len(SENSOR_LANES) * road_length)
        self.axis = [LANE_AXIS[lane] for lane in SENSOR_LANES for _ in range(road_length)]
        self.perceived = {"h": 0, "v": 0}

    def apply(self, deliveries) -> None:
        store = self.store
        for sid, new in deliveries:
            old = store[sid]
            if old == new:
                continue
            axis = self.axis[sid]
            if old == STATIC:
                self.perceived[axis] -= 1
            if new == STATIC:
                self.perceived[axis] += 1
            store[sid] = new

    def perceived_waiting(self) -> int:
        return self.perceived["h"] + self.perceived["v"]


class MacChannel:
    """Shared slotted channel.

    Aloha senders transmit with probability `persistence` whenever they hold
    a pending report, channel state ignored.  CSMA senders defer while any
    transmission is in flight and otherwise transmit with the same
    persistence.  Two or more overlapping transmissions corrupt each other
    (one collision event per slot); corrupted senders occupy the channel to
    the end of their message and then re-queue.  The ideal kind bypasses the
    channel entirely and delivers every pending report at once.

    Sensors are integer ids.  Each slot, the eligible senders (pending and
    not in flight) take one uniform each, in id order, and those whose
    uniform falls below `persistence` start; a CSMA slot on a busy channel
    and an ideal slot take none.  The uniforms are those of `rng.random()`,
    replayed by a numpy RandomState loaded with the Mersenne Twister state
    of `rng`; `rng` itself is not advanced.  They are drawn `BLOCK` at a
    time, and each block is compared once with `persistence`, in float64 as
    `u < persistence` is in Python.  `hits` holds the stream positions below
    `persistence` from `hits[cursor]` on, up to `drawn`; `position` counts
    the uniforms consumed.
    """

    BLOCK = 4096

    def __init__(
        self, kind: str, rng: random.Random, persistence: float = 1.0,
        message_duration: int = 1,
    ) -> None:
        if kind not in MACS:
            raise ValueError(f"unknown mac {kind!r}")
        self.kind = kind
        key = rng.getstate()[1]
        self._source = np.random.RandomState()
        self._source.set_state(("MT19937", np.array(key[:-1], dtype=np.uint32), key[-1]))
        self.persistence = persistence
        self.hits: list[int] = []
        self.cursor = 0
        self.position = 0
        self.drawn = 0
        self.duration = message_duration
        self.slot = 0
        # (start slot, [(sid, state), ...]) per slot that had starters,
        # oldest first: the senders in flight.  Every message lasts
        # `duration` slots, so at most one batch ends per slot and it is the
        # oldest
        self.ongoing: deque = deque()
        # a message is corrupted when a collision falls in any slot of its
        # lifetime, i.e. when the latest collision is at or after its start
        self.last_collision = -1

    def round(self, pending: dict, slots: int = 1) -> tuple[list, int]:
        """Run `slots` consecutive slots; mutates pending, returns the
        deliveries of all slots in order and the collisions summed."""
        if self.kind == "ideal":
            deliveries = sorted(pending.items())
            pending.clear()
            self.slot += slots
            return deliveries, 0
        csma = self.kind == "csma"
        ongoing = self.ongoing
        last = self.duration - 1
        last_collision = self.last_collision
        # the draw state is read into locals and written back once, after
        # the last slot
        hits, cursor, position, drawn = self.hits, self.cursor, self.position, self.drawn
        # only the channel changes pending between slots, so the eligible
        # list is built once and kept in id order
        in_flight = {sid for _, batch in ongoing for sid, _ in batch}
        eligible = sorted(pending.keys() - in_flight)
        deliveries = []
        collisions = 0
        for slot in range(self.slot, self.slot + slots):
            busy = bool(ongoing)
            if eligible and not (busy and csma):
                end = position + len(eligible)
                if end > drawn:
                    # a block at least, keeping the hits not yet consumed
                    fresh = self._source.random_sample(max(self.BLOCK, end - drawn))
                    below = np.flatnonzero(fresh < self.persistence) + drawn
                    hits = hits[cursor:] + below.tolist()
                    cursor = 0
                    drawn += len(fresh)
                stop = bisect_left(hits, end, cursor)
                if stop > cursor:
                    # the starters leave eligible from the highest offset
                    # down, so the lower offsets stay valid.  The batch is
                    # in descending id order: two or more starters collide,
                    # so only a batch of one is ever delivered
                    batch = []
                    for k in range(stop - 1, cursor - 1, -1):
                        sid = eligible.pop(hits[k] - position)
                        batch.append((sid, pending.pop(sid)))
                    ongoing.append((slot, batch))
                    if busy or stop - cursor >= 2:
                        # corrupts every message on the air
                        last_collision = slot
                        collisions += 1
                    cursor = stop
                position = end
            if ongoing and ongoing[0][0] + last == slot:
                start, batch = ongoing.popleft()
                if last_collision >= start:
                    for sid, state in batch:
                        # retry unless the sensor queued a fresher state meanwhile
                        pending.setdefault(sid, state)
                        insort(eligible, sid)
                else:
                    deliveries += batch
                    for sid, _ in batch:
                        if sid in pending:
                            insort(eligible, sid)
        self.hits, self.cursor, self.position, self.drawn = hits, cursor, position, drawn
        self.last_collision = last_collision
        self.slot += slots
        return deliveries, collisions


class PerceptionRecord(NamedTuple):
    iteration: int
    actual: int
    perceived: int
    gap: int
    delivered: int
    collisions: int


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    trace: tuple[PerceptionRecord, ...]
    mean_gap: float
    delivery_ratio: float
    collision_rate: float
    created: int
    departed: int
    remaining: int
    blocked_arrivals: int
    reports_generated: int


def fixed_phase(iteration: int, green_period: int) -> str:
    """Fixed-cycle light schedule: axes alternate every green_period."""
    return "h" if (iteration // green_period) % 2 == 0 else "v"


def queue_phase(current: str, time_in_phase: int, perceived: dict, min_green: int) -> str:
    """Queue-responsive schedule on perceived counts; ties keep the phase."""
    other = "v" if current == "h" else "h"
    if time_in_phase + 1 >= min_green and perceived[other] > perceived[current]:
        return other
    return current


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run one seeded scenario and summarize the perception gap.

    Traffic and channel randomness come from separate streams, so runs with
    the same seed see identical arrivals regardless of the MAC under test.
    """
    rng_world = sample_stream(config.seed, "world")
    world = TrafficWorld(config.road_length, config.arrival_probability, rng_world)
    sensors = SensorField(config.road_length)
    dm = DecisionMaker(config.road_length)
    channel = MacChannel(
        config.mac, sample_stream(config.seed, "mac"), config.persistence,
        config.message_duration,
    )
    pending: dict = {}
    trace = []
    time_in_phase = 0
    for it in range(config.iterations):
        if config.light_policy == "fixed":
            world.green = fixed_phase(it, config.green_period)
        world.step()
        actual = sensors.observe(world, pending)
        out, collisions = channel.round(pending, config.slots_per_iteration)
        dm.apply(out)
        perceived = dm.perceived_waiting()
        trace.append(PerceptionRecord(it, actual, perceived, actual - perceived, len(out), collisions))
        if config.light_policy == "queue":
            nxt = queue_phase(world.green, time_in_phase, dm.perceived, config.min_green)
            if nxt != world.green:
                world.green = nxt
                time_in_phase = 0
            else:
                time_in_phase += 1
    # nan, not 0.0, over no iterations or no reports; the int sums are exact
    nan = float("nan")
    slots = config.iterations * config.slots_per_iteration
    reports = sensors.reports_generated
    return ScenarioResult(
        config=config,
        trace=tuple(trace),
        mean_gap=sum(row.gap for row in trace) / len(trace) if trace else nan,
        delivery_ratio=sum(row.delivered for row in trace) / reports if reports else nan,
        collision_rate=sum(row.collisions for row in trace) / slots if slots else nan,
        created=world.created,
        departed=world.departed,
        remaining=world.created - world.departed,
        blocked_arrivals=world.blocked_arrivals,
        reports_generated=reports,
    )
