"""Per-host connection throttle: working set + delay queue + one release time.

Requests to recently contacted destinations (the working set) pass through
immediately; requests to new destinations wait in a FIFO delay queue that
drains at a fixed rate r.  The queue is a single server with service time
1/r, so its k-th request leaves at R_k = max(t_k, R_{k-1} + 1/r) (Lindley's
recursion), and the throttle's whole release state is one time.  Legitimate
traffic, which revisits a small set of destinations at a low novelty rate, is
effectively untouched, while a worm's high-rate fan-out piles up in the queue.

``ThrottleState`` is one host's throttle; ``HostThrottles`` holds a run's.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, repeat
from operator import is_

import numpy as np


class ClockError(ValueError):
    """A request or tick precedes a state's clock, or a tick follows a run's last."""


# A release may happen up to EARLY service times (EARLY / rate) before its due
# time: a tick's time k * dt meets a due time R + 1 / rate only up to rounding.
EARLY = 1e-9


@dataclass(frozen=True)
class ThrottleConfig:
    """Tuning knobs: release rate (per second), working-set capacity, and an
    optional bound on the delay queue (None = unbounded)."""

    rate: float = 1.0
    working_set_capacity: int = 4
    queue_capacity: int | None = None

    def __post_init__(self):
        if not self.rate > 0:  # NaN fails; an infinite rate releases at once
            raise ValueError("rate must be > 0")
        if self.working_set_capacity < 0:
            raise ValueError("working_set_capacity must be >= 0")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


@dataclass(frozen=True)
class Admitted:
    """The destination was in the working set; no delay."""


@dataclass(frozen=True)
class Enqueued:
    """The request joined the delay queue; ``dropped`` is the evicted head, or None."""

    dropped: tuple[int, float, object] | None


# ``request`` answers every pass with ADMITTED and every enqueue that evicts
# nothing with ENQUEUED, so a caller can tell its answers apart by identity
ADMITTED, ENQUEUED = Admitted(), Enqueued(None)


class ThrottleState:
    """Mutable per-host throttle state, driven in timestamp order.

    ``request`` classifies an incoming connection attempt; ``tick`` releases
    the queue head once ``ready_at``, the earliest time of the next release,
    has come, and the next release is then due a service time 1/rate later.
    So at a finite rate at most one request leaves per call and releases
    cannot burst; at an infinite rate 1/rate = 0 and the whole queue drains.
    A throttle is first free at ``ready_at`` (default ``t0``): its first
    release may happen then.
    The queue holds ``(dest, t_enq, tag)``: the caller's ``tag`` (the engine's
    success flag) comes back with the attempt's release or eviction.

    The queue is a plain list, and the state has ``__slots__``: a worm's
    fan-out piles up in every infected host's queue, so the per-host and
    per-attempt bytes set a throttled run's memory.  A release deletes the
    released prefix in one ``del``, so an infinite-rate drain stays linear; it
    and an eviction (``pop(0)``) shift the rest of the list: O(queue length)
    against a deque's O(1), so at a capacity of 100 an append and an eviction
    take about 1.5 times as long as a deque's.  The working set stays an
    ``OrderedDict``: a plain dict used as an LRU scans its deleted entries on
    every eviction.

    ``room`` (default inf) is how many more attempts the queue may store; a
    request past it answers ENQUEUED and stores nothing.  A caller gives less
    than inf only where the attempts past it could not leave by its last tick.
    """

    __slots__ = ("config", "working_set", "delay_queue", "ready_at", "last_update", "room")

    def __init__(self, config: ThrottleConfig, t0: float = 0.0, ready_at: float | None = None,
                 room: float = math.inf):
        self.config = config
        self.working_set: OrderedDict[int, None] = OrderedDict()
        self.delay_queue: list[tuple[int, float, object]] = []
        self.last_update = float(t0)
        self.ready_at = self.last_update if ready_at is None else float(ready_at)
        self.room = room

    def request(self, dest: int, t: float, tag=None) -> Admitted | Enqueued:
        """Classify one connection attempt at time t."""
        if t < self.last_update:
            raise ClockError(f"request at t={t} precedes state clock {self.last_update}")
        if dest in self.working_set:
            self.working_set.move_to_end(dest)
            return ADMITTED
        if self.room < 1:
            return ENQUEUED
        self.room -= 1
        self.delay_queue.append((dest, t, tag))
        cap = self.config.queue_capacity
        if cap is not None and len(self.delay_queue) > cap:
            return Enqueued(self.delay_queue.pop(0))
        return ENQUEUED

    def tick(self, t: float) -> list[tuple[int, float, object]]:
        """Advance the clock to t; return the released (dest, delay, tag) triples."""
        if t < self.last_update:
            raise ClockError(f"tick at t={t} precedes state clock {self.last_update}")
        self.last_update = t
        rate = self.config.rate
        queue = self.delay_queue
        released: list[tuple[int, float, object]] = []
        while len(released) < len(queue) and self.ready_at <= t + EARLY / rate:
            dest, t_enq, tag = queue[len(released)]
            self.ready_at = t + 1.0 / rate
            self._admit_to_working_set(dest)
            released.append((dest, t - t_enq, tag))
        del queue[:len(released)]
        return released

    def next_release_due(self) -> float | None:
        """Earliest time the queue head can be released, or None if no attempt
        is stored: never before ``ready_at`` nor before the head's own enqueue time."""
        if not self.delay_queue:
            return None
        return max(self.ready_at, self.delay_queue[0][1])

    def _admit_to_working_set(self, dest: int) -> None:
        w, ws = self.config.working_set_capacity, self.working_set
        if dest in ws:
            ws.move_to_end(dest)
        elif w:
            if len(ws) >= w:
                ws.popitem(last=False)  # evict least recently used
            ws[dest] = None


# ThrottleState.tick's (dest, delay, tag) triples; a run's tag is the success flag
_RELEASED = [("dest", np.int64), ("delay", float), ("ok", bool)]


class HostThrottles:
    """A run's throttles over n nodes: one ``ThrottleState`` per infected host.

    ``states`` is an (n,) object array that holds host u's ``ThrottleState``
    at index u, and None before u is infected.  ``deliver`` passes each
    attempt of a tick to its source's throttle, one ``request`` call each,
    then ticks each due host once.  A queued attempt's ``ok`` rides in its
    source's queue as the request's tag.  A host with a non-empty queue has
    its next release time in ``_due`` (inf for the rest).

    ``counters``, updated once per tick, holds the cumulative work: ``requests``,
    of which ``passed`` went through the working set and ``enqueued`` joined a
    queue; ``dropped``, the queued attempts a full queue evicted;
    ``release_visits``, the due hosts ticked; ``released``, the attempts they
    let go; and ``wait_sum`` and ``wait_max``, their queue waits.  Every
    enqueued attempt is ``queued``, dropped or released.

    ``horizon`` is the time of the caller's last tick; ``deliver`` raises past
    it.  A release may come up to EARLY / rate early, and rounding, far below
    that while 4 ulp(horizon + 1/rate) is, adds less again: so a throttle first
    free at ``ready_at`` makes its k-th release (from 0) no earlier than
    ``ready_at + (k - 2 (k + 1) EARLY) / rate``, at most ``room(ready_at)`` by
    the horizon, and ``start`` lets its FIFO queue store only that many.  A
    bounded queue (an eviction needs the real order) and a rate whose rounding
    could outgrow the slack (from about 2e4 per second at a horizon of 100)
    store every attempt: their room is inf.
    """

    def __init__(self, config: ThrottleConfig, n: int, horizon: float):
        self.config = config
        self.horizon = horizon
        self._cut = (config.queue_capacity is None
                     and EARLY / config.rate > 4 * math.ulp(horizon + 1.0 / config.rate))
        self.states = np.full(n, None, dtype=object)
        self._ids = np.arange(n).astype(object)
        self._due = np.full(n, np.inf)
        self.counters = {"requests": 0, "passed": 0, "enqueued": 0, "dropped": 0,
                         "released": 0, "release_visits": 0, "wait_sum": 0.0, "wait_max": 0.0}

    @property
    def queued(self) -> int:
        return self.counters["enqueued"] - self.counters["dropped"] - self.counters["released"]

    def room(self, ready_at: float) -> float:
        """How many attempts a throttle first free at ``ready_at`` may store."""
        if not self._cut:
            return math.inf
        k = ((self.horizon - ready_at) * self.config.rate + 2 * EARLY) / (1 - 2 * EARLY)
        return max(0, math.floor(k) + 1)

    def start(self, hosts: np.ndarray, t: float) -> None:
        """Give each host infected at t a throttle, with the room of its first
        free time: no free instant connection; first free 1/r after infection.
        So a freshly infected machine's novel-destination rate is bounded by
        the throttle rate from its first contact."""
        ready_at = t + 1.0 / self.config.rate
        room = self.room(ready_at)
        for u in hosts.tolist():
            self.states[u] = ThrottleState(self.config, t0=t, ready_at=ready_at, room=room)

    def deliver(self, sources, targets, ok, t):
        """Pass each attempt at t, in order, to its source's throttle, then tick
        each host due by t once, by ``tick``'s own rule; return the ``(dest, ok)``
        arrays of the working-set passes followed by the releases.

        The tick's states are one gather from ``states``, and ``map`` drives
        ``ThrottleState.request``, ``tick`` and ``next_release_due`` over them,
        so ``deliver`` runs no Python loop of its own per attempt or host.  Each
        method is looked up on the class when ``deliver`` runs, so a wrapper
        set on the class sees every call, in order.  A request moves no release
        time and a new queue's head is stamped t, so the hosts whose queue was
        empty (``_due`` is inf) get their due times after the requests.  Every
        queued attempt and working-set key for a node shares ``_ids``' one int
        for it, gathered, not a fresh one from ``tolist``; a scan target past
        the nodes keeps its own: the address space can be far larger."""
        if t > self.horizon:
            raise ClockError(f"tick at t={t} passes the horizon {self.horizon}")
        states, ids = self.states, self._ids
        past = targets >= len(ids)
        dests = ids[np.where(past, 0, targets)]
        if past.any():
            dests[past] = targets[past].astype(object)
        decisions = list(map(ThrottleState.request, states[sources].tolist(), dests.tolist(),
                             repeat(t), ok.tolist()))
        passed = np.fromiter(map(is_, decisions, repeat(ADMITTED)), bool, len(decisions))
        enqueued = len(decisions) - int(np.count_nonzero(passed))
        c = self.counters
        c["requests"] += len(decisions)
        c["passed"] += len(decisions) - enqueued
        c["enqueued"] += enqueued
        # an enqueue answers ENQUEUED unless it evicts the head of a full queue
        if self.config.queue_capacity is not None:
            c["dropped"] += enqueued - sum(map(is_, decisions, repeat(ENQUEUED)))
        self._set_due(np.unique(sources[~passed & np.isinf(self._due[sources])]))
        hosts = np.flatnonzero(self._due <= t + EARLY / self.config.rate)
        released = np.array(list(chain.from_iterable(
            map(ThrottleState.tick, states[hosts].tolist(), repeat(t)))), dtype=_RELEASED)
        self._set_due(hosts)
        c["release_visits"] += len(hosts)
        c["released"] += len(released)
        c["wait_sum"] += float(released["delay"].sum())
        c["wait_max"] = max(c["wait_max"], float(released["delay"].max(initial=0.0)))
        return (np.concatenate([targets[passed], released["dest"]]),
                np.concatenate([ok[passed], released["ok"]]))

    def _set_due(self, hosts) -> None:
        """Set each host's next release time; inf, never due, if it stores no attempt."""
        due = np.array(list(map(ThrottleState.next_release_due, self.states[hosts].tolist())),
                       dtype=float)  # None: nan
        self._due[hosts] = np.where(np.isnan(due), np.inf, due)


def process_trace(events, config: ThrottleConfig) -> list[tuple[float, int, str, float]]:
    """Run a (t, dest) request trace through one throttle.

    Returns decision rows ``(t, dest, decision, delay)`` with decision in
    {admit, release, drop}, in time order: releases and drops are timestamped
    when they happen, not at the triggering request, and each event first
    releases what fell due since the last.  The queue is drained after the last event.
    """
    events = sorted(events, key=lambda e: e[0])
    state = ThrottleState(config, t0=events[0][0] if events else 0.0)
    rows: list[tuple[float, int, str, float]] = []

    def drain_until(t_limit: float) -> None:
        while True:
            due = state.next_release_due()
            if due is None or due > t_limit:
                break
            for dest, delay, _ in state.tick(due):
                rows.append((due, dest, "release", delay))

    for t, dest in events:
        drain_until(t)
        decision = state.request(dest, t)
        if isinstance(decision, Admitted):
            rows.append((t, dest, "admit", 0.0))
        elif decision.dropped is not None:
            d_dest, t_enq, _ = decision.dropped
            rows.append((t, d_dest, "drop", t - t_enq))
        drain_until(t)  # a no-op after an admit: the queue is unchanged

    drain_until(math.inf)
    return rows
