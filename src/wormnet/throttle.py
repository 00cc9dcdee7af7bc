"""Per-host connection throttle: working set + delay queue + release budget.

Requests to recently contacted destinations (the working set) pass through
immediately; requests to new destinations wait in a FIFO delay queue that
drains at a fixed rate.  Legitimate traffic, which revisits a small set of
destinations at a low novelty rate, is effectively untouched, while a worm's
high-rate fan-out piles up in the queue.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass


class ClockError(ValueError):
    """An event arrived with a timestamp earlier than the state's clock."""


# Budget within this distance of a full token counts as full: repeated
# floating-point accrual can stop a hair short of 1.0, which would otherwise
# push the next release due-time infinitesimally (but endlessly) forward.
_TOKEN_EPS = 1e-9


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
            raise ValueError("queue_capacity must be >= 1 or None")


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

    ``request`` classifies an incoming connection attempt; ``tick`` accrues
    release budget up to the current time and drains the queue head(s).  At a
    finite rate the budget is capped at one token, so releases cannot burst.
    The queue holds ``(dest, t_enq, tag)``: the caller's ``tag`` (the engine's
    success flag) comes back with the attempt's release or eviction.
    """

    def __init__(self, config: ThrottleConfig, t0: float = 0.0, initial_budget: float = 1.0):
        if not 0.0 <= initial_budget <= 1.0:
            raise ValueError("initial_budget must lie in [0, 1]")
        self.config = config
        self.working_set: OrderedDict[int, None] = OrderedDict()
        self.delay_queue: deque[tuple[int, float, object]] = deque()
        self.budget = float(initial_budget)
        self.last_update = float(t0)

    def request(self, dest: int, t: float, tag=None) -> Admitted | Enqueued:
        """Classify one connection attempt at time t."""
        if t < self.last_update:
            raise ClockError(f"request at t={t} precedes state clock {self.last_update}")
        if dest in self.working_set:
            self.working_set.move_to_end(dest)
            return ADMITTED
        self.delay_queue.append((dest, t, tag))
        cap = self.config.queue_capacity
        if cap is not None and len(self.delay_queue) > cap:
            return Enqueued(self.delay_queue.popleft())
        return ENQUEUED

    def tick(self, t: float) -> list[tuple[int, float, object]]:
        """Advance the clock to t; return the released (dest, delay, tag) triples."""
        if t < self.last_update:
            raise ClockError(f"tick at t={t} precedes state clock {self.last_update}")
        rate = self.config.rate
        if math.isinf(rate):
            self.budget = math.inf  # inf - 1 is inf: the whole queue drains
        else:
            self.budget = min(1.0, self.budget + rate * (t - self.last_update))
        self.last_update = t

        released: list[tuple[int, float, object]] = []
        while self.budget >= 1.0 - _TOKEN_EPS and self.delay_queue:
            dest, t_enq, tag = self.delay_queue.popleft()
            self.budget = max(0.0, self.budget - 1.0)
            self._admit_to_working_set(dest)
            released.append((dest, t - t_enq, tag))
        return released

    def next_release_due(self) -> float | None:
        """Earliest time the queue head can be released, or None if empty.

        Never earlier than the head's own enqueue time: budget may have been
        full for a while before the request arrived.
        """
        if not self.delay_queue:
            return None
        head_t = self.delay_queue[0][1]
        if self.budget >= 1.0 - _TOKEN_EPS:
            return max(self.last_update, head_t)
        return max(self.last_update + (1.0 - self.budget) / self.config.rate, head_t)

    def _admit_to_working_set(self, dest: int) -> None:
        w = self.config.working_set_capacity
        if w == 0:
            return
        if dest in self.working_set:
            self.working_set.move_to_end(dest)
            return
        if len(self.working_set) >= w:
            self.working_set.popitem(last=False)  # evict least recently used
        self.working_set[dest] = None


def process_trace(events, config: ThrottleConfig) -> list[tuple[float, int, str, float]]:
    """Run a (t, dest) request trace through one throttle.

    Returns decision rows ``(t, dest, decision, delay)`` with decision in
    {admit, release, drop}; releases and drops are timestamped at the moment
    they happen, not at the triggering request.  The queue is fully drained
    after the last event.
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
    rows.sort(key=lambda r: r[0])
    return rows
