import itertools
import math
from collections import Counter, OrderedDict, deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wormnet.throttle import (
    ADMITTED,
    EARLY,
    ENQUEUED,
    Admitted,
    ClockError,
    Enqueued,
    HostThrottles,
    ThrottleConfig,
    ThrottleState,
    process_trace,
)


class TestConfig:
    def test_validation(self):
        for rate in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="rate must be > 0"):
                ThrottleConfig(rate=rate)
        assert ThrottleConfig(rate=math.inf).rate == math.inf
        with pytest.raises(ValueError):
            ThrottleConfig(working_set_capacity=-1)
        with pytest.raises(ValueError, match="^queue_capacity must be >= 1$"):
            ThrottleConfig(queue_capacity=0)


class TestStateMachine:
    def test_working_set_hit_admitted(self):
        st_ = ThrottleState(ThrottleConfig())
        st_.working_set[7] = None
        assert isinstance(st_.request(7, 0.0), Admitted)

    def test_new_destination_enqueued_with_position(self):
        st_ = ThrottleState(ThrottleConfig())
        # the queue's length after a request is the request's 1-based position
        assert st_.request(1, 0.0) == Enqueued(None)
        assert len(st_.delay_queue) == 1
        assert st_.request(2, 0.0) == Enqueued(None)
        assert len(st_.delay_queue) == 2

    def test_budget_cap_prevents_bursts(self):
        # after a long idle, one tick still releases one request
        st_ = ThrottleState(ThrottleConfig(rate=1.0))
        for d in range(5):
            st_.request(d, 0.0)
        released = st_.tick(100.0)
        assert len(released) == 1

    def test_release_order_is_fifo(self):
        st_ = ThrottleState(ThrottleConfig(rate=1.0), ready_at=1.0)
        for d in (9, 4, 6):
            st_.request(d, 0.0)
        out = []
        for t in (1.0, 2.0, 3.0):
            out += [d for d, _, _ in st_.tick(t)]
        assert out == [9, 4, 6]

    def test_released_delay_is_queue_wait(self):
        st_ = ThrottleState(ThrottleConfig(rate=1.0), ready_at=1.0)
        st_.request(3, 0.5)
        [(dest, delay, _)] = st_.tick(1.5)
        assert dest == 3
        assert delay == pytest.approx(1.0)

    def test_lru_eviction(self):
        cfg = ThrottleConfig(rate=math.inf, working_set_capacity=2)
        st_ = ThrottleState(cfg)
        for d in (1, 2):
            st_.request(d, 0.0)
            st_.tick(0.0)
        st_.request(1, 0.0)  # touch 1: now 2 is least recently used
        st_.request(3, 0.0)
        st_.tick(0.0)
        assert isinstance(st_.request(1, 0.0), Admitted)
        assert isinstance(st_.request(3, 0.0), Admitted)
        assert isinstance(st_.request(2, 0.0), Enqueued)

    def test_infinite_rate_drains_everything(self):
        st_ = ThrottleState(ThrottleConfig(rate=math.inf))
        for d in range(10):
            st_.request(d, 0.0)
        assert len(st_.tick(0.0)) == 10

    def test_bounded_queue_drops_oldest(self):
        st_ = ThrottleState(ThrottleConfig(rate=1.0, queue_capacity=2), ready_at=1.0)
        assert st_.request(1, 0.0) == Enqueued(None)
        assert st_.request(2, 0.0) == Enqueued(None)
        assert st_.request(3, 0.0) == Enqueued((1, 0.0, None))
        assert [d for d, _, _ in st_.delay_queue] == [2, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([
            ThrottleConfig(rate=1.0),
            ThrottleConfig(rate=2.0, queue_capacity=1),
            ThrottleConfig(rate=0.5, working_set_capacity=1, queue_capacity=2),
            ThrottleConfig(rate=1.0, queue_capacity=3),
            ThrottleConfig(rate=1.0, working_set_capacity=0),
            ThrottleConfig(rate=math.inf, working_set_capacity=2),
        ]),
        st.lists(
            st.tuples(st.booleans(), st.floats(0, 2, allow_nan=False), st.integers(0, 5)),
            max_size=60,
        ),
    )
    def test_every_queued_tag_returns_once_in_fifo_order(self, cfg, ops):
        # each op is a request (True) or a tick (False) after a time step
        st_ = ThrottleState(cfg, ready_at=1.0 / cfg.rate)
        t = 0.0
        queued, returned = [], []
        for i, (is_request, step, dest) in enumerate(ops):
            t += step
            if is_request:
                decision = st_.request(dest, t, tag=i)
                if isinstance(decision, Enqueued):
                    queued.append(i)
                    if decision.dropped is not None:
                        returned.append(decision.dropped[2])
            else:
                returned += [tag for _, _, tag in st_.tick(t)]
        while st_.delay_queue:
            returned += [tag for _, _, tag in st_.tick(st_.next_release_due())]
        # releases and evictions both leave from the head, so the tags come
        # back in the order they were queued
        assert returned == queued

    def test_clock_regression_raises(self):
        st_ = ThrottleState(ThrottleConfig(), t0=5.0)
        with pytest.raises(ClockError):
            st_.request(1, 4.0)
        with pytest.raises(ClockError):
            st_.tick(4.0)

    def test_next_release_due(self):
        st_ = ThrottleState(ThrottleConfig(rate=0.5), ready_at=2.0)
        assert st_.next_release_due() is None
        st_.request(1, 0.0)
        assert st_.next_release_due() == pytest.approx(2.0)
        st_.tick(1.0)
        assert st_.next_release_due() == pytest.approx(2.0)

    def test_zero_capacity_working_set_never_admits(self):
        st_ = ThrottleState(ThrottleConfig(rate=math.inf, working_set_capacity=0))
        st_.request(1, 0.0)
        st_.tick(0.0)
        assert isinstance(st_.request(1, 0.0), Enqueued)


class TestProcessTrace:
    def test_golden_five_new_destinations(self):
        rows = process_trace([(0.0, 100 + i) for i in range(5)], ThrottleConfig(rate=1.0))
        assert [r[2] for r in rows] == ["release"] * 5
        assert [r[0] for r in rows] == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])
        assert [r[1] for r in rows] == [100, 101, 102, 103, 104]
        assert [r[3] for r in rows] == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])

    def test_each_queued_copy_of_a_destination_waits_for_its_own_release(self):
        # releasing the head releases that one attempt: the second queued copy
        # of 2 leaves a service time after the first, though 2 has joined the
        # working set, rather than with it
        rows = process_trace([(0.0, 1), (0.0, 2), (0.0, 2)], ThrottleConfig(rate=1.0))
        assert rows == [(0.0, 1, "release", 0.0), (1.0, 2, "release", 1.0),
                        (2.0, 2, "release", 2.0)]

    def test_repeat_traffic_within_working_set_all_admitted(self):
        # warm up 3 destinations, then hammer them at high rate
        events = [(0.001 * i, i) for i in range(3)]
        events += [(10.0 + 0.01 * i, i % 3) for i in range(300)]
        rows = process_trace(events, ThrottleConfig(rate=1.0, working_set_capacity=4))
        late = [r for r in rows if r[0] >= 10.0]
        assert late and all(r[2] == "admit" and r[3] == 0.0 for r in late)

    def test_queue_grows_at_excess_rate(self):
        # arrivals at 5/s vs release rate 1/s for 20 s: backlog ~ (5-1)*20
        events = [(i * 0.2, 1000 + i) for i in range(100)]
        cfg = ThrottleConfig(rate=1.0)
        state = ThrottleState(cfg, t0=0.0)
        backlog = None
        for t, dest in events:
            for _ in state.tick(t):
                pass
            state.request(dest, t)
        for _ in state.tick(20.0):
            pass
        backlog = len(state.delay_queue)
        assert abs(backlog - 80) <= 2

    def test_release_rate_bound_in_every_window(self):
        events = [(i * 0.05, 2000 + i) for i in range(200)]
        rows = process_trace(events, ThrottleConfig(rate=1.0))
        releases = sorted(r[0] for r in rows if r[2] == "release")
        for i, t0 in enumerate(releases):
            for j in range(i, len(releases)):
                window = releases[j] - t0
                assert (j - i + 1) <= 1.0 * window + 1 + 1e-9

    def test_drop_rows_present_for_bounded_queue(self):
        events = [(0.0, i) for i in range(5)]
        rows = process_trace(events, ThrottleConfig(rate=1.0, queue_capacity=2))
        decisions = [r[2] for r in rows]
        assert decisions.count("drop") == 2
        # every event is accounted for exactly once
        assert len(rows) == 5

    def test_rows_sorted_by_time(self):
        events = [(0.3 * i, i % 7) for i in range(50)]
        rows = process_trace(events, ThrottleConfig(rate=2.0, working_set_capacity=3))
        times = [r[0] for r in rows]
        assert times == sorted(times)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 50, allow_nan=False), st.integers(0, 8)),
            min_size=1,
            max_size=60,
        ),
        st.floats(0.5, 10),
        st.integers(1, 5),
    )
    def test_trace_conservation_and_determinism(self, events, rate, w):
        cfg = ThrottleConfig(rate=rate, working_set_capacity=w)
        rows = process_trace(events, cfg)
        assert rows == process_trace(events, cfg)
        # unbounded queue: every request is eventually admitted or released
        assert len(rows) == len(events)
        assert all(r[2] in ("admit", "release") for r in rows)
        assert all(r[3] >= 0.0 for r in rows)

    @pytest.mark.parametrize("s", [1.0, 1.5])
    def test_infinite_rate_pass_share_is_kings_lru_law(self, s):
        # At an infinite rate a miss joins the working set at once, so the working
        # set is an LRU cache of W = 4 slots.  Under independent requests with a
        # Zipf law over 20 destinations, its pass share is King's exact law.  Eight
        # independent traces of 5,000 Poisson requests at 2 per second, the first
        # 500 dropped; the mean share lies within 4 standard errors of King's.
        p = np.arange(1, 21) ** -s
        p /= p.sum()
        shares = []
        for trace in range(8):
            rng = np.random.default_rng([3, trace])
            times = np.cumsum(rng.exponential(1 / 2, 5000)).tolist()
            dests = rng.choice(20, size=5000, p=p).tolist()
            rows = process_trace(zip(times, dests), ThrottleConfig(rate=math.inf))
            assert len(rows) == 5000  # a miss is released at once, in request order
            shares.append(np.mean([row[2] == "admit" for row in rows[500:]]))
        se = np.std(shares, ddof=1) / math.sqrt(len(shares))
        assert abs(np.mean(shares) - _king_lru_hit_share(p, 4)) <= 4 * se


def _king_lru_hit_share(p, w):
    """The stationary hit share of an LRU cache of ``w`` slots under independent
    requests with law ``p`` (King, 1971): the cache holds the ordered tuple
    (i_1 ... i_w) with probability prod_k p_{i_k} / (1 - sum_{j<k} p_{i_j}), and
    a request hits it with probability sum_k p_{i_k}."""
    cached = p[np.array(list(itertools.permutations(range(len(p)), w)))]
    before = np.cumsum(cached, axis=1) - cached
    return float(np.sum(np.prod(cached / (1 - before), axis=1) * cached.sum(axis=1)))


def _lindley(times, rate, free_at):
    """Release times of requests queued at ``times``, in FIFO order, by one
    server with service time 1/rate that is free from ``free_at`` on:
    R_k = max(t_k, R_{k-1} + 1/rate) (Lindley's recursion)."""
    released = []
    for t in times:
        free_at = max(t, free_at)
        released.append(free_at)
        free_at += 1 / rate
    return released


@st.composite
def _trace(draw):
    """1-40 (t, dest) requests, times rounded so that some coincide or sit on a
    lattice of 1/rate."""
    digits = draw(st.sampled_from([1, 2, 6]))
    events = draw(st.lists(st.tuples(st.floats(0, 20), st.integers(0, 8)),
                           min_size=1, max_size=40))
    return sorted(((round(t, digits), d) for t, d in events), key=lambda e: e[0])


_RATES = st.one_of(st.floats(0.5, 3), st.just(math.inf))


class TestSingleServerQueue:
    """The throttle is a single server with service time 1/rate: the requests
    that miss the working set wait in FIFO order for it."""

    @settings(max_examples=200, deadline=None)
    @given(_trace(), _RATES, st.integers(0, 3))
    def test_process_trace_releases_by_the_lindley_recursion(self, events, rate, w):
        # process_trace's throttle is first free at the first request; at an
        # infinite rate 1/rate = 0 and each request leaves at its own t
        rows = process_trace(events, ThrottleConfig(rate=rate, working_set_capacity=w))
        missed = Counter(events) - Counter((t, d) for t, d, decision, _ in rows
                                           if decision == "admit")
        queued = []
        for t, d in events:
            if missed[t, d]:
                missed[t, d] -= 1
                queued.append(t)
        released = [t for t, _, decision, _ in rows if decision == "release"]
        assert released == pytest.approx(_lindley(queued, rate, events[0][0]), rel=0, abs=1e-9)

    @pytest.mark.parametrize("lag", [0.0, 1.0])
    @settings(max_examples=100, deadline=None)
    @given(_trace(), _RATES, st.integers(0, 3), st.floats(0, 2))
    def test_ready_at_sets_when_the_server_is_first_free(self, lag, events, rate, w, lead):
        # the server is first free at ready_at, lag service times after t0;
        # each request's tag is its enqueue time, so the tags come back with the
        # times the recursion starts from
        t0 = events[0][0] - lead
        free_at = t0 + lag / rate
        state = ThrottleState(ThrottleConfig(rate=rate, working_set_capacity=w), t0=t0,
                              ready_at=free_at)
        queued, released = [], []

        def drain_until(t_limit):
            while (due := state.next_release_due()) is not None and due <= t_limit:
                released.extend((due, tag) for _, _, tag in state.tick(due))

        for t, d in events:
            drain_until(t)
            if isinstance(state.request(d, t, tag=t), Enqueued):
                queued.append(t)
            drain_until(t)
        drain_until(math.inf)
        assert [tag for _, tag in released] == queued
        assert [due for due, _ in released] == pytest.approx(_lindley(queued, rate, free_at),
                                                              rel=0, abs=1e-9)

    @pytest.mark.parametrize("rate, lam", [(1.0, 0.5), (1.0, 0.2), (2.0, 1.0)])
    def test_poisson_arrivals_wait_as_in_md1(self, rate, lam):
        # Poisson arrivals of new destinations at lam < rate make an M/D/1
        # queue with load rho = lam / rate: the Pollaczek-Khinchine mean wait is
        # rho / (2 rate (1 - rho)), and an arrival finds the server free with
        # probability 1 - rho.  Eight independent traces of 5,000 requests each,
        # the first 10% dropped; each mean lies within 4 standard errors of
        # the per-trace means.
        rho = lam / rate
        config = ThrottleConfig(rate=rate, working_set_capacity=0)
        mean_waits, no_wait = [], []
        for trace in range(8):
            arrivals = np.cumsum(np.random.default_rng([14, trace]).exponential(1 / lam, 5000))
            waits = np.empty(len(arrivals))
            for _, dest, _, delay in process_trace(zip(arrivals.tolist(), range(5000)), config):
                waits[dest] = delay
            mean_waits.append(waits[500:].mean())
            no_wait.append(np.mean(waits[500:] == 0.0))
        for values, expected in ((mean_waits, rho / (2 * rate * (1 - rho))), (no_wait, 1 - rho)):
            se = np.std(values, ddof=1) / math.sqrt(len(values))
            assert abs(np.mean(values) - expected) <= 4 * se


def _same_answer(got, want):
    if want is ADMITTED or want is ENQUEUED:
        assert got is want
    else:
        assert got == want


class _DequeThrottle:
    """The reference model: the throttle's rules written apart from
    ThrottleState, over a deque as the delay queue.  It is first free once it
    has a whole release in hand, and ``initial_budget``, in [0, 1], is the
    share it has at ``t0``."""

    def __init__(self, config, t0, initial_budget):
        self.config = config
        self.working_set = OrderedDict()
        self.delay_queue = deque()
        self.ready_at = t0 + (1.0 - initial_budget) / config.rate

    def request(self, dest, t, tag):
        if dest in self.working_set:
            self.working_set.move_to_end(dest)
            return ADMITTED
        self.delay_queue.append((dest, t, tag))
        cap = self.config.queue_capacity
        if cap is not None and len(self.delay_queue) > cap:
            return Enqueued(self.delay_queue.popleft())
        return ENQUEUED

    def tick(self, t):
        rate, w = self.config.rate, self.config.working_set_capacity
        released = []
        while self.delay_queue and self.ready_at <= t + EARLY / rate:
            dest, t_enq, tag = self.delay_queue.popleft()
            self.ready_at = t + 1.0 / rate
            if dest in self.working_set:
                self.working_set.move_to_end(dest)
            elif w:
                if len(self.working_set) >= w:
                    self.working_set.popitem(last=False)
                self.working_set[dest] = None
            released.append((dest, t - t_enq, tag))
        return released

    def next_release_due(self):
        if not self.delay_queue:
            return None
        return max(self.ready_at, self.delay_queue[0][1])


class TestAgainstDequeModel:
    """The list queue answers, releases and evicts exactly as a deque queue
    does, and its working set holds the same destinations in the same order."""

    @staticmethod
    def _run(config, initial_budget, ops):
        # each op is a request (True) or a tick (False) after a time step
        state = ThrottleState(config, t0=0.0, ready_at=(1.0 - initial_budget) / config.rate)
        model = _DequeThrottle(config, 0.0, initial_budget)
        t = 0.0
        for i, (is_request, step, dest) in enumerate(ops):
            t += step
            if is_request:
                _same_answer(state.request(dest, t, tag=i), model.request(dest, t, i))
            else:
                assert state.tick(t) == model.tick(t)
            assert state.next_release_due() == model.next_release_due()
            assert list(state.delay_queue) == list(model.delay_queue)
            assert list(state.working_set) == list(model.working_set)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4), st.sampled_from([None, 1, 3]), st.sampled_from([0.5, 1.0, math.inf]),
           st.sampled_from([0.0, 1.0]),
           st.lists(st.tuples(st.booleans(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.7]),
                              st.integers(0, 6)), max_size=80))
    def test_matches_the_deque_model(self, w, queue_capacity, rate, initial_budget, ops):
        config = ThrottleConfig(rate=rate, working_set_capacity=w, queue_capacity=queue_capacity)
        self._run(config, initial_budget, ops)

    def test_an_infinite_rate_tick_drains_ten_thousand_requests(self):
        config = ThrottleConfig(rate=math.inf, working_set_capacity=4)
        state, model = ThrottleState(config), _DequeThrottle(config, 0.0, 1.0)
        for d in range(10_000):
            assert state.request(d, 0.0, tag=d) is model.request(d, 0.0, d) is ENQUEUED
        released = state.tick(0.5)
        assert len(released) == 10_000
        assert released == model.tick(0.5)
        assert state.delay_queue == [] and state.next_release_due() is None
        assert list(state.working_set) == list(model.working_set) == [9996, 9997, 9998, 9999]


class TestHorizon:
    """A run's throttles store only the queued attempts that can still leave by
    its last tick: ``HostThrottles`` gives each the room of the releases it
    can make by then, and up to that tick a state with that room answers and
    releases exactly as one that stores every attempt."""

    @staticmethod
    def _started(config, horizon, t=0.0):
        """The state ``HostThrottles`` gives one host infected at t."""
        throttles = HostThrottles(config, 1, horizon)
        throttles.start(np.array([0]), t)
        return throttles.states[0]

    @pytest.mark.parametrize("config, room", [
        (ThrottleConfig(rate=0.5), 3),
        (ThrottleConfig(rate=math.inf), math.inf),
        (ThrottleConfig(rate=1.0, queue_capacity=3), math.inf),
    ])
    def test_start_gives_a_batch_one_first_free_time_and_its_room(self, config, room):
        # hosts infected at t = 2.5 are first free at 2.5 + 1/rate; at rate 0.5
        # that is 4.5, and releases at 4.5, 6.5 and 8.5 fit by the horizon 10
        throttles = HostThrottles(config, 5, 10.0)
        throttles.start(np.array([1, 3, 4]), 2.5)
        ready_at = 2.5 + 1.0 / config.rate
        assert throttles.room(ready_at) == room
        for u in (1, 3, 4):
            state = throttles.states[u]
            assert (state.last_update, state.ready_at, state.room) == (2.5, ready_at, room)
        assert throttles.states[0] is None and throttles.states[2] is None

    def test_the_attempts_that_cannot_leave_are_not_stored(self):
        # a throttle started at t = 0 at rate 1 is first free at t = 1, so by a
        # last tick at t = 2 only the queue's first two attempts can leave
        state = self._started(ThrottleConfig(rate=1.0), 2.0 + 1e-9)
        assert state.room == 2
        for d in range(10):
            assert state.request(d, 0.0, tag=d) is ENQUEUED
        assert [d for d, _, _ in state.delay_queue] == [0, 1] and state.room == 0
        assert state.tick(1.0) == [(0, 1.0, 0)]
        assert state.tick(2.0) == [(1, 2.0, 1)]
        assert state.delay_queue == [] and state.next_release_due() is None
        assert state.request(10, 2.0) is ENQUEUED and state.delay_queue == []

    def test_releases_up_to_early_before_their_due_time_fit_the_room(self):
        # each tick comes 0.9 EARLY service times before its head is due and
        # still releases it, so ten releases fit by a last tick at the tenth:
        # the room's 2 EARLY slack per release covers them
        ticks = [1.0]
        for _ in range(9):
            ticks.append(ticks[-1] + 1.0 - 0.9 * EARLY)
        state = self._started(ThrottleConfig(rate=1.0), ticks[-1])
        assert state.room == 10
        for d in range(20):
            state.request(d, 0.0)
        assert [len(state.tick(t)) for t in ticks] == [1] * 10

    @pytest.mark.parametrize("config", [ThrottleConfig(rate=1.0, queue_capacity=50),
                                        ThrottleConfig(rate=1e6), ThrottleConfig(rate=math.inf)])
    def test_a_bounded_queue_and_a_rate_past_the_rounding_store_every_attempt(self, config):
        # an eviction needs the real queue; at 1e6 per second the rounding of a
        # time near 100 outgrows the EARLY slack of a release
        state = self._started(config, 100.0, t=99.0)
        assert state.room == math.inf
        for d in range(40):
            state.request(d, 99.0)
        assert len(state.delay_queue) == 40

    def test_deliver_refuses_a_tick_past_the_horizon(self):
        throttles = HostThrottles(ThrottleConfig(rate=1.0), 3, 2.0 + 1e-9)
        throttles.start(np.array([0]), 0.0)
        one = (np.array([0]), np.array([1]), np.array([True]))
        throttles.deliver(*one, 2.0)
        with pytest.raises(ClockError, match="passes the horizon"):
            throttles.deliver(*one, 2.1)
        assert throttles.counters["requests"] == 1 and throttles.states[0].last_update == 2.0

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 2.0, 1 / 0.3, 10.0, math.inf]), st.integers(0, 3),
           st.sampled_from([None, None, 2]), st.sampled_from([1.0, 0.0]), st.integers(0, 5),
           st.integers(0, 60), st.booleans(),
           st.lists(st.tuples(st.booleans(), st.sampled_from([0, 1, 2, 3, 7]), st.integers(0, 6)),
                    max_size=80))
    # a backlog whose last attempt to leave does so at the last tick itself
    @example(1.0, 0, None, 1.0, 0, 20, True, [(True, 0, d) for d in range(3)])
    @example(2.0, 1, None, 1.0, 3, 10, True, [(True, 0, d) for d in range(4)])
    def test_matches_a_state_that_stores_every_attempt(self, rate, w, queue_capacity, lag, first,
                                                       span, every_tick, ops):
        # times lie on the engine's lattice k * dt and the horizon is the last
        # tick's time plus 1e-9, as ``run`` sets it; the cut state's room is
        # the one ``HostThrottles`` gives a throttle first free when it is,
        # ``lag`` service times after its start.
        # Each op is a request (True) or a tick (False) some ticks on; with
        # ``every_tick``, as in the engine, both states tick at every lattice
        # time instead, so a backlog leaves at the earliest times the rule
        # allows.  The ops stop at the last tick; after them both tick at
        # every time left.
        dt = 0.1
        config = ThrottleConfig(rate=rate, working_set_capacity=w, queue_capacity=queue_capacity)
        last = first + span
        horizon = last * dt + 1e-9
        ready_at = first * dt + lag / rate
        ref = ThrottleState(config, t0=first * dt, ready_at=ready_at)
        cut = ThrottleState(config, t0=first * dt, ready_at=ready_at,
                            room=HostThrottles(config, 0, horizon).room(ready_at))

        def agree():
            stored = len(cut.delay_queue)
            assert cut.delay_queue == ref.delay_queue[:stored]
            assert list(cut.working_set) == list(ref.working_set)
            due = ref.next_release_due()
            if stored:
                assert cut.next_release_due() == due
            else:  # the head of the attempts past the room cannot leave
                assert cut.next_release_due() is None and (due is None or due > horizon)

        def tick(j):
            """Tick both at lattice time j; past the last tick, return False."""
            if j > last:
                return False
            assert cut.tick(j * dt) == ref.tick(j * dt)
            agree()
            return True

        k = first
        for i, (is_request, steps, dest) in enumerate(ops):
            start, k = k, k + steps
            if every_tick and not all(tick(j) for j in range(start + 1, k + 1)):
                break
            if is_request:
                _same_answer(cut.request(dest, k * dt, tag=i), ref.request(dest, k * dt, tag=i))
                agree()
            elif not every_tick and not tick(k):
                break
        for j in range(k + 1, last + 1):
            tick(j)
        if queue_capacity is not None or rate == math.inf:
            assert cut.delay_queue == ref.delay_queue
