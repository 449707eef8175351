"""Unit + property tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import (
    Event,
    Process,
    Resource,
    SimulationError,
    Simulator,
    Timeout,
)


class TestEvent:
    def test_starts_pending(self):
        sim = Simulator()
        ev = sim.event("e")
        assert not ev.fired
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_trigger_sets_value(self):
        sim = Simulator()
        ev = sim.event("e")
        ev.trigger(42)
        assert ev.fired and ev.value == 42

    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = sim.event("e")
        ev.trigger(None)
        with pytest.raises(SimulationError):
            ev.trigger(None)

    def test_callback_after_fire_still_runs(self):
        sim = Simulator()
        ev = sim.event("e")
        ev.trigger("x")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["x"]


class TestTimeout:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_process_sleeps(self):
        sim = Simulator()

        def proc():
            yield Timeout(2.5)
            return sim.now

        result = sim.run_process(proc())
        assert result == pytest.approx(2.5)
        assert sim.now == pytest.approx(2.5)


class TestProcess:
    def test_return_value_propagates(self):
        sim = Simulator()

        def child():
            yield Timeout(1.0)
            return "done"

        def parent():
            value = yield sim.process(child())
            return value

        assert sim.run_process(parent()) == "done"

    def test_wait_all_list(self):
        sim = Simulator()

        def child(d):
            yield Timeout(d)
            return d

        def parent():
            values = yield [sim.process(child(3.0)), sim.process(child(1.0))]
            return values

        assert sim.run_process(parent()) == [3.0, 1.0]
        assert sim.now == pytest.approx(3.0)

    def test_yield_unsupported_raises(self):
        sim = Simulator()

        def bad():
            yield 123

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_wait_on_fired_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.trigger(7)

        def proc():
            value = yield ev
            return value

        assert sim.run_process(proc()) == 7


class TestSimulatorDeterminism:
    def test_same_time_fifo_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_run_until_stops_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.now == pytest.approx(2.0)

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    @given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_clock_monotonic(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(delays=st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_repeat_runs_identical(self, delays):
        def run_once():
            sim = Simulator()
            trace = []
            for d in delays:
                sim.schedule(d, lambda d=d: trace.append((sim.now, d)))
            sim.run()
            return trace

        assert run_once() == run_once()


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_serializes_holders(self):
        sim = Simulator()
        res = Resource(sim, capacity=1, name="r")
        times = []

        def user(hold):
            yield res.request()
            yield Timeout(hold)
            res.release()
            times.append(sim.now)

        sim.process(user(1.0))
        sim.process(user(2.0))
        sim.run()
        assert times == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        times = []

        def user(hold):
            yield res.request()
            yield Timeout(hold)
            res.release()
            times.append(sim.now)

        for _ in range(3):
            sim.process(user(1.0))
        sim.run()
        assert times == [pytest.approx(1.0), pytest.approx(1.0), pytest.approx(2.0)]

    def test_release_idle_raises(self):
        res = Resource(Simulator(), capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_fifo_grant_order(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def user(tag):
            yield res.request()
            order.append(tag)
            yield Timeout(1.0)
            res.release()

        for tag in "abc":
            sim.process(user(tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestAllOf:
    """A process that yields a list waits for all of it."""

    def test_collects_values(self):
        sim = Simulator()
        e1, e2 = sim.event(), sim.event()

        def proc():
            return (yield [e1, e2])

        combined = sim.process(proc())
        sim.schedule(1.0, lambda: e1.trigger("a"))
        sim.schedule(2.0, lambda: e2.trigger("b"))
        sim.run()
        assert combined.finished and combined.done.value == ["a", "b"]
        assert sim.now == pytest.approx(2.0)

    def test_empty_fires_immediately(self):
        sim = Simulator()

        def proc():
            return (yield [])

        combined = sim.process(proc())
        sim.run()
        assert combined.finished and combined.done.value == []
        assert sim.now == 0.0

    def test_deadlock_detected(self):
        sim = Simulator()
        ev = sim.event()  # never triggered

        def proc():
            yield ev

        p = sim.process(proc())
        sim.run()
        assert not p.finished
        with pytest.raises(SimulationError):
            sim.run_process(proc())
