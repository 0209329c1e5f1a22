"""Unit tests for the discrete-event scheduler."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.sim.scheduler import Scheduler


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Scheduler().now == 0

    def test_schedule_at_runs_at_requested_time(self):
        sched = Scheduler()
        seen = []
        sched.schedule_at(5, lambda: seen.append(sched.now))
        sched.run_until(10)
        assert seen == [5]

    def test_schedule_in_is_relative(self):
        sched = Scheduler()
        seen = []
        sched.schedule_at(3, lambda: sched.schedule_in(4, lambda: seen.append(sched.now)))
        sched.run_until(100)
        assert seen == [7]

    def test_schedule_in_past_raises(self):
        sched = Scheduler()
        sched.schedule_at(5, lambda: None)
        sched.run_until(10)
        with pytest.raises(SchedulerError):
            sched.schedule_at(2, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SchedulerError):
            Scheduler().schedule_in(-1, lambda: None)

    def test_same_tick_fifo_order(self):
        sched = Scheduler()
        seen = []
        for i in range(5):
            sched.schedule_at(7, lambda i=i: seen.append(i))
        sched.run_until(7)
        assert seen == [0, 1, 2, 3, 4]

    def test_time_ordering_across_ticks(self):
        sched = Scheduler()
        seen = []
        sched.schedule_at(9, lambda: seen.append("late"))
        sched.schedule_at(1, lambda: seen.append("early"))
        sched.schedule_at(5, lambda: seen.append("mid"))
        sched.run_until(10)
        assert seen == ["early", "mid", "late"]


class TestCompaction:
    def test_post_events_run_in_seq_order_with_handles(self):
        sched = Scheduler()
        seen: list[str] = []
        sched.schedule_at(5, lambda: seen.append("handle"))
        sched.post_at(5, lambda: seen.append("post"))
        sched.post_in(5, lambda: seen.append("post-in"))
        sched.run_until(10)
        assert seen == ["handle", "post", "post-in"]


class TestRunUntil:
    def test_does_not_run_past_horizon(self):
        sched = Scheduler()
        seen = []
        sched.schedule_at(5, lambda: seen.append(5))
        sched.schedule_at(15, lambda: seen.append(15))
        sched.run_until(10)
        assert seen == [5]
        assert sched.now == 10  # time advances to the horizon

    def test_later_events_survive_horizon(self):
        sched = Scheduler()
        seen = []
        sched.schedule_at(15, lambda: seen.append(15))
        sched.run_until(10)
        sched.run_until(20)
        assert seen == [15]

    def test_stop_predicate_halts_early(self):
        sched = Scheduler()
        seen = []
        for t in range(1, 10):
            sched.schedule_at(t, lambda t=t: seen.append(t))
        sched.run_until(100, stop=lambda: len(seen) >= 3)
        assert seen == [1, 2, 3]

    def test_halt_from_a_callback_ends_the_run_like_a_stop_predicate(self):
        halted, stopped = Scheduler(), Scheduler()
        seen: list[int] = []
        for sched in (halted, stopped):
            for t in (1, 2, 3, 3, 4):
                sched.post_at(t, lambda: None)
        # Two events share tick 3: the halt lands between them.
        halted.post_at(3, lambda: (seen.append(halted.now), halted.halt()), key=-1)
        stopped.post_at(3, lambda: seen.append(stopped.now), key=-1)
        assert halted.run_until(100) == \
            stopped.run_until(100, stop=lambda: len(seen) == 2) == 3
        assert halted.now == stopped.now == 3
        assert halted.next_time() == stopped.next_time() == 3
        # The next run picks up where the halt left off, unhalted.
        assert halted.run_until(100) == 3 and halted.now == 100

    def test_halt_outside_a_run_is_forgotten(self):
        sched = Scheduler()
        sched.post_at(1, lambda: None)
        sched.post_at(2, lambda: None)
        sched.halt()
        assert sched.run_until(10) == 2

    def test_returns_executed_count(self):
        sched = Scheduler()
        for t in range(1, 6):
            sched.schedule_at(t, lambda: None)
        assert sched.run_until(100) == 5

    def test_events_scheduled_during_run_execute(self):
        sched = Scheduler()
        seen = []

        def chain():
            seen.append(sched.now)
            if sched.now < 5:
                sched.schedule_in(1, chain)

        sched.schedule_at(1, chain)
        sched.run_until(100)
        assert seen == [1, 2, 3, 4, 5]
