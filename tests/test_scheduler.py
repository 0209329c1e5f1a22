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


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sched = Scheduler()
        seen = []
        handle = sched.schedule_at(3, lambda: seen.append("x"))
        handle.cancel()
        sched.run_until(10)
        assert seen == []

    def test_cancel_after_fire_is_noop(self):
        sched = Scheduler()
        handle = sched.schedule_at(1, lambda: None)
        sched.run_until(5)
        assert handle.fired
        handle.cancel()  # must not raise

    def test_pending_property(self):
        sched = Scheduler()
        handle = sched.schedule_at(1, lambda: None)
        assert handle.pending
        sched.run_until(5)
        assert not handle.pending

    def test_pending_count_excludes_cancelled(self):
        sched = Scheduler()
        h1 = sched.schedule_at(1, lambda: None)
        sched.schedule_at(2, lambda: None)
        h1.cancel()
        assert sched.pending_count == 1


class TestCompaction:
    def test_cancelled_entries_are_compacted_away(self):
        # Regression: lazy deletion used to keep every cancelled entry in
        # the heap until its tick was popped, growing the queue unboundedly.
        sched = Scheduler()
        handles = [sched.schedule_at(10**6 + i, lambda: None) for i in range(500)]
        sched.schedule_at(1, lambda: None)
        for h in handles:
            h.cancel()
        assert len(sched) < 300  # cancelled bulk was dropped eagerly
        assert sched.pending_count == 1

    def test_pending_count_is_exact_after_interleaved_cancels(self):
        sched = Scheduler()
        keep = [sched.schedule_at(5 + i, lambda: None) for i in range(10)]
        drop = [sched.schedule_at(50 + i, lambda: None) for i in range(200)]
        for h in drop:
            h.cancel()
        for h in drop:
            h.cancel()  # double-cancel must not double-count
        assert sched.pending_count == 10
        sched.run_until(100)
        assert sched.pending_count == 0
        assert all(h.fired for h in keep)

    def test_compaction_preserves_execution_order(self):
        # The same workload with and without a compaction-triggering cancel
        # burst must run surviving events in the same order.
        def run(with_burst: bool) -> list[int]:
            sched = Scheduler()
            seen: list[int] = []
            for t in range(1, 40):
                sched.schedule_at(t * 3, lambda t=t: seen.append(t))
            burst = [sched.schedule_at(500 + i, lambda: None) for i in range(300)]
            if with_burst:
                for h in burst:
                    h.cancel()
            sched.run_until(200)
            return seen

        assert run(True) == run(False)

    def test_compaction_mid_run_does_not_double_execute(self):
        # Regression: _compact() once rebound self._queue to a new list
        # while run_until iterated a local alias, so events surviving a
        # mid-callback cancel burst ran twice across run_until calls.
        sched = Scheduler()
        seen: list[int] = []
        burst = [sched.schedule_at(1000 + i, lambda: None) for i in range(200)]

        def cancel_burst():
            seen.append(0)
            for h in burst:
                h.cancel()  # triggers compaction while run_until is looping

        sched.schedule_at(1, cancel_burst)
        for t in (2, 3, 4):
            sched.schedule_at(t, lambda t=t: seen.append(t))
        sched.run_until(10)
        sched.run_until(20)
        assert seen == [0, 2, 3, 4]
        assert sched.pending_count == 0

    def test_events_scheduled_after_mid_run_compaction_still_run(self):
        sched = Scheduler()
        seen: list[str] = []
        burst = [sched.schedule_at(500 + i, lambda: None) for i in range(200)]

        def cancel_then_schedule():
            for h in burst:
                h.cancel()
            sched.schedule_in(1, lambda: seen.append("late"))

        sched.schedule_at(1, cancel_then_schedule)
        sched.run_until(10)
        assert seen == ["late"]

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sched = Scheduler()
        h = sched.schedule_at(1, lambda: None)
        sched.schedule_at(2, lambda: None)
        sched.run_until(1)
        h.cancel()  # already fired: must not decrement pending bookkeeping
        assert sched.pending_count == 1

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
        assert len(halted) == len(stopped) == 3
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

    def test_run_next_empty_returns_false(self):
        assert Scheduler().run_next() is False

    def test_run_next_executes_one(self):
        sched = Scheduler()
        seen = []
        sched.schedule_at(1, lambda: seen.append(1))
        sched.schedule_at(2, lambda: seen.append(2))
        assert sched.run_next() is True
        assert seen == [1]

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

    def test_len_counts_queue_entries(self):
        sched = Scheduler()
        sched.schedule_at(1, lambda: None)
        sched.schedule_at(2, lambda: None)
        assert len(sched) == 2
