"""Deterministic discrete-event scheduler (the simulator's hot core).

Time is an integer tick counter.  Events scheduled for the same tick run in
``(key, seq)`` order: ``key`` is a *canonical* content-derived rank (see
:mod:`repro.sim.determinism`) and ``seq`` is a monotone insertion counter that
breaks remaining ties.  Engine events (activations, timers, deliveries) pass
canonical keys, so same-tick ordering is a function of simulation state rather
than heap insertion history — the property that lets sharded runs
(:mod:`repro.sim.sharded`) reproduce serial runs bit-for-bit.  Unkeyed events
(key 0) keep the classic insertion order among themselves and run first in
their tick.

Engine notes — this loop dominates simulator wall-clock, so it is tuned:

* Heap entries are plain ``(time, key, seq, handle)`` tuples: tuple comparison
  runs at C speed, which benchmarks ~3x faster than ordered dataclass or
  ``__slots__`` entry objects (pooled or not) under heapq churn.
* :meth:`run_until` drains same-tick batches without re-peeking the heap
  top between events of the same tick.
* A run can be ended two ways: a ``stop`` predicate the loop *asks* after
  every event (general; a call per event), or :meth:`Scheduler.halt`,
  which the one callback that knows the run is over *tells* the loop (an
  attribute test per event) — the request driver's way, see
  ``docs/engine.md``.
* The engine's own deliveries and activations do not come through
  :meth:`post_at`: a compiled link (:class:`repro.sim.runtime.Link`) and
  an activation closure push their ``(time, key, seq, callback)`` entry
  themselves, frames less per event.  ``post_at`` stays the definition of
  that push (same tuple, same ``_seq`` counter).
* **Dormant activations** are off the heap altogether.  A process whose
  activation found nothing enabled registers a *catch-up* in
  :attr:`Scheduler.dormant` instead of its next activation; whatever can
  change the process's variables calls the catch-up with the position the
  schedule has reached, and every run calls all pending ones when it
  returns (:meth:`Scheduler.wake_all`) — between runs every process is
  awake, except between a window-sync worker's rounds
  (``keep_dormant``).  The positions, and why the schedule stays the
  eager one, are in ``docs/engine.md`` ("Dormant activations").
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SchedulerError

__all__ = ["EventHandle", "Scheduler"]

#: A position key after every event key of its tick: the position of a
#: run that reached its horizon is ``(max_time, END_OF_TICK)``.
END_OF_TICK = float("inf")


class EventHandle:
    """Handle for a scheduled callback: when it runs and whether it has."""

    __slots__ = ("callback", "time", "fired")

    def __init__(self, callback: Callable[[], None], time: int) -> None:
        self.callback = callback
        self.time = time
        self.fired = False


class Scheduler:
    """A priority-queue driven event loop over integer ticks."""

    __slots__ = ("_now", "_seq", "_queue", "_halt", "current_key", "pops",
                 "dormant")

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        # Raised by a callback (halt()) to end the running run_until.
        self._halt = False
        #: Passive observability counter (repro.obs): cumulative events
        #: executed.  Updated per run_until batch, never per heap
        #: operation, so it costs nothing measurable on the hot loop.
        self.pops = 0
        # Heap of (time, key, seq, item) where item is an EventHandle
        # (from schedule_*) or a bare callback (from post_*).  seq is
        # unique, so comparisons never reach the item.
        self._queue: list[
            tuple[int, int, int, "EventHandle | Callable[[], None]"]
        ] = []
        #: Canonical key of the event currently executing (0 outside events).
        #: The sharded engine's trace merge reads this to give every emitted
        #: trace event a globally sortable position.
        self.current_key = 0
        #: Catch-ups of the dormant processes, by activation key.  A
        #: catch-up ``(time, key)`` accounts for the activations its
        #: process skipped before that schedule position, posts the next
        #: one and removes itself.
        self.dormant: dict[int, Callable[[int, float], None]] = {}

    @property
    def now(self) -> int:
        """Current simulated time."""
        return self._now

    def schedule_at(
        self, time: int, callback: Callable[[], None], key: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute tick ``time``."""
        if time < self._now:
            raise SchedulerError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        handle = EventHandle(callback, time)
        self._seq += 1
        heapq.heappush(self._queue, (time, key, self._seq, handle))
        return handle

    def schedule_in(
        self, delay: int, callback: Callable[[], None], key: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise SchedulerError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, key)

    def post_at(self, time: int, callback: Callable[[], None], key: int = 0) -> None:
        """Fast path: schedule a callback at tick ``time`` with no handle.

        Same ordering semantics as :meth:`schedule_at`, but no
        :class:`EventHandle` is allocated — the engine's own events
        (deliveries, activations, pollers) are fire-and-forget, and the
        handle allocation showed up in profiles.
        """
        if time < self._now:
            raise SchedulerError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        self._seq += 1
        heapq.heappush(self._queue, (time, key, self._seq, callback))

    def post_in(self, delay: int, callback: Callable[[], None], key: int = 0) -> None:
        """Fast path: a callback ``delay`` ticks from now, no handle."""
        if delay < 0:
            raise SchedulerError(f"negative delay {delay}")
        self.post_at(self._now + delay, callback, key)

    def halt(self) -> None:
        """End the running :meth:`run_until` once the current event
        returns — called from inside a callback that knows the run is
        over (the request driver, in the tick that serves its last
        request).  Costs the loop one attribute test per event, where a
        ``stop`` predicate costs a call; outside ``run_until`` (and under
        :meth:`repro.net.clock.PacedClock.drive`) it has no effect."""
        self._halt = True

    def wake_all(self, time: int, key: float) -> None:
        """Catch every dormant process up to the schedule position
        ``(time, key)``.  Each run calls this as it returns, so between
        runs no process is dormant and every counter is exact."""
        for catch_up in list(self.dormant.values()):
            catch_up(time, key)

    def next_time(self) -> int | None:
        """Tick of the earliest queued entry, None when the queue is empty.
        Dormant processes are not queued: until an event wakes them
        their activations execute nothing."""
        queue = self._queue
        return queue[0][0] if queue else None

    def run_until(
        self,
        max_time: int,
        stop: Callable[[], bool] | None = None,
        *,
        keep_dormant: bool = False,
    ) -> int:
        """Run events until ``max_time`` (inclusive), until ``stop()``
        holds, or until a callback calls :meth:`halt`.

        Both are checked after every event.  Returns the number of events
        executed.  Dormant processes are caught up before it returns: to
        the last event run after a halt or stop, else to the end of
        ``max_time``.  A window-sync worker's round passes
        ``keep_dormant``: its processes stay dormant from round to round
        (so a quiet stretch leaves its heap empty) and the worker catches
        them up once, at its final target.
        """
        executed = 0
        self._halt = False
        queue = self._queue
        heappop = heapq.heappop
        halted = False
        key = 0
        while queue:
            tick = queue[0][0]
            if tick > max_time:
                break
            # Drain the same-tick batch without re-peeking between events.
            # New events can land on the current tick mid-batch ((key, seq)
            # order keeps later-keyed ones after the entry being executed),
            # so re-check the top's time instead of pre-counting the batch.
            while queue and queue[0][0] == tick:
                _time, key, _seq, item = heappop(queue)
                self._now = tick
                self.current_key = key
                if item.__class__ is EventHandle:
                    item.fired = True
                    item.callback()
                else:
                    item()
                executed += 1
                if self._halt or (stop is not None and stop()):
                    halted = True
                    break
            if halted:
                break
        self.current_key = 0
        self.pops += executed
        if self.dormant and not keep_dormant:
            if halted:
                self.wake_all(self._now, key)
            else:
                self.wake_all(max_time, END_OF_TICK)
        # Even if nothing (more) ran, time advances to the horizon so that
        # repeated run_until calls observe monotone time.
        if self._now < max_time and (not queue or queue[0][0] > max_time):
            self._now = max_time
        return executed
