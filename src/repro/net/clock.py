"""The wall clock of the asyncio runtime (:mod:`repro.net.engine`).

An unpaced medium (``loopback``) needs no clock of its own: the engine
runs the serial :class:`~repro.sim.scheduler.Scheduler` and a trial's
serve and drain are ``run_until`` — virtual time, the serial order, which
is what makes a loopback run bit-identical to ``engine=serial`` for the
same seed.

:class:`PacedClock` is that scheduler paced against wall time, for real
transports.  It keeps the event-queue discipline — a heap of ``(time,
key, seq, item)`` with canonical content-derived keys
(:mod:`repro.sim.determinism`) — and executes each due event inline, but
a tick lasts ``tick_seconds``: an event scheduled for tick ``T`` fires no
earlier than ``T * tick_seconds`` after :meth:`PacedClock.start`, and
between events the ``drive`` coroutine yields to the transport I/O
tasks.  Time read off the clock is the wall tick, so trace timestamps
approximate real elapsed time (and are *not* reproducible — the
specification check of the trace, not the timeline, carries the
correctness claim over real transports).
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Callable

from repro.sim.scheduler import END_OF_TICK, EventHandle, Scheduler

__all__ = ["PacedClock"]


class PacedClock(Scheduler):
    """Wall-clock-paced event queue for real (socket) transports.

    Scheduling in the past cannot raise here: real transports hand events
    to the clock from I/O tasks that may observe a wall tick slightly ahead
    of the event's nominal time (e.g. a parked dispatch whose busy window
    expired while a frame was in the socket buffer), so ``post_at`` /
    ``schedule_at`` clamp to the current tick instead.
    """

    def __init__(self, tick_seconds: float) -> None:
        super().__init__()
        if tick_seconds <= 0:
            raise ValueError(f"tick_seconds must be > 0, got {tick_seconds}")
        self.tick_seconds = tick_seconds
        self._t0: float | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    def start(self) -> None:
        """Anchor tick 0 at the current wall time (idempotent)."""
        if self._t0 is None:
            self._loop = asyncio.get_running_loop()
            self._t0 = self._loop.time()

    def wall_tick(self) -> int:
        """Elapsed wall time since :meth:`start`, in ticks."""
        if self._t0 is None or self._loop is None:
            return 0
        return int((self._loop.time() - self._t0) / self.tick_seconds)

    def touch(self) -> None:
        """Pull ``_now`` up to the wall tick.

        The drive loop does this once per iteration, but transport I/O
        (frame arrivals, sends issued while the loop is busy) must also
        see current time: latency draws are anchored at ``_now``, so a
        stale clock would propose delivery ticks already in the past and
        collapse the emulated link latency to zero — turning protocol
        request/reply cycles into an unthrottled message storm.
        """
        wall = self.wall_tick()
        if wall > self._now:
            self._now = wall

    # Best-effort clamping (see class docstring).
    def post_at(self, time: int, callback, key: int = 0) -> None:
        super().post_at(max(time, self._now), callback, key)

    def schedule_at(self, time: int, callback, key: int = 0) -> EventHandle:
        return super().schedule_at(max(time, self._now), callback, key)

    async def drive(
        self,
        max_time: int,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        """Run due events, paced by the wall clock, until ``max_time`` ticks
        (or until ``stop()`` holds).

        An event scheduled for tick ``T`` executes once the wall tick has
        reached ``T``; between due events the coroutine sleeps, letting
        transport I/O tasks run.  The stop predicate is polled every
        iteration.  ``_now`` tracks the wall tick (monotonically), so
        ``host.busy`` windows and trace timestamps read elapsed real time.
        Dormant processes are caught up before it returns, as
        :meth:`~repro.sim.scheduler.Scheduler.run_until` does: to the last
        event run on a stop, to the end of ``max_time`` on the horizon.
        """
        self.start()
        queue = self._queue
        heappop = heapq.heappop
        last = (self._now, 0)
        while True:
            wall = self.wall_tick()
            if wall > self._now:
                self._now = wall
            if stop is not None and stop():
                if self.dormant:
                    self.wake_all(*last)
                return
            # Due-ness is capped at max_time: if the wall clock overtook the
            # horizon (scheduling stall, loaded runner), events scheduled
            # past the budget must stay queued for the next drive call, not
            # ride the overshoot into this one.
            limit = wall if wall < max_time else max_time
            due = bool(queue) and queue[0][0] <= limit
            if due:
                tick, key, _seq, item = heappop(queue)
                if item.__class__ is EventHandle:
                    if item.cancelled:
                        self._cancelled -= 1
                        continue
                    item.fired = True
                    item = item.callback
                if tick > self._now:
                    self._now = tick
                self.current_key = key
                item()
                self.current_key = 0
                self.pops += 1
                last = (self._now, key)
                # Yield so transport I/O interleaves even under bursts.
                await asyncio.sleep(0)
                continue
            if wall >= max_time:
                if self.dormant:
                    self.wake_all(max_time, END_OF_TICK)
                if self._now < max_time:
                    self._now = max_time
                return
            # Nothing due: sleep to the next event (capped at one tick so
            # the stop predicate and freshly shipped frames stay responsive).
            horizon = queue[0][0] if queue else max_time
            delay = min(max(horizon - wall, 0), 1) or 1
            await asyncio.sleep(delay * self.tick_seconds)
