"""The asyncio runtime: protocol layers, unmodified, over real transports.

:class:`AsyncSimulator` runs the same build/scramble/drive trial shape as
the serial and window-sync engines, but owns an asyncio event loop for
the trial:

* **one event loop, one scheduler** — every event (an activation, a
  timer, the dispatch of a message) is a synchronous callback popped off
  the engine's scheduler and executed where it is popped; an execution is
  an interleaving of atomic steps, and one thread running callbacks that
  never await already is one (``docs/async.md``, "Why there is no actor
  per process");
* **each channel is a transport** (:mod:`repro.net.transport`) — the
  loopback medium or real localhost sockets carrying the length-prefixed
  wire format of :mod:`repro.net.wire`;
* **one verdict** — the trace is the plain
  :class:`~repro.sim.trace.Trace`; the trial is judged once, after the
  drain, by :func:`repro.analysis.runner.run_trial`, as on every engine.

Protocol layers need no changes: :class:`~repro.sim.process.ProcessHost`
is reused as the adapter between the layers' guarded-action /
``on_message`` / timer API and the engine — the host's sends, timers and
busy windows land on the engine exactly as they do on the serial
simulator, and the engine turns them into transport traffic and clock
events.

The medium itself comes from the transport registry
(:mod:`repro.net.transport`): the engine reads the resolved
:class:`~repro.net.transport.TransportKind`'s declared flags — never a
transport name — to pick its clock, build per-channel transports and
start/stop the trial-scoped fabric.  Under an unpaced medium
(``loopback``) the scheduler is the serial
:class:`~repro.sim.scheduler.Scheduler` itself and serve and drain are
``run_until``: the engine inherits the serial engine's entire decision
surface — per-entity RNG streams, canonical event keys, sender-owned
channel accounting (:mod:`repro.sim.determinism`) — *and* its loop, so a
loopback run is **bit-identical** to ``engine=serial`` for the same seed
(asserted by ``tests/test_net.py`` and the ``async-equivalence`` CI
gate).  On a wall-clock-paced medium (``tcp``, ``udp``) a
:class:`~repro.net.clock.PacedClock` runs the same events against wall
time, a frame is dispatched where it lands, timing is best-effort —
socket scheduling is not reproducible — and the specification check of
the trace the run did produce is the correctness claim.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Callable, Coroutine, Sequence

from repro.core.requests import RequestDriver
from repro.engine.base import EngineRun
from repro.errors import SimulationError
from repro.net.clock import PacedClock
from repro.net.transport import Transport, resolve_transport
from repro.sim.adversary import scramble_system
from repro.sim.channel import ChannelBase
from repro.sim.runtime import BuildFn, Simulator
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.plan import FaultPlan

__all__ = ["AsyncSimulator"]

#: Default wall-clock tick length for the paced transports: 1 ms, so the
#: default (1, 3)-tick latency band emulates a 1-3 ms link — an order of
#: magnitude above localhost socket jitter, keeping tick timestamps meaningful.
DEFAULT_TICK_SECONDS = 0.001


class AsyncSimulator(Simulator):
    """Asyncio-driven runtime behind the ``engine=async`` axis.

    Constructor arguments mirror :class:`~repro.sim.runtime.Simulator`;
    ``transport`` names a registered channel medium
    (:func:`~repro.net.transport.transport_names`) and ``tick`` the
    wall-clock tick length for the paced media.
    """

    def __init__(
        self,
        pids: Sequence[int] | int | None = None,
        build: BuildFn = lambda host: None,
        *,
        transport: str = "loopback",
        tick: float = DEFAULT_TICK_SECONDS,
        fault_plan: "FaultPlan | str | None" = None,
        **sim_kwargs: Any,
    ) -> None:
        self._kind = resolve_transport(transport)
        for reserved in ("auto", "hosts_for"):
            if reserved in sim_kwargs:
                raise SimulationError(
                    f"{reserved!r} is not configurable on the async engine"
                )
        self.transport = transport
        self.tick = tick
        # Read by _make_scheduler during super().__init__.
        self._transports: dict[tuple[int, int], Transport] = {}
        self._net_errors: list[BaseException] = []
        self._tasks: set[asyncio.Task] = set()
        self._fabric: Any | None = None
        self._fabric_obs: dict[str, int] = {}
        self._consumed = False
        # Chaos fault injection (repro.chaos): only pid-keyed ship faults
        # apply here — they rewrite MESSAGE frames at the frame boundary of
        # a framed transport.  Crash/cut/stall faults need the cluster
        # runtime.
        if isinstance(fault_plan, str):
            # The parser is imported by the trials that hand over plan
            # text, not by every async trial.
            from repro.chaos.plan import FaultPlan

            fault_plan = FaultPlan.parse(fault_plan)
        if fault_plan is not None:
            fault_plan.validate_for_async(transport)
        self._plan = fault_plan
        self._faults_active = bool(fault_plan)
        self._ship_faults: list[dict[str, Any]] = [
            {"action": f.action, "src": f.src, "dst": f.dst, "left": f.count}
            for f in (fault_plan.ship_faults() if fault_plan else [])
        ]
        self.fault_counts: dict[str, int] = {}
        super().__init__(pids, build, **sim_kwargs)

    # -- engine extension points (see Simulator) ---------------------------

    def _make_scheduler(self) -> Scheduler:
        if self._kind.paced:
            return PacedClock(self.tick)
        return Scheduler()

    # -- transport plumbing ------------------------------------------------

    def _transport_for(self, channel: ChannelBase) -> Transport:
        pair = (channel.src, channel.dst)
        transport = self._transports.get(pair)
        if transport is None:
            transport = self._kind.channel_factory(self, channel)
            self._transports[pair] = transport
        return transport

    def _admitted_step(self, channel: ChannelBase):
        # An admitted entry travels the channel's medium: the link hands
        # it straight to the transport, which owns the latency draw (every
        # medium reads the rule from Simulator.draw_delivery_time).
        return self._transport_for(channel).send

    def _schedule_delivery(self, channel: ChannelBase, entry) -> None:
        self._transport_for(channel).send(entry)

    def require_fabric(self) -> Any:
        """The trial-scoped medium (sockets/endpoints); channel factories
        of fabric-backed transports call this at first send."""
        if self._fabric is None:
            raise SimulationError(
                f"{self.transport} transport used outside run_trial "
                "(no socket fabric)"
            )
        return self._fabric

    def _spawn(self, coro: Coroutine, *, name: str) -> asyncio.Task:
        """Track a transport I/O task; its failure fails the trial."""
        task = asyncio.get_running_loop().create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._task_done)
        return task

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self._net_errors.append(exc)

    def _net_error(self, exc: BaseException) -> None:
        self._net_errors.append(exc)

    # -- chaos fault injection (repro.chaos) -------------------------------

    def _count_fault(self, name: str) -> None:
        self.fault_counts[name] = self.fault_counts.get(name, 0) + 1

    def _socket_arrival(self, src: int, dst: int, msg, entry_seq: int) -> None:
        """A frame arrived for ``dst``: dispatch it where it lands.  The
        caller is fabric I/O, not the trial, so a failure goes to the
        error sink the drive loop's stop predicate watches."""
        self.scheduler.touch()  # arrival timestamps/busy checks read wall time
        try:
            self._dispatch_arrival(src, dst, msg, entry_seq)
        except Exception as exc:  # noqa: BLE001 - reported through the sink
            self._net_error(exc)

    def _raise_net_errors(self) -> None:
        if self._net_errors:
            first = self._net_errors[0]
            raise SimulationError(
                f"{len(self._net_errors)} transport failure(s); first: "
                f"{type(first).__name__}: {first}"
            ) from first

    # -- the trial loop ----------------------------------------------------

    def run_trial(
        self,
        *,
        horizon: int,
        scramble_seed: int | None = None,
        fill_channels: bool = True,
        driver: dict[str, Any] | None = None,
        drain: int = 200,
    ) -> EngineRun:
        """Scramble, serve the request driver, drain — on the event loop.

        Matches the serial trial shape tick for tick: run until the driver
        is done (or ``horizon``), then run ``drain`` more ticks.  Must be
        called from synchronous code (it owns the event loop for the run).

        Single-use: teardown closes the transports (and, over tcp, the
        socket fabric), so a second call on the same engine would send
        into dead channels — build a fresh engine per trial.
        """
        if self._consumed:
            raise SimulationError(
                "AsyncSimulator.run_trial is single-use (transports are torn "
                "down at trial end); build a new engine per trial"
            )
        self._consumed = True
        return asyncio.run(
            self._run_trial(horizon, scramble_seed, fill_channels, driver, drain)
        )

    async def _advance(
        self, max_time: int, stop: Callable[[], bool] | None = None
    ) -> None:
        """Run the clock to ``max_time`` or until ``stop()``, then surface
        transport failures.  An unpaced medium has nothing to await: it
        is ``Scheduler.run_until`` (stop asked up front, as
        ``Simulator.run`` does), the loop of the serial engine."""
        if self._kind.paced:
            await self.scheduler.drive(max_time, stop)
        elif stop is None or not stop():
            self.scheduler.run_until(max_time, stop)
        self._raise_net_errors()

    async def _run_trial(
        self,
        horizon: int,
        scramble_seed: int | None,
        fill_channels: bool,
        driver: dict[str, Any] | None,
        drain: int,
    ) -> EngineRun:
        try:
            if self._kind.fabric_factory is not None:
                self._fabric = self._kind.fabric_factory(self)
                await self._fabric.start()
            if self._kind.paced:
                self.scheduler.start()  # tick 0 excludes fabric setup
            if scramble_seed is not None:
                scramble_system(self, scramble_seed, fill_channels=fill_channels)
            drv = RequestDriver(self, **driver) if driver is not None else None
            # The stop predicate also watches the transport error sink, so a
            # dead pump/writer fails the trial at the next event instead of
            # silently idling out the (wall-clock-paced, over tcp) horizon.
            # Loopback never populates the sink mid-run, so the extra term
            # cannot perturb bit-identity with the serial engine.
            errors = self._net_errors
            if drv is not None:
                stop = lambda: drv.done or bool(errors)  # noqa: E731
            else:
                stop = lambda: bool(errors)  # noqa: E731
            await self._advance(horizon, stop)
            completed = drv is not None and drv.done
            await self._advance(self.now + drain)
            tag = driver["tag"] if driver is not None else None
            return EngineRun(
                trace=self.trace,
                stats=self.stats,
                finals=(
                    {pid: self.layer(pid, tag).request for pid in self.pids}
                    if tag is not None else {}
                ),
                completions=drv.completed() if drv is not None else [],
                completed=completed,
                final_time=self.now,
                topology=self.topology,
                pids=self.pids,
                engine="async",
                transport=self.transport,
                fault_counts=(
                    None if self._plan is None else dict(self.fault_counts)
                ),
            )
        finally:
            await self._teardown()

    def collect_obs(self, metrics) -> None:
        """Serial-engine counters plus the async engine's own: injected
        faults and per-transport traffic (see :mod:`repro.obs`)."""
        super().collect_obs(metrics)
        for name, value in sorted(self.fault_counts.items()):
            metrics.inc(name, value)
        frames = sum(
            transport.frames_sent for transport in self._transports.values()
        )
        metrics.inc("transport.channel_frames", frames)
        for name, value in sorted(self._fabric_obs.items()):
            metrics.inc(name, value)

    def close(self) -> None:
        """The serial engine's cuts (:meth:`Simulator.close`), plus the
        transports and the transport failures: every transport points
        back at this engine, and so does a failure's traceback."""
        super().close()
        self._transports.clear()
        self._net_errors.clear()

    async def _teardown(self) -> None:
        for transport in self._transports.values():
            transport.close()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._fabric is not None:
            # Harvest the medium's own counters before the sockets go away
            # (collect_obs runs after run_trial, when the fabric is gone).
            stats = getattr(self._fabric, "obs_stats", None)
            if stats is not None:
                self._fabric_obs = stats()
            await self._fabric.close()
            self._fabric = None
