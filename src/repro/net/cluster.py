"""The window-sync runtime: per-shard worker interpreters behind the wire format.

:class:`ClusterSimulator` runs one trial across OS processes (or, with
hand-launched workers, machines): the topology is partitioned into shards
(:mod:`repro.sim.partition` — Weighted-aware boundaries, cross-shard
latency floors), and each shard runs inside its own *worker interpreter*
hosting a plain :class:`~repro.sim.runtime.Simulator` slice
(``hosts_for=shard_pids``).  Intra-shard channels are the serial engine's
own; cross-shard sends fall through the engine's sender-owned accounting
into the cross-shard outbox and travel — a peer link's whole round to a
``SHIP`` frame (:mod:`repro.net.wire`) — over real sockets, directly
worker-to-worker.
This is the only implementation of the conservative time-window protocol:
``engine=sharded`` and ``engine=cluster`` are two registrations of it
(:mod:`repro.engine.backends.cluster`).

Worker interpreters **outlive the trial**.  A trial *leases* shard slots
``0..n_shards-1`` from one process-wide pool
(:class:`repro.net.coordinator._WorkerPool`): a
live idle worker is reused, only the shortfall is spawned, and the pool
is closed at interpreter exit (or by
:func:`repro.net.coordinator.close_pool`) — so a seed
sweep, a matrix or a gate's case table boots ``max hosts`` interpreters,
not ``hosts`` per trial.  A worker registers once with the rendezvous
service of :mod:`repro.net.registry` (``(shard_id, host, port)``; that
connection is the coordinator's control channel for as long as the
worker lives) and then serves ``spec`` after ``spec``; the peer map of a
trial rides in its spec, and each worker dials its peer shards per trial
(HELLO identifies the source shard), closing those links and
acknowledging ``idle`` before it may be handed the next one.  There is
no switch: a one-trial process is a pool used once.  The reuse boundary
is a trial that *returned* — one that raised discards every worker it
leased — and a shard whose fault plan carries a crash token is always
spawned fresh (a crash's replacement joins the pool).

Rounds are *granted*, not driven (:mod:`repro.net.grant`).  Every worker
runs the same round sequence on its own — ``t + window``, or past the
quiet ticks ahead when the round's barriers show nothing happening
anywhere before some tick ``G`` (``G + window - 1``; every shard peering
with every other), capped at the horizon, then at the final
target — and the coordinator only bounds how far: a CONTROL ``("grant",
limit, final)`` lets a worker run every target ``<= limit``.  Workers
report ``(round, t, done_at, compute_s)`` sparsely
(when their driver first goes idle, when they reach ``limit``, and every
``drain // (4 * window)`` rounds); a shard still busy at tick ``t`` proves
the trial completes after ``t``, so the coordinator extends ``limit`` to
the slowest busy report plus ``drain``, and sends the final grant
``max(done_at) + drain`` once every shard has reported done.  The credit
is the engine's version of the paper's bounded channel: a bound on what
may be in flight, instead of a round-trip per step.  The control ops are
``spec/ready/grant/report/resend/result/stop/exit`` (plus a worker's
``nak``, ``idle`` and ``error``).

One synchronization protocol runs that loop: the conservative
time-window protocol, peer to peer.  Windows are at most
:attr:`Partition.latency_floor` ticks; a worker finishes its round,
ships its outbox, then sends a ``BARRIER(round, ship_count,
next_event)`` frame on every peer link (one write per link per round).
Per-connection FIFO means a barrier certifies the link's SHIP frame of
that round was already delivered, and the window bound means every
shipped delivery time lies strictly beyond the next window — so a worker
that has seen round ``r-1`` barriers from all peers can run round ``r``
with its event heap complete, without asking anyone.  ``next_event`` is
the earliest tick anything can still happen on the sender (its heap, its
ships in flight): the minimum over every shard is the bound a round
jumps by.  The run is therefore **bit-identical to the serial engine**
(same trace, same canonical hash), which the ``engine-equivalence`` CI
gate asserts; only the round count depends on the jumps, and it is a
function of the seed too.  A nondeterministic run over a real network
is the async engine's ``tcp``/``udp`` transports, judged by the same
runner pass.

Fault injection and crash recovery (``docs/robustness.md``):

* A :class:`~repro.chaos.FaultPlan` threads deterministic runtime faults
  through the runtime: worker crashes (``os._exit`` at a named lifecycle
  point, delivered via spawn argv so ``at rendezvous`` works), link cuts
  (sender-side in-order withholding, healed on wall time — pure delay,
  so virtual time is untouched), ship drop/duplicate/corrupt where a
  link's round is framed, and post-round stalls.
* The coordinator *detects* worker death by polling each spawned worker's
  ``Popen`` between the selects of every control-channel wait (and
  treating control EOF the same way), raising :class:`~repro.errors.WorkerCrashed` with
  the shard id, round, exit code and a stderr tail within
  a quarter second of the death instead of waiting out the worker
  timeout.
* With coordinator-spawned workers, a crash is
  *survivable*, the way the paper's protocols survive one: not by
  repairing the half-finished computation but by starting it again.
  Once every survivor adjacent to the dead shard is parked (blocked on
  the lost peer, out of credit, or finished — which names the round the
  dead worker died in), the coordinator stops every survivor exactly as
  at the end of a trial (``stop`` → ``idle``; a worker serves its
  control channel beside the round loop, so it answers from inside a
  barrier wait), respawns the dead slot without its crash fault and
  ships the spec to every slot again.  A trial is a pure function of
  ``(seed, spec)``, so the re-run's canonical trace hash equals the
  serial engine's like any other run's; only the attempt that finished
  is counted and merged.
* Dropped/corrupted ships are healed without a re-run: the per-round
  ship count in each BARRIER lets a receiver detect the gap, NAK it over
  CONTROL, and have the sender re-ship that round from its per-peer,
  per-round log — at once, even while the sender's round loop waits on a
  barrier.  Receivers dedup ships by ``(src, dst, entry_seq)`` (channel
  admission seqs are monotone per channel, so the key is unique), which
  absorbs whatever of a re-shipped round did arrive.

The two halves of the keyed-trace algorithm — workers record a globally
sortable position per emission, the coordinator merges by it — live in
:mod:`repro.sim.sharded`.

Worker interpreters cannot inherit closures, so trials are described by
picklable *specs*: a protocol spec (``{"kind": "pif", ...}`` —
:func:`repro.core.protocols.build_protocol`) and a driver config whose
payload is a format string (``payload_fmt="msg-{pid}-{k}"``) rather than
a callable.

This module is what ``prepare`` needs — the trial's description and its
validation, no sockets.  The pool and the coordinator
(:mod:`repro.net.coordinator`: subprocesses, the registry, one
``selectors`` loop) are loaded by the first
:meth:`ClusterSimulator.run_trial`; the worker interpreter they launch is
:mod:`repro.net.cluster_worker`, which imports neither.  No process of
this runtime imports asyncio.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.core.protocols import protocol_of
from repro.errors import SimulationError, SpecError
from repro.sim.channel import LossModel
from repro.sim.partition import partition_topology
from repro.sim.sharded import _SHARDABLE_LOSS
from repro.sim.topology import Topology, topology_from_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.plan import FaultPlan
    from repro.engine.base import EngineRun
    from repro.obs.recorder import ObsRecorder

__all__ = ["ClusterSimulator"]


def _worker_driver_cfg(driver: dict[str, Any] | None) -> dict[str, Any] | None:
    """Validate a driver config for shipping to worker interpreters."""
    if driver is None:
        return None
    cfg = dict(driver)
    if callable(cfg.get("payload")):
        raise SimulationError(
            "payload callables cannot be shipped to worker interpreters; "
            "pass payload_fmt='msg-{pid}-{k}' instead"
        )
    for key, value in cfg.items():
        if callable(value):
            raise SimulationError(
                f"driver option {key!r} is a callable; worker interpreters "
                "need a picklable driver config"
            )
    return cfg


class ClusterSimulator:
    """Coordinate one trial across per-shard worker interpreters.

    Constructor arguments mirror :class:`~repro.sim.runtime.Simulator`
    where they are meaningful across shards; ``protocol`` is a picklable
    protocol spec (see :data:`repro.core.protocols.PROTOCOLS`) instead of a
    build closure, ``hosts`` fixes the worker count (default: one per
    arbitration-cluster group) and ``window`` the synchronization window
    (default and maximum: the partition's cross-shard
    latency floor, :attr:`lookahead` — the global latency lower bound on
    unweighted topologies).  With ``listen="host:port"`` the
    coordinator binds its registry there and waits for hand-launched
    ``repro cluster-worker`` processes instead of leasing localhost
    workers from the pool; they are told to ``exit`` when the trial ends.

    ``fault_plan`` (a :class:`~repro.chaos.FaultPlan` or its DSL text)
    injects deterministic runtime faults; ``recover`` enables the
    respawn-and-re-run path for crash faults (two per trial).
    """

    def __init__(
        self,
        pids: Sequence[int] | int | None = None,
        protocol: dict[str, Any] | None = None,
        *,
        topology: Topology | str | None = None,
        seed: int = 0,
        hosts: int | None = None,
        window: int | None = None,
        capacity: int = 1,
        latency: tuple[int, int] = (1, 3),
        loss: LossModel | None = None,
        listen: str | None = None,
        worker_timeout: float = 120.0,
        fault_plan: FaultPlan | str | None = None,
        recover: bool = True,
    ) -> None:
        if protocol is None:
            raise SimulationError(
                "worker interpreters need a picklable protocol spec "
                "(e.g. {'kind': 'pif'}); build closures cannot cross "
                "interpreter boundaries"
            )
        # Validate early, coordinator-side, by name: building it would
        # load the layer, which only a worker runs.
        protocol_of(protocol)
        if isinstance(pids, int):
            pids = list(range(1, pids + 1))
        if topology is None:
            if pids is None:
                raise SimulationError("need a process count, pid list, or topology")
            from repro.sim.topology import Complete

            topology = Complete(pids)
        elif isinstance(topology, str):
            if pids is None:
                raise SimulationError(
                    f"topology spec {topology!r} needs an explicit process count"
                )
            topology = topology_from_spec(topology, len(pids), seed=seed)
        if loss is not None and not isinstance(loss, _SHARDABLE_LOSS):
            raise SimulationError(
                f"loss model {type(loss).__name__} keeps cross-channel state; "
                "shards compose only under NoLoss/BernoulliLoss"
            )
        lo, hi = latency
        if not 1 <= lo <= hi:
            raise SimulationError(
                f"latency bounds must satisfy 1 <= lo <= hi, got {latency}"
            )
        self.topology = topology
        self.protocol = dict(protocol)
        self.partition = partition_topology(topology, hosts)
        #: The conservative lookahead: the minimum latency lower bound
        #: over cross-shard edges (== the global ``lo`` when the topology
        #: is unweighted or the partition has no cut).
        self.lookahead = self.partition.latency_floor(lo)
        if window is None:
            window = self.lookahead
        if not 1 <= window <= self.lookahead:
            detail = (
                "the latency lower bound"
                if self.lookahead == lo
                else f"the cross-shard latency floor; global lower bound {lo}"
            )
            raise SpecError(
                f"window must be in 1..{self.lookahead} ({detail} — the "
                f"engine's conservative lookahead), got {window}",
                field="window",
            )
        self.window = window
        self.seed = seed
        self.listen = listen
        self.worker_timeout = worker_timeout
        if isinstance(fault_plan, str):
            from repro.chaos.plan import FaultPlan

            fault_plan = FaultPlan.parse(fault_plan)
        if fault_plan is not None:
            fault_plan.validate_for_cluster(
                self.partition.n_shards,
                self.topology.pids,
                spawned=listen is None,
            )
        self._plan = fault_plan
        self.recover = recover
        self._sim_kwargs = dict(
            seed=seed, capacity=capacity, latency=latency, loss=loss
        )

    @property
    def pids(self) -> tuple[int, ...]:
        return self.topology.pids

    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    def run_trial(
        self,
        *,
        horizon: int,
        scramble_seed: int | None = None,
        fill_channels: bool = True,
        driver: dict[str, Any] | None = None,
        drain: int = 200,
        obs: ObsRecorder | None = None,
    ) -> EngineRun:
        """Lease the workers, then scramble/serve/drain across shards.

        Same trial shape as every other engine; ``drain`` must be >= the
        window (completion is detected at a round boundary, which can
        overshoot the completion tick by up to one window).  With ``obs``,
        workers record their own metrics and spans and ship them back in
        the RESULT control frame, where they merge into the coordinator's
        recorder — one timeline across every interpreter in the trial,
        with fault injections and recoveries on a dedicated chaos lane.
        """
        if drain < self.window:
            raise SimulationError(
                f"drain ({drain}) must be >= window ({self.window})"
            )
        spec = {
            "topology": self.topology,
            "shards": self.partition.shards,
            "protocol": self.protocol,
            "window": self.window,
            "horizon": horizon,
            "drain": drain,
            "scramble_seed": scramble_seed,
            "fill_channels": fill_channels,
            "driver": _worker_driver_cfg(driver),
            "timeout": self.worker_timeout,
            "obs": obs is not None,
            **self._sim_kwargs,
        }
        # The pool, the coordinator and what they import (subprocess,
        # sockets, the registry) are first touched here, never in
        # ``prepare``.
        from repro.net.coordinator import run_trial

        return run_trial(self, spec, obs)

    def close(self) -> None:
        """Nothing to cut: the coordinator and the shards' engines live
        only inside :meth:`run_trial`, and each frees its own (a worker
        closes its shard's :class:`~repro.sim.runtime.Simulator`)."""
