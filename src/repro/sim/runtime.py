"""The simulator runtime.

:class:`Simulator` ties together the scheduler, the network, and the
processes.  It implements the paper's asynchronous message-passing semantics:

* **Weakly fair activations** — every process is activated infinitely often
  (every ``activation_period`` ticks plus a drawn jitter of 0 or 1);
  an activation atomically executes all enabled guarded actions.  After
  one that executed nothing the process is *dormant*: its activations are
  no-ops until an event changes its variables, so they are counted and
  drawn when that event wakes it (or a run returns) instead of being
  popped one by one — the same stream, keys and ``stats.activations``
  (:meth:`Simulator._make_activation`).
* **Asynchronous, lossy, FIFO channels** — a sent message suffers a random
  latency; it can be lost by the loss model or by arriving at a full channel
  slot (Section 4 semantics); per-tag FIFO order is preserved.
* **Atomicity** — while a process is *busy* (executing a durational critical
  section, i.e. a long atomic action) neither activations nor message
  dispatches happen at it.  An arriving message leaves its channel slot at
  the scheduled delivery time and waits *at the host*; the dispatch retries
  when the process frees up.  The channel's capacity bound therefore
  applies to messages *in the channel* (sender-owned accounting — the
  invariant that lets a shard admit without asking the receiver's shard);
  quiescence checks count parked arrivals via :meth:`Simulator.in_transit`.

Determinism (see :mod:`repro.sim.determinism`): every random draw comes from
a per-process stream (activation stagger/jitter; the sender's loss,
corruption and latency draws for all its out-channels) and every engine
event carries a canonical content-derived scheduler key.  Runs are
therefore reproducible for a given seed *and* independent of how events of
unrelated processes interleave — the property the window-sync runtime
(:mod:`repro.net.cluster`) relies on to be bit-identical with serial
execution.

Two driving styles:

* ``auto=True`` (default): activations are self-scheduling; :meth:`run`
  advances time until a horizon or a predicate holds.
* ``auto=False``: *manual mode* for the Theorem 1 replay engine — the caller
  explicitly activates processes and delivers specific messages.

Sharding hooks: ``hosts_for`` restricts which pids this engine *hosts* (the
full topology stays visible for channel numbering).  Sends to a non-hosted
pid release their channel slot at the scheduled delivery time and append to
:attr:`cross_outbox`; the shard's worker ships its outbox at time-window
barriers and peers re-inject it via :meth:`schedule_remote_arrival`.

The hot path — one compiled link per directed channel.  A dense trial is
hundreds of thousands of sends through one admission rule, and its profile
is flat: no layer dominates, what costs is call *depth*.  So a send is two
methods of one object per channel (the link built at the channel's first
use by :meth:`Simulator.link`): :meth:`Link.claim` decides its fate from
the tag alone — stats, loss draw, capacity check — and :meth:`Link.put`
admits the message — entry, latency draw + FIFO clamp, heap push.  A
send's fate is one frame, its admission a second, and a lost send builds
nothing: Protocol PIF, whose resends to every laggard lose ~45 % of a
dense trial's sends to a full slot, builds its message only after a claim
(:meth:`PifLayer._send_to <repro.core.pif.PifLayer._send_to>`); every
other sender calls :meth:`Link.send`, the two in a row, through
:meth:`ProcessHost.send <repro.sim.process.ProcessHost.send>`.  A
delivery is two frames: :meth:`Simulator._deliver` frees the slot, counts
the delivery and calls the consuming layer's ``on_message`` itself (a busy
receiver and delivery hooks take the general :meth:`_dispatch_arrival`).
The step-by-step spelling of the same rules stays public —
``BoundedChannel.try_admit``, :meth:`Simulator.draw_delivery_time`,
``Scheduler.post_at``, ``ProcessHost.dispatch`` — for ``inject``,
``step_deliver``, the transports of :mod:`repro.net` and the property test
that holds the link's inlined copy to them
(``tests/test_link_equivalence.py``).
"""

from __future__ import annotations

import random
from functools import cached_property, partial
from heapq import heappush
from typing import Callable, Sequence

from repro.errors import SimulationError
from repro.sim.channel import (
    ChannelBase,
    LossModel,
    NoLoss,
    TaggedMessage,
    UnboundedChannel,
    _Entry,
)
from repro.sim.determinism import (
    activation_key,
    bound_randint,
    delivery_key,
    derive_seed,
)
from repro.sim.network import Network
from repro.sim.process import ProcessHost
from repro.sim.scheduler import Scheduler
from repro.sim.stats import SimStats
from repro.sim.topology import Topology, topology_from_spec
from repro.sim.trace import EventKind, Trace

__all__ = ["Simulator", "CrossShardSend"]

BuildFn = Callable[[ProcessHost], None]

#: An activation's successor comes ``activation_period + randint(0,
#: _JITTER)`` ticks after it, so processes do not run in lockstep.
_JITTER = 1

#: One cross-shard message: (src, dst, msg, delivery_time, channel entry seq).
CrossShardSend = tuple[int, int, TaggedMessage, int, int]


class Link:
    """One directed channel, compiled: everything a send on it touches,
    bound once; a send's fate as one frame, its admission as a second.

    Built by :meth:`Simulator.link` at the channel's first use from the
    channel (occupancy dict, capacity), its random stream, the latency
    bounds and bit width the draw needs, the delivery-key base
    ``delivery_key(dst, src, 0)`` — entry seqs stay within the key's low
    bits, so ``key_base + seq`` is the packed key —, whether the
    destination is hosted by this engine, and the engine constants a send
    would otherwise re-read every time.  A slotted object, not a closure:
    the attribute reads cost what cell reads cost, and a link weighs what
    the cache tuple it replaced weighed (``docs/perf.md``).

    A send is :meth:`claim` then, if it said yes, :meth:`put` (:meth:`send`
    is the two in a row).  Together they perform every check of the
    step-by-step path in the same order — count, loss draw, capacity check (:meth:`ChannelBase.try_admit`'s, inlined),
    then admission and the engine's own step for an admitted entry
    (:meth:`Simulator._admitted_step`): on this engine the delivery-time
    rule (:meth:`Simulator.draw_delivery_time`, with the latency draw of
    :func:`~repro.sim.determinism.bound_randint`, inlined) and the heap
    push (``Scheduler.post_at``, inlined; its past-time check cannot fire,
    latency lower bounds are >= 1) — so stream consumption,
    :class:`SimStats`, entry seqs, canonical keys and trace rows are
    bit-identical to it.  Nothing runs between a claim and its put, so the
    capacity the claim checked is the capacity the put fills.  Under a
    corruption model the corruption draw comes first, and the link is a
    :class:`CorruptingLink`.
    """

    __slots__ = (
        # The channel's own.
        "channel", "draw", "key_base", "hosted",
        "_rng", "_getrandbits", "_lo", "_width", "_bits",
        "_cap", "_occupancy", "_forward", "_on_arrival",
        # The engine's, the same objects on every link of it.
        "_sim", "_stats", "_sent_by_tag", "_scheduler", "_queue",
        "_should_drop",
    )

    def __init__(self, sim: "Simulator", src: int, dst: int) -> None:
        channel = sim.network.channel(src, dst)
        self.channel = channel
        rng = self._rng = sim.send_rng(src)
        lo, hi = sim.latency_for(src, dst)
        # The step-by-step draw (_schedule_delivery) and put's inlined copy
        # of it: randint(lo, hi)'s rejection sampling over getrandbits.
        self.draw = bound_randint(rng, lo, hi)
        self._getrandbits = rng.getrandbits
        self._lo = lo
        self._width = width = hi - lo + 1
        self._bits = width.bit_length()
        self.key_base = delivery_key(dst, src, 0)
        self.hosted = dst in sim.hosts
        self._cap = channel.capacity
        self._occupancy = channel._occupancy
        self._forward = sim._admitted_step(channel)
        # A hosted destination gets the delivery; for a cross-shard send
        # this engine owns only the slot accounting (the slot frees at the
        # scheduled delivery time, exactly as it would under serial
        # execution) and the message is handed to the destination shard at
        # the barrier.
        self._on_arrival = sim._deliver if self.hosted else sim._release_slot
        self._sim = sim
        self._stats = sim.stats
        self._sent_by_tag = sim.stats.sent_by_tag
        self._scheduler = sim.scheduler
        self._queue = sim.scheduler._queue
        # NoLoss draws no randomness, so skipping the call outright is
        # behaviour-preserving and saves a method call per send.
        self._should_drop = (
            None if type(sim.loss) is NoLoss else sim.loss.should_drop
        )

    def send(self, msg: TaggedMessage) -> bool:
        """Send ``msg`` down the channel; returns True if admitted."""
        return self.claim(msg.tag) and self.put(msg)

    def claim(self, tag: str) -> bool:
        """Everything a send of a ``tag`` message does before admission:
        count, loss draw, capacity check.  True:
        the message will be admitted — :meth:`put` it next."""
        stats = self._stats
        stats.sent += 1
        self._sent_by_tag[tag] += 1
        if self._should_drop is not None and self._should_drop(self._rng, tag):
            stats.dropped_loss += 1
            return False
        cap = self._cap
        if cap is not None and self._occupancy.get(tag, 0) >= cap:
            stats.dropped_full += 1
            return False
        return True

    def put(self, msg: TaggedMessage) -> bool:
        """Admit ``msg``, whose tag this link just claimed, and take the
        engine's step for it; returns True (admitted)."""
        tag = msg.tag
        occupancy = self._occupancy
        occupancy[tag] = occ = occupancy.get(tag, 0) + 1
        channel = self.channel
        if occ > channel._occ_high.get(tag, 0):
            channel._occ_high[tag] = occ
        channel._admit_seq = seq = channel._admit_seq + 1
        scheduler = self._scheduler
        now = scheduler._now
        entry = _Entry(msg, now, None, seq)
        channel._entries.append(entry)
        if self._forward is not None:
            self._forward(entry)
            return True
        getrandbits = self._getrandbits
        bits = self._bits
        width = self._width
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        time = now + self._lo + r
        last_delivery = channel._last_delivery
        floor = last_delivery.get(tag, -1) + 1
        if time < floor:
            time = floor
        last_delivery[tag] = entry.delivery_time = time
        scheduler._seq = order = scheduler._seq + 1
        heappush(
            self._queue,
            (time, self.key_base + seq, order,
             partial(self._on_arrival, channel, entry)),
        )
        if not self.hosted:
            self._sim.cross_outbox.append(
                (channel.src, channel.dst, msg, time, seq)
            )
        return True


class CorruptingLink(Link):
    """A link under an in-flight corruption model.

    The corruption draw precedes the loss draw on the sender's stream, so
    a send's fate cannot be decided before its message exists: :meth:`claim`
    says yes and touches nothing, and :meth:`put` corrupts, then decides
    (:meth:`Link.claim`) and admits (:meth:`Link.put`) — the step-by-step
    order.  A corruption model rewrites a message's fields, never its tag.
    """

    __slots__ = ("_corruption",)

    def __init__(self, sim: "Simulator", src: int, dst: int) -> None:
        super().__init__(sim, src, dst)
        self._corruption = sim.corruption

    def claim(self, tag: str) -> bool:
        return True

    def put(self, msg: TaggedMessage) -> bool:
        corrupted = self._corruption.maybe_corrupt(self._rng, msg)
        if corrupted is not msg:
            self._stats.corrupted += 1
        return Link.claim(self, msg.tag) and Link.put(self, corrupted)


def _stays_in_channel(entry: _Entry) -> None:
    """Manual mode's admitted-entry step: nothing is scheduled; the entry
    waits in its slot for ``step_deliver``."""


class Simulator:
    """A deterministic, seeded message-passing system simulator.

    ``topology`` selects the communication graph: a
    :class:`~repro.sim.topology.Topology` instance, a spec string accepted by
    :func:`~repro.sim.topology.topology_from_spec` (``"ring"``,
    ``"gnp:0.3@7"``, ...), or None for the paper's complete graph.  When a
    Topology instance is given its pids define the system and ``pids`` may
    be omitted (or must agree).

    ``loss``, ``corruption``, ``latency``, ``capacity`` and ``auto`` are
    **fixed at construction**: every channel's compiled link
    (:class:`Link`) binds them once, so assigning to the attributes of the
    same name afterwards changes nothing a send does.  What a link reads
    when it runs, because drivers do rebind or mutate them:
    :attr:`cross_outbox`, the hook lists.
    """

    def __init__(
        self,
        pids: Sequence[int] | int | None = None,
        build: BuildFn = lambda host: None,
        *,
        topology: Topology | str | None = None,
        seed: int = 0,
        capacity: int = 1,
        unbounded: bool = False,
        latency: tuple[int, int] = (1, 3),
        loss: LossModel | None = None,
        corruption: "object | None" = None,
        activation_period: int = 2,
        auto: bool = True,
        hosts_for: Sequence[int] | None = None,
    ) -> None:
        if isinstance(pids, int):
            pids = list(range(1, pids + 1))
        if not isinstance(topology, Topology):
            if pids is None:
                raise SimulationError(
                    "need a process count or pid list, or a built topology")
            if topology is not None:
                topology = topology_from_spec(topology, len(pids))
        if (topology is not None and pids is not None
                and tuple(sorted(pids)) != topology.pids):
            raise SimulationError(
                f"pids {sorted(pids)} do not match topology pids {topology.pids}"
            )
        lo, hi = latency
        if not 1 <= lo <= hi:
            raise SimulationError(f"latency bounds must satisfy 1 <= lo <= hi, got {latency}")
        if activation_period < 1:
            raise SimulationError(f"activation_period must be >= 1, got {activation_period}")

        self.seed = seed
        self.scheduler = self._make_scheduler()
        self.trace = Trace()
        self.stats = SimStats()
        self.loss: LossModel = loss if loss is not None else NoLoss()
        #: Optional in-flight corruption model (see repro.sim.faults); must
        #: expose ``maybe_corrupt(rng, msg) -> msg``, keeping ``msg.tag``.
        self.corruption = corruption
        self.latency = (lo, hi)
        self.activation_period = activation_period
        self.auto = auto
        self.capacity = capacity
        self.unbounded = unbounded

        graph = topology if topology is not None else pids
        assert graph is not None
        self.network = (
            Network(graph, UnboundedChannel) if unbounded
            else Network(graph, capacity=capacity)
        )
        self.topology: Topology = self.network.topology
        # Per-edge latency resolution (Weighted topologies).  None on
        # unweighted topologies, so the send hot path keeps its straight
        # self.latency read — and its exact draw sequence.
        self._edge_latency = (
            self.topology.edge_latency if self.topology.is_weighted else None
        )

        # Per-sender send streams (loss, corruption, latency) and the
        # compiled links, both created lazily alongside the lazy channel
        # map — a wave touching one neighbourhood compiles only its links.
        self._send_rngs: dict[int, random.Random] = {}
        self._links: dict[tuple[int, int], Link] = {}

        #: Observation hooks (recording, instrumentation). ``delivery_hooks``
        #: fire just before a message is dispatched to the receiving process;
        #: ``activation_hooks`` fire just before a process activation runs,
        #: and keep every process awake (no dormant activations) — attach
        #: them between runs, when no process is dormant.
        self.delivery_hooks: list[Callable[[int, int, TaggedMessage], None]] = []
        self.activation_hooks: list[Callable[[int], None]] = []

        #: Cross-shard sends awaiting exchange at the next window barrier
        #: (only ever populated when ``hosts_for`` excludes some pids).
        self.cross_outbox: list[CrossShardSend] = []
        #: Messages that left their channel slot but whose dispatch is
        #: parked at a busy receiver (counted so quiescence checks see them).
        self.parked_dispatches = 0
        #: Passive counter (repro.obs): activations a catch-up counted for
        #: a dormant process instead of executing them.
        self.activations_dormant = 0
        # Each process's self-rescheduling activation (close() empties
        # its closure cells).
        self._activations: list[Callable[[], None]] = []

        if hosts_for is None:
            hosted: tuple[int, ...] = self.network.pids
        else:
            hosted = tuple(sorted(hosts_for))
            unknown = set(hosted) - set(self.network.pids)
            if unknown:
                raise SimulationError(f"hosts_for mentions unknown pids {sorted(unknown)}")

        self.hosts: dict[int, ProcessHost] = {}
        for pid in hosted:
            host = ProcessHost(self, pid)
            build(host)
            self.hosts[pid] = host

        if auto:
            # Stagger first activations deterministically so processes are
            # not lockstep-synchronized (asynchrony).  Offsets and jitters
            # come from each process's own stream, so they are identical
            # whether the process is simulated serially or inside a shard.
            for pid in hosted:
                act_rng = random.Random(derive_seed(seed, "act", pid))
                offset = act_rng.randrange(activation_period) if activation_period > 1 else 0
                self.scheduler.post_at(
                    offset, self._make_activation(pid, act_rng), activation_key(pid)
                )

    # -- engine extension points ---------------------------------------------

    def _make_scheduler(self) -> Scheduler:
        """The event queue; a wall-clock-paced medium substitutes
        :class:`repro.net.clock.PacedClock`, same ordering discipline."""
        return Scheduler()

    # -- basic accessors -----------------------------------------------------

    @cached_property
    def rng(self) -> random.Random:
        """General-purpose stream for callers (tests, ad-hoc experiments),
        seeded from the root seed at first use.  The engine itself never
        draws from it — every engine draw comes from a per-process derived
        stream so shard composition is exact."""
        return random.Random(self.seed)

    @property
    def now(self) -> int:
        return self.scheduler._now

    @property
    def pids(self) -> tuple[int, ...]:
        return self.network.pids

    def host(self, pid: int) -> ProcessHost:
        try:
            return self.hosts[pid]
        except KeyError:
            raise SimulationError(f"unknown process id {pid}") from None

    def layer(self, pid: int, tag: str):
        return self.host(pid).layer(tag)

    def send_rng(self, src: int) -> random.Random:
        """``src``'s send stream: the loss, corruption and latency draws
        of every channel out of ``src``.  Each draw happens inside one of
        ``src``'s own events (the time-0 scramble, an activation, a
        delivery at ``src``), which every engine runs in canonical order —
        so the shard hosting ``src`` draws what the serial engine draws."""
        rng = self._send_rngs.get(src)
        if rng is None:
            rng = self._send_rngs[src] = random.Random(
                derive_seed(self.seed, "send", src))
        return rng

    def latency_for(self, src: int, dst: int) -> tuple[int, int]:
        """The latency bounds governing the channel ``src -> dst``: the
        edge's own (Weighted topologies) or the engine's global bounds."""
        if self._edge_latency is not None:
            bounds = self._edge_latency(src, dst)
            if bounds is not None:
                return bounds
        return self.latency

    # -- message transmission --------------------------------------------------

    def _admitted_step(
        self, channel: ChannelBase
    ) -> Callable[[_Entry], None] | None:
        """What a send does with an entry the channel admitted — the one
        engine-specific step, resolved once per channel when its link is
        compiled.  None: the link draws the delivery time and pushes the
        delivery onto this engine's heap itself, inline.  A callable takes
        the entry instead (:class:`~repro.net.engine.AsyncSimulator`
        returns its transport's ``send``; manual mode leaves the entry in
        its slot)."""
        return None if self.auto else _stays_in_channel

    def link(self, src: int, dst: int) -> Link:
        """The compiled link of the channel ``src -> dst`` (compiled on
        first use)."""
        link = self._links.get((src, dst))
        if link is None:
            compile_link = Link if self.corruption is None else CorruptingLink
            link = self._links[(src, dst)] = compile_link(self, src, dst)
        return link

    def transmit(self, src: int, dst: int, msg: TaggedMessage) -> bool:
        """Send ``msg`` from ``src`` to ``dst``; returns True if admitted."""
        return self.link(src, dst).send(msg)

    def draw_delivery_time(self, channel: ChannelBase, entry, randint) -> int:
        """Latency draw from the sender's stream + per-tag FIFO clamp.

        The single definition of the delivery-time rule: the step-by-step
        scheduling path (:meth:`_schedule_delivery`) and every transport of
        the async engine (:mod:`repro.net`) go through here, and the one
        inlined copy — a link's ``put`` — is held to it by
        ``tests/test_link_equivalence.py``, so a change to the rule cannot
        desynchronize the engines.  The bounds are the channel's own —
        per-edge on :class:`~repro.sim.topology.Weighted` topologies, the
        engine's global pair otherwise.  ``randint`` is the sender's send
        stream's draw for exactly those bounds — either the stream's bound
        ``randint`` method or its precompiled equivalent
        (:func:`~repro.sim.determinism.bound_randint`, :attr:`Link.draw`,
        whose guard rejects mismatched bounds); both consume the stream
        identically.
        """
        edge_latency = self._edge_latency
        if edge_latency is None:
            lo, hi = self.latency
        else:
            lo, hi = edge_latency(channel.src, channel.dst) or self.latency
        proposed = self.scheduler._now + randint(lo, hi)
        entry.delivery_time = channel.fifo_delivery_time(entry.msg.tag, proposed)
        return entry.delivery_time

    def _schedule_delivery(self, channel: ChannelBase, entry) -> None:
        """Draw ``entry``'s delivery time and post its delivery — the
        step-by-step form of a link's last step, for entries admitted
        outside a send (``inject``, ``configuration.restore``) or handed
        back by the loopback transport."""
        link = self.link(channel.src, channel.dst)
        self.draw_delivery_time(channel, entry, link.draw)
        on_arrival = self._deliver if link.hosted else self._release_slot
        self.scheduler.post_at(
            entry.delivery_time,
            partial(on_arrival, channel, entry),
            link.key_base + entry.seq,
        )
        if not link.hosted:
            self.cross_outbox.append(
                (channel.src, channel.dst, entry.msg, entry.delivery_time, entry.seq)
            )

    def _release_slot(self, channel: ChannelBase, entry) -> None:
        if entry in channel._entries:
            channel.remove(entry)

    def _deliver(self, channel: ChannelBase, entry) -> None:
        """A scheduled delivery fires: free the slot, hand the message to
        the receiver.  The common case — receiver idle, no delivery hook,
        no network trace — is completed here (``channel.remove``,
        :meth:`_dispatch_arrival`'s wake, count and
        ``ProcessHost.dispatch``, inlined); everything else takes
        :meth:`_dispatch_arrival`."""
        try:
            channel._entries.remove(entry)
        except ValueError:
            return  # channel was cleared/restored under us
        msg = entry.msg
        tag = msg.tag
        channel._occupancy[tag] -= 1
        dst = channel.dst
        host = self.hosts[dst]
        scheduler = self.scheduler
        if host.busy_until > scheduler._now or self.delivery_hooks:
            self._dispatch_arrival(channel.src, dst, msg, entry.seq)
            return
        if host._catch_up is not None:  # host.wake(), inlined
            host._catch_up(scheduler._now, scheduler.current_key)
        stats = self.stats
        stats.delivered += 1
        stats.delivered_by_tag[tag] += 1
        layer = host._by_tag.get(tag)
        if layer is not None:
            layer.on_message(channel.src, msg)

    def _dispatch_arrival(
        self, src: int, dst: int, msg: TaggedMessage, entry_seq: int, parked: bool = False
    ) -> None:
        host = self.hosts[dst]
        if host.busy_until > self.scheduler._now:  # host.busy, inlined
            # The receiver is inside a long atomic action; the message has
            # already left its channel slot and waits at the host.  The
            # dispatch retries — under the same canonical key, so arrival
            # order among deferred messages is preserved — when the process
            # frees up.
            if not parked:
                self.parked_dispatches += 1
            self.scheduler.post_at(
                host.busy_until,
                lambda: self._dispatch_arrival(src, dst, msg, entry_seq, True),
                delivery_key(dst, src, entry_seq),
            )
            return
        if parked:
            self.parked_dispatches -= 1
        if host._catch_up is not None:
            host.wake()
        stats = self.stats
        stats.delivered += 1
        stats.delivered_by_tag[msg.tag] += 1
        hooks = self.delivery_hooks
        if hooks:
            for hook in hooks:
                hook(src, dst, msg)
        host.dispatch(src, msg)

    def schedule_remote_arrival(
        self, src: int, dst: int, msg: TaggedMessage, time: int, entry_seq: int
    ) -> None:
        """Schedule dispatch of a message admitted on a remote shard.

        The source shard computed ``time`` (and the channel entry seq) at
        send time from the sender's send stream, so scheduling it here
        reproduces exactly the delivery the serial engine would perform.
        """
        if dst not in self.hosts:
            raise SimulationError(f"remote arrival for non-hosted pid {dst}")
        self.scheduler.post_at(
            time,
            lambda: self._dispatch_arrival(src, dst, msg, entry_seq),
            delivery_key(dst, src, entry_seq),
        )

    def drain_outbox(self) -> list[CrossShardSend]:
        """Take (and clear) the pending cross-shard sends.

        Hands back a copy and clears in place: :attr:`cross_outbox` stays
        the one list for the engine's lifetime, so a reference taken to it
        can never go stale and silently swallow cross-shard sends.
        """
        outbox = self.cross_outbox[:]
        self.cross_outbox.clear()
        return outbox

    def inject(self, src: int, dst: int, msg: TaggedMessage, *, schedule: bool | None = None) -> None:
        """Adversarially place ``msg`` into the channel ``src -> dst``.

        Raises :class:`~repro.errors.ChannelError` when the channel is full
        for the message's tag — the capacity bound binds the adversary too.
        In auto mode the delivery is scheduled like a normal send unless
        ``schedule=False``.
        """
        channel = self.network.channel(src, dst)
        entry = channel.inject(msg, self.now)
        self.trace.emit(self.now, EventKind.INJECT, None, src=src, dst=dst, tag=msg.tag)
        if schedule is None:
            schedule = self.auto
        if schedule:
            self._schedule_delivery(channel, entry)

    # -- activations -----------------------------------------------------------

    def _make_activation(self, pid: int, act_rng: random.Random) -> Callable[[], None]:
        # Everything the self-rescheduling loop touches is bound locally:
        # activations fire every few ticks at every process, so this
        # closure is one of the two hottest paths in the engine.  The
        # jitter draw is randint(0, _JITTER) as bound_randint compiles it
        # (same values, same stream consumption) and the push is
        # Scheduler.post_at's, both inlined: the next tick is always
        # ahead of now, so post_at's past-time check cannot fire.
        #
        # Dormancy.  An activation that executes nothing, with no hook
        # attached, no clock-reading guard and no pending timer, is
        # counted and draws its successor as ever, but posts nothing: it
        # leaves the successor's tick on the host and a catch-up with the
        # scheduler.  Guards read only the host's variables, so until an
        # event changes them (ProcessHost.wake's callers) or the run
        # returns (Scheduler.wake_all), every activation would execute
        # nothing either.  The catch-up counts and draws each one ordered
        # before the schedule position (time, at), then posts the first
        # one at or after it: the stream, the keys and stats.activations
        # are the eager loop's.  A skipped activation cannot be busy:
        # busy_until changes only inside the host's own events.
        host = self.hosts[pid]
        stats = self.stats
        hooks = self.activation_hooks
        scheduler = self.scheduler
        queue = scheduler._queue
        dormant = scheduler.dormant
        period = self.activation_period
        key = activation_key(pid)
        activate = host.activate
        width = _JITTER + 1
        bits = width.bit_length()
        getrandbits = act_rng.getrandbits

        def catch_up(time: int, at: float) -> None:
            del dormant[key]
            host._catch_up = None
            t = host._next_activation
            skipped = 0
            while t < time or (t == time and key < at):
                skipped += 1
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                t += period + r
            if skipped:
                stats.activations += skipped
                self.activations_dormant += skipped
            scheduler._seq = seq = scheduler._seq + 1
            heappush(queue, (t, key, seq, fire))

        def fire() -> None:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            now = scheduler._now
            if host.busy_until <= now:
                stats.activations += 1
                if hooks:
                    for hook in hooks:
                        hook(pid)
                    activate()
                elif not activate() and not host.guards_read_clock and (
                    host._last_timer is None or host._last_timer.fired
                ):
                    host._next_activation = now + period + r
                    host._catch_up = dormant[key] = catch_up
                    return
            scheduler._seq = seq = scheduler._seq + 1
            heappush(queue, (now + period + r, key, seq, fire))

        self._activations.append(fire)
        return fire

    def activate(self, pid: int) -> int:
        """Manually activate one process (manual mode / tests)."""
        host = self.host(pid)
        if host.busy:
            return 0
        self.stats.activations += 1
        for hook in self.activation_hooks:
            hook(pid)
        return host.activate()

    def step_deliver(
        self, src: int, dst: int, tag: str | None = None
    ) -> TaggedMessage | None:
        """Manually deliver the oldest in-flight message on ``src -> dst``.

        Optionally restricted to messages of a given tag.  Returns the
        delivered message, or None when nothing matched.  Used by the
        Theorem 1 replay engine and by fine-grained unit tests.
        """
        channel = self.network.channel(src, dst)
        for entry in channel.entries():
            if tag is None or entry.msg.tag == tag:
                channel.remove(entry)
                self.stats.record_delivery(entry.msg.tag)
                for hook in self.delivery_hooks:
                    hook(src, dst, entry.msg)
                self.hosts[dst].dispatch(src, entry.msg)
                return entry.msg
        return None

    # -- running -----------------------------------------------------------------

    def run(
        self,
        max_time: int,
        until: Callable[["Simulator"], bool] | None = None,
    ) -> bool:
        """Advance simulated time.

        Runs until ``until(self)`` holds (checked after every event) or the
        time horizon is hit.  Returns True iff the predicate was satisfied
        (always False when no predicate is given).
        """
        if until is None:
            self.scheduler.run_until(max_time)
            return False
        if until(self):
            return True
        satisfied = False

        def stop() -> bool:
            nonlocal satisfied
            satisfied = until(self)
            return satisfied

        self.scheduler.run_until(max_time, stop=stop)
        return satisfied

    def in_transit(self) -> int:
        """Messages not yet dispatched: in a channel slot or parked at a
        busy receiver (arrived, slot released, dispatch deferred)."""
        return self.network.in_flight() + self.parked_dispatches

    def run_quiet(self, max_time: int, settle: int = 50) -> bool:
        """Run until no message is in transit for ``settle`` consecutive ticks.

        Used to check the "if requests stop, the system eventually contains
        no message" property of Protocol PIF.  Counts messages parked at
        busy receivers, so a dispatch deferred past the quiet window cannot
        fake quiescence.
        """
        deadline = self.now + max_time
        quiet_since: int | None = None
        while self.now < deadline:
            progressed = self.scheduler.run_until(min(self.now + settle, deadline))
            if self.in_transit() == 0:
                if quiet_since is None:
                    quiet_since = self.now
                elif self.now - quiet_since >= settle:
                    return True
            else:
                quiet_since = None
            if progressed == 0 and self.now >= deadline:
                break
        return self.in_transit() == 0

    # -- configuration interface ---------------------------------------------------

    def scramble(self, seed: int | None = None, fill_channels: bool = True) -> None:
        """Drive the system into an arbitrary initial configuration.

        Convenience wrapper over :mod:`repro.sim.adversary`.
        """
        from repro.sim.adversary import scramble_system

        base = self.rng.getrandbits(64) if seed is None else seed
        scramble_system(self, base, fill_channels=fill_channels)

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        """Cut the reference cycles the run built, so that the engine is
        freed by reference counting as soon as its last outside reference
        goes, not by the collector.

        The cycles: every queued event and dormant catch-up points back
        at the engine or a host; each activation's ``fire`` and
        ``catch_up`` point at each other and at themselves through their
        closure cells, and through them at the host and this engine; a
        host and the engine point at each other, and so do a host and its
        layers, a layer and the layer embedding it (a PIF instance's
        client), every compiled link and the engine.  The trace, the
        stats, the topology and the channels stay as they are — a run's
        outcome keeps them; the layers are emptied, and the engine
        cannot run again.  Called once per trial, after the
        observability harvest (:func:`repro.engine.pipeline.execute`).
        One frame, whatever the system's size: ``tests/test_call_depth.py``
        counts a trial's calls, teardown included.
        """
        scheduler = self.scheduler
        scheduler._queue.clear()
        scheduler.dormant.clear()
        for fire in self._activations:
            for cell in fire.__closure__ or ():
                cell.cell_contents = None
        for host in self.hosts.values():
            for layer in host.layers:
                vars(layer).clear()
        self.hosts.clear()
        self._links.clear()

    # -- observability -------------------------------------------------------------

    def collect_obs(self, metrics) -> None:
        """Fold this engine's passive counters into a metrics registry
        (:mod:`repro.obs`).  Called at most once per trial, strictly after
        the run — nothing here can perturb the deterministic draw paths.
        ``metrics`` is duck-typed (``MetricsRegistry`` or ``NullMetrics``)
        so the sim layer takes no dependency on the obs package.
        """
        scheduler = self.scheduler
        metrics.inc("scheduler.pops", scheduler.pops)
        stats = self.stats
        metrics.inc("channel.sent", stats.sent)
        metrics.inc("channel.delivered", stats.delivered)
        metrics.inc("channel.dropped_loss", stats.dropped_loss)
        metrics.inc("channel.dropped_full", stats.dropped_full)
        metrics.inc("channel.corrupted", stats.corrupted)
        metrics.inc("process.activations", stats.activations)
        metrics.inc("process.activations_dormant", self.activations_dormant)
        for channel in self.network.channels():
            for tag, high in channel.occupancy_high_water().items():
                metrics.gauge_max(f"channel.occupancy_high[{tag}]", high)
