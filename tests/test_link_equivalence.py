"""The compiled link against the step-by-step path it inlines.

A channel's :class:`~repro.sim.runtime.Link` carries an inlined copy of the
admission rule (``ChannelBase.try_admit``, split between ``claim``, which
decides from the tag, and ``put``, which admits), of the delivery-time rule
(``Simulator.draw_delivery_time`` / ``fifo_delivery_time``) and of the heap
push (``Scheduler.post_at``); ``Simulator._deliver`` carries one of
``channel.remove`` + ``_dispatch_arrival`` + ``ProcessHost.dispatch``.  The
property here is what holds those copies to their definitions: twin
simulators with one seed, one driven through the links — ``transmit``,
``ProcessHost.send`` or Protocol PIF's ``claim``-then-``put`` — the other
through the public step-by-step methods (the ones ``inject``, the
transports and the ledger's probes keep alive), must agree on *everything*
observable after every step.

Also pinned: the engine's configuration is construction-time (a link
compiled before the first send honours every knob), and the two things a
link must read at call time because drivers rebind them.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import PifMessage
from repro.sim import configuration
from repro.sim.channel import BernoulliLoss, DropFirstK
from repro.sim.faults import HeaderCorruption, TargetedLoss
from repro.sim.process import Layer
from repro.sim.runtime import Simulator
from repro.sim.topology import Complete, Weighted
from repro.sim.trace import EventKind, Trace

PIDS = (1, 2, 3)
TAGS = ("a", "b")


class _Sink(Layer):
    """Consumes one tag; its local state is the list of what arrived."""

    STATE = ("got",)

    def __init__(self, tag: str) -> None:
        super().__init__(tag)
        self.got: list[tuple[int, PifMessage]] = []

    def on_message(self, sender, msg) -> None:
        self.got.append((sender, msg))


def _build(host) -> None:
    for tag in TAGS:
        host.register(_Sink(tag))


def _twin(**kwargs) -> Simulator:
    # Activations off: every event on the heap is one the steps put there.
    return Simulator(build=_build, activation_period=10**9,
                     activation_jitter=0, **kwargs)


def _reference_send(sim: Simulator, src: int, dst: int, msg) -> bool:
    """A send, one public method at a time."""
    stats = sim.stats
    stats.record_send(msg.tag)
    channel = sim.network.channel(src, dst)
    rng = sim.send_rng(src)
    if sim.trace_network:
        sim.trace.emit(sim.now, EventKind.SEND, src, dst=dst, tag=msg.tag)
    if sim.corruption is not None:
        original = msg
        msg = sim.corruption.maybe_corrupt(rng, msg)
        if msg is not original:
            stats.corrupted += 1
    if sim.loss.should_drop(rng, msg.tag):
        stats.dropped_loss += 1
        if sim.trace_network:
            sim.trace.emit(sim.now, EventKind.DROP_LOSS, src, dst=dst, tag=msg.tag)
        return False
    entry = channel.try_admit(msg, sim.now)
    if entry is None:
        stats.dropped_full += 1
        if sim.trace_network:
            sim.trace.emit(sim.now, EventKind.DROP_FULL, src, dst=dst, tag=msg.tag)
        return False
    if sim.auto:
        sim._schedule_delivery(channel, entry)
    return True


def _reference_deliver(sim: Simulator, channel, entry) -> None:
    """A delivery, one public method at a time."""
    if entry not in channel.entries():
        return
    channel.remove(entry)
    sim._dispatch_arrival(channel.src, channel.dst, entry.msg, entry.seq)


def _observable(sim: Simulator):
    channels = {
        (c.src, c.dst): (
            [(e.seq, e.enqueued_at, e.delivery_time, e.msg) for e in c.entries()],
            {t: n for t, n in c._occupancy.items() if n},
            c.occupancy_high_water(), dict(c._last_delivery), c._admit_seq,
        )
        for c in sim.network.channels()
    }
    return {
        "stats": sim.stats,
        "channels": channels,
        "heap": sorted(item[:3] for item in sim.scheduler._queue),
        "now": sim.now,
        "outbox": list(sim.cross_outbox),
        "streams": {src: rng.getstate() for src, rng in sim._send_rngs.items()},
        "trace": [(e.time, e.kind, e.process, e.data) for e in sim.trace],
        "got": {(pid, tag): list(host.layer(tag).got)
                for pid, host in sim.hosts.items() for tag in TAGS},
        "parked": sim.parked_dispatches,
    }


def _run_steps(make_kwargs, hooks: bool, steps) -> None:
    """``make_kwargs()`` is called once per twin: stateful models (loss,
    corruption) must not be shared between them."""
    linked, stepwise = _twin(**make_kwargs()), _twin(**make_kwargs())
    # The reference engine delivers step by step too: _schedule_delivery
    # posts whatever the instance's _deliver is.
    stepwise._deliver = partial(_reference_deliver, stepwise)
    seen = {id(linked): [], id(stepwise): []}
    if hooks:
        for sim in (linked, stepwise):
            sim.delivery_hooks.append(
                lambda src, dst, msg, log=seen[id(sim)]: log.append((src, dst, msg)))
    saved = None
    count = 0
    for step in steps:
        op = step[0]
        if op in ("transmit", "send", "claim"):
            _, src, dst, tag = step
            count += 1
            msg = PifMessage(tag, f"b{count}", "f", count % 5, 0)
            admitted = _reference_send(stepwise, src, dst, msg)
            if op == "transmit":  # the public entry reports admission
                assert linked.transmit(src, dst, msg) == admitted
            elif op == "send":    # the protocols' entry
                linked.host(src).send(dst, msg)
            else:                 # Protocol PIF's: the fate, then the message
                link = linked.host(src).link(dst)
                if link.claim(tag):
                    link.put(msg)
        elif op == "advance":
            for sim in (linked, stepwise):
                sim.scheduler.run_until(sim.now + step[1])
        elif op == "deliver":
            _, src, dst = step
            assert linked.step_deliver(src, dst) == stepwise.step_deliver(src, dst)
        elif op == "clear":
            _, src, dst = step
            for sim in (linked, stepwise):
                sim.network.channel(src, dst).clear()
        elif op == "busy":
            _, pid, ticks = step
            for sim in (linked, stepwise):
                sim.host(pid).set_busy_for(ticks)
        elif op == "capture":
            saved = (configuration.capture(linked), configuration.capture(stepwise))
            assert saved[0] == saved[1]
        elif op == "restore" and saved is not None:
            configuration.restore(linked, saved[0])
            configuration.restore(stepwise, saved[1])
        assert _observable(linked) == _observable(stepwise), step
    assert seen[id(linked)] == seen[id(stepwise)]


# -- deterministic corners --------------------------------------------------


def _pinned_steps():
    """A fixed walk through every step kind, piling sends on one edge."""
    steps = []
    for round_no in range(6):
        steps += [("send", 1, 2, "a"), ("transmit", 1, 2, "a"),
                  ("claim", 1, 2, "a"), ("transmit", 1, 2, "b"),
                  ("send", 2, 3, "a"), ("claim", 1, 3, "b"),
                  ("transmit", 1, 3, "b"), ("advance", round_no % 3)]
        if round_no == 1:
            steps += [("busy", 2, 4), ("capture",)]
        if round_no == 3:
            steps += [("deliver", 1, 2), ("clear", 2, 3), ("restore",)]
    return steps + [("advance", 12)]


@pytest.mark.parametrize("unbounded", [False, True])
@pytest.mark.parametrize("hosts_for", [None, (1, 2)])
@pytest.mark.parametrize("trace_network", [False, True])
def test_link_matches_step_by_step_path_on_a_fixed_walk(
    unbounded, hosts_for, trace_network
):
    def make_kwargs():
        return dict(
            topology=Weighted(Complete(PIDS), latency={(1, 2): (2, 6)},
                              capacity={(2, 3): 2}),
            seed=11, hosts_for=hosts_for, unbounded=unbounded, capacity=1,
            latency=(1, 3), loss=BernoulliLoss(0.1),
            corruption=HeaderCorruption(0.3), trace_network=trace_network,
        )

    _run_steps(make_kwargs, True, _pinned_steps())


_LOSSES = {
    "none": lambda: None,
    "bernoulli": lambda: BernoulliLoss(0.3),
    "drop-first-k": lambda: DropFirstK(2),
    "targeted": lambda: TargetedLoss({"a"}, 0.5),
}


@pytest.mark.parametrize("loss", sorted(_LOSSES))
@pytest.mark.parametrize("corruption", [False, True],
                         ids=["clean", "corrupting"])
@pytest.mark.parametrize("auto", [True, False], ids=["auto", "manual"])
def test_claim_then_put_matches_step_by_step_path(loss, corruption, auto):
    """Every send through the two halves: full slots on 1 -> 2, a
    non-hosted destination (3), ``trace_network`` rows, each loss model,
    a corrupting link (whose claim defers to its put), manual mode."""
    def make_kwargs():
        return dict(
            topology=Complete(PIDS), seed=5, hosts_for=(1, 2), capacity=1,
            loss=_LOSSES[loss](),
            corruption=HeaderCorruption(0.3) if corruption else None,
            trace_network=True, auto=auto,
        )

    steps = [("claim", *step[1:]) if step[0] in ("send", "transmit") else step
             for step in _pinned_steps()]
    _run_steps(make_kwargs, False, steps)


class TestConfigurationIsConstructionTime:
    """Every knob a link binds, honoured by a link compiled before the
    first send (``sim.link`` compiles eagerly)."""

    def _send(self, sim, tag="a", n=1, src=1, dst=2):
        sim.link(src, dst)  # compiled now, before anything was sent
        return [sim.transmit(src, dst, PifMessage(tag, i, "f", 0, 0))
                for i in range(n)]

    def test_capacity(self):
        assert self._send(_twin(pids=3, capacity=2), n=3) == [True, True, False]
        assert all(self._send(_twin(pids=3, unbounded=True), n=5))

    def test_edge_capacity_and_latency(self):
        sim = _twin(topology=Weighted(
            Complete(PIDS), latency={(1, 2): (7, 7)}, capacity={(1, 2): 3}))
        assert self._send(sim, n=4) == [True, True, True, False]
        entries = sim.network.channel(1, 2).entries()
        # Fixed 7-tick latency, FIFO clamp spreads the three arrivals.
        assert [e.delivery_time for e in entries] == [7, 8, 9]

    def test_latency(self):
        sim = _twin(pids=3, latency=(5, 5))
        self._send(sim)
        assert sim.network.channel(1, 2).entries()[0].delivery_time == 5

    def test_loss(self):
        sim = _twin(pids=3, loss=DropFirstK(1))
        assert self._send(sim, n=2) == [False, True]
        assert sim.stats.dropped_loss == 1

    def test_corruption(self):
        sim = _twin(pids=3, corruption=HeaderCorruption(1.0))
        self._send(sim)
        assert sim.stats.corrupted == 1
        assert sim.network.channel(1, 2).contents()[0].debug_wave is None

    def test_auto_off_schedules_nothing(self):
        sim = _twin(pids=3, auto=False)
        assert self._send(sim) == [True]
        assert len(sim.scheduler) == 0
        assert sim.network.channel(1, 2).entries()[0].delivery_time is None
        assert sim.step_deliver(1, 2) is not None

    def test_trace_network(self):
        sim = _twin(pids=3, trace_network=True)
        self._send(sim, n=2)
        sim.run(10)
        kinds = [e.kind for e in sim.trace]
        assert kinds == [EventKind.SEND, EventKind.SEND, EventKind.DROP_FULL,
                         EventKind.DELIVER]


class TestWhatALinkReadsAtCallTime:
    def test_trace_installed_after_construction_gets_the_network_rows(self):
        # The sharded and cluster workers rebind sim.trace to a keyed trace
        # after construction — and a link may already be compiled by then.
        sim = _twin(pids=3, trace_network=True)
        sim.link(1, 2)
        first, sim.trace = sim.trace, Trace()
        sim.transmit(1, 2, PifMessage("a", 0, "f", 0, 0))
        sim.run(10)
        assert len(first) == 0
        assert [e.kind for e in sim.trace] == [EventKind.SEND, EventKind.DELIVER]

    def test_drained_outbox_keeps_collecting_cross_shard_sends(self):
        sim = _twin(pids=3, hosts_for=(1, 2))
        outbox = sim.cross_outbox
        sim.transmit(1, 3, PifMessage("a", 0, "f", 0, 0))
        assert len(sim.drain_outbox()) == 1
        # Cleared in place: the list a link (or anyone) holds never goes
        # stale, so the next cross-shard send cannot vanish.
        assert sim.cross_outbox is outbox and outbox == []
        sim.transmit(1, 3, PifMessage("b", 1, "f", 0, 0))
        assert [s[:2] for s in sim.drain_outbox()] == [(1, 3)]


# -- the property ----------------------------------------------------------

_hosted = st.sampled_from([None, (1, 2)])
_pid = st.sampled_from(PIDS)


@st.composite
def _scenarios(draw):
    hosts_for = draw(_hosted)
    hosted = PIDS if hosts_for is None else hosts_for
    topology = Complete(PIDS)
    if draw(st.booleans()):
        topology = Weighted(
            topology,
            latency={(1, 2): (2, 6), (3, 1): (4, 4)},
            capacity={(1, 2): 2, (2, 3): 3},
            directed=draw(st.booleans()),
        )
    kwargs = dict(
        topology=topology,
        seed=draw(st.integers(0, 2**16)),
        hosts_for=hosts_for,
        unbounded=draw(st.booleans()),
        capacity=draw(st.integers(1, 3)),
        latency=draw(st.sampled_from([(1, 3), (1, 1), (2, 7)])),
        loss=draw(st.sampled_from(sorted(_LOSSES))),
        corruption_p=draw(st.sampled_from([None, 0.3])),
        trace_network=draw(st.booleans()),
        auto=draw(st.booleans()),
    )
    # A small pool of edges per scenario, so sends pile up on one channel
    # (full slots, FIFO clamps) instead of spreading over all six.
    any_edge = st.tuples(st.sampled_from(hosted), _pid).filter(lambda e: e[0] != e[1])
    edge = st.sampled_from(draw(st.lists(any_edge, min_size=1, max_size=3)))
    send = st.tuples(st.sampled_from(["transmit", "send", "claim"]), edge,
                     st.sampled_from(TAGS)).map(lambda s: (s[0], *s[1], s[2]))
    step = st.one_of(
        send,
        send,  # weight: most steps are sends
        st.tuples(st.just("advance"), st.integers(0, 4)),
        st.tuples(st.just("deliver"), any_edge.filter(lambda e: e[1] in hosted)).map(
            lambda s: (s[0], *s[1])),
        st.tuples(st.just("clear"), edge).map(lambda s: (s[0], *s[1])),
        st.tuples(st.just("busy"), st.sampled_from(hosted), st.integers(1, 5)),
        st.just(("capture",)),
        st.just(("restore",)),
    )
    return kwargs, draw(st.booleans()), draw(st.lists(step, max_size=40))


@given(_scenarios())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_link_matches_step_by_step_path_after_every_step(scenario):
    kwargs, hooks, steps = scenario
    loss = kwargs.pop("loss")
    corruption_p = kwargs.pop("corruption_p")

    def make_kwargs():
        return dict(
            kwargs,
            loss=_LOSSES[loss](),
            corruption=(None if corruption_p is None
                        else HeaderCorruption(corruption_p)),
        )

    _run_steps(make_kwargs, hooks, steps)


def test_a_senders_links_share_its_send_stream():
    """Every link out of ``p`` draws loss, corruption and latency from
    ``p``'s one send stream; a link into ``p`` draws from its sender's."""
    import random

    from repro.sim.determinism import derive_seed

    sim = _twin(pids=PIDS, seed=5)
    p, q, r = PIDS
    assert random.Random(derive_seed(5, "send", p)).getstate() == \
        sim.send_rng(p).getstate()
    pq, pr, qp = sim.link(p, q), sim.link(p, r), sim.link(q, p)
    assert pq._rng is pr._rng is sim.send_rng(p)
    assert qp._rng is sim.send_rng(q) and qp._rng is not pq._rng
    # One stream: a draw on p -> q moves where p -> r draws next.
    before = pr._rng.getstate()
    pq.draw()
    assert pr._rng.getstate() != before
