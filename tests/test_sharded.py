"""Shard/serial equivalence: the window-sync runtime's defining property.

The conservative time-window protocol plus per-entity random streams and
canonical event keys must make a sharded run **bit-identical** to the serial
engine for the same seed: same trace (event for event, including payload
data), same stats, same final states, same request completions, same final
time.  These tests assert exactly that through ``engine="sharded"`` — one
of the two names of the one runtime (:mod:`repro.net.cluster`) — and, where
a case needs an axis no spec carries (``fill_channels``, a bare latency
band), through its constructor.  The large-n cases live here (n=32); the
``engine-equivalence`` CI job replays every claims trial (n <= 8) on the
runtime at every push.
"""

from __future__ import annotations

import pickle
import sys
import tracemalloc
from array import array
from dataclasses import replace
from types import SimpleNamespace

import pytest
from conftest import trial_spec
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pif import PifLayer
from repro.core.protocols import build_protocol
from repro.core.requests import RequestDriver
from repro.engine import EngineRun, ShardingOpts, execute
from repro.errors import SimulationError
from repro.net import coordinator
from repro.net.cluster import ClusterSimulator
from repro.sim.channel import DropFirstK
from repro.sim.determinism import (
    SEQ_BITS, SEQ_MAX, activation_key, delivery_key, key_owner, timer_key)
from repro.sim.runtime import Simulator
from repro.sim.sharded import (
    _KeyedTrace, merge_worker_traces, scramble_shard, shard_result_payload)
from repro.sim.topology import Clustered, Weighted
from repro.sim.trace import EventKind, Trace


def _pif_build(host) -> None:
    host.register(PifLayer("pif"))


#: The two trial kinds (size and axes are replaced per test).
_PIF = trial_spec("pif", 8)
_ME = trial_spec("me", 8)


def _both(n, trial, *, shards=None, horizon=4_000_000,
          **axes) -> tuple[EngineRun, EngineRun]:
    spec = replace(trial, n=n, horizon=horizon, **axes)
    return execute(spec), execute(replace(
        spec, engine="sharded", sharding=ShardingOpts(shards=shards)))


def _assert_bit_identical(serial: EngineRun, sharded: EngineRun) -> None:
    serial_events = [(e.time, e.kind, e.process, e.data) for e in serial.trace]
    sharded_events = [(e.time, e.kind, e.process, e.data) for e in sharded.trace]
    assert serial_events == sharded_events
    assert serial.stats.as_dict() == sharded.stats.as_dict()
    assert dict(serial.stats.sent_by_tag) == dict(sharded.stats.sent_by_tag)
    assert serial.finals == sharded.finals
    assert serial.completions == sharded.completions
    assert serial.completed == sharded.completed
    assert serial.final_time == sharded.final_time


class TestBitIdenticalAtN32:
    """Acceptance: Complete, Ring and Clustered at n=32, same seed."""

    @pytest.mark.parametrize(
        "topology,shards",
        [(None, 4), ("ring", 4), ("clustered:4", None)],
        ids=["complete", "ring", "clustered"],
    )
    def test_pif_trace_bit_identical(self, topology, shards):
        serial, sharded = _both(
            32, _PIF, topology=topology, seed=0, loss=0.1, shards=shards,
        )
        _assert_bit_identical(serial, sharded)

    def test_mutex_trace_bit_identical_on_ring(self):
        # ME convergence on a ring is slow at n=32 (per-neighbourhood
        # arbitration, many Value rotations), so the busy/timer paths are
        # asserted at n=8 here; the engine gate replays the claims' ME
        # trials on complete, ring, star, clustered and wan topologies.
        serial, sharded = _both(8, _ME, topology="ring", seed=1, shards=4)
        _assert_bit_identical(serial, sharded)


class TestBitIdenticalMutex:
    def test_mutex_clustered_with_busy_critical_sections(self):
        # ME exercises busy windows, call_later timers and cross-cluster
        # EXITCS waves — the hardest paths for shard composition.
        serial, sharded = _both(
            16, _ME, topology="clustered:4", seed=3, loss=0.1)
        _assert_bit_identical(serial, sharded)

    def test_mutex_complete_greedy_shards(self):
        serial, sharded = _both(
            6, _ME, topology=None, seed=1, shards=3, horizon=2_000_000)
        _assert_bit_identical(serial, sharded)


class TestSingleShard:
    def test_single_shard_run_equals_serial_event_for_event(self):
        serial, sharded = _both(
            8, _PIF, topology="clustered:2", seed=5, loss=0.2, shards=1)
        _assert_bit_identical(serial, sharded)


class TestScrambleVariants:
    def test_states_only_scramble_bit_identical(self):
        # fill_channels=False: no INJECTs and no channel-scramble marker in
        # either engine (regression: the merge used to fabricate the marker).
        from repro.sim.runtime import Simulator
        from repro.core.requests import RequestDriver

        seed = 4
        sim = Simulator(8, _pif_build, topology="clustered:2", seed=seed)
        sim.scramble(seed=seed ^ 0x5EED, fill_channels=False)
        driver = RequestDriver(sim, **_PIF.driver)
        assert sim.run(1_000_000, until=lambda s: driver.done)
        sim.run(sim.now + 200)

        sharded = ClusterSimulator(8, _PIF.protocol, topology="clustered:2", seed=seed)
        result = sharded.run_trial(
            horizon=1_000_000, scramble_seed=seed ^ 0x5EED,
            fill_channels=False, driver=_PIF.driver, drain=200,
        )
        serial_events = [(e.time, e.kind, e.process, e.data) for e in sim.trace]
        sharded_events = [(e.time, e.kind, e.process, e.data) for e in result.trace]
        assert serial_events == sharded_events
        assert sim.stats.as_dict() == result.stats.as_dict()

    def test_a_shard_seeds_four_streams_per_hosted_process(self, monkeypatch):
        """A ``wan_sharded``-sized shard (wan:4, n=128, one of two shards)
        built and scrambled seeds an ``act``, a ``proc``, a ``send`` and a
        ``chanfill`` stream per hosted pid, and nothing per channel.  With
        two streams per directed channel (epoch 1) it seeded 3 507: a
        scramble stream for each of its 1 988 out-channels and a stream
        for each of the 1 390 the scramble filled (4 105 by the end of
        a trial, once every out-channel had sent)."""
        import random

        from repro.sim.partition import partition_topology
        from repro.sim.topology import topology_from_spec

        topology = topology_from_spec("wan:4", 128)
        shard = partition_topology(topology, 2).shards[0]
        seeded = []
        seed = random.Random.seed

        def counted(rng, *args, **kwargs):
            seeded.append(args)
            return seed(rng, *args, **kwargs)

        monkeypatch.setattr(random.Random, "seed", counted)
        sim = Simulator(build=_pif_build, topology=topology,
                        hosts_for=shard, seed=0)
        trace = sim.trace = _KeyedTrace(sim.scheduler)
        injected, _, _ = scramble_shard(sim, trace, 0x5EED, True)
        assert injected > len(shard)
        assert len(seeded) <= 4 * len(shard)


class TestSeedSensitivity:
    def test_different_seeds_differ(self):
        _, run_a = _both(8, _PIF, topology="ring", seed=0)
        _, run_b = _both(8, _PIF, topology="ring", seed=1)
        a = [(e.time, e.kind, e.process, e.data) for e in run_a.trace]
        b = [(e.time, e.kind, e.process, e.data) for e in run_b.trace]
        assert a != b


#: The window-sync runtime's window and lookahead rules, one table for
#: both engine names (``sharded`` and ``cluster`` are one
#: ClusterSimulator): the constructor's arguments, the drain a trial runs
#: with (None: construct only), and the window it settles on — its
#: lookahead too — or the message its rejection matches.
_WAN4 = dict(topology="wan:4", latency=(1, 3), hosts=4)
WINDOW_RULES = {
    "beyond-lookahead-rejected": (
        dict(n=8, latency=(2, 5), window=3), None, "window must be in 1..2"),
    "bounded-by-lookahead-rejected": (
        dict(n=6, hosts=2, window=5), None, "window must be in 1..1"),
    "error-reports-effective-floor": (
        dict(n=32, window=20, **_WAN4), None,
        r"1\.\.16 \(the cross-shard latency floor; global lower bound 1"),
    "within-lookahead-accepted": (
        dict(n=8, latency=(2, 5), window=2), None, 2),
    "defaults-to-latency-floor": (dict(n=8, latency=(4, 9)), None, 4),
    "wan-widens-default": (dict(n=32, **_WAN4), None, 16),
    "wan-widens-two-hosts": (dict(n=6, topology="wan:2", hosts=2), None, 16),
    "unweighted-unchanged": (
        dict(n=32, topology="clustered:4", latency=(1, 3)), None, 1),
    # Slow edges *inside* a shard leave the cut floor at the global lo.
    "intra-shard-weights-do-not-widen": (
        dict(n=8, topology=Weighted(Clustered(2, 4),
                                    latency={(1, 2): (16, 32)}),
             latency=(1, 3), hosts=2), None, 1),
    "stateful-loss-rejected": (
        dict(n=8, loss=DropFirstK(2)), None, "keeps cross-channel state"),
    "drain-below-window-rejected": (
        dict(n=8, latency=(4, 9)), 2, r"drain \(2\) must be >= window \(4\)"),
    "drain-must-cover-window": (
        dict(n=6, hosts=2), 0, r"drain \(0\) must be >= window \(1\)"),
}


@pytest.mark.parametrize("args,drain,expect", WINDOW_RULES.values(),
                         ids=WINDOW_RULES.keys())
def test_window_rules(args, drain, expect):
    args = dict(args)
    n = args.pop("n")

    def make() -> ClusterSimulator:
        return ClusterSimulator(n, _PIF.protocol, **args)

    if isinstance(expect, int):
        sim = make()
        assert sim.window == sim.lookahead == expect
    elif drain is None:
        with pytest.raises(SimulationError, match=expect):
            make()
    else:
        sim = make()
        with pytest.raises(SimulationError, match=expect):
            sim.run_trial(horizon=100, driver=_PIF.driver, drain=drain)


class TestWeightedTopologies:
    def test_wan_widened_window_bit_identical(self):
        # wan:4 puts lo=16 on every cut edge, so the cross-shard lookahead
        # runs 16-tick windows over a global (1, 3) latency — cross-shard
        # handoffs span many engine ticks per barrier and must still land
        # exactly where the serial engine delivers them.
        serial, sharded = _both(32, _PIF, topology="wan:4", seed=0, loss=0.1)
        assert sharded.window == 16
        _assert_bit_identical(serial, sharded)

    def test_weighted_run_reports_barrier_provenance(self):
        _, sharded = _both(32, _PIF, topology="wan:4", seed=0)
        prov = sharded.provenance()
        assert prov["window"] == 16
        assert prov["barriers"] > 0
        assert prov["sync_wall_s"] >= 0.0


class TestWiderWindows:
    def test_wide_latency_wide_window_still_bit_identical(self):
        # window = lookahead = 6: several ticks per barrier, cross-shard
        # messages span multiple windows.
        serial, sharded = _both(16, _PIF, topology="clustered:4", seed=2,
                                latency=(6, 14), horizon=500_000)
        assert sharded.window == 6
        _assert_bit_identical(serial, sharded)


class TestCrossShardSendsAreNotDropped:
    def test_tight_horizon_trial_completes(self):
        # A wave needs every cross-shard handshake message: one send that
        # never reaches the outbox (a link holding a stale outbox list did
        # exactly that) and the trial never converges.  The horizon sits
        # just past the serial completion tick, so that failure is a fast
        # "not completed", not a run to a far horizon.
        spec = replace(_PIF, topology="ring", seed=3, horizon=1_000_000)
        serial = execute(spec)
        done_at = serial.final_time - 200  # final = done_at + DRAIN_TICKS
        sharded = execute(replace(
            spec, horizon=done_at + 16, engine="sharded",
            sharding=ShardingOpts(shards=2)))
        assert sharded.completed and sharded.final_time == serial.final_time
        assert sharded.stats.as_dict() == serial.stats.as_dict()


# -- the keyed merge, from the serial order down ----------------------------

_PIDS = range(6)
_RUN_KINDS = (EventKind.RECEIVE_BRD, EventKind.CS_ENTER, EventKind.DECIDE,
              "custom-kind")

_entity_keys = st.one_of(
    st.builds(activation_key, st.sampled_from(_PIDS)),
    st.builds(timer_key, st.sampled_from(_PIDS), st.integers(0, 3)),
    st.builds(delivery_key, st.sampled_from(_PIDS), st.sampled_from(_PIDS),
              st.integers(0, 3)),
)


@st.composite
def _serial_rows(draw, scrambled: bool, fill_channels: bool):
    """A trial's rows in serial append order, each with the shard that
    emits it and the *raw* scheduler key it is emitted under:
    ``(phase, shard, raw_key, time, kind, process)``."""
    n_shards = draw(st.integers(1, 4))
    shard_of = {pid: draw(st.integers(0, n_shards - 1)) for pid in _PIDS}
    few = st.integers(0, 2)
    rows = []
    if scrambled:
        # Per-host scramble emissions in pid order, then one INJECT per
        # garbage message in (src, dst) channel order, owned by src.
        for pid in _PIDS:
            rows += [("proc", shard_of[pid], 0, 0, EventKind.CS_ENTER, pid, {})
                     ] * draw(few)
        if fill_channels:
            for src in _PIDS:
                for dst in _PIDS:
                    if src != dst:
                        rows += [("chan", shard_of[src], 0, 0, EventKind.INJECT,
                                  None, {"src": src, "dst": dst})] * draw(few)
    for time in sorted(draw(st.lists(st.integers(0, 40), unique=True, max_size=5))):
        # Class 0: every shard's driver polls its own pids, ascending.
        for pid in _PIDS:
            rows += [("run", shard_of[pid], 0, time, EventKind.REQUEST, pid, {})
                     ] * draw(few)
        # Entity-keyed events in key order, each at its owner's shard.
        for key in sorted(draw(st.lists(_entity_keys, unique=True, max_size=6))):
            owner = key_owner(key)
            shard = shard_of[owner]
            for _ in range(draw(st.integers(1, 3))):
                rows.append(("run", shard, key, time, draw(st.sampled_from(_RUN_KINDS)),
                             draw(st.sampled_from((owner, None))), {}))
            # A lower-keyed event scheduled mid-tick (zero-delay timer,
            # user post) runs right after its creator; the keyed trace
            # must file its emissions under the creator's key.
            lower = draw(st.sampled_from((None, 0, timer_key(owner, 0))))
            if lower is not None and lower < key:
                rows += [("run", shard, lower, time, EventKind.NOTE, owner, {})
                         ] * draw(st.integers(1, 2))
    return n_shards, rows


class TestKeyedMergeRebuildsTheSerialOrder:
    """Split a serial row sequence over shards by owner, ship each shard's
    record through pickle, merge: the serial sequence comes back."""

    @pytest.mark.parametrize("fill_channels", [True, False])
    @pytest.mark.parametrize("scrambled", [True, False])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_merge_equals_serial(self, scrambled, fill_channels, data):
        n_shards, rows = data.draw(_serial_rows(scrambled, fill_channels))
        schedulers = [SimpleNamespace(current_key=0) for _ in range(n_shards)]
        traces = [_KeyedTrace(scheduler) for scheduler in schedulers]
        serial = Trace()
        injected = sum(row[0] == "chan" for row in rows)
        lens = {}
        for phase in ("proc", "chan", "run"):
            for index, (row_phase, shard, raw_key, time, kind, process,
                        extra) in enumerate(rows):
                if row_phase == phase:
                    fields = {"tag": "pif", "i": index, **extra}
                    serial.emit(time, kind, process, **fields)
                    schedulers[shard].current_key = raw_key
                    traces[shard].emit(time, kind, process, **fields)
            lens[phase] = [len(trace) for trace in traces]
            # The serial scramble's own two rows, where it emits them.
            if scrambled and phase == "proc":
                serial.emit(0, EventKind.SCRAMBLE, None, what="processes")
            if scrambled and fill_channels and phase == "chan":
                serial.emit(0, EventKind.SCRAMBLE, None, what="channels",
                            injected=injected)

        no_sim = SimpleNamespace(stats=None)
        payloads = [
            pickle.loads(pickle.dumps(shard_result_payload(
                no_sim, trace, lens["proc"][shard], lens["chan"][shard],
                (), None, None)))
            for shard, trace in enumerate(traces)
        ]
        merged = merge_worker_traces(payloads, scrambled, fill_channels, injected)
        assert list(merged.scan()) == list(serial.scan())
        assert merged.canonical_hash() == serial.canonical_hash()
        assert ([d for _t, _k, _p, d in merged.scan(EventKind.SCRAMBLE)]
                == [d for _t, _k, _p, d in serial.scan(EventKind.SCRAMBLE)])
        assert len(merged.kind_rows(EventKind.SCRAMBLE)) == (
            (1 + fill_channels) if scrambled else 0)

    def test_keys_that_straddle_the_split_merge_in_key_order(self):
        # A key ships as (key >> SEQ_BITS, key & SEQ_MAX): ``below`` as
        # (h, SEQ_MAX), ``above = below + 1`` as (h + 1, 0).  The upper
        # half decides first, though ``below``'s lower half is the larger.
        below = timer_key(3, SEQ_MAX)
        above = below + 1
        schedulers = [SimpleNamespace(current_key=0) for _ in range(3)]
        traces = [_KeyedTrace(scheduler) for scheduler in schedulers]
        for shard, key in ((0, above), (1, below), (2, above + SEQ_MAX)):
            schedulers[shard].current_key = key
            traces[shard].emit(7, EventKind.NOTE, 3, key=key)
        payloads = [
            pickle.loads(pickle.dumps(shard_result_payload(
                SimpleNamespace(stats=None), trace, 0, 0, (), None, None)))
            for trace in traces]
        assert [payload["keys"] for payload in payloads] == [
            (array("Q", [key >> SEQ_BITS]), array("Q", [key & SEQ_MAX]))
            for key in (above, below, above + SEQ_MAX)]
        merged = merge_worker_traces(payloads, False, False, 0)
        assert [data["key"] for *_, data in merged.scan()] == [
            below, above, above + SEQ_MAX]


class TestTheResultShipsCodeTables:
    """A shard's list columns ship as code tables and its merge-key
    counter as the narrowest array that holds it; neither changes a row."""

    def test_identity_coding_is_exact(self):
        first, second = "".join(["pay", "load"]), "".join(["pay", "load"])
        values = (1, True, 1.0, (1,), (True,), first, second)
        schedulers = [SimpleNamespace(current_key=0) for _ in range(2)]
        traces = [_KeyedTrace(scheduler) for scheduler in schedulers]
        serial = Trace()
        for row, value in enumerate(values * 2):
            fields = {"tag": "pif", "v": value, "w": values[-1 - row % 7]}
            serial.emit(row, EventKind.NOTE, row % 2, **fields)
            traces[row % 2].emit(row, EventKind.NOTE, row % 2, **fields)
        payloads = [pickle.loads(pickle.dumps(shard_result_payload(
            SimpleNamespace(stats=None), trace, 0, 0, (), None, None)))
            for trace in traces]
        assert all(isinstance(column, tuple) for payload in payloads
                   for position, column in enumerate(payload["columns"])
                   if position not in (0, 2))
        merged = merge_worker_traces(payloads, False, False, 0)
        assert list(map(repr, merged.scan())) == list(map(repr, serial.scan()))
        assert merged.canonical_hash() == serial.canonical_hash()
        got = [data["v"] for *_, data in merged.scan()]
        assert [type(value) for value in got] == [type(value) for value in values * 2]
        # The two equal strings are still two objects, as emitted.
        assert got[5] == got[6] and got[5] is not got[6]

    def test_the_counter_ships_in_the_narrowest_typecode(self):
        sim = Simulator(8, build_protocol(_PIF.protocol), topology="ring", seed=3,
                        hosts_for=(1, 2, 3, 4))
        trace = sim.trace = _KeyedTrace(sim.scheduler)
        RequestDriver(sim, pids=(1, 2, 3, 4), tag="pif", requests_per_process=1,
                      payload_fmt="m-{pid}-{k}")
        sim.run(200)
        hi, lo = shard_result_payload(sim, trace, 0, 0, (), None, None)["keys"]
        assert len(lo) == len(trace) > 0
        assert (hi.typecode, lo.typecode) == ("Q", "B")
        for counter, typecode in ((255, "B"), (256, "H"), (65_535, "H"),
                                  (65_536, "I"), (SEQ_MAX, "Q")):
            scheduler = SimpleNamespace(current_key=timer_key(3, 0))
            crafted = _KeyedTrace(scheduler)
            crafted.emit(7, EventKind.NOTE, 3)
            scheduler.current_key = timer_key(3, counter)
            crafted.emit(7, EventKind.NOTE, 3)
            shipped = pickle.loads(pickle.dumps(shard_result_payload(
                SimpleNamespace(stats=None), crafted, 0, 0, (), None, None)))
            hi, lo = shipped["keys"]
            assert (hi.typecode, lo.typecode) == ("Q", typecode)
            assert lo.tolist() == [0, counter]
            assert len(merge_worker_traces([shipped], False, False, 0)) == 2


_NO_EVENTS = ("a TraceEvent was built on the result path: a shard's trace "
              "ships and merges as columns (repro.sim.sharded), views stay "
              "lazy until the merged trace is indexed or iterated")


class TestResultPathBuildsNoEventObjects:
    def test_two_shard_execute(self, built_events):
        run = execute(replace(
            _PIF, topology="ring", seed=3, horizon=1_000_000,
            engine="sharded", sharding=ShardingOpts(shards=2)))
        assert run.completed and len(run.trace.kind_rows(EventKind.DECIDE)) >= 8
        assert run.trace.canonical_hash()
        assert built_events == [], _NO_EVENTS
        assert run.trace[0].kind == EventKind.SCRAMBLE
        assert len(built_events) == 1

    def test_shard_result_payload_of_a_simulator_slice(self, built_events):
        pids = (1, 2, 3, 4)
        sim = Simulator(8, build_protocol(_PIF.protocol), topology="ring", seed=3,
                        hosts_for=pids)
        trace = sim.trace = _KeyedTrace(sim.scheduler)
        _injected, proc_len, chan_len = scramble_shard(sim, trace, 3 ^ 0x5EED, True)
        driver = RequestDriver(
            sim, pids=pids, tag="pif", requests_per_process=1,
            payload_fmt="m-{pid}-{k}")
        sim.run(200)
        payload = shard_result_payload(
            sim, trace, proc_len, chan_len, pids, driver, "pif")
        assert [len(column) for column in payload["keys"]] == [len(trace)] * 2
        assert len(trace) > chan_len > 0
        assert built_events == [], _NO_EVENTS
        shipped = pickle.loads(pickle.dumps(payload))
        merged = merge_worker_traces([shipped], True, True, _injected)
        assert len(merged) == len(trace) + 2
        assert built_events == [], _NO_EVENTS


@pytest.fixture(scope="module")
def two_shard_payloads():
    """The ``merge_worker_traces`` arguments of one real two-shard trial
    (a WAN-weighted PIF run), pickled as the coordinator received them:
    the merge consumes its payloads, so each test unpickles its own."""
    captured = []

    def grab(*args):
        captured.append(pickle.dumps(args))
        return merge_worker_traces(*args)

    coordinator.merge_worker_traces = grab
    try:
        run = execute(replace(
            _PIF, n=64, topology="wan:4", seed=1, horizon=1_000_000,
            engine="sharded", sharding=ShardingOpts(shards=2)))
    finally:
        coordinator.merge_worker_traces = merge_worker_traces
    assert run.completed and len(captured) == 1
    payloads = pickle.loads(captured[0])[0]
    assert len(payloads) == 2 and all(
        len(payload["columns"][0]) > 1000 for payload in payloads)
    return captured[0], run.trace.canonical_hash()


class TestTheMergeStreams:
    """The merge is a k-way merge of sorted runs that consumes what it
    merges, and a run it cannot merge in order is an error, never a
    reorder."""

    def test_the_merge_holds_each_row_once(self, two_shard_payloads):
        shipped, digest = two_shard_payloads
        tracemalloc.start()
        try:
            # From before the unpickling: what a payload holds decoded is
            # part of the cost, however it ships.
            args = pickle.loads(shipped)
            merged = merge_worker_traces(*args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert merged.canonical_hash() == digest
        # ``held`` is the merged store (and what the payloads keep besides
        # their columns).  Each shard column goes as its merged column is
        # built, so decode and merge together never hold more than two
        # columns beyond it: never both payloads' columns and the store.
        widest = max(map(sys.getsizeof, merged.columns()))
        assert peak <= held + 2 * widest, (
            f"decode and merge peak at {peak} B against a merged store of "
            f"{held} B and a widest column of {widest} B: a row is held twice")
        assert not any("columns" in payload or "keys" in payload
                       for payload in args[0])

    def test_a_run_out_of_order_is_an_error(self, two_shard_payloads):
        payloads, *flags = pickle.loads(two_shard_payloads[0])
        shard = payloads[1]
        first, last = shard["chan_len"], len(shard["columns"][0]) - 1
        times, (_, kinds), procs, (_, keys), *fields = shard["columns"]
        for column in (times, kinds, procs, keys,
                       *(codes for _, codes in fields), *shard["keys"]):
            column[first], column[last] = column[last], column[first]
        with pytest.raises(SimulationError,
                           match="shard 1's run rows are out of serial order"):
            merge_worker_traces(payloads, *flags)
