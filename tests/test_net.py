"""The async runtime's contracts.

* ``engine=async --transport loopback`` is **bit-identical** to
  ``engine=serial`` for the same seed: same trace (event for event,
  including payload data), same stats, same finals, same completions, same
  final time — asserted for E3 (PIF) and E5 (ME) across the Complete, Ring
  and Clustered topologies at n <= 16, plus a seeded parameter fuzz with
  the serial engine as oracle (the hypothesis-powered variant lives in
  ``tests/test_net_properties.py``).
* ``--transport tcp`` runs the same protocol layers over real localhost
  sockets; a smoke trial must complete and pass its specification check.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from dataclasses import replace

import pytest
from conftest import trial_spec

from repro.analysis.runner import run_mutex_trial, run_trial
from repro.core.pif import PifLayer
from repro.core.requests import RequestDriver
from repro.engine import (
    EngineRun,
    ShardingOpts,
    TransportOpts,
    TrialSpec,
    execute,
)
from repro.errors import HorizonExceeded, SimulationError
from repro.net.clock import PacedClock
from repro.net.engine import AsyncSimulator
from repro.net.monitors import SpecMonitor, default_monitors
from repro.net import wire
from repro.sim.runtime import Simulator
from repro.sim.scheduler import Scheduler
from repro.sim.trace import EventKind


def _pif_build(host) -> None:
    host.register(PifLayer("pif"))


_PIF_DRIVER = dict(
    tag="pif", requests_per_process=1, payload=lambda pid, k: f"m-{pid}-{k}"
)


def _both(spec: TrialSpec) -> tuple[EngineRun, EngineRun]:
    return (execute(replace(spec, engine="serial")),
            execute(replace(spec, engine="async")))


def _assert_bit_identical(serial: EngineRun, loopback: EngineRun) -> None:
    serial_events = [(e.time, e.kind, e.process, e.data) for e in serial.trace]
    loopback_events = [(e.time, e.kind, e.process, e.data) for e in loopback.trace]
    assert serial_events == loopback_events
    assert serial.stats.as_dict() == loopback.stats.as_dict()
    assert dict(serial.stats.sent_by_tag) == dict(loopback.stats.sent_by_tag)
    assert serial.finals == loopback.finals
    assert serial.completions == loopback.completions
    assert serial.completed == loopback.completed
    assert serial.final_time == loopback.final_time


class TestLoopbackBitIdentity:
    """Acceptance: Complete, Ring and Clustered at n <= 16, same seed."""

    @pytest.mark.parametrize(
        "n,topology",
        [(16, None), (16, "ring"), (16, "clustered:4")],
        ids=["complete", "ring", "clustered"],
    )
    def test_pif_trace_bit_identical(self, n, topology):
        serial, loopback = _both(trial_spec("pif", 
            n, topology=topology, seed=0, loss=0.1, horizon=4_000_000))
        _assert_bit_identical(serial, loopback)

    @pytest.mark.parametrize(
        "n,topology",
        [(8, None), (8, "ring"), (16, "clustered:4")],
        ids=["complete", "ring", "clustered"],
    )
    def test_mutex_trace_bit_identical(self, n, topology):
        # ME exercises busy windows, call_later timers and parked
        # dispatches — the paths where a coroutine runtime could diverge.
        # Ring/Complete run at n=8 (ME ring convergence cost grows steeply
        # with n — see docs/engine.md); Clustered covers n=16.
        serial, loopback = _both(trial_spec("me", 
            n, topology=topology, seed=1, loss=0.1, horizon=4_000_000))
        _assert_bit_identical(serial, loopback)

    def test_loopback_monitors_pass_when_spec_passes(self):
        spec = trial_spec("pif", 8, topology="clustered:2", seed=2, loss=0.2,
                          horizon=4_000_000)
        serial = run_trial(spec)
        loopback = run_trial(replace(spec, engine="async"))
        assert (loopback.ok, loopback.violations) == (True, 0)
        assert loopback.measurements == serial.measurements
        assert loopback.provenance["engine"] == "async"
        assert loopback.provenance["transport"] == "loopback"

    def test_different_seeds_differ(self):
        ring = trial_spec("pif", 8, topology="ring", horizon=4_000_000)
        _, run_a = _both(replace(ring, seed=0))
        _, run_b = _both(replace(ring, seed=1))
        a = [(e.time, e.kind, e.process, e.data) for e in run_a.trace]
        b = [(e.time, e.kind, e.process, e.data) for e in run_b.trace]
        assert a != b


class TestSeededFuzzOracle:
    """Hypothesis-style seeded fuzz: serial output is the oracle.

    Parameters (topology family, loss rate, scramble on/off) are derived
    deterministically from the case seed, so the sweep covers the axis
    product without a hypothesis dependency (CI runs this everywhere; the
    shrinking variant is in test_net_properties.py).
    """

    TOPOLOGIES = [None, "ring", "star", "clustered:2", "gnp:0.5"]
    LOSSES = [0.0, 0.1, 0.3]

    @pytest.mark.parametrize("case", range(10))
    def test_fuzzed_config_matches_serial(self, case):
        topology = self.TOPOLOGIES[case % len(self.TOPOLOGIES)]
        loss = self.LOSSES[case % len(self.LOSSES)]
        scramble = case % 2 == 0
        n = 4 + (case * 3) % 5  # 4..8
        _assert_bit_identical(*_both(trial_spec("pif", 
            n, topology=topology, seed=case, loss=loss, scramble=scramble,
            horizon=2_000_000)))


class TestTcpTransport:
    """Real sockets: best-effort timing, spec-checked like any trial."""

    def test_e3_over_tcp_completes_with_monitors_passing(self):
        try:
            trial = run_trial(trial_spec("pif",
                4, seed=0, horizon=30_000, engine="async",
                transport=TransportOpts(transport="tcp")))
        except OSError as exc:  # pragma: no cover - sandboxed networking
            pytest.skip(f"cannot bind localhost sockets here: {exc}")
        assert (trial.ok, trial.violations) == (True, 0)
        assert trial.measurements["messages"] > 0
        assert trial.provenance["transport"] == "tcp"

    def test_tcp_trial_is_spec_correct_offline_too(self):
        from repro.spec.pif_spec import check_pif

        try:
            run = execute(trial_spec("pif", 
                4, seed=3, loss=0.1, horizon=30_000, engine="async",
                transport=TransportOpts(transport="tcp")))
        except OSError as exc:  # pragma: no cover - sandboxed networking
            pytest.skip(f"cannot bind localhost sockets here: {exc}")
        verdict = check_pif(run.trace, "pif", run.pids, final_requests=run.finals)
        assert verdict.ok, verdict.violations


class TestWireFormat:
    def test_message_frame_roundtrip(self):
        from repro.core.messages import PifMessage

        msg = PifMessage(tag="pif", broadcast="b", feedback="f", state=2, echo=1)
        frame = wire.encode_message(41, msg)

        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            return await wire.read_frame(reader)

        kind, payload = asyncio.run(decode())
        assert kind == wire.MESSAGE
        seq, decoded = wire.decode_message(payload)
        assert seq == 41
        assert decoded == msg

    def test_hello_roundtrip(self):
        frame = wire.encode_hello(7)

        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            return await wire.read_frame(reader)

        kind, payload = asyncio.run(decode())
        assert kind == wire.HELLO
        assert wire.decode_hello(payload) == 7

    def test_version_mismatch_rejected(self):
        frame = bytearray(wire.encode_hello(1))
        frame[1] = 99  # version byte

        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_data(bytes(frame))
            reader.feed_eof()
            return await wire.read_frame(reader)

        with pytest.raises(wire.WireError):
            asyncio.run(decode())

    def test_undecodable_payload_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode_message(b"\x80\x04 this is not a pickle")
        assert pickle  # silence linters: imported for clarity of intent


class TestClocks:
    def test_paced_clock_clamps_past_schedules(self):
        clock = PacedClock(0.001)
        clock._now = 50
        clock.post_at(10, lambda: None)  # would raise on the base Scheduler
        assert clock._queue[0][0] == 50


class _BoomLayer(PifLayer):
    def on_message(self, sender, msg) -> None:
        raise RuntimeError("boom in on_message")


def _boom_build(host) -> None:
    host.register(_BoomLayer("pif"))


class TestErrorSink:
    """A failure raised where a frame lands reaches the trial through the
    error sink; on an unpaced medium it is simply the exception."""

    @pytest.mark.parametrize("transport", ["tcp", "udp"])
    def test_dispatch_failure_fails_a_socket_trial_promptly(self, transport):
        asim = AsyncSimulator(
            3, _boom_build, seed=0, transport=transport, tick=0.001)
        started = time.perf_counter()
        try:
            with pytest.raises(SimulationError) as excinfo:
                asim.run_trial(horizon=60_000, driver=_PIF_DRIVER, drain=200)
        except OSError as exc:  # pragma: no cover - sandboxed networking
            pytest.skip(f"cannot bind localhost sockets here: {exc}")
        assert time.perf_counter() - started < 10  # not the 60 s horizon
        assert "transport failure(s); first: RuntimeError: boom in on_message" \
            in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_dispatch_failure_on_loopback_raises_as_on_serial(self):
        sim = Simulator(3, _boom_build, seed=0)
        RequestDriver(sim, **_PIF_DRIVER)
        with pytest.raises(RuntimeError, match="boom in on_message"):
            sim.run(60_000)
        asim = AsyncSimulator(3, _boom_build, seed=0)
        with pytest.raises(RuntimeError, match="boom in on_message"):
            asim.run_trial(horizon=60_000, driver=_PIF_DRIVER, drain=200)

    def test_loopback_runs_the_serial_scheduler_and_no_process_tasks(
            self, monkeypatch):
        sims, task_names = [], set()
        real_run_trial = AsyncSimulator.run_trial

        def spy(sim, **kwargs):
            sims.append(sim)
            sim.delivery_hooks.append(lambda src, dst, msg: task_names.update(
                task.get_name() for task in asyncio.all_tasks()))
            return real_run_trial(sim, **kwargs)

        monkeypatch.setattr(AsyncSimulator, "run_trial", spy)
        run = execute(trial_spec("pif", 4, seed=0, horizon=30_000,
                                 engine="async"))
        assert run.completed
        assert type(sims[0].scheduler) is Scheduler
        assert task_names  # sampled mid-run, at every delivery
        assert not [name for name in task_names if name.startswith("proc-")]


class TestValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(SimulationError):
            AsyncSimulator(4, _pif_build, transport="carrier-pigeon")

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            execute(trial_spec("pif", 3, horizon=10, engine="quantum"))

    def test_round_budget_requires_serial(self):
        with pytest.raises(SimulationError):
            execute(trial_spec("me", 3, horizon=10, engine="async", round_budget=5))

    def test_transport_without_async_engine_rejected(self):
        # A tcp transport on the serial engine would silently run in
        # process; refuse instead (the classic forgotten --engine async).
        with pytest.raises(SimulationError):
            execute(trial_spec("pif", 3, horizon=10,
                              transport=TransportOpts(transport="tcp")))
        with pytest.raises(SimulationError):
            execute(trial_spec("pif", 3, horizon=10,
                              transport=TransportOpts(tick=0.01)))

    def test_shards_without_sharded_engine_rejected(self):
        with pytest.raises(SimulationError):
            execute(trial_spec("pif", 3, horizon=10, engine="async",
                              sharding=ShardingOpts(shards=2)))
        with pytest.raises(SimulationError):
            execute(trial_spec("pif", 3, horizon=10,
                              sharding=ShardingOpts(window=1)))

    def test_run_trial_is_single_use(self):
        asim = AsyncSimulator(3, _pif_build, seed=0)
        asim.run_trial(horizon=100_000, driver=_PIF_DRIVER, drain=200)
        with pytest.raises(SimulationError):
            asim.run_trial(horizon=100_000, driver=_PIF_DRIVER, drain=200)


class TestRoundBudget:
    def test_exhausted_budget_raises_horizon_exceeded(self):
        with pytest.raises(HorizonExceeded) as excinfo:
            run_mutex_trial(TrialSpec(n=8, topology="ring", round_budget=2),
                            requests_per_process=1)
        err = excinfo.value
        assert err.rounds is not None and err.rounds > 2
        assert err.served is not None and err.requested == 8

    def test_generous_budget_completes(self):
        # A completing ring trial uses ~2n grants; 4n is generous.
        trial = run_mutex_trial(TrialSpec(n=8, topology="ring", round_budget=32),
                                requests_per_process=1)
        assert trial.ok
        assert trial.measurements["completed"]


class TestOnlineMonitors:
    """The per-row adapter end to end: observe → report.  The rows are
    cases of the shared table (``tests/spec_corpus.py``), where
    ``tests/test_spec.py`` also judges them through ``check_*``."""

    @staticmethod
    def _observed(name):
        from spec_corpus import CASES
        from repro.sim.topology import Complete

        case = CASES[name]
        [monitor] = default_monitors(case.spec, Complete(4))
        for row in case.rows:
            monitor.observe(*row)
        return monitor

    def test_mutex_monitor_flags_overlap(self):
        monitor = self._observed("net-mutex-overlap")
        report = monitor.report(require_all_served=False)
        assert not report.ok
        assert "overlap" in report.violations[0].detail
        assert report.first_violation_time == 2
        assert report.events_observed == 2

    def test_mutex_monitor_ignores_cross_cluster_overlap(self):
        from repro.sim.topology import topology_from_spec

        # Leader clusters {1, 2, 3, 4} and {5, 6}.
        topology = topology_from_spec("clustered:2", 6)
        [monitor] = default_monitors("me", topology)
        enter = {"tag": "me", "requested": True}
        monitor.observe(1, EventKind.CS_ENTER, 1, enter)
        monitor.observe(2, EventKind.CS_ENTER, 6, enter)
        assert monitor.report().ok
        monitor.observe(3, EventKind.CS_ENTER, 5, enter)
        assert len(monitor.report().violations) == 1

    def test_pif_monitor_flags_missing_ack(self):
        monitor = self._observed("net-pif-missing-ack")
        report = monitor.report()
        assert not report.ok
        # p4 of the Complete(4) topology heard nothing, p3 never answered.
        assert any("acknowledgment from 3" in v.detail for v in report.violations)

    def test_liveness_monitor_flags_unanswered_request(self):
        """Start/Termination residues are clauses of the specification's
        own automaton, judged whenever ``report`` is read."""
        monitor = self._observed("net-unanswered-request")
        assert [v.prop for v in monitor.report().violations] == ["Start"]
        # Decided, never started.
        monitor.observe(2, EventKind.DECIDE, 1, {"tag": "pif"})
        assert [v.prop for v in monitor.report().violations] == ["Start"]
        monitor.observe(3, EventKind.START, 1,
                        {"tag": "pif", "wave": (1, 1), "payload": "m"})
        assert [v.prop for v in monitor.report().violations] == ["Termination"]

    def test_unknown_tag_is_not_monitored_and_other_kinds_are_skipped(self):
        from repro.sim.topology import Complete

        assert default_monitors("abp", Complete(3)) == []
        [monitor] = default_monitors("idl", Complete(3), {1: 7, 2: 8, 3: 9})
        assert isinstance(monitor, SpecMonitor)
        assert monitor.automaton.idents == {1: 7, 2: 8, 3: 9}
        monitor.observe(1, EventKind.SEND, 1, {"tag": "idl"})
        monitor.observe(1, EventKind.RECEIVE_BRD, 1, {"tag": "idl"})
        monitor.observe(1, EventKind.REQUEST, 1, {"tag": "idl/pif"})
        assert monitor.report().events_observed == 0
