"""Tests for the external request driver."""

from __future__ import annotations

import pytest

from repro.core.pif import PifLayer
from repro.core.requests import CompletedRequest, RequestDriver
from repro.errors import ProtocolError
from repro.sim.runtime import Simulator
from repro.types import RequestState


def build(host) -> None:
    host.register(PifLayer("pif"))


class TestDriver:
    def test_issues_requested_count(self):
        sim = Simulator(3, build, seed=0)
        driver = RequestDriver(
            sim, "pif", requests_per_process=2, payload=lambda pid, k: "m"
        )
        assert sim.run(500_000, until=lambda s: driver.done)
        assert driver.total_completed() == 6

    def test_respects_hypothesis_1(self):
        """Never re-request while the layer is not Done."""
        sim = Simulator(2, build, seed=1)
        seen_states = []

        original = PifLayer.request_broadcast

        def spy(self, payload):
            seen_states.append(self.request)
            original(self, payload)

        PifLayer.request_broadcast = spy
        try:
            driver = RequestDriver(
                sim, "pif", requests_per_process=3, payload=lambda pid, k: "m"
            )
            assert sim.run(500_000, until=lambda s: driver.done)
        finally:
            PifLayer.request_broadcast = original
        assert all(s is RequestState.DONE for s in seen_states)

    def test_waits_out_scrambled_in_state(self):
        sim = Simulator(2, build, seed=2)
        # Both processes start mid-computation (never-started garbage).
        for p in sim.pids:
            layer = sim.layer(p, "pif")
            layer.request = RequestState.IN
            for q in sim.network.peers_of(p):
                layer.state[q] = 0
        driver = RequestDriver(
            sim, "pif", requests_per_process=1, payload=lambda pid, k: "m"
        )
        assert sim.run(500_000, until=lambda s: driver.done)
        assert driver.total_completed() == 2

    def test_latencies_positive(self):
        sim = Simulator(2, build, seed=3)
        driver = RequestDriver(
            sim, "pif", requests_per_process=1, payload=lambda pid, k: "m"
        )
        assert sim.run(500_000, until=lambda s: driver.done)
        assert all(lat > 0 for lat in driver.latencies())
        assert len(driver.latencies()) == 2

    def test_subset_of_processes(self):
        sim = Simulator(3, build, seed=4)
        driver = RequestDriver(
            sim, "pif", pids=[2], requests_per_process=2,
            payload=lambda pid, k: "m",
        )
        assert sim.run(500_000, until=lambda s: driver.done)
        assert driver.total_completed() == 2
        assert all(r.pid == 2 for r in driver.completed())

    def test_completed_per_pid(self):
        sim = Simulator(2, build, seed=5)
        driver = RequestDriver(
            sim, "pif", requests_per_process=2, payload=lambda pid, k: "m"
        )
        assert sim.run(500_000, until=lambda s: driver.done)
        assert len(driver.completed(1)) == 2
        assert len(driver.completed(2)) == 2

    def test_payload_function_receives_sequence(self):
        sim = Simulator(2, build, seed=6)
        payloads = []

        def payload(pid, k):
            payloads.append((pid, k))
            return f"{pid}-{k}"

        driver = RequestDriver(sim, "pif", requests_per_process=2, payload=payload)
        assert sim.run(500_000, until=lambda s: driver.done)
        assert sorted(payloads) == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_rejects_negative_count(self):
        sim = Simulator(2, build, seed=7)
        with pytest.raises(ProtocolError):
            RequestDriver(sim, "pif", requests_per_process=-1)

    def test_zero_requests_done_immediately(self):
        sim = Simulator(2, build, seed=8)
        driver = RequestDriver(sim, "pif", requests_per_process=0)
        sim.run(100)
        assert driver.done
        assert driver.total_completed() == 0

    def test_halting_driver_stops_the_run_where_the_predicate_would(self):
        runs = []
        for halting in (True, False):
            sim = Simulator(3, build, seed=9)
            driver = RequestDriver(sim, "pif", requests_per_process=2,
                                   payload=lambda pid, k: "m",
                                   halt_when_done=halting)
            if halting:
                sim.run(10_000)
            else:
                assert sim.run(10_000, until=lambda s: driver.done)
            assert driver.done and driver.done_at == sim.now
            runs.append((sim.now, sim.scheduler.pops, len(sim.scheduler),
                         sim.stats, list(sim.trace)))
        assert runs[0] == runs[1]

    def test_halting_can_be_switched_off_for_a_drain(self):
        sim = Simulator(3, build, seed=9)
        driver = RequestDriver(sim, "pif", requests_per_process=1,
                               payload=lambda pid, k: "m",
                               halt_when_done=True)
        sim.run(3)  # a horizon-cut serve phase
        assert not driver.done
        driver.halt_when_done = False
        sim.run(10_000)
        assert driver.done and driver.done_at < sim.now == 10_000

    def test_latency_property(self):
        r = CompletedRequest(pid=1, issued_at=10, completed_at=35)
        assert r.latency == 25
