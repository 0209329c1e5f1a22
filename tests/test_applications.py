"""Tests for the PIF-based applications: the collect wave (snapshot,
reset) and termination detection over it."""

from __future__ import annotations

from repro.applications.collect import CollectLayer
from repro.applications.termination_detection import (
    ObservedComputation,
    TerminationDetectorLayer,
)
from repro.sim.channel import BernoulliLoss
from repro.sim.runtime import Simulator
from repro.types import RequestState


def _collect(sim, pid, horizon=300_000):
    layer = sim.layer(pid, "c")
    layer.request_collect()
    assert sim.run(horizon, until=lambda s: layer.request is RequestState.DONE)
    return layer.result


class TestSnapshot:
    """A snapshot is a collect whose value is the local state."""

    def test_collects_all_states(self):
        def build(host):
            host.register(CollectLayer("c", value=lambda pid=host.pid: pid * 11))

        sim = Simulator(4, build, seed=0)
        assert _collect(sim, 2) == {1: 11, 2: 22, 3: 33, 4: 44}

    def test_stale_collected_values_discarded_on_new_wave(self):
        def build(host):
            host.register(CollectLayer("c", value=lambda: "fresh"))

        sim = Simulator(3, build, seed=1)
        sim.layer(1, "c").collected = {2: "stale", 3: "stale"}
        assert set(_collect(sim, 1).values()) == {"fresh"}

    def test_snapshot_under_loss(self):
        def build(host):
            host.register(CollectLayer("c", value=lambda: 7))

        sim = Simulator(3, build, seed=2, loss=BernoulliLoss(0.2))
        assert _collect(sim, 3, horizon=1_000_000) == {1: 7, 2: 7, 3: 7}


class TestReset:
    """A reset is a collect whose value is the reset handler: every peer
    runs it when the broadcast reaches it, while the initiator's PIF is
    In, and the initiator when it decides."""

    def _runs(self, n, seed):
        runs: list[tuple[int, str]] = []

        def build(host):
            def handler(pid=host.pid):
                wave = sim.layer(1, "c").pif.request is RequestState.IN
                runs.append((pid, "wave" if wave else "decide"))

            host.register(CollectLayer("c", value=handler))

        sim = Simulator(n, build, seed=seed)
        _collect(sim, 1)
        return runs

    def test_every_process_resets_during_wave(self):
        runs = self._runs(4, seed=0)
        assert sorted(pid for pid, when in runs if when == "wave") == [2, 3, 4]

    def test_initiator_resets_at_decide(self):
        assert self._runs(2, seed=1) == [(2, "wave"), (1, "decide")]


class TestTerminationDetection:
    def build_factory(self, comps):
        def build(host):
            comps[host.pid] = ObservedComputation(idle=True, sent=0, received=0)
            host.register(TerminationDetectorLayer("td", computation=comps[host.pid]))

        return build

    def test_detects_idle_system(self):
        comps: dict[int, ObservedComputation] = {}
        sim = Simulator(3, self.build_factory(comps), seed=0)
        layer = sim.layer(1, "td")
        layer.request_detection()
        assert sim.run(500_000, until=lambda s: layer.terminated)
        assert layer.waves_used >= 2  # needs the double collect

    def test_does_not_announce_while_active(self):
        comps: dict[int, ObservedComputation] = {}
        sim = Simulator(3, self.build_factory(comps), seed=1)
        comps[2].idle = False
        comps[2].sent = 5
        layer = sim.layer(1, "td")
        layer.request_detection()
        sim.run(30_000)
        assert not layer.terminated

    def test_does_not_announce_with_messages_in_flight(self):
        """sent != received means application messages are still flying."""
        comps: dict[int, ObservedComputation] = {}
        sim = Simulator(3, self.build_factory(comps), seed=2)
        comps[1].sent = 3
        comps[2].received = 1  # 2 still in flight
        layer = sim.layer(1, "td")
        layer.request_detection()
        sim.run(30_000)
        assert not layer.terminated

    def test_detects_after_quiescence(self):
        comps: dict[int, ObservedComputation] = {}
        sim = Simulator(3, self.build_factory(comps), seed=3)
        comps[2].idle = False
        layer = sim.layer(1, "td")
        layer.request_detection()
        sim.run(10_000)
        assert not layer.terminated
        comps[2].idle = True
        assert sim.run(500_000, until=lambda s: layer.terminated)
