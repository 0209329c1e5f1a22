"""Tests for the PIF-based applications."""

from __future__ import annotations

import pytest

from repro.applications.leader_election import LeaderElectionLayer
from repro.applications.phase_sync import BarrierLayer
from repro.applications.reset import ResetLayer
from repro.applications.snapshot import SnapshotLayer
from repro.applications.termination_detection import (
    ObservedComputation,
    TerminationDetectorLayer,
)
from repro.sim.channel import BernoulliLoss
from repro.sim.runtime import Simulator
from repro.types import RequestState


class TestLeaderElection:
    def test_elects_minimum_identity(self):
        sim = Simulator(4, lambda h: h.register(LeaderElectionLayer("e")), seed=0)
        layer = sim.layer(3, "e")
        layer.request_election()
        assert sim.run(300_000, until=lambda s: layer.request is RequestState.DONE)
        assert layer.leader == 1
        assert not layer.is_leader

    def test_custom_identities(self):
        idents = {1: 99, 2: 5, 3: 42}
        sim = Simulator(
            3,
            lambda h: h.register(LeaderElectionLayer("e", ident=idents[h.pid])),
            seed=1,
        )
        layer = sim.layer(2, "e")
        layer.request_election()
        assert sim.run(300_000, until=lambda s: layer.request is RequestState.DONE)
        assert layer.leader == 5
        assert layer.is_leader

    def test_snap_stabilizing_from_scramble(self):
        sim = Simulator(3, lambda h: h.register(LeaderElectionLayer("e")), seed=2)
        sim.scramble(seed=2)
        layer = sim.layer(2, "e")
        layer.request_election()
        assert sim.run(500_000, until=lambda s: layer.request is RequestState.DONE)
        assert layer.leader == 1

    def test_all_elect_concurrently_and_agree(self):
        sim = Simulator(4, lambda h: h.register(LeaderElectionLayer("e")), seed=3)
        for p in sim.pids:
            sim.layer(p, "e").request_election()
        ok = sim.run(
            500_000,
            until=lambda s: all(
                s.layer(p, "e").request is RequestState.DONE for p in s.pids
            ),
        )
        assert ok
        assert {sim.layer(p, "e").leader for p in sim.pids} == {1}


class TestSnapshot:
    def test_collects_all_states(self):
        def build(host):
            host.register(
                SnapshotLayer("s", state_provider=lambda pid=host.pid: pid * 11)
            )

        sim = Simulator(4, build, seed=0)
        layer = sim.layer(2, "s")
        layer.request_snapshot()
        assert sim.run(300_000, until=lambda s: layer.request is RequestState.DONE)
        assert layer.snapshot_result == {1: 11, 2: 22, 3: 33, 4: 44}

    def test_stale_collected_values_discarded_on_new_wave(self):
        def build(host):
            host.register(SnapshotLayer("s", state_provider=lambda: "fresh"))

        sim = Simulator(3, build, seed=1)
        layer: SnapshotLayer = sim.layer(1, "s")
        layer.collected = {2: "stale", 3: "stale"}
        layer.request_snapshot()
        assert sim.run(300_000, until=lambda s: layer.request is RequestState.DONE)
        assert set(layer.snapshot_result.values()) == {"fresh"}

    def test_snapshot_under_loss(self):
        def build(host):
            host.register(SnapshotLayer("s", state_provider=lambda: 7))

        sim = Simulator(3, build, seed=2, loss=BernoulliLoss(0.2))
        layer = sim.layer(3, "s")
        layer.request_snapshot()
        assert sim.run(1_000_000, until=lambda s: layer.request is RequestState.DONE)
        assert layer.snapshot_result == {1: 7, 2: 7, 3: 7}


class TestReset:
    def test_every_process_resets_during_wave(self):
        counts: dict[int, int] = {}

        def build(host):
            counts[host.pid] = 0

            def handler(pid=host.pid):
                counts[pid] += 1

            host.register(ResetLayer("r", handler=handler))

        sim = Simulator(4, build, seed=0)
        layer = sim.layer(1, "r")
        layer.request_reset()
        assert sim.run(300_000, until=lambda s: layer.request is RequestState.DONE)
        assert all(count >= 1 for count in counts.values())

    def test_initiator_resets_at_decide(self):
        def build(host):
            host.register(ResetLayer("r"))

        sim = Simulator(2, build, seed=1)
        layer: ResetLayer = sim.layer(1, "r")
        layer.request_reset()
        assert sim.run(300_000, until=lambda s: layer.request is RequestState.DONE)
        assert layer.reset_count >= 1


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


class TestBarrier:
    def test_all_cross_together(self):
        sim = Simulator(3, lambda h: h.register(BarrierLayer("b")), seed=0)
        for p in sim.pids:
            sim.layer(p, "b").request_barrier()
        ok = sim.run(
            500_000,
            until=lambda s: all(s.layer(p, "b").phase == 1 for p in s.pids),
        )
        assert ok

    def test_nobody_crosses_alone(self):
        sim = Simulator(3, lambda h: h.register(BarrierLayer("b")), seed=1)
        sim.layer(1, "b").request_barrier()  # others never arrive
        sim.run(30_000)
        assert sim.layer(1, "b").phase == 0
        assert sim.layer(1, "b").request is RequestState.IN

    def test_multiple_rounds(self):
        sim = Simulator(3, lambda h: h.register(BarrierLayer("b")), seed=2)

        def all_at(k):
            return lambda s: all(s.layer(p, "b").phase == k for p in s.pids)

        for round_no in (1, 2, 3):
            for p in sim.pids:
                sim.layer(p, "b").request_barrier()
            assert sim.run(1_000_000, until=all_at(round_no))

    def test_laggard_released_by_feedback(self):
        sim = Simulator(2, lambda h: h.register(BarrierLayer("b")), seed=3)
        sim.layer(1, "b").request_barrier()
        sim.run(5_000)
        sim.layer(2, "b").request_barrier()  # late arrival
        ok = sim.run(
            500_000,
            until=lambda s: all(s.layer(p, "b").phase == 1 for p in s.pids),
        )
        assert ok
