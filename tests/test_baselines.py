"""Tests for the baselines: naive PIF, self-stabilizing token mutex."""

from __future__ import annotations

import pytest

from repro.baselines.naive_pif import NaivePifLayer
from repro.baselines.self_stab_mutex import TokenMessage, TokenMutexLayer
from repro.core.requests import RequestDriver
from repro.sim.channel import DropFirstK
from repro.sim.runtime import Simulator
from repro.spec.mutex_spec import check_mutex
from repro.spec.pif_spec import check_pif
from repro.types import RequestState


def build_naive(host) -> None:
    host.register(NaivePifLayer("np"))


def build_token(host) -> None:
    host.register(TokenMutexLayer("tok"))


class TestNaivePif:
    def test_works_on_reliable_clean_system(self):
        sim = Simulator(3, build_naive, seed=0)
        layer = sim.layer(1, "np")
        layer.request_broadcast("m")
        assert sim.run(50_000, until=lambda s: layer.request is RequestState.DONE)
        verdict = check_pif(sim.trace, "np", sim.pids, require_all_decided=False)
        assert verdict.ok, verdict.summary()

    def test_deadlocks_when_broadcast_lost(self):
        """Failure mode (1) from Section 4.1: a lost message deadlocks it."""
        sim = Simulator(2, build_naive, seed=1, loss=DropFirstK(1))
        layer = sim.layer(1, "np")
        layer.request_broadcast("m")
        assert not sim.run(50_000, until=lambda s: layer.request is RequestState.DONE)

    def test_believes_stale_feedback(self):
        """Failure mode (2): garbage feedback counts as an acknowledgment."""
        from repro.baselines.naive_pif import NaiveMessage

        sim = Simulator(2, build_naive, seed=2, auto=False)
        layer = sim.layer(1, "np")
        # Stale feedback sits in the channel; the broadcast channel is full
        # of garbage, so q never gets the real broadcast.
        sim.inject(2, 1, NaiveMessage("np", "fck", "stale"), schedule=False)
        sim.inject(1, 2, NaiveMessage("np", "brd", "old-garbage"), schedule=False)
        layer.request_broadcast("m")
        sim.activate(1)                 # start: broadcast lost (channel full)
        sim.step_deliver(2, 1)          # stale feedback arrives
        sim.activate(1)                 # decides on garbage
        assert layer.request is RequestState.DONE
        verdict = check_pif(sim.trace, "np", sim.pids, require_all_decided=False)
        assert not verdict.ok

    def test_scramble_and_garbage_interfaces(self):
        import random

        sim = Simulator(2, build_naive, auto=False)
        layer: NaivePifLayer = sim.layer(1, "np")
        layer.scramble(random.Random(1))
        msg = layer.garbage_message(random.Random(1))
        assert msg.tag == "np"
        snap = layer.snapshot()
        layer.restore(snap)


class TestTokenMutex:
    def test_serves_requests_on_clean_system(self):
        sim = Simulator(4, build_token, seed=0)
        driver = RequestDriver(sim, "tok", requests_per_process=2)
        assert sim.run(2_000_000, until=lambda s: driver.done)
        verdict = check_mutex(sim.trace, "tok", horizon=sim.now)
        assert verdict.ok, verdict.summary()

    def test_recovers_token_after_loss(self):
        sim = Simulator(3, build_token, seed=1, loss=DropFirstK(3))
        driver = RequestDriver(sim, "tok", requests_per_process=1)
        assert sim.run(2_000_000, until=lambda s: driver.done)

    def test_can_violate_safety_from_forged_tokens(self):
        """The self-stabilizing baseline is *not* snap-stabilizing: some
        arbitrary initial configuration with several forged tokens makes two
        requesting processes collide."""
        violating_seeds = 0
        for seed in range(12):
            sim = Simulator(4, build_token, seed=seed)
            for pid in sim.pids:  # forge a token at every process
                layer: TokenMutexLayer = sim.layer(pid, "tok")
                layer.have_token = True
                layer.token_epoch = 0
            driver = RequestDriver(sim, "tok", requests_per_process=1)
            sim.run(2_000_000, until=lambda s: driver.done)
            verdict = check_mutex(sim.trace, "tok", horizon=sim.now,
                                  require_all_served=False)
            if not verdict.ok:
                violating_seeds += 1
        assert violating_seeds > 0

    def test_leader_is_min_pid(self):
        sim = Simulator(3, build_token, auto=False)
        assert sim.layer(1, "tok").is_leader
        assert not sim.layer(2, "tok").is_leader

    def test_successor_wraps_around(self):
        sim = Simulator(3, build_token, auto=False)
        assert sim.layer(3, "tok").successor == 1
        assert sim.layer(1, "tok").successor == 2

    def test_stale_epoch_flushed_at_leader(self):
        sim = Simulator(2, build_token, auto=False)
        leader: TokenMutexLayer = sim.layer(1, "tok")
        leader.epoch = 5
        leader.on_message(2, TokenMessage("tok", epoch=3))
        assert not leader.have_token  # stale token discarded

    def test_valid_epoch_accepted_and_advanced(self):
        sim = Simulator(2, build_token, auto=False)
        leader: TokenMutexLayer = sim.layer(1, "tok")
        leader.epoch = 5
        leader.on_message(2, TokenMessage("tok", epoch=5))
        assert leader.have_token
        assert leader.epoch == 6


def _on_ring(layer: type, n: int, seeds: list[int],
             requests_per_process: int) -> list[tuple[int, int]]:
    """(Correctness violations, requests served) per scrambled seed of
    ``layer`` on a ring: the snap protocol judged per leader cluster, the
    token baseline against the global exclusion it claims."""
    from repro.core.mutex import MutexLayer
    from repro.core.protocols import PROTOCOLS

    outcomes = []
    for seed in seeds:
        sim = Simulator(n, lambda h: h.register(layer("mx")),
                        topology="ring", seed=seed)
        sim.scramble(seed=seed ^ 0xBAD)
        driver = RequestDriver(sim, "mx",
                               requests_per_process=requests_per_process)
        sim.run(600_000, until=lambda s: driver.done)
        scoped = (PROTOCOLS["me"].scope(sim.topology)
                  if layer is MutexLayer else {})
        verdict = check_mutex(sim.trace, "mx", horizon=sim.now,
                              require_all_served=False, **scoped)
        outcomes.append((len(verdict.by_property("Correctness")),
                         driver.total_completed()))
    return outcomes


class TestTokenMutexOnRing:
    """E6 ported off the complete graph: the virtual token ring embeds in
    a physical Ring, so the snap-vs-self comparison runs there unchanged."""

    def test_comparison_runs_on_ring_topology(self):
        from repro.core.mutex import MutexLayer

        snap = _on_ring(MutexLayer, 5, [0, 1, 2], 2)
        # Snap-stabilizing ME: zero violations from any initial configuration.
        assert [violations for violations, _ in snap] == [0, 0, 0]
        assert sum(served for _, served in snap) == 5 * 3 * 2
        # The self-stabilizing baseline still serves requests on the ring.
        assert sum(served for _, served in
                   _on_ring(TokenMutexLayer, 5, [0, 1, 2], 2)) > 0

    def test_baseline_violates_on_ring_from_forged_tokens(self):
        # Over a batch of scrambles at least one forged-token overlap shows
        # up on the ring, exactly as on the complete graph.
        assert any(violations for violations, _ in
                   _on_ring(TokenMutexLayer, 5, list(range(6)), 1))

    def test_token_ring_rejects_non_embeddable_topology(self):
        import pytest
        from repro.baselines.self_stab_mutex import TokenMutexLayer
        from repro.errors import ProtocolError
        from repro.sim.runtime import Simulator

        with pytest.raises(ProtocolError):
            Simulator(
                4, lambda h: h.register(TokenMutexLayer("tok")),
                topology="star", auto=False,
            )
