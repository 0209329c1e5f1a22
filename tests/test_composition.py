"""Cross-cutting composition tests: stacked instances, capacity, restore."""

from __future__ import annotations

import pytest

from repro.core.mutex import MutexLayer
from repro.core.pif import PifClient, PifLayer
from repro.core.requests import RequestDriver
from repro.sim.configuration import capture, restore
from repro.sim.runtime import Simulator
from repro.spec.mutex_spec import check_mutex
from repro.spec.pif_spec import check_pif
from repro.types import RequestState


class TestMultipleIndependentInstances:
    """Two unrelated applications sharing every process, each with its own
    PIF instance — per-tag channel slots keep them isolated."""

    def build(self, host) -> None:
        host.register(PifLayer("app-a"))
        host.register(PifLayer("app-b"))

    def test_instances_do_not_interfere(self):
        sim = Simulator(3, self.build, seed=0)
        a = sim.layer(1, "app-a")
        b = sim.layer(2, "app-b")
        a.request_broadcast("from-a")
        b.request_broadcast("from-b")
        ok = sim.run(
            300_000,
            until=lambda s: a.request is RequestState.DONE
            and b.request is RequestState.DONE,
        )
        assert ok
        for tag in ("app-a", "app-b"):
            verdict = check_pif(sim.trace, tag, sim.pids)
            assert verdict.ok, verdict.summary()

    def test_per_tag_slots_isolate_instances(self):
        sim = Simulator(2, self.build, seed=1, auto=False)
        assert sim.transmit(1, 2, sim.layer(1, "app-a").garbage_message(sim.rng))
        # app-a's slot is full, app-b's is not.
        assert not sim.transmit(1, 2, sim.layer(1, "app-a").garbage_message(sim.rng))
        assert sim.transmit(1, 2, sim.layer(1, "app-b").garbage_message(sim.rng))

    def test_scramble_covers_both_instances(self):
        sim = Simulator(2, self.build, seed=2, auto=False)
        sim.scramble(seed=3)
        config = capture(sim)
        assert [tag for tag, _ in config.states[1]] == ["app-a", "app-b"]


class TestMutexOnWiderChannels:
    def test_me_with_capacity_two(self):
        """ME is built from PIF; with capacity-2 channels, each embedded PIF
        needs flag domain {0..5} (c+3)."""
        sim = Simulator(
            3,
            lambda h: h.register(MutexLayer("me", max_state=5)),
            seed=0,
            capacity=2,
        )
        sim.scramble(seed=4)
        driver = RequestDriver(sim, "me", requests_per_process=1)
        assert sim.run(4_000_000, until=lambda s: driver.done)
        verdict = check_mutex(sim.trace, "me", horizon=sim.now)
        assert verdict.ok, verdict.summary()


class TestRestoreMidRun:
    def test_restore_rewinds_protocol_state(self):
        sim = Simulator(2, lambda h: h.register(PifLayer("pif")), seed=5)
        checkpoint = capture(sim)
        layer = sim.layer(1, "pif")
        layer.request_broadcast("m")
        assert sim.run(200_000, until=lambda s: layer.request is RequestState.DONE)
        restore(sim, checkpoint)
        assert layer.request is RequestState.DONE  # quiescent again
        assert sim.network.in_flight() == 0
        # The rewound system works again.
        layer.request_broadcast("m2")
        assert sim.run(400_000, until=lambda s: layer.request is RequestState.DONE)


class TestClientExceptionsPropagate:
    """A buggy client must fail loudly, not corrupt the run silently."""

    def test_broadcast_upcall_exception_surfaces(self):
        class Buggy(PifClient):
            def on_broadcast(self, sender, payload):
                raise RuntimeError("client bug")

        def build(host):
            client = Buggy() if host.pid == 2 else PifClient()
            host.register(PifLayer("pif", client=client))

        sim = Simulator(2, build, seed=6)
        sim.layer(1, "pif").request_broadcast("m")
        with pytest.raises(RuntimeError, match="client bug"):
            sim.run(100_000)
