"""Integration tests: full PIF waves against Specification 1."""

from __future__ import annotations

import pytest

from repro.core.pif import PifLayer
from repro.core.requests import RequestDriver
from repro.sim.channel import BernoulliLoss, DropFirstK
from repro.sim.runtime import Simulator
from repro.sim.trace import EventKind
from repro.spec.pif_spec import check_pif
from repro.spec.waves import extract_waves
from repro.types import RequestState


def build(host) -> None:
    host.register(PifLayer("pif"))


def finals(sim):
    return {p: sim.layer(p, "pif").request for p in sim.pids}


def run_to_done(sim, layer, horizon=300_000):
    ok = sim.run(horizon, until=lambda s: layer.request is RequestState.DONE)
    assert ok, "wave never decided"


class TestCleanWave:
    def test_single_wave_satisfies_spec(self):
        sim = Simulator(4, build, seed=0)
        layer = sim.layer(1, "pif")
        layer.request_broadcast("hello")
        run_to_done(sim, layer)
        verdict = check_pif(sim.trace, "pif", sim.pids, final_requests=finals(sim))
        assert verdict.ok, verdict.summary()

    def test_every_peer_got_payload(self):
        sim = Simulator(5, build, seed=1)
        layer = sim.layer(3, "pif")
        layer.request_broadcast("payload-42")
        run_to_done(sim, layer)
        receivers = {
            e.process
            for e in sim.trace.of_kind(EventKind.RECEIVE_BRD)
            if e["payload"] == "payload-42" and e.get("wave") == (3, 1)
        }
        assert receivers == {1, 2, 4, 5}

    def test_feedback_values_transported(self):
        """The paper's motivating example: 'How old are you?'."""
        ages = {1: 30, 2: 40, 3: 50}

        from repro.core.pif import PifClient

        class AgeClient(PifClient):
            def __init__(self, pid):
                self.pid = pid
                self.answers = {}

            def on_broadcast(self, sender, payload):
                if payload == "How old are you?":
                    return ages[self.pid]
                return None

            def on_feedback(self, sender, payload):
                self.answers[sender] = payload

        clients = {}

        def build_age(host):
            clients[host.pid] = AgeClient(host.pid)
            host.register(PifLayer("pif", client=clients[host.pid]))

        sim = Simulator(3, build_age, seed=2)
        layer = sim.layer(1, "pif")
        layer.request_broadcast("How old are you?")
        run_to_done(sim, layer)
        assert clients[1].answers == {2: 40, 3: 50}

    def test_quiescence_after_requests_stop(self):
        """Paper: if requests stop, the system eventually holds no message."""
        sim = Simulator(3, build, seed=3)
        layer = sim.layer(1, "pif")
        layer.request_broadcast("m")
        run_to_done(sim, layer)
        assert sim.run_quiet(10_000)


class TestConcurrentWaves:
    def test_all_processes_broadcast_concurrently(self):
        sim = Simulator(4, build, seed=4)
        for p in sim.pids:
            sim.layer(p, "pif").request_broadcast(f"from-{p}")
        ok = sim.run(
            500_000,
            until=lambda s: all(
                s.layer(p, "pif").request is RequestState.DONE for p in s.pids
            ),
        )
        assert ok
        verdict = check_pif(sim.trace, "pif", sim.pids, final_requests=finals(sim))
        assert verdict.ok, verdict.summary()
        waves = extract_waves(sim.trace, "pif")
        assert len(waves) == 4

    def test_repeated_waves_by_driver(self):
        sim = Simulator(3, build, seed=5)
        driver = RequestDriver(
            sim, "pif", requests_per_process=3,
            payload=lambda pid, k: f"{pid}/{k}",
        )
        assert sim.run(1_000_000, until=lambda s: driver.done)
        verdict = check_pif(sim.trace, "pif", sim.pids)
        assert verdict.ok, verdict.summary()
        assert verdict.info["waves_decided"] == 9

    def test_rows_of_one_wave_share_its_tuple(self):
        """START, RECEIVE_BRD, RECEIVE_FCK and DECIDE rows of one wave
        carry the one ``(pid, seq)`` tuple the wave's messages carry."""
        sim = Simulator(4, build, seed=5)
        driver = RequestDriver(
            sim, "pif", requests_per_process=2,
            payload=lambda pid, k: f"{pid}/{k}",
        )
        assert sim.run(1_000_000, until=lambda s: driver.done)
        kinds = (EventKind.START, EventKind.RECEIVE_BRD,
                 EventKind.RECEIVE_FCK, EventKind.DECIDE)
        objects: dict[tuple[int, int], set[int]] = {}
        for _t, _kind, _p, data in sim.trace.scan(*kinds):
            objects.setdefault(data["wave"], set()).add(id(data["wave"]))
        assert len(objects) == 8
        assert all(len(ids) == 1 for ids in objects.values()), objects


class TestLossyChannels:
    @pytest.mark.parametrize("loss", [0.1, 0.3, 0.5])
    def test_waves_complete_despite_bernoulli_loss(self, loss):
        sim = Simulator(3, build, seed=6, loss=BernoulliLoss(loss))
        layer = sim.layer(1, "pif")
        layer.request_broadcast("lossy")
        run_to_done(sim, layer, horizon=2_000_000)
        verdict = check_pif(sim.trace, "pif", sim.pids, final_requests=finals(sim))
        assert verdict.ok, verdict.summary()

    def test_survives_adversarial_prefix_loss(self):
        sim = Simulator(3, build, seed=7, loss=DropFirstK(20))
        layer = sim.layer(2, "pif")
        layer.request_broadcast("prefix-loss")
        run_to_done(sim, layer, horizon=2_000_000)
        verdict = check_pif(sim.trace, "pif", sim.pids, final_requests=finals(sim))
        assert verdict.ok, verdict.summary()


class TestArbitraryInitialConfigurations:
    @pytest.mark.parametrize("seed", range(8))
    def test_snap_stabilization_from_scramble(self, seed):
        sim = Simulator(3, build, seed=seed, loss=BernoulliLoss(0.1))
        sim.scramble(seed=seed + 100)
        driver = RequestDriver(
            sim, "pif", requests_per_process=2,
            payload=lambda pid, k: f"m{pid}.{k}",
        )
        assert sim.run(2_000_000, until=lambda s: driver.done)
        sim.run(sim.now + 500)  # drain never-started computations
        verdict = check_pif(sim.trace, "pif", sim.pids, final_requests=finals(sim))
        assert verdict.ok, verdict.summary()

    def test_non_started_computations_terminate(self):
        """Termination must hold even for computations nobody requested."""
        sim = Simulator(3, build, seed=9)
        for p in sim.pids:
            sim.layer(p, "pif").request = RequestState.IN
            for q in sim.network.peers_of(p):
                sim.layer(p, "pif").state[q] = 0
        ok = sim.run(
            300_000,
            until=lambda s: all(
                s.layer(p, "pif").request is RequestState.DONE for p in s.pids
            ),
        )
        assert ok

    def test_garbage_only_system_goes_quiet(self):
        sim = Simulator(3, build, seed=10)
        sim.scramble(seed=11)
        assert sim.run_quiet(500_000)


class TestBiggerSystems:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_wave_completes_for_various_n(self, n):
        sim = Simulator(n, build, seed=12)
        layer = sim.layer(1, "pif")
        layer.request_broadcast("scale")
        run_to_done(sim, layer, horizon=1_000_000)
        verdict = check_pif(sim.trace, "pif", sim.pids, final_requests=finals(sim))
        assert verdict.ok, verdict.summary()
