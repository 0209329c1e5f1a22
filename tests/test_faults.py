"""Tests for the extended fault models (burst loss, targeted loss, corruption)."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.core.messages import PifMessage
from repro.core.pif import PifLayer
from repro.core.requests import RequestDriver
from repro.errors import ChannelError
from repro.sim.faults import (
    GilbertElliottLoss,
    HeaderCorruption,
    PeriodicLoss,
    TargetedLoss,
)
from repro.sim.runtime import Simulator
from repro.spec.pif_spec import check_pif
from repro.types import RequestState


@dataclass(frozen=True)
class Msg:
    tag: str


class TestGilbertElliott:
    def test_burst_state_transitions(self):
        model = GilbertElliottLoss(p_good=0.0, p_bad=0.99, p_gb=1.0, p_bg=1.0)
        rng = random.Random(0)
        assert not model.in_burst
        model.should_drop(rng, "a")  # good -> bad this step
        assert model.in_burst
        model.should_drop(rng, "a")  # bad -> good
        assert not model.in_burst

    def test_drop_rate_higher_in_bad_state(self):
        rng = random.Random(1)
        model = GilbertElliottLoss(p_good=0.01, p_bad=0.8, p_gb=0.05, p_bg=0.05)
        drops = sum(model.should_drop(rng, "a") for _ in range(20_000))
        # Stationary distribution is 50/50 -> expected rate ~0.405.
        assert 0.30 < drops / 20_000 < 0.52

    def test_parameter_validation(self):
        with pytest.raises(ChannelError):
            GilbertElliottLoss(p_bad=1.0)
        with pytest.raises(ChannelError):
            GilbertElliottLoss(p_gb=0.0)

    def test_pif_survives_bursts(self):
        sim = Simulator(
            3, lambda h: h.register(PifLayer("pif")), seed=0,
            loss=GilbertElliottLoss(p_good=0.05, p_bad=0.7, p_gb=0.1, p_bg=0.2),
        )
        sim.scramble(seed=1)
        driver = RequestDriver(
            sim, "pif", requests_per_process=1, payload=lambda pid, k: "m"
        )
        assert sim.run(3_000_000, until=lambda s: driver.done)
        verdict = check_pif(sim.trace, "pif", sim.pids)
        assert verdict.ok, verdict.summary()


class TestPeriodicLoss:
    def test_drops_every_kth(self):
        model = PeriodicLoss(3)
        rng = random.Random(0)
        results = [model.should_drop(rng, "a") for _ in range(9)]
        assert results == [False, False, True] * 3

    def test_rejects_period_one(self):
        with pytest.raises(ChannelError):
            PeriodicLoss(1)

    def test_pif_survives_periodic_loss(self):
        sim = Simulator(
            2, lambda h: h.register(PifLayer("pif")), seed=2,
            loss=PeriodicLoss(2),
        )
        layer = sim.layer(1, "pif")
        layer.request_broadcast("m")
        assert sim.run(1_000_000,
                       until=lambda s: layer.request is RequestState.DONE)


class TestTargetedLoss:
    def test_only_targeted_tags_dropped(self):
        model = TargetedLoss({"victim"}, p=0.9)
        rng = random.Random(0)
        assert not any(model.should_drop(rng, "other") for _ in range(100))
        drops = sum(model.should_drop(rng, "victim") for _ in range(1000))
        assert drops > 700

    def test_mutex_survives_attack_on_one_instance(self):
        """Even with ME's own PIF instance under 60% targeted loss, every
        request is eventually served (fairness is preserved)."""
        from repro.core.mutex import MutexLayer

        sim = Simulator(
            3, lambda h: h.register(MutexLayer("me")), seed=3,
            loss=TargetedLoss({"me/pif"}, p=0.6),
        )
        driver = RequestDriver(sim, "me", requests_per_process=1)
        assert sim.run(6_000_000, until=lambda s: driver.done)


class TestHeaderCorruption:
    def test_corrupts_only_pif_messages(self):
        model = HeaderCorruption(p=1.0)
        rng = random.Random(0)
        original = PifMessage("pif", "b", "f", state=3, echo=3, debug_wave=(1, 1))
        corrupted = model.maybe_corrupt(rng, original)
        assert corrupted.tag == "pif"
        assert corrupted.debug_wave is None
        assert corrupted.broadcast == "b"
        assert model.maybe_corrupt(rng, Msg("x")) == Msg("x")

    def test_probability_zero_is_identity(self):
        model = HeaderCorruption(p=0.0)
        msg = PifMessage("pif", "b", "f", state=1, echo=2)
        assert model.maybe_corrupt(random.Random(0), msg) is msg
        assert model.corrupted == 0

    def test_liveness_survives_header_corruption(self):
        """Ongoing corruption is outside the paper's fault model (faults
        never cease), so safety is best-effort — but liveness must hold:
        every wave keeps deciding, and no computation hangs."""
        corrupter = HeaderCorruption(p=0.2)
        sim = Simulator(
            3, lambda h: h.register(PifLayer("pif")), seed=4,
            corruption=corrupter,
        )
        driver = RequestDriver(
            sim, "pif", requests_per_process=2, payload=lambda pid, k: f"m{k}"
        )
        assert sim.run(3_000_000, until=lambda s: driver.done)
        assert corrupter.corrupted > 0
        verdict = check_pif(sim.trace, "pif", sim.pids)
        assert verdict.property_ok("Termination"), verdict.summary()
        assert verdict.property_ok("Start"), verdict.summary()

    def test_validation(self):
        with pytest.raises(ChannelError):
            HeaderCorruption(p=1.5)
