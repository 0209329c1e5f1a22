"""Unit tests for channels and loss models."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.errors import ChannelError
from repro.sim.channel import (
    BernoulliLoss,
    BoundedChannel,
    DropFirstK,
    NoLoss,
    UnboundedChannel,
)


@dataclass(frozen=True)
class Msg:
    tag: str
    body: str = ""


class TestBoundedCapacity:
    def test_admits_up_to_capacity(self):
        ch = BoundedChannel(1, 2, capacity=2)
        assert ch.try_admit(Msg("a"), 0) is not None
        assert ch.try_admit(Msg("a"), 0) is not None
        assert ch.try_admit(Msg("a"), 0) is None  # full -> lost

    def test_capacity_is_per_tag(self):
        ch = BoundedChannel(1, 2, capacity=1)
        assert ch.try_admit(Msg("a"), 0) is not None
        assert ch.try_admit(Msg("b"), 0) is not None  # different instance
        assert ch.try_admit(Msg("a"), 0) is None

    def test_occupancy_tracks_tags(self):
        ch = BoundedChannel(1, 2, capacity=3)
        ch.try_admit(Msg("a"), 0)
        ch.try_admit(Msg("a"), 0)
        ch.try_admit(Msg("b"), 0)
        assert ch.occupancy("a") == 2
        assert ch.occupancy("b") == 1

    def test_invalid_capacity_raises(self):
        with pytest.raises(ChannelError):
            BoundedChannel(1, 2, capacity=0)

    def test_remove_frees_slot(self):
        ch = BoundedChannel(1, 2, capacity=1)
        entry = ch.try_admit(Msg("a"), 0)
        assert ch.is_full_for("a")
        ch.remove(entry)
        assert not ch.is_full_for("a")

    def test_remove_foreign_entry_raises(self):
        ch1 = BoundedChannel(1, 2)
        ch2 = BoundedChannel(2, 1)
        entry = ch1.try_admit(Msg("a"), 0)
        with pytest.raises(ChannelError):
            ch2.remove(entry)


class TestUnbounded:
    def test_never_full(self):
        ch = UnboundedChannel(1, 2)
        for _ in range(500):
            assert ch.try_admit(Msg("a"), 0) is not None
        assert len(ch) == 500
        assert ch.capacity_for("a") is None


class TestInjection:
    def test_inject_respects_capacity(self):
        ch = BoundedChannel(1, 2, capacity=1)
        ch.inject(Msg("a"))
        with pytest.raises(ChannelError):
            ch.inject(Msg("a"))

    def test_inject_on_unbounded_always_succeeds(self):
        ch = UnboundedChannel(1, 2)
        for _ in range(50):
            ch.inject(Msg("a"))
        assert len(ch) == 50


class TestFifo:
    def test_contents_in_order(self):
        ch = UnboundedChannel(1, 2)
        for i in range(5):
            ch.try_admit(Msg("a", str(i)), 0)
        assert [m.body for m in ch.contents()] == ["0", "1", "2", "3", "4"]

    def test_fifo_delivery_time_is_monotone_per_tag(self):
        ch = UnboundedChannel(1, 2)
        t1 = ch.fifo_delivery_time("a", 10)
        t2 = ch.fifo_delivery_time("a", 5)  # proposed earlier than t1
        assert t2 > t1

    def test_fifo_delivery_time_independent_across_tags(self):
        ch = UnboundedChannel(1, 2)
        ch.fifo_delivery_time("a", 10)
        assert ch.fifo_delivery_time("b", 5) == 5

    def test_clear_returns_dropped(self):
        ch = UnboundedChannel(1, 2)
        ch.try_admit(Msg("a"), 0)
        ch.try_admit(Msg("b"), 0)
        dropped = ch.clear()
        assert len(dropped) == 2
        assert len(ch) == 0


class TestLossModels:
    def test_no_loss_never_drops(self):
        rng = random.Random(0)
        model = NoLoss()
        assert not any(model.should_drop(rng, "a") for _ in range(100))

    def test_bernoulli_rate_roughly_matches(self):
        rng = random.Random(42)
        model = BernoulliLoss(0.3)
        drops = sum(model.should_drop(rng, "a") for _ in range(10_000))
        assert 2700 < drops < 3300

    def test_bernoulli_rejects_certain_loss(self):
        with pytest.raises(ChannelError):
            BernoulliLoss(1.0)

    def test_bernoulli_rejects_negative(self):
        with pytest.raises(ChannelError):
            BernoulliLoss(-0.1)

    def test_drop_first_k_per_tag(self):
        rng = random.Random(0)
        model = DropFirstK(2)
        results_a = [model.should_drop(rng, "a") for _ in range(4)]
        results_b = [model.should_drop(rng, "b") for _ in range(4)]
        assert results_a == [True, True, False, False]
        assert results_b == [True, True, False, False]

    def test_drop_first_k_rejects_negative(self):
        with pytest.raises(ChannelError):
            DropFirstK(-1)
