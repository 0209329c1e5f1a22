"""Unit tests for the simulator runtime."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import pytest

from repro.errors import SimulationError
from repro.sim.channel import BernoulliLoss, DropFirstK
from repro.sim.process import Action, Layer
from repro.sim.runtime import Simulator


@dataclass(frozen=True)
class Note:
    tag: str
    body: str = ""


class EchoLayer(Layer):
    """Records receipts; can be told to send."""

    def __init__(self, tag: str) -> None:
        super().__init__(tag)
        self.received: list[tuple[int, str]] = []

    def on_message(self, sender, msg) -> None:
        self.received.append((sender, msg.body))

    def garbage_message(self, rng):
        return Note(self.tag, "garbage")


def build_echo(host) -> None:
    host.register(EchoLayer("e"))


class TestConstruction:
    def test_int_pids_become_range(self):
        sim = Simulator(3, build_echo, auto=False)
        assert sim.pids == (1, 2, 3)

    def test_explicit_pids(self):
        sim = Simulator([10, 20], build_echo, auto=False)
        assert sim.pids == (10, 20)

    def test_bad_latency_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(2, build_echo, latency=(0, 3))
        with pytest.raises(SimulationError):
            Simulator(2, build_echo, latency=(5, 3))

    def test_bad_activation_period_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(2, build_echo, activation_period=0)

    def test_unknown_host_raises(self):
        sim = Simulator(2, build_echo, auto=False)
        with pytest.raises(SimulationError):
            sim.host(99)


class TestTransmission:
    def test_send_and_deliver(self):
        sim = Simulator(2, build_echo, seed=1)
        assert sim.transmit(1, 2, Note("e", "hello"))
        sim.run(50)
        assert sim.layer(2, "e").received == [(1, "hello")]

    def test_full_channel_drops(self):
        sim = Simulator(2, build_echo, seed=1, auto=False)
        assert sim.transmit(1, 2, Note("e", "first"))
        assert not sim.transmit(1, 2, Note("e", "second"))
        assert sim.stats.dropped_full == 1

    def test_loss_model_drops(self):
        sim = Simulator(2, build_echo, seed=1, loss=DropFirstK(1), auto=False)
        assert not sim.transmit(1, 2, Note("e", "lost"))
        assert sim.stats.dropped_loss == 1
        assert sim.network.in_flight() == 0

    def test_latency_within_bounds(self):
        sim = Simulator(2, build_echo, seed=3, latency=(2, 5))
        delivered: list[int] = []
        sim.delivery_hooks.append(lambda src, dst, msg: delivered.append(sim.now))
        sim.transmit(1, 2, Note("e", "x"))
        sim.run(100)
        assert len(delivered) >= 1
        assert 2 <= delivered[0] <= 5

    def test_capacity_parameter(self):
        sim = Simulator(2, build_echo, capacity=2, auto=False)
        assert sim.transmit(1, 2, Note("e", "a"))
        assert sim.transmit(1, 2, Note("e", "b"))
        assert not sim.transmit(1, 2, Note("e", "c"))

    def test_unbounded_never_drops_full(self):
        sim = Simulator(2, build_echo, unbounded=True, auto=False)
        for i in range(100):
            assert sim.transmit(1, 2, Note("e", str(i)))
        assert sim.stats.dropped_full == 0


class TestBusyDeliveryAndActivation:
    def test_delivery_waits_for_busy_process(self):
        sim = Simulator(2, build_echo, seed=1, latency=(1, 1))
        sim.host(2).set_busy_for(30)
        sim.transmit(1, 2, Note("e", "early"))
        sim.run(10)
        assert sim.layer(2, "e").received == []  # still busy: dispatch deferred
        # The message left its channel slot at the scheduled delivery time
        # (slot accounting is shard-local); it waits at the host instead —
        # still visible to quiescence checks via in_transit().
        assert sim.network.in_flight() == 0
        assert sim.in_transit() == 1
        assert sim.stats.delivered == 0  # not yet dispatched to the layer
        sim.run(60)
        assert sim.layer(2, "e").received == [(1, "early")]
        assert sim.stats.delivered == 1
        assert sim.in_transit() == 0

    def test_busy_process_skips_activations(self):
        fired = []

        class Ticker(Layer):
            def actions(self) -> Sequence[Action]:
                return (Action("t", lambda: True, lambda: fired.append(self.host.now)),)

        sim = Simulator(2, lambda h: h.register(Ticker("t")), seed=0,
                        activation_period=2)
        sim.host(1).set_busy_for(20)
        sim.host(2).set_busy_for(20)
        sim.run(19)
        assert fired == []
        sim.run(40)
        assert fired != []


class TestManualMode:
    def test_no_auto_activations(self):
        fired = []

        class Ticker(Layer):
            def actions(self) -> Sequence[Action]:
                return (Action("t", lambda: True, lambda: fired.append(1)),)

        sim = Simulator(2, lambda h: h.register(Ticker("t")), auto=False)
        sim.run(100)
        assert fired == []
        sim.activate(1)
        assert fired == [1]

    def test_step_deliver_fifo(self):
        sim = Simulator(2, build_echo, auto=False, capacity=3)
        for body in ("a", "b", "c"):
            sim.transmit(1, 2, Note("e", body))
        assert sim.step_deliver(1, 2).body == "a"
        assert sim.step_deliver(1, 2).body == "b"
        assert sim.step_deliver(1, 2).body == "c"
        assert sim.step_deliver(1, 2) is None

    def test_step_deliver_by_tag(self):
        def build(host):
            host.register(EchoLayer("x"))
            host.register(EchoLayer("y"))

        sim = Simulator(2, build, auto=False)
        sim.transmit(1, 2, Note("x", "for-x"))
        sim.transmit(1, 2, Note("y", "for-y"))
        assert sim.step_deliver(1, 2, tag="y").body == "for-y"
        assert sim.layer(2, "y").received == [(1, "for-y")]

    def test_inject_without_schedule(self):
        sim = Simulator(2, build_echo, auto=False)
        sim.inject(1, 2, Note("e", "g"), schedule=False)
        assert sim.network.in_flight() == 1
        sim.run(100)
        assert sim.layer(2, "e").received == []  # never delivered

    def test_inject_auto_schedules_in_auto_mode(self):
        sim = Simulator(2, build_echo, seed=1)
        sim.inject(1, 2, Note("e", "g"))
        sim.run(100)
        assert sim.layer(2, "e").received == [(1, "g")]


class TestRunPredicates:
    def test_until_predicate(self):
        sim = Simulator(2, build_echo, seed=1)
        sim.transmit(1, 2, Note("e", "x"))
        ok = sim.run(1000, until=lambda s: bool(s.layer(2, "e").received))
        assert ok
        assert sim.now < 1000

    def test_until_unsatisfied_returns_false(self):
        sim = Simulator(2, build_echo, seed=1)
        assert not sim.run(50, until=lambda s: False)

    def test_until_true_immediately(self):
        sim = Simulator(2, build_echo, seed=1)
        assert sim.run(50, until=lambda s: True)
        assert sim.now == 0

    def test_run_quiet_on_idle_system(self):
        sim = Simulator(2, build_echo, seed=1)
        assert sim.run_quiet(500)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            from repro.core.pif import PifLayer
            from repro.core.requests import RequestDriver

            sim = Simulator(
                3, lambda h: h.register(PifLayer("pif")), seed=seed,
                loss=BernoulliLoss(0.1),
            )
            sim.scramble(seed=seed + 1)
            driver = RequestDriver(sim, "pif", requests_per_process=1,
                                   payload=lambda pid, k: "m")
            sim.run(200_000, until=lambda s: driver.done)
            return [(e.time, e.kind, e.process) for e in sim.trace]

        assert run(5) == run(5)

    def test_different_seed_different_trace(self):
        def run(seed):
            sim = Simulator(3, build_echo, seed=seed, capacity=16)
            delivered: list[tuple[int, int, int]] = []
            sim.delivery_hooks.append(
                lambda src, dst, msg: delivered.append((sim.now, src, dst)))
            for i in range(8):
                sim.transmit(1, 2, Note("e", f"x{i}"))
                sim.transmit(2, 3, Note("e", f"y{i}"))
            sim.run(200)
            return delivered

        assert run(1) != run(2)


class TestHooks:
    def test_delivery_hook_sees_message(self):
        sim = Simulator(2, build_echo, seed=1)
        seen = []
        sim.delivery_hooks.append(lambda s, d, m: seen.append((s, d, m.body)))
        sim.transmit(1, 2, Note("e", "observed"))
        sim.run(50)
        assert seen == [(1, 2, "observed")]

    def test_activation_hook_fires(self):
        sim = Simulator(2, build_echo, seed=1)
        seen = []
        sim.activation_hooks.append(seen.append)
        sim.run(10)
        assert set(seen) <= {1, 2}
        assert seen


class TestBoundRandint:
    """bound_randint must be a bit-exact stand-in for Random.randint."""

    def test_values_and_stream_state_match_randint(self):
        import random

        from repro.sim.determinism import bound_randint

        for lo, hi in [(1, 3), (0, 1), (0, 7), (2, 9), (5, 5)]:
            reference = random.Random(1234)
            subject = random.Random(1234)
            draw = bound_randint(subject, lo, hi)
            # Same values in the same order...
            assert [draw() for _ in range(500)] == [
                reference.randint(lo, hi) for _ in range(500)
            ], (lo, hi)
            # ...and the underlying stream is left in the identical state,
            # so interleaving with other draws (loss, corruption) on the
            # same per-sender stream stays bit-identical.
            assert subject.getstate() == reference.getstate(), (lo, hi)

    def test_accepts_randint_style_positional_args(self):
        import random

        from repro.sim.determinism import bound_randint

        for lo, hi in [(1, 3), (5, 5)]:  # fast path and fallback path
            reference = random.Random(7)
            subject = random.Random(7)
            draw = bound_randint(subject, lo, hi)
            assert [draw(lo, hi) for _ in range(100)] == [
                reference.randint(lo, hi) for _ in range(100)
            ]

    def test_subclass_falls_back_to_stock_randint(self):
        import random

        from repro.sim.determinism import bound_randint

        class Recording(random.Random):
            pass

        draw = bound_randint(Recording(3), 0, 2)
        assert draw() == random.Random(3).randint(0, 2)

    def test_other_bounds_are_refused(self):
        import random

        from repro.sim.determinism import bound_randint

        for lo, hi in [(1, 3), (5, 5)]:  # fast path and fallback path
            draw = bound_randint(random.Random(7), lo, hi)
            with pytest.raises(ValueError, match="rebuild the cached draw"):
                draw(lo, hi + 1)
