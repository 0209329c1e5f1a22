"""Unit tests for configurations (Definitions 2-4), their canonical key and
manual mode's transition relation."""

from __future__ import annotations

import random

import pytest

from repro.baselines.naive_pif import NaiveMessage
from repro.core.idl import IdlLayer
from repro.core.messages import PifMessage
from repro.core.mutex import MutexLayer
from repro.core.pif import PifLayer
from repro.errors import ConfigurationError
from repro.sim.configuration import Choice, capture, restore, step, successors
from repro.sim.runtime import Simulator
from repro.types import RequestState


def build(host) -> None:
    host.register(PifLayer("pif"))


class TestCapture:
    def test_capture_contains_all_processes(self):
        sim = Simulator(3, build, auto=False)
        config = capture(sim)
        assert set(config.states) == {1, 2, 3}
        assert "pif" in config.states[1]

    def test_capture_includes_channels(self):
        sim = Simulator(2, build, auto=False)
        layer: PifLayer = sim.layer(1, "pif")
        sim.inject(1, 2, layer.garbage_message(sim.rng), schedule=False)
        config = capture(sim)
        assert len(config.channels[(1, 2)]) == 1
        assert config.channels.get((2, 1), ()) == ()

    def test_capture_is_deep(self):
        """Mutating the live system must not affect a prior capture."""
        sim = Simulator(2, build, auto=False)
        config = capture(sim)
        sim.layer(1, "pif").state[2] = 0
        assert config.states[1]["pif"]["state"][2] == 4


class TestRestore:
    def test_roundtrip_process_state(self):
        sim = Simulator(2, build, auto=False)
        config = capture(sim)
        sim.layer(1, "pif").request = RequestState.IN
        sim.layer(1, "pif").state[2] = 2
        restore(sim, config)
        assert sim.layer(1, "pif").request is RequestState.DONE
        assert sim.layer(1, "pif").state[2] == 4

    def test_restore_repopulates_channels(self):
        sim = Simulator(2, build, auto=False)
        layer: PifLayer = sim.layer(1, "pif")
        sim.inject(1, 2, layer.garbage_message(sim.rng), schedule=False)
        config = capture(sim)
        sim.network.clear_channels()
        restore(sim, config)
        assert sim.network.in_flight() == 1

    def test_restore_clears_stale_channels(self):
        sim = Simulator(2, build, auto=False)
        config = capture(sim)  # empty channels
        layer: PifLayer = sim.layer(1, "pif")
        sim.inject(1, 2, layer.garbage_message(sim.rng), schedule=False)
        restore(sim, config)
        assert sim.network.in_flight() == 0


class TestProjections:
    def test_state_projection(self):
        sim = Simulator(3, build, auto=False)
        config = capture(sim)
        assert config.projection(2) == config.states[2]

    def test_projection_unknown_pid(self):
        sim = Simulator(2, build, auto=False)
        with pytest.raises(ConfigurationError):
            capture(sim).projection(42)

    def test_sequence_projection(self):
        sim = Simulator(2, build, auto=False)
        c1 = capture(sim)
        sim.layer(1, "pif").request = RequestState.IN
        c2 = capture(sim)
        seq = [c.projection(1) for c in (c1, c2)]
        assert seq[0]["pif"]["request"] is RequestState.DONE
        assert seq[1]["pif"]["request"] is RequestState.IN

    def test_abstract_equality(self):
        """The abstract configuration (Definition 2) is the key's process part."""
        sim = Simulator(2, build, auto=False)
        assert capture(sim).key()[0] == capture(sim).key()[0]
        sim.layer(1, "pif").state[2] = 1
        a1 = capture(sim).key()[0]
        sim.layer(1, "pif").state[2] = 2
        assert a1 != capture(sim).key()[0]


def _key_of(*msgs) -> tuple:
    sim = Simulator(2, build, auto=False, unbounded=True)
    for msg in msgs:
        sim.inject(1, 2, msg, schedule=False)
    return capture(sim).key()


class TestKey:
    FIELDS = {"broadcast": "m1", "feedback": "f1", "state": 2, "echo": 3}

    def test_key_ignores_debug_wave_and_nothing_else(self):
        base = dict(tag="pif", broadcast="m0", feedback="f0", state=0, echo=1)
        key = _key_of(PifMessage(**base, debug_wave=(1, 1)))
        assert key == _key_of(PifMessage(**base, debug_wave=(1, 2)))
        assert key == _key_of(PifMessage(**base))
        for name, value in self.FIELDS.items():
            assert key != _key_of(PifMessage(**{**base, name: value})), name
        naive = NaiveMessage("pif", "brd", "m0", debug_wave=(1, 1))
        assert _key_of(naive) == _key_of(NaiveMessage("pif", "brd", "m0"))
        assert _key_of(naive) != _key_of(NaiveMessage("pif", "fck", "m0"))

    def test_key_is_fifo_per_tag(self):
        a1, a2 = (PifMessage("a", f"m{i}", "f0", 0, 0) for i in (1, 2))
        b = PifMessage("b", "m0", "f0", 0, 0)
        assert _key_of(a1, b, a2) == _key_of(b, a1, a2) == _key_of(a1, a2, b)
        assert _key_of(a1, a2, b) != _key_of(a2, a1, b)
        assert hash(_key_of(a1, a2, b)) == hash(_key_of(b, a1, a2))

    def test_key_reads_every_process_state(self):
        sim = Simulator(2, build, auto=False)
        key = capture(sim).key()
        sim.layer(2, "pif").neig_state[1] = 3
        assert capture(sim).key() != key


def _idl(host) -> None:
    host.register(IdlLayer("idl"))


def _me(host) -> None:
    host.register(MutexLayer("me"))


ALL = ("activate", "deliver", "lose")
NO_LOSS = ("activate", "deliver")


class TestTransitionRelation:
    def test_successors_of_a_quiet_system_are_activations(self):
        sim = Simulator(3, build, auto=False)
        assert successors(sim) == [Choice.activate(pid) for pid in (1, 2, 3)]

    def test_deliver_and_lose_take_the_head_of_one_tag(self):
        sim = Simulator(2, build, auto=False, unbounded=True)
        first, second = (PifMessage("pif", f"m{i}", "f0", 0, 0) for i in (1, 2))
        other = PifMessage("x", "m0", "f0", 0, 0)
        for msg in (first, other, second):
            sim.inject(1, 2, msg, schedule=False)
        assert Choice.lose(1, 2, "pif") in successors(sim)
        step(sim, Choice.lose(1, 2, "pif"))
        assert sim.network.channel(1, 2).contents() == (other, second)
        assert sim.stats.dropped_loss == 1
        step(sim, Choice.deliver(1, 2, "pif"))
        assert sim.network.channel(1, 2).contents() == (other,)
        assert sim.layer(2, "pif").neig_state[1] == 0

    @pytest.mark.parametrize("n, layers, seed, kinds", [
        (2, build, 0, ALL), (3, build, 1, ALL), (2, _idl, 2, ALL), (2, _me, 3, ALL),
        (2, _me, 3, NO_LOSS),
    ], ids=["pif-n2", "pif-n3", "idl-n2", "me-n2", "me-n2-into-the-cs"])
    def test_restore_then_the_same_choices_give_the_same_key(
        self, n, layers, seed, kinds
    ):
        """capture, k choices, restore, the same k choices: one key.

        Holds only if restore resets every cache a run builds (compiled
        links, PIF's peer links and wave id, dormancy) and carries which
        processes are busy.  A uniform walk rarely gets an ME process into
        its critical section; the last case never loses a message, and does.
        """
        sim = Simulator(n, layers, seed=seed, auto=False, capacity=1)
        sim.scramble(seed)
        start = capture(sim)
        rng = random.Random(seed)
        choices = []
        for _ in range(300):
            choices.append(rng.choice([c for c in successors(sim) if c.kind in kinds]))
            step(sim, choices[-1])
        end = capture(sim)
        restore(sim, start)
        for choice in choices:
            assert choice in successors(sim)
            step(sim, choice)
        assert capture(sim).key() == end.key()
        if kinds is NO_LOSS:
            assert end.busy
