"""Unit tests for the guarded-action process model (Layer / ProcessHost)."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import pytest

from repro.errors import ProtocolError
from repro.sim.process import Action, Layer
from repro.sim.runtime import Simulator


@dataclass(frozen=True)
class Ping:
    tag: str
    body: str = "ping"


class RecorderLayer(Layer):
    """Minimal layer for exercising the host machinery."""

    STATE = ("x", "remaining")

    def __init__(self, tag: str, fire_times: int = 0) -> None:
        super().__init__(tag)
        self.remaining = fire_times
        self.executed: list[str] = []
        self.received: list[tuple[int, Ping]] = []
        self.x = 0

    def actions(self) -> Sequence[Action]:
        return (
            Action("inc", lambda: self.remaining > 0, self._fire),
            Action("never", lambda: False, lambda: self.executed.append("never")),
        )

    def _fire(self) -> None:
        self.remaining -= 1
        self.executed.append("inc")

    def on_message(self, sender: int, msg: Ping) -> None:
        self.received.append((sender, msg))

    def scramble(self, rng: random.Random) -> None:
        self.x = rng.randint(0, 100)


class ParentLayer(Layer):
    def __init__(self, tag: str) -> None:
        super().__init__(tag)
        self.child = RecorderLayer(f"{tag}/child")

    def sublayers(self) -> Sequence[Layer]:
        return (self.child,)


def build_recorder(host) -> None:
    host.register(RecorderLayer("rec", fire_times=2))


class TestRegistration:
    def test_duplicate_tag_rejected(self):
        def build(host):
            host.register(RecorderLayer("dup"))
            host.register(RecorderLayer("dup"))

        with pytest.raises(ProtocolError):
            Simulator(2, build, auto=False)

    def test_sublayers_registered_first(self):
        sim = Simulator(2, lambda h: h.register(ParentLayer("p")), auto=False)
        tags = [layer.tag for layer in sim.host(1).layers]
        assert tags == ["p/child", "p"]

    def test_layer_lookup(self):
        sim = Simulator(2, build_recorder, auto=False)
        assert sim.host(1).layer("rec").tag == "rec"
        assert sim.host(1).has_layer("rec")
        assert not sim.host(1).has_layer("nope")

    def test_missing_layer_raises(self):
        sim = Simulator(2, build_recorder, auto=False)
        with pytest.raises(ProtocolError):
            sim.host(1).layer("nope")

    def test_double_attach_rejected(self):
        # Registering one layer *object* at two hosts must fail: a layer
        # instance belongs to exactly one process.
        shared = RecorderLayer("x")
        with pytest.raises(ProtocolError):
            Simulator(2, lambda h: h.register(shared), auto=False)


class TestActivation:
    def test_guards_control_execution(self):
        sim = Simulator(2, build_recorder, auto=False)
        host = sim.host(1)
        assert host.activate() == 1
        assert host.activate() == 1
        assert host.activate() == 0  # fire_times exhausted
        layer = host.layer("rec")
        assert layer.executed == ["inc", "inc"]

    def test_text_order_within_layer(self):
        executed = []

        class Ordered(Layer):
            def actions(self):
                return (
                    Action("a", lambda: True, lambda: executed.append("a")),
                    Action("b", lambda: True, lambda: executed.append("b")),
                )

        sim = Simulator(2, lambda h: h.register(Ordered("o")), auto=False)
        sim.host(1).activate()
        assert executed == ["a", "b"]

    def test_later_guard_sees_earlier_statement(self):
        """Paper: simultaneously enabled actions run sequentially."""

        class Chained(Layer):
            def __init__(self, tag):
                super().__init__(tag)
                self.flag = False
                self.seen = []

            def actions(self):
                return (
                    Action("set", lambda: not self.flag, self._set),
                    Action("use", lambda: self.flag, lambda: self.seen.append("use")),
                )

            def _set(self):
                self.flag = True

        sim = Simulator(2, lambda h: h.register(Chained("c")), auto=False)
        layer = sim.host(1).layer("c")
        sim.host(1).activate()
        assert layer.seen == ["use"]


class TestDispatch:
    def test_message_routed_by_tag(self):
        sim = Simulator(2, build_recorder, auto=False)
        sim.host(1).dispatch(2, Ping("rec"))
        assert sim.host(1).layer("rec").received == [(2, Ping("rec"))]

    def test_unknown_tag_ignored(self):
        sim = Simulator(2, build_recorder, auto=False)
        sim.host(1).dispatch(2, Ping("unknown"))  # must not raise
        assert sim.host(1).layer("rec").received == []


class TestTopologyView:
    def test_others_in_channel_order(self):
        sim = Simulator(4, build_recorder, auto=False)
        assert sim.host(2).others == (1, 3, 4)

    def test_chan_num_roundtrip(self):
        sim = Simulator(4, build_recorder, auto=False)
        host = sim.host(3)
        for q in host.others:
            assert host.peer_by_num(host.chan_num(q)) == q

    def test_n(self):
        sim = Simulator(5, build_recorder, auto=False)
        assert sim.host(1).n == 5


class TestBusy:
    def test_busy_window(self):
        sim = Simulator(2, build_recorder, auto=False)
        host = sim.host(1)
        assert not host.busy
        host.set_busy_for(10)
        assert host.busy
        assert host.busy_until == 10

    def test_negative_duration_rejected(self):
        sim = Simulator(2, build_recorder, auto=False)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            sim.host(1).set_busy_for(-1)

    def test_busy_blocks_manual_activation(self):
        sim = Simulator(2, build_recorder, auto=False)
        sim.host(1).set_busy_for(10)
        assert sim.activate(1) == 0


class TestSnapshotRestoreScramble:
    def test_roundtrip(self):
        sim = Simulator(2, build_recorder, auto=False)
        host = sim.host(1)
        snap = host.snapshot()
        host.layer("rec").x = 99
        host.restore(snap)
        assert host.layer("rec").x == 0

    def test_scramble_uses_rng(self):
        sim = Simulator(2, build_recorder, auto=False)
        host = sim.host(1)
        host.scramble(random.Random(7))
        expected = random.Random(7).randint(0, 100)
        assert host.layer("rec").x == expected
