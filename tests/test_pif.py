"""Unit tests for Protocol PIF (Algorithm 1), action by action."""

from __future__ import annotations

import random
from typing import Any

import pytest

from repro.core.messages import PifMessage
from repro.core.pif import PifClient, PifLayer
from repro.errors import ProtocolError
from repro.sim.runtime import Simulator
from repro.sim.trace import EventKind
from repro.types import RequestState


class RecordingClient(PifClient):
    """Captures every upcall."""

    def __init__(self, feedback: Any = "ack") -> None:
        self.feedback = feedback
        self.broadcasts: list[tuple[int, Any]] = []
        self.feedbacks: list[tuple[int, Any]] = []
        self.decides = 0

    def on_broadcast(self, sender, payload):
        self.broadcasts.append((sender, payload))
        return self.feedback

    def on_feedback(self, sender, payload):
        self.feedbacks.append((sender, payload))

    def on_decide(self):
        self.decides += 1


def make_pair(client_p=None, client_q=None, max_state=4):
    clients = {1: client_p, 2: client_q}

    def build(host):
        client = clients[host.pid]
        host.register(PifLayer("pif", client=client, max_state=max_state))

    sim = Simulator(2, build, auto=False)
    return sim, sim.layer(1, "pif"), sim.layer(2, "pif")


class TestConstruction:
    def test_initial_state_quiescent(self):
        _, lp, _ = make_pair()
        assert lp.request is RequestState.DONE
        assert lp.state == {2: 4}
        assert lp.neig_state == {2: 0}

    def test_rejects_bad_max_state(self):
        with pytest.raises(ProtocolError):
            PifLayer("pif", max_state=0)

    def test_wave_id_tracks_pid(self):
        _, lp, _ = make_pair()
        assert lp.wave_id == (1, 0)


class TestActionA1:
    def test_request_then_start(self):
        sim, lp, _ = make_pair()
        lp.request_broadcast("m")
        assert lp.request is RequestState.WAIT
        sim.activate(1)
        assert lp.request is not RequestState.WAIT
        assert sim.trace.first(EventKind.START, tag="pif") is not None

    def test_start_resets_flags(self):
        sim, lp, _ = make_pair()
        lp.state[2] = 3
        lp.request_broadcast("m")
        sim.activate(1)
        assert lp.state[2] in (0, 1)  # A2 may not have incremented; A1 set 0
        # Direct check: run A1 alone on a fresh layer.

    def test_start_increments_wave_seq(self):
        sim, lp, _ = make_pair()
        lp.request_broadcast("m")
        sim.activate(1)
        assert lp.wave_seq == 1
        # A started wave cannot re-start without a new request.
        sim.activate(1)
        assert lp.wave_seq == 1


class TestActionA2:
    def test_sends_to_laggards_only(self):
        sim, lp, _ = make_pair()
        lp.request_broadcast("m")
        sim.activate(1)
        assert sim.network.channel(1, 2).occupancy("pif") == 1

    def test_decides_when_all_flags_max(self):
        sim, lp, _ = make_pair()
        client = RecordingClient()
        lp.client = client
        lp.request = RequestState.IN
        lp.state[2] = 4
        sim.activate(1)
        assert lp.request is RequestState.DONE
        assert client.decides == 1
        assert sim.trace.first(EventKind.DECIDE, tag="pif") is not None

    def test_no_sends_after_decide(self):
        sim, lp, _ = make_pair()
        lp.request = RequestState.IN
        lp.state[2] = 4
        sim.activate(1)
        sim.activate(1)
        assert sim.network.in_flight() == 0


class TestActionA3:
    def test_echo_match_increments(self):
        sim, lp, _ = make_pair()
        lp.request = RequestState.IN
        lp.state[2] = 1
        lp.on_message(2, PifMessage("pif", "b", "f", state=0, echo=1))
        assert lp.state[2] == 2

    def test_echo_mismatch_ignored(self):
        sim, lp, _ = make_pair()
        lp.request = RequestState.IN
        lp.state[2] = 1
        lp.on_message(2, PifMessage("pif", "b", "f", state=0, echo=3))
        assert lp.state[2] == 1

    def test_no_increment_past_max(self):
        sim, lp, _ = make_pair()
        lp.state[2] = 4
        lp.on_message(2, PifMessage("pif", "b", "f", state=0, echo=4))
        assert lp.state[2] == 4

    def test_neig_state_updated(self):
        sim, lp, _ = make_pair()
        lp.on_message(2, PifMessage("pif", "b", "f", state=2, echo=9))
        assert lp.neig_state[2] == 2

    def test_brd_event_fires_once_per_switch_to_flag(self):
        sim, lp, _ = make_pair()
        client = RecordingClient(feedback="my-age")
        lp.client = client
        lp.on_message(2, PifMessage("pif", "hello", "f", state=3, echo=9))
        assert client.broadcasts == [(2, "hello")]
        assert lp.f_mes[2] == "my-age"
        # Duplicate with the same flag: no second brd event.
        lp.on_message(2, PifMessage("pif", "hello", "f", state=3, echo=9))
        assert len(client.broadcasts) == 1

    def test_brd_event_refires_after_flag_leaves_3(self):
        sim, lp, _ = make_pair()
        client = RecordingClient()
        lp.client = client
        lp.on_message(2, PifMessage("pif", "m1", "f", state=3, echo=9))
        lp.on_message(2, PifMessage("pif", "m2", "f", state=0, echo=9))
        lp.on_message(2, PifMessage("pif", "m2", "f", state=3, echo=9))
        assert [payload for _, payload in client.broadcasts] == ["m1", "m2"]

    def test_none_feedback_leaves_f_mes(self):
        sim, lp, _ = make_pair()
        lp.f_mes[2] = "old"
        lp.client = PifClient()  # returns None
        lp.on_message(2, PifMessage("pif", "b", "f", state=3, echo=9))
        assert lp.f_mes[2] == "old"

    def test_fck_event_on_reaching_max(self):
        sim, lp, _ = make_pair()
        client = RecordingClient()
        lp.client = client
        lp.request = RequestState.IN
        lp.state[2] = 3
        lp.on_message(2, PifMessage("pif", "b", "their-age", state=4, echo=3))
        assert lp.state[2] == 4
        assert client.feedbacks == [(2, "their-age")]

    def test_reply_sent_while_sender_below_max(self):
        sim, lp, _ = make_pair()
        lp.on_message(2, PifMessage("pif", "b", "f", state=2, echo=9))
        assert sim.network.channel(1, 2).occupancy("pif") == 1

    def test_no_reply_when_sender_done(self):
        sim, lp, _ = make_pair()
        lp.on_message(2, PifMessage("pif", "b", "f", state=4, echo=9))
        assert sim.network.in_flight() == 0

    def test_unknown_sender_ignored(self):
        sim, lp, _ = make_pair()
        lp.on_message(99, PifMessage("pif", "b", "f", state=3, echo=9))
        assert 99 not in lp.neig_state


class TestAdversaryInterface:
    def test_scramble_respects_domains(self):
        sim, lp, _ = make_pair()
        lp.scramble(random.Random(3))
        assert lp.request in set(RequestState)
        assert 0 <= lp.state[2] <= 4
        assert 0 <= lp.neig_state[2] <= 4
        assert lp.b_mes in lp.client.broadcast_domain()

    def test_garbage_message_well_typed(self):
        sim, lp, _ = make_pair()
        msg = lp.garbage_message(random.Random(3))
        assert msg.tag == "pif"
        assert msg.debug_wave is None
        assert 0 <= msg.state <= 4

    def test_snapshot_restore_roundtrip(self):
        sim, lp, _ = make_pair()
        lp.request = RequestState.IN
        lp.state[2] = 2
        lp.b_mes = "x"
        snap = lp.snapshot()
        lp.request = RequestState.DONE
        lp.state[2] = 4
        lp.restore(snap)
        assert lp.request is RequestState.IN
        assert lp.state[2] == 2
        assert lp.b_mes == "x"

    def test_snapshot_is_copy(self):
        sim, lp, _ = make_pair()
        snap = lp.snapshot()
        lp.state[2] = 0
        assert dict(snap[PifLayer.STATE.index("state")])[2] == 4


class TestCustomMaxState:
    def test_flag_domain_parametric(self):
        sim, lp, _ = make_pair(max_state=6)
        lp.request_broadcast("m")
        sim.activate(1)
        assert lp.state[2] == 0
        for echo in range(6):
            lp.on_message(2, PifMessage("pif", "b", "f", state=0, echo=echo))
        assert lp.state[2] == 6

    def test_brd_flag_is_max_minus_one(self):
        sim, lp, _ = make_pair(max_state=6)
        client = RecordingClient()
        lp.client = client
        lp.on_message(2, PifMessage("pif", "m", "f", state=5, echo=9))
        assert client.broadcasts == [(2, "m")]
