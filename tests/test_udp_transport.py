"""The UDP datagram transport and the buffer-walk frame splitter.

UDP is the acceptance proof of the PR-10 registry refactor: a transport
registered *purely* through :func:`repro.net.transport.register_transport`
— no engine, runner or CLI dispatch edits — that runs a full E3 trial on
the async engine with the real network as the loss/reorder adversary
(best-effort: the specification check of the trace it produced is the
verdict).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.analysis.runner import run_pif_trial
from repro.engine import TransportOpts, TrialSpec, execute
from repro.errors import SpecError
from repro.net import wire
from repro.net.transport import resolve_transport, transport_names


# -- registry surface -----------------------------------------------------


def test_udp_is_registered_with_socket_flags():
    assert "udp" in transport_names()
    kind = resolve_transport("udp")
    assert kind.paced and kind.frame_boundary and not kind.deterministic
    assert kind.fabric_factory is not None


def test_udp_needs_the_async_engine():
    spec = TrialSpec(
        n=4,
        protocol={"kind": "pif"},
        driver=dict(tag="pif", requests_per_process=1,
                    payload_fmt="m-{pid}-{k}"),
        horizon=1_000,
        engine="serial",
        transport=TransportOpts(transport="udp"),
    )
    with pytest.raises(SpecError) as err:
        execute(spec)
    assert err.value.backend == "serial"
    assert err.value.field == "transport"


def test_a_socket_error_reaches_the_engine_error_sink():
    from repro.net.transport.udp import _UdpEndpoint

    errors: list[BaseException] = []
    fabric = SimpleNamespace(engine=SimpleNamespace(_net_error=errors.append))
    refused = ConnectionRefusedError("port unreachable")
    _UdpEndpoint(fabric, 1).error_received(refused)
    assert errors == [refused]


# -- E3 smoke over real datagram sockets ----------------------------------


def test_udp_runs_e3_end_to_end():
    trial = run_pif_trial(
        TrialSpec(n=6, seed=2, loss=0.1, engine="async",
                  transport=TransportOpts(transport="udp"), horizon=60_000),
        requests_per_process=1)
    assert trial.ok
    assert trial.provenance["transport"] == "udp"
    assert trial.violations == 0
    assert trial.measurements["waves"] >= 6


# -- split_frame: the datagram-side frame walk ----------------------------


def test_split_frame_walks_a_concatenated_datagram():
    datagram = wire.encode_hello(3) + wire.encode_message(7, {"x": 1})
    kind, payload, rest = wire.split_frame(datagram)
    assert kind == wire.HELLO
    assert wire.decode_hello(payload) == 3
    kind, payload, rest = wire.split_frame(rest)
    assert kind == wire.MESSAGE
    assert wire.decode_message(payload) == (7, {"x": 1})
    assert rest == b""


def test_split_frame_rejects_garbage():
    good = wire.encode_hello(3)
    with pytest.raises(wire.WireError, match="header"):
        wire.split_frame(good[:3])  # truncated header
    with pytest.raises(wire.WireError, match="overruns"):
        wire.split_frame(good[:-1])  # truncated payload
    bad_version = bytes([good[0], good[1] ^ 0xFF]) + good[2:]
    with pytest.raises(wire.WireError, match="version"):
        wire.split_frame(bad_version)
    bad_kind = bytes([0x7F]) + good[1:]
    with pytest.raises(wire.WireError, match="kind"):
        wire.split_frame(bad_kind)
    with pytest.raises(wire.WireError, match="exceeds"):
        wire.split_frame(good, max_frame=0)
