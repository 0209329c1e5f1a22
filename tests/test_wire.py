"""Adversarial tests for the length-prefixed wire format.

The socket transports trust their peers (same trial, same launcher), but
not the network: every frame that arrives truncated, oversized, from a
different protocol version, or of an unknown kind must surface as a
:class:`~repro.net.wire.WireError` (or ``IncompleteReadError`` for clean
truncation) rather than corrupt a trial.  The registry's duplicate-HELLO
analogue — a shard registering twice — must fail the rendezvous loudly.
"""

from __future__ import annotations

import asyncio
import copy
import pickle
import socket
import struct

import pytest

from repro.chaos import Backoff
from repro.core.messages import PifMessage
from repro.errors import SimulationError
from repro.net import wire
from repro.net.registry import RegistryClient, RegistryServer


def feed(*chunks: bytes) -> tuple[bytes, ...]:
    return chunks


def read(chunks: tuple[bytes, ...], *, count: int = 1, **kwargs):
    """Feed the chunks to a StreamReader and read ``count`` frames."""

    async def main():
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        reader.feed_eof()
        frames = [await wire.read_frame(reader, **kwargs) for _ in range(count)]
        return frames[0] if count == 1 else frames

    return asyncio.run(main())


# -- frame round trips ----------------------------------------------------


def test_hello_round_trip():
    kind, payload = read(feed(wire.encode_hello(7)))
    assert kind == wire.HELLO
    assert wire.decode_hello(payload) == 7


def test_message_round_trip():
    kind, payload = read(feed(wire.encode_message(42, {"flag": 3})))
    assert kind == wire.MESSAGE
    assert wire.decode_message(payload) == (42, {"flag": 3})


def test_barrier_round_trip():
    kind, payload = read(feed(wire.encode_barrier(3, 1_000_000, 7, 1_000_017)))
    assert kind == wire.BARRIER
    assert wire.decode_barrier(payload) == (3, 1_000_000, 7, 1_000_017)
    # A shard with nothing left to happen says so with the sentinel.
    _kind, payload = read(feed(wire.encode_barrier(0, 9, 0, wire.NO_EVENT)))
    assert wire.decode_barrier(payload) == (0, 9, 0, wire.NO_EVENT)


def test_barrier_negative_ship_count_rejected():
    # No barrier is exempt from its count: crash recovery re-runs the
    # trial instead of re-announcing rounds on a rewired link.
    kind, payload = read(feed(wire.encode_barrier(2, 5, -1, 6)))
    assert kind == wire.BARRIER
    with pytest.raises(wire.WireError, match="counts -1 ships"):
        wire.decode_barrier(payload)


def test_ship_round_trip():
    frame = wire.encode_ship(
        1, 6, ("pif", "m-1-0"), when=17, entry_seq=4, round_no=2
    )
    kind, payload = read(feed(frame))
    assert kind == wire.SHIP
    assert wire.decode_ship(payload) == (1, 6, ("pif", "m-1-0"), 17, 4, 2)


def _ships(count: int) -> list[tuple]:
    return [
        (1, 6 + i, PifMessage("pif", f"m-1-{i}", None, i % 3, 0), 17 + i, i)
        for i in range(count)
    ]


@pytest.mark.parametrize("count", [0, 1, 7])
def test_ship_batch_round_trip_keeps_order_and_one_round_no(count):
    ships = _ships(count)
    kind, payload = read(feed(wire.encode_ships(9, ships)))
    assert kind == wire.SHIP
    assert wire.decode_ships(payload) == (9, ships)
    # The round is stated once, beside the list — not once per ship.
    assert pickle.loads(payload) == (9, ships)


def test_one_ship_spelling_is_the_batch_of_one_byte_for_byte():
    (ship,) = _ships(1)
    assert wire.encode_ship(*ship, 4) == wire.encode_ships(4, [ship])


def test_truncated_batch_frame_stays_well_framed_but_undecodable():
    bad = wire.truncate_frame(wire.encode_ships(3, _ships(5)))
    (kind, payload), (kind2, payload2) = read(
        feed(bad, wire.encode_barrier(0, 3, 5, 4)), count=2
    )
    assert kind == wire.SHIP
    with pytest.raises(wire.WireError, match="undecodable ship"):
        wire.decode_ships(payload)
    assert kind2 == wire.BARRIER
    assert wire.decode_barrier(payload2) == (0, 3, 5, 4)


def test_pif_message_pickles_as_its_constructor_call():
    # The ledger probe's message (benchmarks/ledger/probes.py).
    message = PifMessage("pif", "msg-3-1", "f0", 2, 1, (3, 1))
    blob = pickle.dumps(message, protocol=5)
    assert len(blob) < 100  # 148 through copyreg's slots path
    for clone in (pickle.loads(blob), copy.deepcopy(message)):
        assert clone == message and clone is not message
        assert hash(clone) == hash(message)
        assert clone.debug_wave == (3, 1)


def test_register_round_trip():
    kind, payload = read(feed(wire.encode_register(2, "10.0.0.5", 50123)))
    assert kind == wire.REGISTER
    assert wire.decode_register(payload) == (2, "10.0.0.5", 50123)


def test_peers_round_trip():
    peers = {0: ("127.0.0.1", 4000), 1: ("10.0.0.5", 4001)}
    kind, payload = read(feed(wire.encode_peers(peers)))
    assert kind == wire.PEERS
    assert wire.decode_peers(payload) == peers


def test_control_round_trip():
    message = ("spec", {"seed": 0, "shards": ((0, 1), (2, 3))})
    kind, payload = read(
        feed(wire.encode_control(message)), max_frame=wire.CONTROL_MAX_FRAME
    )
    assert kind == wire.CONTROL
    assert wire.decode_control(payload) == message


def test_multiple_frames_on_one_connection():
    frames = read(feed(wire.encode_hello(1), wire.encode_barrier(1, 0, 0, 0)),
                  count=2)
    assert [kind for kind, _ in frames] == [wire.HELLO, wire.BARRIER]


def test_truncate_frame_stays_well_framed_but_undecodable():
    # The `corrupt ship` fault: framing must survive (the stream never
    # desynchronizes), the pickle must not.
    good = wire.encode_ship(0, 1, "payload", 5, 0, 1)
    bad = wire.truncate_frame(good)
    assert len(bad) == len(good) - 1
    tail = wire.encode_hello(9)
    frames = read(feed(bad, tail), count=2)
    (kind, payload), (kind2, payload2) = frames
    assert kind == wire.SHIP
    with pytest.raises(wire.WireError, match="undecodable ship"):
        wire.decode_ship(payload)
    assert kind2 == wire.HELLO and wire.decode_hello(payload2) == 9


# -- truncation -----------------------------------------------------------


def test_truncated_header_raises_incomplete_read():
    with pytest.raises(asyncio.IncompleteReadError):
        read(feed(wire.encode_hello(1)[:3]))


def test_truncated_payload_raises_incomplete_read():
    frame = wire.encode_ship(0, 1, "payload", 5, 0, 1)
    with pytest.raises(asyncio.IncompleteReadError):
        read(feed(frame[:-2]))


def test_eof_on_frame_boundary_is_clean_shutdown():
    with pytest.raises(asyncio.IncompleteReadError) as excinfo:
        read(feed())
    assert excinfo.value.partial == b""


# -- hostile headers ------------------------------------------------------


def test_oversized_length_prefix_rejected_before_reading_payload():
    header = struct.pack(">BBI", wire.HELLO, wire.PROTOCOL_VERSION,
                         wire.MAX_FRAME + 1)
    with pytest.raises(wire.WireError, match="exceeds"):
        read(feed(header))


def test_control_frames_allow_larger_bound():
    big = b"x" * (wire.MAX_FRAME + 1)
    frame = wire.pack_frame(wire.CONTROL, big, max_frame=wire.CONTROL_MAX_FRAME)
    with pytest.raises(wire.WireError):
        read(feed(frame))  # channel bound rejects it...
    kind, payload = read(feed(frame), max_frame=wire.CONTROL_MAX_FRAME)
    assert kind == wire.CONTROL and len(payload) == len(big)


def test_pack_frame_enforces_payload_bound():
    with pytest.raises(wire.WireError, match="exceeds"):
        wire.pack_frame(wire.MESSAGE, b"x" * (wire.MAX_FRAME + 1))


def test_version_mismatch_rejected():
    header = struct.pack(">BBI", wire.HELLO, wire.PROTOCOL_VERSION + 1, 0)
    with pytest.raises(wire.WireError, match="wire version"):
        read(feed(header))
    # A version-5 worker's barrier (no next-event bound) is refused by
    # its version byte, before anyone reads its payload.
    v5_payload = struct.pack(">qqq", 0, 3, 5)
    v5_barrier = struct.pack(">BBI", wire.BARRIER, 5, len(v5_payload)) + v5_payload
    refused = f"wire version 5, expected {wire.PROTOCOL_VERSION}"
    with pytest.raises(wire.WireError, match=refused):
        read(feed(v5_barrier))
    with pytest.raises(wire.WireError, match=refused):
        wire.split_frame(v5_barrier)


def test_unknown_frame_kind_rejected():
    header = struct.pack(">BBI", 0x7F, wire.PROTOCOL_VERSION, 0)
    with pytest.raises(wire.WireError, match="unknown frame kind"):
        read(feed(header))


# -- malformed payloads ---------------------------------------------------


def test_hello_payload_wrong_size():
    with pytest.raises(wire.WireError, match="expected 8"):
        wire.decode_hello(b"\x00" * 4)


def test_barrier_payload_wrong_size():
    # 24 bytes is a version-5 barrier: shard, round, ships, no bound.
    for short in (b"\x00" * 8, struct.pack(">qqq", 0, 3, 5)):
        with pytest.raises(wire.WireError, match="expected 32"):
            wire.decode_barrier(short)


def test_ship_payload_not_pickle():
    with pytest.raises(wire.WireError, match="undecodable ship"):
        wire.decode_ship(b"not a pickle")


def test_register_payload_too_short():
    with pytest.raises(wire.WireError, match="expected >="):
        wire.decode_register(b"\x00" * 4)


def test_register_payload_bad_utf8_host():
    payload = struct.pack(">qI", 0, 4000) + b"\xff\xfe"
    with pytest.raises(wire.WireError, match="not utf-8"):
        wire.decode_register(payload)


def test_register_payload_empty_host():
    payload = struct.pack(">qI", 0, 4000)
    with pytest.raises(wire.WireError, match="names no host"):
        wire.decode_register(payload)


def test_peers_payload_wrong_shape():
    payload = pickle.dumps({"zero": ("127.0.0.1", 4000)})
    with pytest.raises(wire.WireError, match="peers frame"):
        wire.decode_peers(payload)


def test_control_payload_not_pickle():
    with pytest.raises(wire.WireError, match="undecodable control"):
        wire.decode_control(b"\x80garbage")


# -- registry rendezvous faults -------------------------------------------


def run_registry(scenario) -> None:
    async def main():
        registry = RegistryServer(slots=2)
        await registry.start()
        try:
            await scenario(registry)
        finally:
            await registry.close()

    asyncio.run(main())


async def _abandon(*tasks) -> None:
    for pending in tasks:
        pending.cancel()
        try:
            await pending
        except (asyncio.CancelledError, Exception):
            pass


def test_register_retries_a_refused_dial_until_its_deadline():
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = RegistryClient("127.0.0.1", port)
    with pytest.raises(SimulationError, match="registry dial"):
        asyncio.run(client.register(
            0, "127.0.0.1", 4000, timeout=0.3,
            backoff=Backoff(initial=0.01, cap=0.05)))
    assert client.dial_retries > 0


def test_duplicate_registration_fails_rendezvous():
    async def scenario(registry):
        first = RegistryClient(registry.host, registry.port)
        dup = RegistryClient(registry.host, registry.port)
        task = asyncio.ensure_future(
            first.register(0, "127.0.0.1", 4000, timeout=5.0)
        )
        await asyncio.sleep(0.05)  # first registration lands...
        dup_task = asyncio.ensure_future(
            dup.register(0, "127.0.0.1", 4001, timeout=5.0)
        )
        with pytest.raises(SimulationError, match="registered twice"):
            await registry.join([0, 1], timeout=5.0)
        await _abandon(task, dup_task)
        first.close()
        dup.close()

    run_registry(scenario)


def test_out_of_range_shard_fails_rendezvous():
    async def scenario(registry):
        client = RegistryClient(registry.host, registry.port)
        task = asyncio.ensure_future(
            client.register(9, "127.0.0.1", 4000, timeout=5.0)
        )
        with pytest.raises(SimulationError, match="out of range"):
            await registry.join([0, 1], timeout=5.0)
        await _abandon(task)
        client.close()

    run_registry(scenario)


def test_rendezvous_timeout_names_missing_shards():
    async def scenario(registry):
        client = RegistryClient(registry.host, registry.port)
        await client.register(0, "127.0.0.1", 4000, timeout=5.0)
        with pytest.raises(SimulationError, match=r"missing shards \[1\]"):
            await registry.join([0, 1], timeout=0.2)
        client.close()

    run_registry(scenario)


def test_rendezvous_delivers_full_peer_map():
    async def scenario(registry):
        clients = [RegistryClient(registry.host, registry.port) for _ in range(2)]
        acks = [
            await client.register(shard, "127.0.0.1", 4000 + shard, timeout=5.0)
            for shard, client in enumerate(clients)
        ]
        handles = await registry.join([0, 1], timeout=5.0)
        # The coordinator ships this map in the trial spec; a worker's
        # PEERS acknowledgement only names the slots filled so far.
        expected = {0: ("127.0.0.1", 4000), 1: ("127.0.0.1", 4001)}
        assert {h.shard: (h.host, h.port) for h in handles} == expected
        assert acks == [{0: expected[0]}, expected]
        assert [h.shard for h in handles] == [0, 1]
        # One REGISTER in + one PEERS out per worker.
        assert registry.round_trips == 4
        for client in clients:
            client.close()

    run_registry(scenario)


def test_a_forgotten_slot_can_be_joined_again():
    """What crash recovery and the pool's replacement of a dead worker
    use: the slot's old channel is closed, a second registration for it
    is no longer a duplicate, and ``join`` waits for it alone."""
    async def scenario(registry):
        old = RegistryClient(registry.host, registry.port)
        await old.register(1, "127.0.0.1", 4001, timeout=5.0)
        [handle] = await registry.join([1], timeout=5.0)
        registry.forget(1)
        with pytest.raises(asyncio.IncompleteReadError):
            await old.recv()  # control EOF: what ends an orphaned worker
        new = RegistryClient(registry.host, registry.port)
        joining = asyncio.ensure_future(registry.join([1], timeout=5.0))
        await new.register(1, "127.0.0.1", 4101, timeout=5.0)
        [replacement] = await joining
        assert replacement is not handle and replacement.port == 4101
        assert registry.round_trips == 4
        old.close()
        new.close()

    run_registry(scenario)
