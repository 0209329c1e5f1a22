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
import selectors
import socket
import struct
import threading
import time

import pytest

from repro.chaos import Backoff
from repro.core.messages import PifMessage
from repro.errors import SimulationError
from repro.net import wire
from repro.net.registry import Channel, RegistryClient, RegistryServer, serve


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
#
# A client's register blocks until the registry answers, and the registry
# answers from its own loop (``join`` polls it): each registration runs
# on a thread of its own.


@pytest.fixture
def registry():
    server = RegistryServer(slots=2)
    server.start()
    yield server
    server.close()


def registering(client, shard, port, **kwargs) -> threading.Thread:
    """Start ``client.register`` on a thread; its PEERS map lands in
    ``thread.acked``."""
    def run():
        try:
            thread.acked = client.register(
                shard, "127.0.0.1", port, timeout=5.0, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the test reads it
            thread.acked = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def test_split_frame_on_a_stream_buffer_says_not_yet():
    frame = wire.encode_hello(3)
    for cut in (0, 3, len(frame) - 1):
        assert wire.split_frame(frame[:cut], partial=True) is None
    kind, payload, rest = wire.split_frame(frame + frame[:2], partial=True)
    assert (kind, wire.decode_hello(payload), rest) == (wire.HELLO, 3, frame[:2])


def test_register_retries_a_refused_dial_until_its_deadline():
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = RegistryClient("127.0.0.1", port)
    with pytest.raises(SimulationError, match="registry dial"):
        client.register(0, "127.0.0.1", 4000, timeout=0.3,
                        backoff=Backoff(initial=0.01, cap=0.05))
    assert client.dial_retries > 0


def test_duplicate_registration_fails_rendezvous(registry):
    first = RegistryClient(registry.host, registry.port)
    dup = RegistryClient(registry.host, registry.port)
    registering(first, 0, 4000)
    registry.join([0], timeout=5.0)  # the first registration lands...
    registering(dup, 0, 4001)
    with pytest.raises(SimulationError, match="registered twice"):
        registry.join([0, 1], timeout=5.0)
    first.close()
    dup.close()


def test_out_of_range_shard_fails_rendezvous(registry):
    client = RegistryClient(registry.host, registry.port)
    registering(client, 9, 4000)
    with pytest.raises(SimulationError, match="out of range"):
        registry.join([0, 1], timeout=5.0)
    client.close()


def test_rendezvous_timeout_names_missing_shards(registry):
    client = RegistryClient(registry.host, registry.port)
    registering(client, 0, 4000)
    with pytest.raises(SimulationError, match=r"missing shards \[1\]"):
        registry.join([0, 1], timeout=0.2)
    client.close()


def test_rendezvous_delivers_full_peer_map(registry):
    clients = [RegistryClient(registry.host, registry.port) for _ in range(2)]
    acks = []
    for shard, client in enumerate(clients):
        thread = registering(client, shard, 4000 + shard)
        registry.join([shard], timeout=5.0)
        thread.join(timeout=5.0)
        acks.append(thread.acked)
    handles = registry.join([0, 1], timeout=5.0)
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


def test_a_forgotten_slot_can_be_joined_again(registry):
    """What crash recovery and the pool's replacement of a dead worker
    use: the slot's old channel is closed, a second registration for it
    is no longer a duplicate, and ``join`` waits for it alone."""
    old = RegistryClient(registry.host, registry.port)
    thread = registering(old, 1, 4001)
    [handle] = registry.join([1], timeout=5.0)
    thread.join(timeout=5.0)
    registry.forget(1)
    # Control EOF: what ends an orphaned worker.
    old.sock.settimeout(5.0)
    assert old.sock.recv(1) == b""
    new = RegistryClient(registry.host, registry.port)
    registering(new, 1, 4101)
    [replacement] = registry.join([1], timeout=5.0)
    assert replacement is not handle and replacement.port == 4101
    assert registry.round_trips == 4
    old.close()
    new.close()


def test_control_messages_land_in_the_inbox_and_eof_after_them(registry):
    """The coordinator's one inbox: a worker's CONTROL frames arrive as
    ``(handle, message)`` in order, then ``("eof",)`` when it closes."""
    client = RegistryClient(registry.host, registry.port)
    registering(client, 0, 4000)
    [handle] = registry.join([0], timeout=5.0)
    client.sock.sendall(wire.encode_control(("ready", 3))
                        + wire.encode_control(("idle",)))
    client.close()
    deadline = time.perf_counter() + 5.0
    while len(registry.inbox) < 3 and time.perf_counter() < deadline:
        registry.poll(deadline)
    assert list(registry.inbox) == [
        (handle, ("ready", 3)), (handle, ("idle",)), (handle, ("eof",))]


def test_two_channels_ship_more_than_the_kernel_buffers_to_each_other():
    """The deadlock a blocking send would make: each end writes a frame
    larger than the socket buffers hold before it reads.  A channel's
    send never blocks — the rest waits in its outbound buffer — and one
    selectors loop flushes both and reads both."""
    selector = selectors.DefaultSelector()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        dialled = socket.create_connection(listener.getsockname())
        accepted, _addr = listener.accept()
    ends = [Channel(sock, selector, Channel.fill, max_frame=wire.CONTROL_MAX_FRAME)
            for sock in (dialled, accepted)]
    blobs = [bytes([n]) * (8 << 20) for n in (1, 2)]
    for end, blob in zip(ends, blobs):
        end.send(wire.encode_control(blob))
        assert end.outbuf  # the kernel took part of it; nothing blocked
    got: dict[int, bytes] = {}
    deadline = time.perf_counter() + 30.0
    while len(got) < 2 and time.perf_counter() < deadline:
        serve(selector, deadline)
        for n, end in enumerate(ends):
            frame = end.frame()
            if frame is not None:
                got[n] = wire.decode_control(frame[1])
    assert got == {0: blobs[1], 1: blobs[0]}
    assert not any(end.outbuf or end.failed for end in ends)
    # A process about to exit has no loop left: drain blocks instead.
    ends[0].send(wire.encode_control("last words"))
    ends[0].drain(timeout=5.0)
    assert not ends[0].outbuf
    ends[1].sock.settimeout(5.0)
    ends[1].inbuf += ends[1].sock.recv(1 << 16)
    assert wire.decode_control(ends[1].frame()[1]) == "last words"
    for end in ends:
        end.close()
    with pytest.raises(OSError):
        ends[0].drain(timeout=1.0)
    selector.close()
