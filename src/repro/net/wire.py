"""Length-prefixed wire format for the socket transports.

Every frame on a connection is::

    +--------+--------+----------------+-----------------+
    | kind   | version| length (be32)  | payload bytes   |
    | 1 byte | 1 byte | 4 bytes        | `length` bytes  |
    +--------+--------+----------------+-----------------+

Frame kinds:

* ``HELLO`` — sent once by the connecting side right after ``connect``;
  the payload identifies the *directed* channel (source pid, or source
  shard on a cluster peer link), so the accepting side can route every
  later frame of the connection.
* ``MESSAGE`` — one in-flight protocol message on a single-interpreter
  tcp channel.  The payload carries the channel admission sequence number
  (the canonical delivery rank — see
  :func:`repro.sim.determinism.delivery_key`) and the message object.
* ``REGISTER`` / ``PEERS`` — the rendezvous handshake of the multi-host
  runtime (:mod:`repro.net.registry`): a worker announces
  ``(shard_id, host, port)``, the coordinator answers with the full peer
  map once every expected worker has registered.
* ``SHIP`` — one link-round on a cluster peer link: the sender's barrier
  round, carried once (so receivers can account ships per round), and
  every cross-shard message — a *ship* — the round produced for this
  link, each with its *sender-computed* delivery time and channel entry
  seq (the conservative window protocol of :mod:`repro.net.cluster`).  A
  round with no traffic on the link writes no SHIP frame.
* ``BARRIER`` — a shard announces it finished round ``round``, how
  many ships it sent that round on this link, and its *next-event
  bound*: the earliest tick anything can still happen on it
  (:data:`NO_EVENT` when nothing can); per-connection FIFO means the
  round's SHIP frame precedes it, so a count mismatch at the receiver is
  proof of an injected (or real) frame fault and triggers the NAK/resend
  path of :mod:`repro.net.cluster`.  A negative count is a
  :class:`WireError`.
* ``CONTROL`` — a pickled coordinator<->worker control message
  (spec/ready/grant/report/nak/resend/result/stop/idle —
  :mod:`repro.net.cluster`) on the registry connection.  A result
  payload carries a whole shard trace — its columns, not an event list
  (:func:`repro.sim.sharded.shard_result_payload`) — so control channels
  read frames with the larger :data:`CONTROL_MAX_FRAME` bound.

Message objects are serialized with :mod:`pickle`.  The transports only
ever connect endpoints of the *same* trial — every worker is launched by
(or pointed at) one coordinator — so the classic pickle trust caveat does
not extend the threat model; do not point this wire format at untrusted
peers.
"""

from __future__ import annotations

import pickle
import struct
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

__all__ = [
    "PROTOCOL_VERSION",
    "NO_EVENT",
    "HELLO",
    "MESSAGE",
    "BARRIER",
    "SHIP",
    "REGISTER",
    "PEERS",
    "CONTROL",
    "KINDS",
    "KIND_NAMES",
    "MAX_FRAME",
    "CONTROL_MAX_FRAME",
    "STATS",
    "WireError",
    "WireStats",
    "pack_frame",
    "read_frame",
    "split_frame",
    "encode_hello",
    "decode_hello",
    "encode_message",
    "decode_message",
    "encode_barrier",
    "decode_barrier",
    "encode_ships",
    "decode_ships",
    "encode_ship",
    "decode_ship",
    "encode_register",
    "decode_register",
    "encode_peers",
    "decode_peers",
    "encode_control",
    "decode_control",
    "truncate_frame",
    "match_ship_fault",
    "apply_ship_faults",
    "parse_hostport",
]

#: Bump on any incompatible frame-layout change.  Version 2: SHIP frames
#: carry the sender's barrier round; BARRIER frames carry a per-round
#: ship count (the fault-detection/recovery protocol of repro.chaos).
#: Version 3: a ``result`` carries the shard trace as columns — a mixed
#: checkout fails at the first frame (:class:`WireError`), not in the merge.
#: Version 4: a SHIP frame carries a link's whole round — ``(round,
#: [ship, …])`` — and BARRIER counts ships, not SHIP frames.
#: Version 5: crash recovery re-runs the trial — a BARRIER's ship count is
#: never negative, and the CONTROL ops that rewired a live trial are gone.
#: Version 6: a BARRIER carries the shard's next-event bound.
#: Version 7: a ``result``'s trace columns hold one column per payload
#: position and the process column as an ``array`` — an older worker's
#: values-tuple column would merge into garbage, not fail.
#: Version 8: a ``result``'s time column is an ``array("I")`` and its
#: merge keys are two ``array("Q")`` columns (upper bits, counter) — an
#: older worker's one int-keys column must fail, not merge.
#: Version 9: a ``result``'s list columns (kinds, payload keys, payload
#: positions) are code tables ``(values, codes)`` and its ``key_lo`` is
#: the narrowest typecode that holds it — an older worker's list columns
#: must fail at the first frame, not merge.
#: Version 10: a ``result`` ships the trace's coded store as it stands
#: (shape and object tables, then columns of codes) — an older worker's
#: code tables must fail, not merge.
PROTOCOL_VERSION = 10

#: A BARRIER's next-event bound when nothing can happen on the shard any
#: more (an empty heap, no ships out): the largest tick the frame holds.
NO_EVENT = (1 << 63) - 1

HELLO = 0x01
MESSAGE = 0x02
BARRIER = 0x03
SHIP = 0x04
REGISTER = 0x05
PEERS = 0x06
CONTROL = 0x07

#: Every frame kind this protocol version understands.
KINDS = frozenset((HELLO, MESSAGE, BARRIER, SHIP, REGISTER, PEERS, CONTROL))

#: Human names for metric/diagnostic labels.
KIND_NAMES = {
    HELLO: "hello",
    MESSAGE: "message",
    BARRIER: "barrier",
    SHIP: "ship",
    REGISTER: "register",
    PEERS: "peers",
    CONTROL: "control",
}

_HEADER = struct.Struct(">BBI")
#: Sanity bound on a single channel frame (a protocol message is a few
#: hundred bytes; anything near this is a corrupt or hostile length prefix).
MAX_FRAME = 1 << 20
#: Bound for control/result frames: a shard's result payload carries its
#: whole keyed trace (its columns), which dwarfs any single protocol message.
CONTROL_MAX_FRAME = 1 << 28

_I64 = struct.Struct(">q")
_BARRIER = struct.Struct(">qqqq")
_REGISTER = struct.Struct(">qI")


class WireError(SimulationError):
    """A malformed or incompatible frame arrived on a connection."""


class WireStats:
    """Process-wide frame/byte counters per frame kind (repro.obs).

    ``pack_frame`` / ``read_frame`` are the two choke points every frame
    passes through, so two dict probes per frame here cover every
    transport.  Cumulative for the life of the process, and a pooled
    worker interpreter serves many trials: trial-scoped consumers mark a
    baseline at trial start and report the difference
    (:meth:`repro.obs.recorder.ObsRecorder.mark_wire_baseline`).
    """

    __slots__ = ("frames_out", "bytes_out", "frames_in", "bytes_in")

    def __init__(self) -> None:
        self.frames_out: dict[int, int] = {}
        self.bytes_out: dict[int, int] = {}
        self.frames_in: dict[int, int] = {}
        self.bytes_in: dict[int, int] = {}

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Kind-named copy, JSON/pickle friendly."""
        def named(counts: dict[int, int]) -> dict[str, int]:
            return {KIND_NAMES.get(kind, f"0x{kind:02x}"): value
                    for kind, value in counts.items()}

        return {
            "frames_out": named(self.frames_out),
            "bytes_out": named(self.bytes_out),
            "frames_in": named(self.frames_in),
            "bytes_in": named(self.bytes_in),
        }


#: The process-wide counters (one interpreter = one participant, trial after trial).
STATS = WireStats()


def pack_frame(kind: int, payload: bytes, *, max_frame: int = MAX_FRAME) -> bytes:
    if len(payload) > max_frame:
        raise WireError(f"frame payload of {len(payload)} bytes exceeds {max_frame}")
    frames = STATS.frames_out
    frames[kind] = frames.get(kind, 0) + 1
    size = _HEADER.size + len(payload)
    out_bytes = STATS.bytes_out
    out_bytes[kind] = out_bytes.get(kind, 0) + size
    return _HEADER.pack(kind, PROTOCOL_VERSION, len(payload)) + payload


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame: int = MAX_FRAME
) -> tuple[int, bytes]:
    """Read one frame; raises ``IncompleteReadError`` on clean EOF mid-frame.

    Returns ``(kind, payload)``.  EOF exactly on a frame boundary raises
    ``IncompleteReadError`` with an empty partial read — callers treat that
    as connection shutdown.
    """
    header = await reader.readexactly(_HEADER.size)
    kind, version, length = _HEADER.unpack(header)
    if version != PROTOCOL_VERSION:
        raise WireError(f"peer speaks wire version {version}, expected {PROTOCOL_VERSION}")
    if kind not in KINDS:
        raise WireError(f"unknown frame kind 0x{kind:02x}")
    if length > max_frame:
        raise WireError(f"frame length {length} exceeds {max_frame}")
    payload = await reader.readexactly(length) if length else b""
    frames = STATS.frames_in
    frames[kind] = frames.get(kind, 0) + 1
    in_bytes = STATS.bytes_in
    in_bytes[kind] = in_bytes.get(kind, 0) + _HEADER.size + length
    return kind, payload


def split_frame(
    data: bytes, *, max_frame: int = MAX_FRAME, partial: bool = False
) -> tuple[int, bytes, bytes] | None:
    """Split one frame off the front of an in-memory buffer.

    The buffer-side counterpart of :func:`read_frame`: a UDP datagram
    arrives whole, and the window-sync runtime's selectors loop reads a
    socket into a per-connection buffer, so framing is a buffer walk,
    not a stream read.  Returns ``(kind, payload, rest)`` where ``rest``
    is everything after the frame (a datagram packs HELLO + MESSAGE back
    to back).  Raises :class:`WireError` on a version or kind mismatch
    or a length prefix that overruns ``max_frame``; a buffer that ends
    before the frame does is a :class:`WireError` too, or — ``partial``,
    a stream's buffer — None: the frame is not complete yet.
    """
    if len(data) < _HEADER.size:
        if partial:
            return None
        raise WireError(f"buffer of {len(data)} bytes is shorter than a frame header")
    kind, version, length = _HEADER.unpack_from(data)
    if version != PROTOCOL_VERSION:
        raise WireError(f"peer speaks wire version {version}, expected {PROTOCOL_VERSION}")
    if kind not in KINDS:
        raise WireError(f"unknown frame kind 0x{kind:02x}")
    if length > max_frame:
        raise WireError(f"frame length {length} exceeds {max_frame}")
    end = _HEADER.size + length
    if len(data) < end:
        if partial:
            return None
        raise WireError(f"frame length {length} overruns a {len(data)}-byte buffer")
    frames = STATS.frames_in
    frames[kind] = frames.get(kind, 0) + 1
    in_bytes = STATS.bytes_in
    in_bytes[kind] = in_bytes.get(kind, 0) + end
    return kind, data[_HEADER.size:end], data[end:]


def encode_hello(src: int) -> bytes:
    return pack_frame(HELLO, _I64.pack(src))


def decode_hello(payload: bytes) -> int:
    if len(payload) != 8:
        raise WireError(f"hello payload of {len(payload)} bytes, expected 8")
    return _I64.unpack(payload)[0]


def encode_message(seq: int, msg: object) -> bytes:
    return pack_frame(MESSAGE, pickle.dumps((seq, msg), protocol=pickle.HIGHEST_PROTOCOL))


def decode_message(payload: bytes) -> tuple[int, object]:
    try:
        seq, msg = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - normalized for callers
        raise WireError(f"undecodable message frame: {exc}") from exc
    return seq, msg


def encode_barrier(shard: int, round_no: int, ships: int, bound: int) -> bytes:
    """``ships`` = ships sent on this link for ``round_no``; ``bound`` =
    the shard's next-event bound after it (:data:`NO_EVENT`: none)."""
    return pack_frame(BARRIER, _BARRIER.pack(shard, round_no, ships, bound))


def decode_barrier(payload: bytes) -> tuple[int, int, int, int]:
    if len(payload) != _BARRIER.size:
        raise WireError(
            f"barrier payload of {len(payload)} bytes, expected {_BARRIER.size}"
        )
    shard, round_no, ships, bound = _BARRIER.unpack(payload)
    if ships < 0:
        raise WireError(f"barrier for round {round_no} counts {ships} ships")
    return shard, round_no, ships, bound


def encode_ships(round_no: int, ships: list[tuple]) -> bytes:
    """One link-round: ``ships`` is ``[(src, dst, msg, when, entry_seq), …]``
    in send order."""
    return pack_frame(
        SHIP, pickle.dumps((round_no, ships), protocol=pickle.HIGHEST_PROTOCOL)
    )


def decode_ships(payload: bytes) -> tuple[int, list[tuple]]:
    try:
        round_no, ships = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - normalized for callers
        raise WireError(f"undecodable ship frame: {exc}") from exc
    return round_no, ships


def encode_ship(
    src: int, dst: int, msg: object, when: int, entry_seq: int, round_no: int
) -> bytes:
    """The one-ship spelling of :func:`encode_ships` (probes and tests)."""
    return encode_ships(round_no, [(src, dst, msg, when, entry_seq)])


def decode_ship(payload: bytes) -> tuple[int, int, object, int, int, int]:
    """The one-ship spelling of :func:`decode_ships`."""
    round_no, (ship,) = decode_ships(payload)
    return (*ship, round_no)


def truncate_frame(frame: bytes) -> bytes:
    """Deterministically corrupt an encoded frame (``corrupt ship``).

    Shaves the final payload byte and restates the header length, so the
    receiver still reads a *well-framed* unit — the stream never
    desynchronizes — but the pickle payload is undecodable and raises
    :class:`WireError` at decode.  The receiver counts it as a corrupt
    arrival and relies on the ship-count NAK path to recover what the
    frame carried (on a cluster link: the link's whole round).
    """
    kind, version, length = _HEADER.unpack(frame[: _HEADER.size])
    if length == 0:
        return frame
    return _HEADER.pack(kind, version, length - 1) + frame[_HEADER.size:-1]


def match_ship_fault(
    faults: list[dict[str, Any]],
    count: Callable[[str], None],
    src: int,
    dst: int,
    round_no: int | None = None,
) -> str | None:
    """Spend the first budgeted ship fault matching one ship; its action
    (``drop`` / ``duplicate`` / ``corrupt``), ``None`` when none matches.

    A fault record is ``{"action", "src", "dst", "left"}`` — ``None``
    matches any pid — plus, on a round-structured runtime, ``"rounds"``:
    the inclusive ``(first, last)`` window ``round_no`` must lie in.
    ``left`` is spent in place; ``count`` is told
    ``fault.injected.<action>``.
    """
    for fault in faults:
        if fault["left"] <= 0:
            continue
        if fault["src"] is not None and src != fault["src"]:
            continue
        if fault["dst"] is not None and dst != fault["dst"]:
            continue
        rounds = fault.get("rounds")
        if rounds is not None and not rounds[0] <= round_no <= rounds[1]:
            continue
        fault["left"] -= 1
        count(f"fault.injected.{fault['action']}")
        return fault["action"]
    return None


def apply_ship_faults(
    faults: list[dict[str, Any]],
    count: Callable[[str], None],
    src: int,
    dst: int,
    frame: bytes,
) -> list[bytes]:
    """:func:`match_ship_fault` on a frame that carries one message
    (tcp / udp): ``[]`` drop, ``[frame, frame]`` duplicate,
    ``[truncated]`` corrupt; the identity list when none matches."""
    action = match_ship_fault(faults, count, src, dst)
    if action is None:
        return [frame]
    if action == "drop":
        return []
    if action == "duplicate":
        return [frame, frame]
    return [truncate_frame(frame)]


def encode_register(shard: int, host: str, port: int) -> bytes:
    return pack_frame(REGISTER, _REGISTER.pack(shard, port) + host.encode("utf-8"))


def decode_register(payload: bytes) -> tuple[int, str, int]:
    if len(payload) < _REGISTER.size:
        raise WireError(
            f"register payload of {len(payload)} bytes, expected >= {_REGISTER.size}"
        )
    shard, port = _REGISTER.unpack(payload[: _REGISTER.size])
    try:
        host = payload[_REGISTER.size:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"register host is not utf-8: {exc}") from exc
    if not host:
        raise WireError("register frame names no host")
    return shard, host, port


def encode_peers(peers: dict[int, tuple[str, int]]) -> bytes:
    return pack_frame(PEERS, pickle.dumps(peers, protocol=pickle.HIGHEST_PROTOCOL))


def decode_peers(payload: bytes) -> dict[int, tuple[str, int]]:
    try:
        peers = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - normalized for callers
        raise WireError(f"undecodable peers frame: {exc}") from exc
    if not isinstance(peers, dict) or not all(
        isinstance(shard, int)
        and isinstance(addr, tuple)
        and len(addr) == 2
        and isinstance(addr[0], str)
        and isinstance(addr[1], int)
        for shard, addr in peers.items()
    ):
        raise WireError("peers frame is not a {shard: (host, port)} map")
    return peers


def encode_control(message: object) -> bytes:
    return pack_frame(
        CONTROL,
        pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL),
        max_frame=CONTROL_MAX_FRAME,
    )


def decode_control(payload: bytes) -> object:
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - normalized for callers
        raise WireError(f"undecodable control frame: {exc}") from exc


def parse_hostport(spec: str) -> tuple[str, int]:
    """Parse ``host:port`` (the form every cluster CLI flag uses)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise SimulationError(f"expected HOST:PORT, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SimulationError(f"bad port in {spec!r}") from None
