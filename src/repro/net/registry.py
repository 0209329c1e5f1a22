"""Rendezvous / port-registry service for the multi-host runtime, and the
framed non-blocking connection its one-thread selectors loop runs on.

The single-interpreter tcp fabric (:class:`repro.net.transport.TcpFabric`)
could wire its mesh directly — every endpoint lived in one process that
knew every port.  Across OS processes (and machines) nobody knows anyone's
port up front, so the HELLO handshake generalizes into a small rendezvous
service:

1. The coordinator opens a :class:`RegistryServer` on a well-known
   address (an ephemeral localhost port when it spawns the workers itself;
   a ``--cluster-listen host:port`` address for hand-launched remote
   workers).  The server lives as long as the coordinator's worker pool,
   not one trial.
2. Each worker opens its *peer server* first (the socket other shards
   will ship cross-shard messages to), then connects to the registry and
   sends one ``REGISTER (shard_id, host, port)`` frame — once in its
   life.  The registry fills slot ``shard_id`` and acknowledges with a
   ``PEERS`` frame (the slots filled so far).
3. The coordinator *joins* the slots a trial needs
   (:meth:`RegistryServer.join` — every slot at a cold start, only the
   freshly launched ones afterwards, one after a crash respawn) and
   ships the ``{shard: (host, port)}`` map of the trial's workers in the
   trial spec.  Workers then dial their peer shards directly (a
   ``HELLO`` frame identifying the source shard opens each directed
   link, per trial); the registry connection stays open as the
   coordinator's control channel (pickled ``CONTROL`` frames — specs,
   grants, reports, results) for every trial the worker serves.

The registration exchange is counted (:attr:`RegistryServer.round_trips`)
and reported per trial in provenance: two per freshly joined worker,
none on a warm lease.

Both ends of the runtime — the coordinator and every worker — are one
thread running one ``selectors`` loop (:func:`serve`) over
:class:`Channel` objects: no send blocks (a peer that is not reading
cannot stall its writer), and every wait is one select that dispatches
whatever is ready.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from typing import Any, Callable

from repro.chaos.backoff import Backoff, retry
from repro.errors import SimulationError
from repro.net import wire

__all__ = ["Channel", "RegistryServer", "RegistryClient", "serve"]

#: What one ``recv_into`` reads at most; a socket is read until it holds
#: no more.
_RECV_BYTES = 1 << 16
#: The buffer every :meth:`Channel.fill` receives into, then copies what
#: arrived to the channel's :attr:`~Channel.inbuf`: one per process, whose
#: channels all run on one thread (``sock.recv(n)`` would build an
#: ``n``-byte object a call).
_INBOX = memoryview(bytearray(_RECV_BYTES))


def serve(selector: selectors.BaseSelector, until: float | None) -> None:
    """One select, until ``until`` (a ``perf_counter`` time; None: no
    bound), running each ready key's handler (its ``data``, given the
    event mask)."""
    timeout = None if until is None else max(0.0, until - time.perf_counter())
    for key, mask in selector.select(timeout):
        key.data(mask)


class Channel:
    """One framed, non-blocking stream socket in a selectors loop.

    Inbound bytes go to :attr:`inbuf` (:meth:`fill`) and are cut into
    frames by :func:`wire.split_frame` (:meth:`frame`).  Outbound bytes
    are sent at once as far as the kernel takes them; the rest waits in
    :attr:`outbuf`, which the loop flushes on ``EVENT_WRITE`` — so no
    send ever blocks.  A send that fails marks the channel
    :attr:`failed` (its owner's concern); ``on_read(channel)`` runs
    when the socket is readable, and :attr:`owner` is the owner's note
    of who is at the other end.
    """

    __slots__ = (
        "sock", "selector", "on_read", "owner", "inbuf", "outbuf",
        "max_frame", "events", "failed", "eof",
    )

    def __init__(
        self,
        sock: socket.socket,
        selector: selectors.BaseSelector,
        on_read: Callable[[Channel], None] | None = None,
        *,
        max_frame: int = wire.MAX_FRAME,
    ) -> None:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock: socket.socket | None = sock
        self.selector = selector
        self.on_read = on_read
        self.owner: Any = None
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.max_frame = max_frame
        self.events = 0
        self.failed = False
        self.eof = False
        self._watch()

    def _watch(self) -> None:
        events = (
            (selectors.EVENT_READ if self.on_read and not self.eof else 0)
            | (selectors.EVENT_WRITE if self.outbuf else 0)
        )
        if events == self.events:
            return
        if not self.events:
            self.selector.register(self.sock, events, self._ready)
        elif not events:
            self.selector.unregister(self.sock)
        else:
            self.selector.modify(self.sock, events, self._ready)
        self.events = events

    def _ready(self, mask: int) -> None:
        if self.sock is None:  # closed by a handler of the same select
            return
        if mask & selectors.EVENT_WRITE:
            self.flush()
        if mask & selectors.EVENT_READ and self.on_read is not None:
            self.on_read(self)

    def send(self, data: bytes) -> None:
        if self.sock is None or self.failed:
            return
        if not self.outbuf:
            try:
                sent = self.sock.send(data)
            except BlockingIOError:
                sent = 0
            except OSError:
                self.failed = True
                return
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
        self.outbuf += data
        self._watch()

    def flush(self) -> None:
        try:
            sent = self.sock.send(self.outbuf)
        except BlockingIOError:
            return
        except OSError:
            self.failed = True
            sent = len(self.outbuf)
        del self.outbuf[:sent]
        if not self.outbuf:
            self._watch()

    def drain(self, timeout: float) -> None:
        """Block until :attr:`outbuf` is sent (a process about to exit
        has no loop left to flush it); OSError if it cannot be."""
        if self.sock is None or self.failed:
            raise OSError("the channel is closed")
        self.sock.settimeout(timeout)
        self.sock.sendall(self.outbuf)
        self.outbuf.clear()

    def fill(self) -> bool:
        """Read what the socket holds into :attr:`inbuf`; False once the
        other end has closed (a reset is a close)."""
        while True:
            try:
                size = self.sock.recv_into(_INBOX)
            except BlockingIOError:
                return True
            except OSError:
                size = 0
            if not size:
                self.eof = True
                self._watch()
                return False
            self.inbuf += _INBOX[:size]
            if size < _RECV_BYTES:
                return True

    def frame(self) -> tuple[int, bytes] | None:
        """The next whole frame in :attr:`inbuf`, or None."""
        cut = wire.split_frame(self.inbuf, max_frame=self.max_frame, partial=True)
        if cut is None:
            return None
        kind, payload, self.inbuf = cut
        return kind, payload

    def message(self) -> Any:
        """The next whole CONTROL message in :attr:`inbuf`, or None."""
        frame = self.frame()
        if frame is None:
            return None
        if frame[0] != wire.CONTROL:
            raise wire.WireError(f"expected a CONTROL frame, got 0x{frame[0]:02x}")
        return wire.decode_control(frame[1])

    def close(self) -> None:
        if self.sock is None:
            return
        if self.events:
            self.selector.unregister(self.sock)
            self.events = 0
        self.sock.close()
        self.sock = self.on_read = self.owner = None
        self.outbuf.clear()


class _WorkerHandle:
    """The coordinator's end of one registered worker's control channel."""

    __slots__ = ("shard", "host", "port", "channel")

    def __init__(self, shard: int, host: str, port: int, channel: Channel) -> None:
        self.shard = shard
        self.host = host
        self.port = port
        self.channel = channel

    def send(self, message: Any) -> None:
        self.channel.send(wire.encode_control(message))

    def recv(self) -> Any:
        """The next whole CONTROL message already read, or None."""
        return self.channel.message()



class RegistryServer:
    """Coordinator-side registry: a table of worker slots, and the
    selectors loop every control channel of the pool is read in.

    ``slots`` bounds the shard ids that may register (``0..slots-1``; the
    owner raises it before launching workers for more).  A worker that
    registers fills its slot and is answered at once; :meth:`join`
    returns when the slots it names are all filled, and :meth:`forget`
    empties one so a replacement can register.  A second registration
    for a filled slot, or one out of range, fails the next (or pending)
    :meth:`join` loudly.  Every CONTROL message a registered worker sends
    lands in :attr:`inbox` as ``(handle, message)`` — ``("eof",)`` when
    its channel closes, ``("error", text)`` when it carries garbage.
    """

    def __init__(self, slots: int = 0, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.slots = slots
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        #: REGISTER/PEERS exchanges served (two per worker that joined;
        #: rejected duplicates count too — they cost a round trip).
        self.round_trips = 0
        self.selector = selectors.DefaultSelector()
        self.inbox: deque[tuple[_WorkerHandle, Any]] = deque()
        self._listener: socket.socket | None = None
        self._handles: dict[int, _WorkerHandle] = {}
        self._error: BaseException | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        if self._listener is not None:
            return
        listener = socket.create_server((self.host, self._requested_port), backlog=128)
        listener.setblocking(False)
        self.selector.register(listener, selectors.EVENT_READ, self._accept)
        self._listener = listener
        self.port = listener.getsockname()[1]

    def poll(self, until: float | None) -> None:
        """One select over registrations and control channels."""
        serve(self.selector, until)

    def _accept(self, _mask: int) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except BlockingIOError:
                return
            Channel(sock, self.selector, self._register)

    def _register(self, channel: Channel) -> None:
        """Read a connection's first frame: its REGISTER."""
        open_ = channel.fill()
        try:
            frame = channel.frame()
            if frame is None:
                if not open_:
                    channel.close()
                return
            kind, payload = frame
            if kind != wire.REGISTER:
                raise wire.WireError(
                    f"registry connection did not open with REGISTER (got 0x{kind:02x})")
            shard, host, port = wire.decode_register(payload)
            self.round_trips += 1
            if not 0 <= shard < self.slots:
                raise wire.WireError(f"shard {shard} out of range 0..{self.slots - 1}")
            if shard in self._handles:
                raise wire.WireError(f"shard {shard} registered twice")
        except wire.WireError as exc:
            # A malformed registration fails the join loudly: a worker
            # that cannot register can never reach its barrier, and a
            # silent drop would hang the run until the timeout.
            self._error = exc
            channel.close()
            return
        handle = self._handles[shard] = _WorkerHandle(shard, host, port, channel)
        channel.owner = handle
        channel.max_frame = wire.CONTROL_MAX_FRAME
        channel.on_read = self._read_control
        channel.send(wire.encode_peers(self._peer_map()))
        self.round_trips += 1
        self._read_control(channel)  # what followed the REGISTER

    def _read_control(self, channel: Channel) -> None:
        handle = channel.owner
        open_ = channel.fill()
        try:
            while (message := handle.recv()) is not None:
                self.inbox.append((handle, message))
        except SimulationError as exc:  # a malformed control frame
            self.inbox.append((handle, ("error", f"control channel: {exc}")))
            channel.close()
            return
        if not open_:
            self.inbox.append((handle, ("eof",)))
            channel.close()

    def _peer_map(self) -> dict[int, tuple[str, int]]:
        return {shard: (h.host, h.port) for shard, h in self._handles.items()}

    def join(
        self, shards, timeout: float, watch: Callable[[], None] | None = None
    ) -> list[_WorkerHandle]:
        """Serve until every slot in ``shards`` is filled; the handles in
        shard order.  Raises on duplicate or malformed registrations and
        on timeout (naming the slots still empty).  ``watch`` runs after
        every poll, and a poll lasts at most a quarter second: the
        coordinator's crash check."""
        shards = sorted(shards)
        deadline = time.perf_counter() + timeout
        while True:
            if self._error is not None:
                error, self._error = self._error, None
                raise SimulationError(f"registry rendezvous failed: {error}") from error
            missing = [shard for shard in shards if shard not in self._handles]
            if not missing:
                return [self._handles[shard] for shard in shards]
            now = time.perf_counter()
            if now >= deadline:
                raise SimulationError(
                    f"registry rendezvous timed out after {timeout:.0f}s; "
                    f"missing shards {missing} (of {self.slots} slots)"
                )
            self.poll(min(deadline, now + 0.25))
            if watch is not None:
                watch()

    def forget(self, shard: int) -> None:
        """Empty a slot (its worker died or was retired), closing the
        control channel; a replacement may then register for it."""
        handle = self._handles.pop(shard, None)
        if handle is not None:
            handle.channel.close()

    def close(self) -> None:
        for handle in self._handles.values():
            handle.channel.close()
        self._handles.clear()
        self.inbox.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self.selector.close()


class RegistryClient:
    """Worker-side rendezvous: register once; the connection stays open
    as the coordinator control channel (:attr:`sock`, with what was read
    past the PEERS frame in :attr:`pending`)."""

    def __init__(self, registry_host: str, registry_port: int) -> None:
        self.registry_host = registry_host
        self.registry_port = registry_port
        self.sock: socket.socket | None = None
        self.pending = bytearray()
        #: Dial attempts that had to back off and retry (repro.obs).
        self.dial_retries = 0

    def _count_retry(self, _delay: float) -> None:
        self.dial_retries += 1

    def register(
        self, shard: int, advertise_host: str, port: int, *,
        timeout: float = 30.0, backoff: Backoff = Backoff(),
    ) -> dict[int, tuple[str, int]]:
        """Connect (with exponential-backoff retries — the coordinator may
        still be binding), send REGISTER, await the PEERS acknowledgement
        (the slots filled so far; a trial's peer map rides in its spec).
        The registry answers from its own loop, so this one exchange may
        block."""
        address = (self.registry_host, self.registry_port)
        self.sock = sock = retry(
            lambda: socket.create_connection(address, timeout=timeout),
            backoff=backoff,
            timeout=timeout,
            describe=f"registry dial to {self.registry_host}:{self.registry_port}",
            on_retry=self._count_retry,
        )
        sock.settimeout(timeout)
        sock.sendall(wire.encode_register(shard, advertise_host, port))
        # A buffer of its own, not the inbox: the registry's loop may run
        # in this process, on another thread, while this call blocks.
        buffer, chunk = bytearray(), memoryview(bytearray(_RECV_BYTES))
        while (cut := wire.split_frame(buffer, partial=True)) is None:
            size = sock.recv_into(chunk)
            if not size:
                raise wire.WireError("the registry closed before PEERS")
            buffer += chunk[:size]
        kind, payload, self.pending = cut
        if kind != wire.PEERS:
            raise wire.WireError(f"expected a PEERS frame after registering, got 0x{kind:02x}")
        return wire.decode_peers(payload)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
