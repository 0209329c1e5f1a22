"""Rendezvous / port-registry service for the multi-host runtime.

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
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.chaos.backoff import Backoff, retry_async
from repro.errors import SimulationError
from repro.net import wire

__all__ = ["RegistryServer", "RegistryClient", "read_control", "send_control"]


async def read_control(reader: asyncio.StreamReader) -> Any:
    """Read one CONTROL frame (large frame bound — results carry traces)."""
    kind, payload = await wire.read_frame(
        reader, max_frame=wire.CONTROL_MAX_FRAME
    )
    if kind != wire.CONTROL:
        raise wire.WireError(
            f"expected a CONTROL frame on the registry channel, got 0x{kind:02x}"
        )
    return wire.decode_control(payload)


async def send_control(writer: asyncio.StreamWriter, message: Any) -> None:
    writer.write(wire.encode_control(message))
    await writer.drain()


class _WorkerHandle:
    """The coordinator's end of one registered worker's control channel."""

    __slots__ = ("shard", "host", "port", "reader", "writer")

    def __init__(
        self,
        shard: int,
        host: str,
        port: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.shard = shard
        self.host = host
        self.port = port
        self.reader = reader
        self.writer = writer

    async def send(self, message: Any) -> None:
        await send_control(self.writer, message)

    async def recv(self) -> Any:
        return await read_control(self.reader)

    def close(self) -> None:
        self.writer.close()


class RegistryServer:
    """Coordinator-side registry: a table of worker slots.

    ``slots`` bounds the shard ids that may register (``0..slots-1``; the
    owner raises it before launching workers for more).  A worker that
    registers fills its slot and is answered at once; :meth:`join`
    resolves when the slots it names are all filled, and :meth:`forget`
    empties one so a replacement can register.  A second registration
    for a filled slot, or one out of range, fails the next (or pending)
    :meth:`join` loudly.
    """

    def __init__(
        self, slots: int = 0, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.slots = slots
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        #: REGISTER/PEERS exchanges served (two per worker that joined;
        #: rejected duplicates count too — they cost a round trip).
        self.round_trips = 0
        self._server: asyncio.Server | None = None
        self._handles: dict[int, _WorkerHandle] = {}
        #: Set on every registration and every failed one.
        self._changed: asyncio.Event = asyncio.Event()
        self._error: BaseException | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._accept, host=self.host, port=self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            kind, payload = await wire.read_frame(reader)
            if kind != wire.REGISTER:
                raise wire.WireError(
                    f"registry connection did not open with REGISTER "
                    f"(got 0x{kind:02x})"
                )
            shard, host, port = wire.decode_register(payload)
            self.round_trips += 1
            if not 0 <= shard < self.slots:
                raise wire.WireError(
                    f"shard {shard} out of range 0..{self.slots - 1}"
                )
            if shard in self._handles:
                raise wire.WireError(f"shard {shard} registered twice")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            writer.close()
            return
        except wire.WireError as exc:
            # A malformed registration fails the join loudly: a worker
            # that cannot register can never reach its barrier, and a
            # silent drop would hang the run until the timeout.
            self._error = exc
            self._changed.set()
            writer.close()
            return
        self._handles[shard] = _WorkerHandle(shard, host, port, reader, writer)
        writer.write(wire.encode_peers(self._peer_map()))
        await writer.drain()
        self.round_trips += 1
        self._changed.set()

    def _peer_map(self) -> dict[int, tuple[str, int]]:
        return {
            shard: (handle.host, handle.port)
            for shard, handle in self._handles.items()
        }

    async def join(self, shards, timeout: float) -> list[_WorkerHandle]:
        """Wait until every slot in ``shards`` is filled; the handles in
        shard order.  Raises on duplicate or malformed registrations and
        on timeout (naming the slots still empty)."""
        shards = sorted(shards)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            if self._error is not None:
                error, self._error = self._error, None
                raise SimulationError(
                    f"registry rendezvous failed: {error}"
                ) from error
            missing = [shard for shard in shards if shard not in self._handles]
            if not missing:
                return [self._handles[shard] for shard in shards]
            self._changed.clear()
            try:
                await asyncio.wait_for(
                    self._changed.wait(), timeout=deadline - loop.time()
                )
            except asyncio.TimeoutError:
                raise SimulationError(
                    f"registry rendezvous timed out after {timeout:.0f}s; "
                    f"missing shards {missing} (of {self.slots} slots)"
                ) from None

    def forget(self, shard: int) -> None:
        """Empty a slot (its worker died or was retired), closing the
        control channel; a replacement may then register for it."""
        handle = self._handles.pop(shard, None)
        if handle is not None:
            handle.close()

    async def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class RegistryClient:
    """Worker-side rendezvous: register once, keep the connection as the
    coordinator control channel."""

    def __init__(self, registry_host: str, registry_port: int) -> None:
        self.registry_host = registry_host
        self.registry_port = registry_port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        #: Dial attempts that had to back off and retry (repro.obs).
        self.dial_retries = 0

    def _count_retry(self, _delay: float) -> None:
        self.dial_retries += 1

    async def register(
        self,
        shard: int,
        advertise_host: str,
        port: int,
        *,
        timeout: float = 30.0,
        backoff: Backoff = Backoff(),
    ) -> dict[int, tuple[str, int]]:
        """Connect (with exponential-backoff retries — the coordinator may
        still be binding), send REGISTER, await the PEERS acknowledgement
        (the slots filled so far; a trial's peer map rides in its spec)."""

        async def dial() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
            return await asyncio.open_connection(
                self.registry_host, self.registry_port
            )

        self.reader, self.writer = await retry_async(
            dial,
            backoff=backoff,
            timeout=timeout,
            describe=(
                f"registry dial to {self.registry_host}:{self.registry_port}"
            ),
            on_retry=self._count_retry,
        )
        self.writer.write(wire.encode_register(shard, advertise_host, port))
        await self.writer.drain()
        kind, payload = await asyncio.wait_for(
            wire.read_frame(self.reader), timeout=timeout
        )
        if kind != wire.PEERS:
            raise wire.WireError(
                f"expected a PEERS frame after registering, got 0x{kind:02x}"
            )
        return wire.decode_peers(payload)

    async def recv(self) -> Any:
        assert self.reader is not None
        return await read_control(self.reader)

    async def send(self, message: Any) -> None:
        assert self.writer is not None
        await send_control(self.writer, message)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
