"""External request drivers.

The paper's protocols are *functions* invoked by an external application:
the application sets ``Request ← Wait`` and, by Hypothesis 1, never
re-requests before ``Request = Done``.  :class:`RequestDriver` mechanizes
that application for any requestable layer (PIF, IDL, ME), recording issue
and completion times so experiments can report service latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ProtocolError
from repro.sim.determinism import driver_key
from repro.types import RequestState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runtime import Simulator

__all__ = ["CompletedRequest", "RequestDriver"]


@dataclass(frozen=True)
class CompletedRequest:
    """One serviced request, for latency accounting."""

    pid: int
    issued_at: int
    completed_at: int

    @property
    def latency(self) -> int:
        return self.completed_at - self.issued_at


@dataclass
class _PerProcess:
    remaining: int
    next_issue_at: int
    issued_at: int | None = None  # time of the outstanding request, if any
    completed: list[CompletedRequest] = field(default_factory=list)


class RequestDriver:
    """Issues up to ``requests_per_process`` requests at each process.

    The driver polls every ``poll`` ticks.  It issues a request only when the
    layer's ``request`` variable is ``Done`` (Hypothesis 1) — in particular,
    from an arbitrary initial configuration it first waits out any
    never-started computation the scramble left behind (the Termination
    property guarantees that wait is finite).

    A request's payload is ``payload(pid, k)`` for the process's ``k``-th
    request, or ``payload_fmt.format(pid=pid, k=k)`` — the picklable
    spelling trial specs carry, since closures cannot cross interpreters.
    """

    def __init__(
        self,
        sim: "Simulator",
        tag: str,
        *,
        pids: Sequence[int] | None = None,
        requests_per_process: int = 1,
        first_at: int = 0,
        think_time: int = 2,
        poll: int = 1,
        payload: Callable[[int, int], Any] | None = None,
        payload_fmt: str | None = None,
        halt_when_done: bool = False,
    ) -> None:
        if requests_per_process < 0:
            raise ProtocolError(
                f"requests_per_process must be >= 0, got {requests_per_process}"
            )
        self.sim = sim
        self.tag = tag
        self.think_time = think_time
        self.poll = max(1, poll)
        if payload_fmt is not None:
            payload = lambda pid, k: payload_fmt.format(pid=pid, k=k)  # noqa: E731
        self.payload = payload
        self._per_process: dict[int, _PerProcess] = {
            pid: _PerProcess(remaining=requests_per_process, next_issue_at=first_at)
            for pid in sorted(pids if pids is not None else sim.pids)
        }
        self._issue_counter: dict[int, int] = {pid: 0 for pid in self._per_process}
        # The driven layers never change; look them up once, not per poll.
        self._layers = {pid: sim.layer(pid, tag) for pid in self._per_process}
        # Number of slots still unfinished (requests left to issue or an
        # outstanding one).  ``done`` sits in stop predicates — evaluated
        # after *every* event — so it must be O(1), not a scan.
        self._open = sum(
            1 for s in self._per_process.values() if s.remaining > 0
        )
        #: Tick at which the driver observed its last request serviced (None
        #: while unfinished) — the sharded engine's global stop time is the
        #: max of this over all shard drivers.
        self.done_at: int | None = None
        #: The serial backend's stop condition: instead of the engine
        #: asking ``done`` after every event, the tick that sets
        #: ``done_at`` halts the scheduler's run.  The backend clears it
        #: before the drain phase (which must run its full length);
        #: engines that sync on ``done_at`` across workers run to their
        #: window targets and leave it off.
        self.halt_when_done = halt_when_done
        # Driver ticks run first within their tick (canonical class 0) —
        # identically in the serial engine and in every shard worker.
        sim.scheduler.post_at(first_at, self._tick, driver_key())

    # -- polling --------------------------------------------------------------

    def _tick(self) -> None:
        now = self.sim.now
        layers = self._layers
        for pid, slot in self._per_process.items():
            if slot.issued_at is not None:
                # Outstanding request: complete it when the layer decides.
                if layers[pid].request is RequestState.DONE:
                    slot.completed.append(
                        CompletedRequest(pid, slot.issued_at, now)
                    )
                    slot.issued_at = None
                    slot.next_issue_at = now + self.think_time
                    if slot.remaining <= 0:
                        self._open -= 1
                continue
            if slot.remaining <= 0 or now < slot.next_issue_at:
                continue
            layer = layers[pid]
            if layer.request is not RequestState.DONE:
                continue  # Hypothesis 1: never re-request before Done
            self._issue(pid, layer)
            slot.remaining -= 1
            slot.issued_at = now
        if self._open:
            self.sim.scheduler.post_in(self.poll, self._tick, driver_key())
        elif self.done_at is None:
            self.done_at = now
            if self.halt_when_done:
                self.sim.scheduler.halt()

    def _issue(self, pid: int, layer: Any) -> None:
        count = self._issue_counter[pid]
        self._issue_counter[pid] = count + 1
        # The request writes the layer's variables from outside the
        # process's own events: a dormant process must wake first.
        layer.host.wake()
        if self.payload is not None:
            layer.external_request(self.payload(pid, count))
        else:
            layer.external_request()

    def _unfinished(self) -> bool:
        return self._open > 0

    # -- results ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every planned request has been issued and serviced."""
        return not self._open

    def completed(self, pid: int | None = None) -> list[CompletedRequest]:
        if pid is not None:
            return list(self._per_process[pid].completed)
        result: list[CompletedRequest] = []
        for slot in self._per_process.values():
            result.extend(slot.completed)
        result.sort(key=lambda r: r.completed_at)
        return result

    def total_completed(self) -> int:
        return sum(len(s.completed) for s in self._per_process.values())

    def total_planned(self) -> int:
        """Total requests this driver will issue over its lifetime
        (completed + outstanding + not yet issued)."""
        return sum(
            len(s.completed) + s.remaining + (1 if s.issued_at is not None else 0)
            for s in self._per_process.values()
        )

    def latencies(self) -> list[int]:
        return [r.latency for r in self.completed()]
