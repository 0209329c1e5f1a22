"""A *self-stabilizing* (not snap-stabilizing) token mutex — comparator.

Classic design: a single token circulates on a virtual ring (ascending pid
order); holding the token grants the critical section.  Stabilization uses
counter flushing (Varghese-style): the leader (smallest pid) stamps the
token with an epoch counter and discards stale epochs; a leader timeout
regenerates a lost token with a fresh epoch.

From an *arbitrary initial configuration* several processes may hold forged
tokens, so two requesting processes can execute the critical section
concurrently **before** the epochs flush — a safety violation a
snap-stabilizing protocol never exhibits for requesting processes.  This is
exactly the self- vs snap-stabilization contrast of experiment E6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ProtocolError
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["TokenMessage", "TokenMutexLayer"]


@dataclass(frozen=True)
class TokenMessage:
    """The circulating token, stamped with the leader's epoch."""

    tag: str
    epoch: int


class TokenMutexLayer(Layer):
    """Self-stabilizing token-ring mutual exclusion (baseline).

    The token circulates on the *virtual* ring in ascending pid order, so
    the layer runs on any topology in which each process is adjacent to its
    pid-successor — the paper's complete graph and, naturally, a
    :class:`~repro.sim.topology.Ring` (where the virtual ring *is* the
    physical one).  Attachment fails fast anywhere else.
    """

    # T2's leader timeout reads the clock: the process stays awake.
    guards_read_clock = True

    def __init__(
        self,
        tag: str = "tok",
        cs_duration: int = 3,
        regen_timeout: int = 400,
    ) -> None:
        super().__init__(tag)
        if regen_timeout < 1:
            raise ProtocolError(f"regen_timeout must be >= 1, got {regen_timeout}")
        self.cs_duration = cs_duration
        self.regen_timeout = regen_timeout
        self.request: RequestState = RequestState.DONE
        self.have_token = False
        self.token_epoch = 0
        #: Leader bookkeeping: current epoch and last time the token was seen.
        self.epoch = 0
        self.last_token_seen = 0
        self.in_cs = False

    # -- topology helpers -------------------------------------------------------

    def on_attach(self) -> None:
        assert self.host is not None
        succ = self.successor
        if not self.host.sim.network.topology.adjacent(self.host.pid, succ):
            raise ProtocolError(
                f"token ring needs {self.host.pid} adjacent to its pid-successor "
                f"{succ}; topology {self.host.sim.network.topology.name} breaks "
                "the ring (use complete or ring)"
            )

    @property
    def is_leader(self) -> bool:
        assert self.host is not None
        return self.host.pid == min(self.host.sim.pids)

    @property
    def successor(self) -> int:
        assert self.host is not None
        ring = sorted(self.host.sim.pids)
        return ring[(ring.index(self.host.pid) + 1) % len(ring)]

    # -- external interface ----------------------------------------------------------

    def request_cs(self) -> None:
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_cs

    # -- actions ----------------------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("T1", self._guard_use_token, self._action_use_token),
            Action("T2", self._guard_regen, self._action_regen),
        )

    def _guard_use_token(self) -> bool:
        return self.have_token and not self.in_cs

    def _action_use_token(self) -> None:
        """Holding the token: serve a pending request, then pass it on."""
        assert self.host is not None
        if self.request is RequestState.WAIT:
            self.request = RequestState.IN
            self.host.emit(EventKind.START, tag=self.tag)
            self._enter_cs()
            return
        self._pass_token()

    def _enter_cs(self) -> None:
        assert self.host is not None
        self.in_cs = True
        self.host.emit(EventKind.CS_ENTER, tag=self.tag, requested=True)
        self.host.set_busy_for(self.cs_duration)
        self.host.call_later(self.cs_duration, self._exit_cs)

    def _exit_cs(self) -> None:
        if not self.in_cs:
            return
        assert self.host is not None
        self.in_cs = False
        self.host.emit(EventKind.CS_EXIT, tag=self.tag)
        self.request = RequestState.DONE
        self.host.emit(EventKind.DECIDE, tag=self.tag)
        self._pass_token()

    def _pass_token(self) -> None:
        assert self.host is not None
        self.have_token = False
        self.host.send(self.successor, TokenMessage(tag=self.tag, epoch=self.token_epoch))

    def _guard_regen(self) -> bool:
        """Leader regenerates the token after a silence timeout."""
        assert self.host is not None
        return (
            self.is_leader
            and not self.have_token
            and not self.in_cs
            and self.host.now - self.last_token_seen >= self.regen_timeout
        )

    def _action_regen(self) -> None:
        assert self.host is not None
        self.epoch += 1
        self.token_epoch = self.epoch
        self.have_token = True
        self.last_token_seen = self.host.now
        self.host.emit(EventKind.NOTE, tag=self.tag, what="token-regenerated",
                       epoch=self.epoch)

    # -- receive -------------------------------------------------------------------------

    def on_message(self, sender: int, msg: TokenMessage) -> None:
        assert self.host is not None
        if self.is_leader:
            self.last_token_seen = self.host.now
            if msg.epoch != self.epoch:
                return  # stale epoch: flush the forged/duplicate token
            self.epoch += 1
            self.token_epoch = self.epoch
            self.have_token = True
        else:
            # Non-leaders forward anything that looks like a token —
            # that is what makes the protocol merely self-stabilizing.
            self.token_epoch = msg.epoch
            self.have_token = True

    # -- adversary interface ------------------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        self.request = rng.choice(list(RequestState))
        self.have_token = rng.random() < 0.5
        self.token_epoch = rng.randint(0, 5)
        self.epoch = rng.randint(0, 5)
        self.last_token_seen = 0

    def garbage_message(self, rng: random.Random) -> TokenMessage:
        return TokenMessage(tag=self.tag, epoch=rng.randint(0, 5))

    def snapshot(self) -> dict[str, Any]:
        return {
            "request": self.request,
            "have_token": self.have_token,
            "token_epoch": self.token_epoch,
            "epoch": self.epoch,
            "in_cs": self.in_cs,
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.request = state["request"]
        self.have_token = state["have_token"]
        self.token_epoch = state["token_epoch"]
        self.epoch = state["epoch"]
        self.in_cs = state["in_cs"]
