"""Message formats.

The paper uses a single message type ``⟨PIF, B-Mes, F-Mes, State, NeigState⟩``
to manage all PIF computations of one protocol instance
(Section 4.1).  :class:`PifMessage` mirrors it field by field:

* ``broadcast`` — the sender's broadcast payload (``B-Mes_p``),
* ``feedback`` — the sender's feedback for the receiver (``F-Mes_p[q]``),
* ``state`` — the sender's handshake flag for its own broadcast
  (``State_p[q]``),
* ``echo`` — the sender's view of the receiver's flag (``NeigState_p[q]``).

``debug_wave`` is **not part of the protocol**: it is verification-only
metadata identifying which started computation a message belongs to, so the
specification checkers can tell genuine broadcasts from initial garbage.  No
protocol action ever reads it.
"""

from __future__ import annotations

from typing import Any

__all__ = ["PifMessage"]


class PifMessage:
    """The single message type of Protocol PIF (Algorithm 1).

    A hand-rolled ``__slots__`` value class rather than a frozen dataclass:
    every protocol send allocates one of these (they are the bulk of all
    allocations in a trial), and the dataclass-generated ``__init__`` —
    six ``object.__setattr__`` calls for frozen-ness — was a top line of
    the trial profile.  Value semantics (field equality and hashing) are
    preserved; no engine or protocol code ever mutates a message after
    construction.
    """

    __slots__ = ("tag", "broadcast", "feedback", "state", "echo", "debug_wave")

    def __init__(
        self,
        tag: str,
        broadcast: Any,
        feedback: Any,
        state: int,
        echo: int,
        debug_wave: "tuple[int, int] | None" = None,
    ) -> None:
        self.tag = tag
        self.broadcast = broadcast
        self.feedback = feedback
        self.state = state
        self.echo = echo
        self.debug_wave = debug_wave

    def _fields(self) -> tuple:
        return (
            self.tag, self.broadcast, self.feedback,
            self.state, self.echo, self.debug_wave,
        )

    def __reduce__(self) -> tuple:
        # A pickled (or deep-copied) message is its constructor call, not
        # copyreg's class + dict of six slot names: half the bytes and
        # half the codec time of every cross-shard ship.
        return PifMessage, self._fields()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is PifMessage:
            return self._fields() == other._fields()  # type: ignore[union-attr]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PIF⟨{self.tag}, b={self.broadcast!r}, f={self.feedback!r}, "
            f"s={self.state}, e={self.echo}⟩"
        )
