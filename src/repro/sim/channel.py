"""Communication channels.

The paper's model (Section 2): channels are FIFO, may lose messages, but are
fair (infinitely many sends imply infinitely many receipts), and — in the
constructive part (Section 4) — have a *known bounded capacity*; a message
sent into a full channel is lost.

Two channel families are provided:

* :class:`BoundedChannel` — the Section 4 model.  Capacity is accounted **per
  protocol-instance tag**: each concurrently running protocol instance (e.g.
  ME's embedded IDL wave and ME's own ASK/EXIT/EXITCS wave) owns ``capacity``
  slots per direction.  This realizes the paper's "extension to an arbitrary
  but known bounded message capacity is straightforward" remark while keeping
  the single-slot-per-instance invariant that Lemma 4's safety argument
  relies on.
* :class:`UnboundedChannel` — the Section 3 model used by the Theorem 1
  impossibility construction: any finite number of messages may sit in the
  channel initially.

A channel's capacity need not be uniform across the system: the network's
channel factories size each :class:`BoundedChannel` from the topology's
per-edge capacity map (:meth:`repro.sim.topology.Topology.edge_capacity`)
when one exists, so a :class:`~repro.sim.topology.Weighted` topology can
give individual links their own slot budgets.  Each channel still enforces
one fixed capacity for its lifetime — the per-edge map only chooses which.

Messages are duck-typed: anything with a string ``tag`` attribute.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ChannelError

__all__ = [
    "TaggedMessage",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "DropFirstK",
    "ChannelBase",
    "BoundedChannel",
    "UnboundedChannel",
]


@runtime_checkable
class TaggedMessage(Protocol):
    """Anything that can travel through a channel."""

    tag: str


class LossModel(abc.ABC):
    """Decides, at send time, whether a message is lost in transit.

    The decision reads the message's tag and nothing else, so a compiled
    link (:meth:`repro.sim.runtime.Link.claim`) takes it before the
    message is built.
    """

    @abc.abstractmethod
    def should_drop(self, rng: random.Random, tag: str) -> bool:
        """Return True to lose the next message tagged ``tag``."""


class NoLoss(LossModel):
    """Reliable transit (capacity overflow can still lose messages)."""

    def should_drop(self, rng: random.Random, tag: str) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Each message is independently lost with probability ``p``.

    ``p`` must be < 1 so the paper's fairness assumption (infinitely many
    sends imply infinitely many receipts) holds almost surely.
    """

    def __init__(self, p: float) -> None:
        if not 0.0 <= p < 1.0:
            raise ChannelError(f"loss probability must be in [0, 1), got {p}")
        self.p = p

    def should_drop(self, rng: random.Random, tag: str) -> bool:
        return rng.random() < self.p


class DropFirstK(LossModel):
    """Adversarially lose the first ``k`` messages of each tag.

    Useful in tests: the protocols must survive any finite prefix of losses.
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ChannelError(f"k must be >= 0, got {k}")
        self.k = k
        self._seen: dict[str, int] = {}

    def should_drop(self, rng: random.Random, tag: str) -> bool:
        count = self._seen.get(tag, 0)
        self._seen[tag] = count + 1
        return count < self.k


class _Entry:
    """A message sitting in a channel.

    Identity semantics (no ``__eq__``): two entries are the same only if
    they are the same in-flight occurrence — equal payloads admitted twice
    must stay distinguishable for removal and membership tests.  A plain
    ``__slots__`` class, not a dataclass: one entry is allocated per
    admitted message, and the dataclass-generated ``__init__`` showed up
    in trial profiles.
    """

    __slots__ = ("msg", "enqueued_at", "delivery_time", "seq")

    def __init__(
        self,
        msg: TaggedMessage,
        enqueued_at: int,
        delivery_time: int | None = None,
        seq: int = 0,
    ) -> None:
        self.msg = msg
        self.enqueued_at = enqueued_at
        #: None until the network schedules it.
        self.delivery_time = delivery_time
        #: Admission sequence number on this channel (canonical delivery
        #: rank — computable identically on both sides of a shard boundary).
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_Entry(msg={self.msg!r}, enqueued_at={self.enqueued_at}, "
            f"delivery_time={self.delivery_time}, seq={self.seq})"
        )


class ChannelBase(abc.ABC):
    """A unidirectional FIFO channel from ``src`` to ``dst``."""

    #: Slot budget of every tag, fixed for the channel's lifetime (None
    #: means unbounded).  Subclasses set it; a compiled link
    #: (:class:`repro.sim.runtime.Link`) binds it once.
    capacity: int | None

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self._entries: list[_Entry] = []
        # Monotone per-tag delivery clock: enforces FIFO-per-tag even with
        # jittered latencies and capacity > 1.
        self._last_delivery: dict[str, int] = {}
        # Monotone admission counter (see _Entry.seq).
        self._admit_seq = 0
        # Per-tag in-flight counters, maintained on admit/remove/clear:
        # occupancy checks run on every send, and counting entries by scan
        # was the single hottest line of the trial profile.
        self._occupancy: dict[str, int] = {}
        # Per-tag occupancy high-water marks since construction (repro.obs).
        # Maintained passively on admit: one dict probe per admitted
        # message, harvested once per trial by Simulator.collect_obs.
        self._occ_high: dict[str, int] = {}

    # -- capacity ---------------------------------------------------------

    def capacity_for(self, tag: str) -> int | None:
        """Slot budget for ``tag`` (None means unbounded)."""
        return self.capacity

    def occupancy(self, tag: str) -> int:
        """Number of in-flight messages with the given tag."""
        return self._occupancy.get(tag, 0)

    def occupancy_high_water(self) -> dict[str, int]:
        """Per-tag peak occupancy observed over the channel's lifetime."""
        return dict(self._occ_high)

    def is_full_for(self, tag: str) -> bool:
        cap = self.capacity_for(tag)
        return cap is not None and self._occupancy.get(tag, 0) >= cap

    # -- admission / removal ---------------------------------------------

    def try_admit(self, msg: TaggedMessage, now: int) -> _Entry | None:
        """Admit ``msg`` unless the channel is full for its tag.

        Returns the channel entry on success, None if the message is lost
        because the channel is full (the Section 4 semantics).
        """
        tag = msg.tag
        occ = self._occupancy.get(tag, 0)
        cap = self.capacity
        if cap is not None and occ >= cap:
            return None
        occ += 1
        self._occupancy[tag] = occ
        if occ > self._occ_high.get(tag, 0):
            self._occ_high[tag] = occ
        self._admit_seq += 1
        entry = _Entry(msg, now, None, self._admit_seq)
        self._entries.append(entry)
        return entry

    def inject(self, msg: TaggedMessage, now: int = 0) -> _Entry:
        """Adversarially place a message into the channel.

        Unlike :meth:`try_admit`, refuses (raises) rather than silently
        dropping when the channel is full — the adversary must respect the
        capacity bound, which is exactly what makes Theorem 1's construction
        fail on bounded channels.
        """
        entry = self.try_admit(msg, now)
        if entry is None:
            raise ChannelError(
                f"channel {self.src}->{self.dst} full for tag {msg.tag!r}: "
                f"cannot inject {msg!r}"
            )
        return entry

    def fifo_delivery_time(self, tag: str, proposed: int) -> int:
        """Clamp a proposed delivery time to keep per-tag FIFO order."""
        floor = self._last_delivery.get(tag, -1) + 1
        time = max(proposed, floor)
        self._last_delivery[tag] = time
        return time

    def remove(self, entry: _Entry) -> None:
        """Take a message out of the channel (on delivery)."""
        try:
            self._entries.remove(entry)
        except ValueError:
            raise ChannelError(
                f"entry {entry!r} not present in channel {self.src}->{self.dst}"
            ) from None
        self._occupancy[entry.msg.tag] -= 1

    # -- inspection --------------------------------------------------------

    def contents(self) -> tuple[TaggedMessage, ...]:
        """The in-flight messages, in FIFO order."""
        return tuple(e.msg for e in self._entries)

    def entries(self) -> tuple[_Entry, ...]:
        return tuple(self._entries)

    def clear(self) -> list[TaggedMessage]:
        """Drop everything in the channel (adversary/reset helper)."""
        dropped = [e.msg for e in self._entries]
        self._entries.clear()
        self._occupancy.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


class BoundedChannel(ChannelBase):
    """Known bounded capacity, accounted per protocol-instance tag."""

    def __init__(self, src: int, dst: int, capacity: int = 1) -> None:
        if capacity < 1:
            raise ChannelError(f"capacity must be >= 1, got {capacity}")
        super().__init__(src, dst)
        self.capacity = capacity


class UnboundedChannel(ChannelBase):
    """Finite but unbounded capacity (the Theorem 1 setting)."""

    capacity = None
