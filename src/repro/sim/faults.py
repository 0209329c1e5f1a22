"""Additional fault models beyond plain Bernoulli loss.

The paper's channel model requires only *fairness*: if a process sends
infinitely many messages, infinitely many arrive.  Any loss process whose
drop probability stays below 1 in every state satisfies it — so the
protocols must survive all the models here, including bursty,
correlated loss (experiment E10).

Also provided: :class:`HeaderCorruption`, which randomizes handshake header
fields of PIF messages in flight.  Unlike initial-configuration garbage
(bounded, then gone), ongoing corruption is a transient fault that *never
ceases* — strictly outside the paper's fault model.  It is used by
experiment E10 to probe the guarantee's boundary: liveness survives
(retransmissions eventually get uncorrupted round trips through), but
safety becomes best-effort.
"""

from __future__ import annotations

import random

from repro.core.messages import PifMessage
from repro.errors import ChannelError
from repro.sim.channel import LossModel, TaggedMessage

__all__ = [
    "GilbertElliottLoss",
    "PeriodicLoss",
    "TargetedLoss",
    "HeaderCorruption",
]


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert–Elliott) burst loss.

    A *good* state drops with probability ``p_good`` and a *bad* state with
    ``p_bad``; the chain switches good→bad with ``p_gb`` and bad→good with
    ``p_bg`` per message.  Fairness requires ``p_bad < 1``.
    """

    def __init__(
        self,
        p_good: float = 0.01,
        p_bad: float = 0.6,
        p_gb: float = 0.05,
        p_bg: float = 0.2,
    ) -> None:
        for name, value in (("p_good", p_good), ("p_bad", p_bad)):
            if not 0.0 <= value < 1.0:
                raise ChannelError(f"{name} must be in [0, 1), got {value}")
        for name, value in (("p_gb", p_gb), ("p_bg", p_bg)):
            if not 0.0 < value <= 1.0:
                raise ChannelError(f"{name} must be in (0, 1], got {value}")
        self.p_good = p_good
        self.p_bad = p_bad
        self.p_gb = p_gb
        self.p_bg = p_bg
        self._bad = False

    def should_drop(self, rng: random.Random, tag: str) -> bool:
        if self._bad:
            if rng.random() < self.p_bg:
                self._bad = False
        else:
            if rng.random() < self.p_gb:
                self._bad = True
        p = self.p_bad if self._bad else self.p_good
        return rng.random() < p

    @property
    def in_burst(self) -> bool:
        return self._bad


class PeriodicLoss(LossModel):
    """Drops every ``period``-th message (deterministic, fair for period>1)."""

    def __init__(self, period: int) -> None:
        if period < 2:
            raise ChannelError(f"period must be >= 2 (fairness), got {period}")
        self.period = period
        self._count = 0

    def should_drop(self, rng: random.Random, tag: str) -> bool:
        self._count += 1
        return self._count % self.period == 0


class TargetedLoss(LossModel):
    """Drops only messages of the targeted tags, with probability ``p``.

    Models an adversary that knows the protocol layering and attacks one
    instance (e.g. only ME's EXITCS wave) while leaving the rest intact.
    """

    def __init__(self, tags: set[str] | frozenset[str], p: float = 0.5) -> None:
        if not 0.0 <= p < 1.0:
            raise ChannelError(f"p must be in [0, 1), got {p}")
        self.tags = frozenset(tags)
        self.p = p

    def should_drop(self, rng: random.Random, tag: str) -> bool:
        return tag in self.tags and rng.random() < self.p


class HeaderCorruption:
    """Randomizes the handshake header of PIF messages with probability ``p``.

    Intended to be applied at transmission time via
    :meth:`maybe_corrupt`; a corrupted message keeps its payloads but
    carries arbitrary ``state``/``echo`` flags — i.e. it *becomes* the kind
    of garbage an arbitrary initial configuration contains.
    """

    def __init__(self, p: float, max_state: int = 4) -> None:
        if not 0.0 <= p <= 1.0:
            raise ChannelError(f"p must be in [0, 1], got {p}")
        self.p = p
        self.max_state = max_state
        self.corrupted = 0

    def maybe_corrupt(self, rng: random.Random, msg: TaggedMessage) -> TaggedMessage:
        if not isinstance(msg, PifMessage) or rng.random() >= self.p:
            return msg
        self.corrupted += 1
        return PifMessage(
            tag=msg.tag,
            broadcast=msg.broadcast,
            feedback=msg.feedback,
            state=rng.randint(0, self.max_state),
            echo=rng.randint(0, self.max_state),
            debug_wave=None,  # a corrupted frame is garbage, not a wave member
        )
