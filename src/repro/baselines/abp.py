"""Afek–Brown style self-stabilizing alternating-bit protocol (related work).

The paper's related-work section credits Afek & Brown [2] with using random
sequence numbers to beat unbounded-capacity channels for *self*-stabilizing
data transfer.  This module implements that idea for one sender/receiver
pair: each data word carries a label drawn at random from a large space; the
sender retransmits until an acknowledgment echoing the current label
arrives.  Stale garbage in the channels matches the current label only with
probability ``1/label_space``, so the protocol stabilizes with probability 1
— but, unlike Protocol PIF, it *can* be fooled right after a bad initial
configuration, which is the self- vs snap-stabilization gap in a nutshell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["AbpMessage", "AbpSenderLayer", "AbpReceiverLayer"]


@dataclass(frozen=True)
class AbpMessage:
    """Data or acknowledgment frame."""

    tag: str
    kind: str  # "data" | "ack"
    label: int
    payload: Any = None


class AbpSenderLayer(Layer):
    """Sends a queue of payloads reliably to one peer."""

    STATE = ("queue", "current_label", "acked_count", "request")

    def __init__(self, tag: str, peer: int, label_space: int = 2**31) -> None:
        super().__init__(tag)
        self.peer = peer
        self.label_space = label_space
        self.queue: list[Any] = []
        self.current_label: int | None = None
        self.acked_count = 0
        self.request: RequestState = RequestState.DONE

    def send_payloads(self, payloads: Sequence[Any]) -> None:
        """Enqueue payloads for transfer."""
        self.queue.extend(payloads)
        if self.queue:
            self.request = RequestState.IN

    def actions(self) -> Sequence[Action]:
        return (Action("S1", self._guard_transmit, self._action_transmit),)

    def _guard_transmit(self) -> bool:
        return bool(self.queue)

    def _action_transmit(self) -> None:
        assert self.host is not None
        if self.current_label is None:
            self.current_label = self.host.rng.randrange(self.label_space)
        self.host.send(
            self.peer,
            AbpMessage(tag=self.tag, kind="data", label=self.current_label,
                       payload=self.queue[0]),
        )

    def on_message(self, sender: int, msg: AbpMessage) -> None:
        if msg.kind != "ack" or sender != self.peer or not self.queue:
            return
        if msg.label == self.current_label:
            self.queue.pop(0)
            self.acked_count += 1
            self.current_label = None
            if not self.queue:
                self.request = RequestState.DONE

    def scramble(self, rng: random.Random) -> None:
        self.current_label = rng.randrange(self.label_space) if rng.random() < 0.5 else None

    def garbage_message(self, rng: random.Random) -> AbpMessage:
        return AbpMessage(tag=self.tag, kind=rng.choice(["data", "ack"]),
                          label=rng.randrange(self.label_space), payload="garbage")


class AbpReceiverLayer(Layer):
    """Receives, deduplicates by label, and acknowledges."""

    STATE = ("delivered", "last_label")

    def __init__(self, tag: str, peer: int) -> None:
        super().__init__(tag)
        self.peer = peer
        self.delivered: list[Any] = []
        self.last_label: int | None = None

    def on_message(self, sender: int, msg: AbpMessage) -> None:
        assert self.host is not None
        if msg.kind != "data" or sender != self.peer:
            return
        if msg.label != self.last_label:
            self.delivered.append(msg.payload)
            self.last_label = msg.label
            self.host.emit(EventKind.NOTE, tag=self.tag, delivered=msg.payload)
        self.host.send(self.peer, AbpMessage(tag=self.tag, kind="ack", label=msg.label))

    def scramble(self, rng: random.Random) -> None:
        self.last_label = rng.randrange(2**31) if rng.random() < 0.5 else None
