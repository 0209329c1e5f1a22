"""Exponential backoff with deterministic jitter for dial/rendezvous retries.

Every reconnection loop in the multi-host runtime (registry dials, peer
dials at the start of a trial) retries through one :class:`Backoff`
policy instead of a fixed-delay sleep: delays grow geometrically up to a
cap, and a jitter factor decorrelates retry storms when many workers dial
the same endpoint at once (the classic thundering-herd fix).

Jitter is drawn from the policy's *own* :class:`random.Random` stream —
never from a simulator entity stream — so chaos-era retries cannot
perturb the deterministic draw paths the equivalence gates compare.  With
an explicit ``seed`` the delay sequence itself is reproducible, which is
how the unit tests pin it down without sleeping.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from repro.errors import SimulationError

__all__ = ["Backoff", "retry"]

T = TypeVar("T")


@dataclass(frozen=True)
class Backoff:
    """A retry-delay policy: ``initial * factor**n``, capped, jittered.

    ``jitter`` is the +/- fraction applied to each delay (0.5 means each
    sleep lands uniformly in [0.5x, 1.5x] of its nominal value); ``seed``
    fixes the jitter stream for reproducible schedules (None draws a
    fresh stream per :meth:`delays` call).
    """

    initial: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise SimulationError(f"backoff initial must be > 0, got {self.initial}")
        if self.factor < 1.0:
            raise SimulationError(f"backoff factor must be >= 1, got {self.factor}")
        if self.cap < self.initial:
            raise SimulationError(
                f"backoff cap ({self.cap}) must be >= initial ({self.initial})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise SimulationError(
                f"backoff jitter must be in [0, 1), got {self.jitter}"
            )

    def delays(self) -> Iterator[float]:
        """The (infinite) sleep sequence; callers bound it by a deadline."""
        rng = random.Random(self.seed)
        nominal = self.initial
        while True:
            spread = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield nominal * spread
            nominal = min(nominal * self.factor, self.cap)


def retry(
    op: Callable[[], T],
    *,
    backoff: Backoff,
    timeout: float,
    describe: str,
    retryable: tuple[type[BaseException], ...] = (OSError,),
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[float], None] | None = None,
) -> T:
    """Run ``op`` until it succeeds or ``timeout`` seconds elapse.

    Only ``retryable`` exceptions trigger a retry; anything else (and the
    final timeout) propagates.  ``clock``/``sleep`` exist so tests can
    drive the schedule with a fake clock; ``on_retry(delay)`` is called
    before each sleep (retry counters for repro.obs).
    """
    deadline = clock() + timeout
    last: BaseException | None = None
    for delay in backoff.delays():
        try:
            return op()
        except retryable as exc:
            last = exc
            if clock() + delay > deadline:
                raise SimulationError(
                    f"{describe} failed after {timeout:.0f}s of retries: {exc}"
                ) from exc
            if on_retry is not None:
                on_retry(delay)
            sleep(delay)
    raise SimulationError(f"{describe}: backoff yielded no delays ({last})")
