"""Granted free-running rounds: the arithmetic of the cluster window sync.

The paper bounds what may be in flight on a channel; the cluster engine
bounds how far a worker may run ahead the same way — with a *credit* of
virtual time instead of a coordinator round-trip per window.  Both ends
of that contract live here as pure state machines (no sockets, no
clocks), so the property tests can drive them against the lock-step
recurrence they replaced:

* :class:`RoundGrid` — a worker's side.  A round's target is ``t +
  window``, capped at ``horizon`` up to the tick that fixes the final
  target and at the final target afterwards — unless the barrier the
  round waited on showed the ticks after ``t`` quiet: every BARRIER
  carries its shard's next-event bound, every worker takes the same
  minimum ``G`` over all shards, and the round then leaves from ``G - 1``
  instead of ``t`` (target ``max(t + window, G + window - 1)``, capped
  the same way).  Nothing anywhere runs before ``G``, and a message sent
  at or after ``G`` arrives at or after ``G`` plus the latency floor
  ``>= G + window``, so the jump is as safe as a plain round.  A worker
  runs the next target on its own while it is within the granted
  ``limit``; otherwise it parks until a larger grant arrives.
* :class:`GrantLedger` — the coordinator's side.  Workers report
  ``(t, done_at)`` sparsely, ``t`` being the tick their next round leaves
  from; the ledger turns the reports into the next :class:`Grant`.  A
  shard whose driver was still busy at ``t`` proves the trial's
  completion tick lies beyond ``t`` (a driver finishes in one of its own
  events, and a quiet stretch holds none), so every worker may run to
  ``t + drain`` without passing the final target (``max(done_at) +
  drain``); once every shard has reported its ``done_at`` the final
  target itself is granted.

``RequestDriver.done_at`` is set once and ``drain >= window`` is enforced
by the coordinator, so the target sequence, the round count and the final
target are exactly those of a coordinator that advanced every round in
lock step with the same bounds — whatever the report delays — and the
slowest worker always holds at least one round of credit.  The bounds are
a function of the trial alone, so the round count stays one too.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Grant", "GrantLedger", "RoundGrid", "report_every"]


def report_every(window: int, drain: int) -> int:
    """Rounds between a worker's progress reports: a quarter of the
    credit a grant extends, so the next grant arrives long before the
    last one is spent."""
    return max(1, drain // (4 * window))


class Grant(NamedTuple):
    """``("grant", limit, final)``: run every target ``<= limit``;
    ``final`` is the trial's final target once it is known."""

    limit: int
    final: int | None


class RoundGrid:
    """A worker's position on the round grid under its latest grant."""

    __slots__ = (
        "window", "horizon", "drain", "every", "t", "round", "limit",
        "final", "quiet", "_done_reported",
    )

    def __init__(self, window: int, horizon: int, drain: int) -> None:
        self.window = window
        self.horizon = horizon
        self.drain = drain
        self.every = report_every(window, drain)
        #: Virtual time reached (the last target driven) and rounds run.
        self.t = -1
        self.round = 0
        self.limit = -1
        self.final: int | None = None
        #: Nothing happens anywhere from ``t + 1`` through this tick: the
        #: next-event bound minus one, learnt at this round's barrier
        #: (-1 until then).
        self.quiet = -1
        self._done_reported = False

    def accept(self, limit: int, final: int | None) -> None:
        """Take a grant; credit only ever grows."""
        self.limit = max(self.limit, limit)
        if final is not None:
            self.final = final

    def skip_to(self, next_event: int) -> None:
        """Learn at the barrier that nothing anywhere happens before
        ``next_event``: the coming round leaves from ``next_event - 1``
        if that is past ``t``."""
        self.quiet = next_event - 1

    @property
    def reached(self) -> int:
        """The tick the next round leaves from: ``t``, or later when the
        barrier showed the ticks after it quiet.  What a report states."""
        return max(self.t, self.quiet)

    def next_target(self) -> int | None:
        """The next round's target, or None while out of credit (or at
        the horizon, awaiting the coordinator's verdict) or finished."""
        step = self.reached + self.window
        if self.final is not None:
            if self.t >= self.final:
                return None
            # A lock-step coordinator lifts the horizon cap at the first
            # grid point at or past the tick that fixed the final target
            # (``final - drain``: the last driver going idle, or the
            # horizon).  A worker told the final target early is still
            # on the capped grid until then — and, ``drain >= window``,
            # still short of the final target.
            if self.t >= self.final - self.drain:
                return min(step, self.final)
            return min(step, self.horizon)
        target = min(step, self.horizon)
        return target if self.t < target <= self.limit else None

    @property
    def finished(self) -> bool:
        return self.final is not None and self.t >= self.final

    def advance(self, target: int) -> None:
        self.t = target
        self.round += 1
        self.quiet = -1

    def report_due(self, done_at: int | None) -> bool:
        """Whether a running worker owes a progress report after the
        round just advanced: its driver went idle since the last report,
        or ``every`` rounds have passed.  A worker about to park does
        not — its park report carries the same facts, with the reason."""
        if self.next_target() is None:
            return False
        newly_done = done_at is not None and not self._done_reported
        return newly_done or self.round % self.every == 0

    def reported(self, done_at: int | None) -> None:
        """Note what the report just sent said."""
        self._done_reported = done_at is not None


class GrantLedger:
    """The coordinator's view of every shard's progress, as grants."""

    def __init__(
        self, n_shards: int, window: int, drain: int, horizon: int
    ) -> None:
        self.window = window
        self.drain = drain
        self.horizon = horizon
        self.t = [-1] * n_shards
        self.done_at: list[int | None] = [None] * n_shards
        self.final: int | None = None
        self.completed = False
        #: Tick at which the last shard's driver went idle.
        self.done_tick: int | None = None

    def report(self, shard: int, t: int, done_at: int | None) -> None:
        """Record a worker's report — of this attempt: a crash recovery
        runs the trial again under a new ledger."""
        self.t[shard] = max(self.t[shard], t)
        if done_at is not None:
            self.done_at[shard] = done_at

    def grant(self) -> Grant:
        """The most every worker may be granted on the reports so far."""
        if self.final is None:
            busy = [
                t for t, done in zip(self.t, self.done_at) if done is None
            ]
            if not busy:
                self.done_tick = max(self.done_at)  # type: ignore[type-var]
                self.completed = True
                self.final = self.done_tick + self.drain
            elif min(self.t) >= self.horizon:
                self.final = self.horizon + self.drain
            else:
                slowest = min(busy)
                limit = min(slowest + self.drain, self.horizon)
                # The round that reaches the horizon is capped there only
                # if the trial has not completed by the tick it leaves
                # from, so the horizon is granted only on a busy report
                # from within a window of it: from that tick, or from the
                # barrier before it (the quiet ticks between hold no
                # driver's last tick).
                if limit == self.horizon and slowest + self.window < self.horizon:
                    limit = self.horizon - 1
                return Grant(limit, None)
        return Grant(self.final, self.final)
