"""The Theorem 1 adversary construction, executable.

Theorem 1: no safety-distributed specification admits a snap-stabilizing
solution in message-passing systems with finite yet *unbounded* channel
capacity.  The proof constructs, from per-process witness executions, an
initial configuration γ₀ whose channels are pre-loaded with exactly the
message sequences each process consumed in its witness fragment; replaying
each process's local schedule from γ₀ realizes the bad-factor.

This module carries out that construction literally, against our own
snap-stabilizing mutual-exclusion protocol (Protocol ME):

1. :func:`record_fragment` — for each process ``p``, run a *solo* execution
   in which only ``p`` requests the critical section, and record the
   fragment ``e¹_p``: ``p``'s local state when it requests, the ordered
   message sequences ``MesSeq^q_p`` it consumes from each peer, and its
   local step schedule (activations / receipts) up to CS entry.
2. :func:`build_gamma0` — assemble γ₀: every process restored to its
   fragment-initial state; every channel ``q → p`` pre-loaded with
   ``MesSeq^q_p`` in order.  On unbounded channels this always succeeds;
   on bounded channels the injection overflows and raises
   :class:`~repro.errors.ImpossibilityConstructionError` — which is exactly
   the observation that lets Section 4 escape the impossibility.
3. :func:`replay` — drive every process through its recorded schedule.
   Determinism guarantees each process repeats its witness behaviour, so
   *all* processes end up requesting-and-inside the critical section at
   once — the bad-factor of mutual exclusion.  Specification 3's automaton
   (:class:`~repro.spec.mutex_spec.MutexAutomaton`) judges the replay's
   trace: the replayed CS entries count as requested because the request
   flag is part of the restored local state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.mutex import MutexLayer
from repro.errors import ImpossibilityConstructionError, SimulationError
from repro.sim.configuration import AbstractConfiguration, capture_abstract
from repro.sim.runtime import Simulator
from repro.spec.base import SpecVerdict
from repro.spec.mutex_spec import check_mutex

__all__ = [
    "Step",
    "Fragment",
    "ImpossibilityResult",
    "record_fragment",
    "build_gamma0",
    "replay",
    "demonstrate_impossibility",
    "attempt_on_bounded",
]

BuildFn = Callable[..., None]


@dataclass(frozen=True)
class Step:
    """One local step of a process schedule."""

    kind: str  # "activate" | "receive"
    src: int | None = None  # sender, for receive steps
    tag: str | None = None  # message tag, for receive steps


@dataclass
class Fragment:
    """The witness fragment e¹_p of one process (proof of Theorem 1)."""

    pid: int
    initial_state: dict[str, dict[str, Any]]
    #: MesSeq^q_p — ordered messages consumed from each peer q.
    received: dict[int, list[Any]] = field(default_factory=dict)
    #: p's local schedule from the request to (and including) CS entry.
    schedule: list[Step] = field(default_factory=list)

    @property
    def messages_consumed(self) -> int:
        return sum(len(v) for v in self.received.values())

    def max_per_channel(self) -> int:
        """The deepest single-channel message sequence (capacity needed)."""
        per_channel_per_tag: dict[tuple[int, str], int] = {}
        for src, msgs in self.received.items():
            for msg in msgs:
                key = (src, msg.tag)
                per_channel_per_tag[key] = per_channel_per_tag.get(key, 0) + 1
        return max(per_channel_per_tag.values(), default=0)


def _default_build(host) -> None:
    host.register(MutexLayer("me"))


def record_fragment(
    pid: int,
    n: int,
    *,
    build: BuildFn = _default_build,
    tag: str = "me",
    seed: int = 0,
    horizon: int = 500_000,
) -> Fragment:
    """Record the witness fragment of process ``pid``.

    Runs a clean solo execution (only ``pid`` requests the critical
    section — legal behaviour, satisfying the specification) and records
    everything Theorem 1's construction needs.
    """
    sim = Simulator(n, build, seed=seed)
    layer = sim.layer(pid, tag)
    if not isinstance(layer, MutexLayer):
        raise SimulationError(f"layer {tag!r} at {pid} is not a MutexLayer")

    layer.request_cs()
    fragment = Fragment(
        pid=pid,
        initial_state=sim.host(pid).snapshot(),
        received={q: [] for q in sim.network.peers_of(pid)},
    )

    def on_activate(apid: int) -> None:
        if apid != pid or layer.in_cs:
            return
        fragment.schedule.append(Step(kind="activate"))

    def on_deliver(src: int, dst: int, msg: Any) -> None:
        if dst != pid or layer.in_cs:
            return
        fragment.received[src].append(msg)
        fragment.schedule.append(Step(kind="receive", src=src, tag=msg.tag))

    sim.activation_hooks.append(on_activate)
    sim.delivery_hooks.append(on_deliver)

    entered = sim.run(horizon, until=lambda s: layer.in_cs)
    if not entered:
        raise ImpossibilityConstructionError(
            f"process {pid} never entered the CS within t={horizon} "
            "(cannot record a witness fragment)"
        )
    # Trim trailing no-op activations after the entering one (none are
    # recorded post-entry thanks to the in_cs guard, but the entering
    # activation itself is legitimately the last step).
    return fragment


def record_all_fragments(
    n: int,
    *,
    build: BuildFn = _default_build,
    tag: str = "me",
    seed: int = 0,
    horizon: int = 500_000,
) -> list[Fragment]:
    """One witness fragment per process (point (2) of Definition 5)."""
    sim = Simulator(n, build, seed=seed)
    return [
        record_fragment(pid, n, build=build, tag=tag, seed=seed + i, horizon=horizon)
        for i, pid in enumerate(sim.pids)
    ]


def build_gamma0(
    fragments: Sequence[Fragment],
    *,
    build: BuildFn = _default_build,
    unbounded: bool = True,
    capacity: int = 1,
    seed: int = 0,
) -> Simulator:
    """Assemble the initial configuration γ₀ of Theorem 1's proof.

    Raises :class:`ImpossibilityConstructionError` when the channels cannot
    hold the recorded message sequences (bounded capacity) — the theorem's
    escape hatch.
    """
    n = len(fragments)
    sim = Simulator(
        n, build, seed=seed, auto=False, unbounded=unbounded, capacity=capacity
    )
    for fragment in fragments:
        sim.host(fragment.pid).restore(fragment.initial_state)
    for fragment in fragments:
        for src, msgs in fragment.received.items():
            for msg in msgs:
                try:
                    sim.inject(src, fragment.pid, msg, schedule=False)
                except Exception as exc:  # ChannelError on bounded channels
                    needed = fragment.max_per_channel()
                    raise ImpossibilityConstructionError(
                        f"gamma_0 does not exist with capacity {capacity}: "
                        f"channel {src}->{fragment.pid} needs >= {needed} "
                        f"slots for one tag ({exc})"
                    ) from exc
    return sim


def replay(
    sim: Simulator,
    fragments: Sequence[Fragment],
    *,
    tag: str = "me",
    capture_every: int = 1,
) -> list[AbstractConfiguration]:
    """Replay every fragment schedule from γ₀; return the abstract configs.

    Processes advance round-robin, one local step per round.  Each receive
    step consumes the oldest pre-loaded message of the recorded tag from the
    recorded sender — determinism makes every process repeat its witness
    behaviour exactly.
    """
    cursors = {f.pid: 0 for f in fragments}
    by_pid = {f.pid: f for f in fragments}
    configs: list[AbstractConfiguration] = [capture_abstract(sim)]
    rounds = 0
    while any(cursors[pid] < len(by_pid[pid].schedule) for pid in cursors):
        progressed = False
        for pid in sorted(cursors):
            fragment = by_pid[pid]
            i = cursors[pid]
            if i >= len(fragment.schedule):
                continue
            step = fragment.schedule[i]
            if step.kind == "activate":
                sim.activate(pid)
            else:
                assert step.src is not None
                delivered = sim.step_deliver(step.src, pid, tag=step.tag)
                if delivered is None:
                    raise ImpossibilityConstructionError(
                        f"replay desync: no message of tag {step.tag!r} in "
                        f"channel {step.src}->{pid} at step {i}"
                    )
            cursors[pid] = i + 1
            progressed = True
        rounds += 1
        if rounds % capture_every == 0:
            configs.append(capture_abstract(sim))
        if not progressed:  # pragma: no cover - defensive
            break
    configs.append(capture_abstract(sim))
    return configs


@dataclass
class ImpossibilityResult:
    """Outcome of the end-to-end Theorem 1 demonstration."""

    n: int
    fragments: list[Fragment]
    max_concurrency: int
    messages_preloaded: int
    max_channel_depth: int
    #: Specification 3's verdict over the replay's trace.
    spec: SpecVerdict

    @property
    def violated(self) -> bool:
        return not self.spec.ok

    def summary(self) -> str:
        status = "VIOLATED" if self.violated else "not violated"
        return (
            f"Theorem 1 construction (n={self.n}): safety {status}; "
            f"{self.max_concurrency}/{self.n} processes concurrently in CS; "
            f"{self.messages_preloaded} messages pre-loaded in gamma_0 "
            f"(deepest channel: {self.max_channel_depth} >> capacity 1)"
        )


def demonstrate_impossibility(
    n: int = 3,
    *,
    seed: int = 0,
    tag: str = "me",
    build: BuildFn = _default_build,
) -> ImpossibilityResult:
    """End-to-end Theorem 1 demonstration on unbounded channels."""
    fragments = record_all_fragments(n, build=build, tag=tag, seed=seed)
    sim = build_gamma0(fragments, build=build, unbounded=True, seed=seed)
    configs = replay(sim, fragments, tag=tag)
    return ImpossibilityResult(
        n=n,
        fragments=fragments,
        max_concurrency=max(
            sum(1 for state in c.states.values() if state[tag]["in_cs"])
            for c in configs),
        messages_preloaded=sum(f.messages_consumed for f in fragments),
        max_channel_depth=max(f.max_per_channel() for f in fragments),
        spec=check_mutex(sim.trace, tag, require_all_served=False),
    )


def attempt_on_bounded(
    fragments: Sequence[Fragment],
    *,
    capacity: int = 1,
    build: BuildFn = _default_build,
    seed: int = 0,
) -> ImpossibilityConstructionError:
    """Show the construction *fails* on bounded channels.

    Returns the raised :class:`ImpossibilityConstructionError` (the caller
    asserts on it); raises :class:`SimulationError` if, unexpectedly, the
    construction succeeded.
    """
    try:
        build_gamma0(fragments, build=build, unbounded=False,
                     capacity=capacity, seed=seed)
    except ImpossibilityConstructionError as exc:
        return exc
    raise SimulationError(
        f"gamma_0 unexpectedly fit into capacity-{capacity} channels"
    )
