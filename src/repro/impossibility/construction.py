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
3. :func:`replay` — drive every process through its recorded schedule, a
   list of manual-mode choices (:mod:`repro.sim.configuration`), checking
   each is open.  Determinism guarantees each process repeats its witness
   behaviour, so *all* processes end up requesting-and-inside the critical
   section at once — the bad-factor of mutual exclusion.  Specification
   3's automaton (:class:`~repro.spec.mutex_spec.MutexAutomaton`) judges
   the replay's trace: the replayed CS entries count as requested because
   the request flag is part of the restored local state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, Callable, Sequence

from repro.core.mutex import MutexLayer
from repro.errors import ChannelError, ImpossibilityConstructionError, SimulationError
from repro.sim.configuration import Choice, ProcessState, step, successors
from repro.sim.runtime import Simulator
from repro.spec.base import SpecVerdict
from repro.spec.mutex_spec import check_mutex

__all__ = [
    "Fragment",
    "ImpossibilityResult",
    "record_fragment",
    "build_gamma0",
    "replay",
    "demonstrate_impossibility",
    "attempt_on_bounded",
]

BuildFn = Callable[..., None]


@dataclass
class Fragment:
    """The witness fragment e¹_p of one process (proof of Theorem 1)."""

    pid: int
    initial_state: ProcessState
    #: MesSeq^q_p — ordered messages consumed from each peer q.
    received: dict[int, list[Any]] = field(default_factory=dict)
    #: p's local schedule from the request to (and including) CS entry.
    schedule: list[Choice] = field(default_factory=list)

    @property
    def messages_consumed(self) -> int:
        return sum(len(v) for v in self.received.values())

    def depth(self, src: int, tag: str) -> int:
        """Slots the channel ``src -> pid`` needs for ``tag``."""
        return sum(1 for msg in self.received.get(src, ()) if msg.tag == tag)

    def max_per_channel(self) -> int:
        """The deepest single-channel message sequence (capacity needed)."""
        return max((self.depth(src, msg.tag) for src, msgs in self.received.items()
                    for msg in msgs), default=0)


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
        fragment.schedule.append(Choice.activate(pid))

    def on_deliver(src: int, dst: int, msg: Any) -> None:
        if dst != pid or layer.in_cs:
            return
        fragment.received[src].append(msg)
        fragment.schedule.append(Choice.deliver(src, pid, msg.tag))

    sim.activation_hooks.append(on_activate)
    sim.delivery_hooks.append(on_deliver)

    entered = sim.run(horizon, until=lambda s: layer.in_cs)
    if not entered:
        raise ImpossibilityConstructionError(
            f"process {pid} never entered the CS within t={horizon} "
            "(cannot record a witness fragment)"
        )
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
    return [
        record_fragment(pid, n, build=build, tag=tag, seed=seed + pid - 1,
                        horizon=horizon)
        for pid in range(1, n + 1)
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
                except ChannelError as exc:
                    needed = fragment.depth(src, msg.tag)
                    raise ImpossibilityConstructionError(
                        f"gamma_0 does not exist with capacity {capacity}: "
                        f"channel {src}->{fragment.pid} needs >= {needed} "
                        f"slots for one tag ({exc})"
                    ) from exc
    return sim


def replay(sim: Simulator, fragments: Sequence[Fragment], *, tag: str = "me") -> int:
    """Replay every fragment's schedule from γ₀, one choice per process
    per round in pid order; return the peak number of processes in the
    critical section after a round.

    Each ``deliver`` consumes the oldest pre-loaded message of the recorded
    tag from the recorded sender, so every process repeats its witness
    behaviour exactly.  A choice not among :func:`successors` is a desync:
    :class:`ImpossibilityConstructionError`.
    """
    ordered = sorted(fragments, key=lambda f: f.pid)
    peak = 0
    for i, choices in enumerate(zip_longest(*(f.schedule for f in ordered))):
        for choice in choices:
            if choice is None:
                continue
            if choice not in successors(sim):
                raise ImpossibilityConstructionError(
                    f"replay desync: {choice} is not open at step {i}"
                )
            step(sim, choice)
        peak = max(peak, sum(sim.layer(f.pid, tag).in_cs for f in ordered))
    return peak


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
    peak = replay(sim, fragments, tag=tag)
    return ImpossibilityResult(
        n=n,
        fragments=fragments,
        max_concurrency=peak,
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
