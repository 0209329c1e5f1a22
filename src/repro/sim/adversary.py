"""Adversaries realizing "any initial configuration".

Snap-stabilization quantifies over *all* initial configurations: arbitrary
values in every process variable and arbitrary (well-typed) messages in every
channel, up to the capacity bound.  :func:`scramble_system` implements that
adversary; :func:`figure1_configuration` builds the paper's Figure 1 worst
case for the two-process PIF handshake.

The scramble is *per-process seeded*: every process's variables are
rewritten from its own stream, and the garbage of all its out-channels is
drawn from a second stream of its own, channel by channel in ``(dst,
layer)`` order (see :mod:`repro.sim.determinism`).  The configuration a
given process and its out-channels receive is therefore independent of how
many other processes were scrambled before it — which is what lets a shard
worker hosting a subset of the processes reproduce exactly its slice of the
global arbitrary configuration.  Passing a ``random.Random`` instead of an
int seed keeps the historical API: one 64-bit draw from it becomes the base
seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.determinism import derive_seed
from repro.sim.trace import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runtime import Simulator

__all__ = [
    "scramble_system",
    "scramble_processes",
    "scramble_channels",
    "figure1_configuration",
]


def _base_seed(rng_or_seed: "random.Random | int") -> int:
    if isinstance(rng_or_seed, random.Random):
        return rng_or_seed.getrandbits(64)
    return int(rng_or_seed)


def scramble_processes(
    sim: "Simulator",
    rng_or_seed: "random.Random | int",
    *,
    emit_trace: bool = True,
) -> None:
    """Overwrite every variable of every hosted layer with arbitrary values."""
    base = _base_seed(rng_or_seed)
    for pid, host in sim.hosts.items():
        host.scramble(random.Random(derive_seed(base, "proc", pid)))
    if emit_trace:
        sim.trace.emit(sim.now, EventKind.SCRAMBLE, None, what="processes")


def scramble_channels(
    sim: "Simulator",
    rng_or_seed: "random.Random | int",
    fill_prob: float = 0.7,
    max_per_tag: int | None = None,
    *,
    emit_trace: bool = True,
) -> int:
    """Pre-load channels with arbitrary well-typed in-flight messages.

    For every ordered pair with a hosted sender and every protocol-instance
    tag, injects up to the channel's capacity for that tag (or
    ``max_per_tag``) garbage messages, each with probability ``fill_prob``.
    Returns the number injected.

    On unbounded channels ``max_per_tag`` defaults to 3 — an *arbitrary but
    finite* initial content, as the Section 3 model prescribes.
    """
    base = _base_seed(rng_or_seed)
    injected = 0
    for src, src_host in sim.hosts.items():
        rng = random.Random(derive_seed(base, "chanfill", src))
        for dst in sim.network.peers_of(src):
            channel = sim.network.channel(src, dst)
            for layer in src_host.layers:
                cap = channel.capacity_for(layer.tag)
                budget = cap if cap is not None else (max_per_tag or 3)
                if max_per_tag is not None:
                    budget = min(budget, max_per_tag)
                for _ in range(budget):
                    if rng.random() >= fill_prob:
                        continue
                    if channel.is_full_for(layer.tag):
                        break
                    garbage = layer.garbage_message(rng)
                    if garbage is None:
                        break
                    sim.inject(src, dst, garbage)
                    injected += 1
    if emit_trace:
        sim.trace.emit(sim.now, EventKind.SCRAMBLE, None, what="channels", injected=injected)
    return injected


def scramble_system(
    sim: "Simulator",
    rng_or_seed: "random.Random | int",
    fill_channels: bool = True,
    fill_prob: float = 0.7,
    *,
    emit_trace: bool = True,
) -> int:
    """Arbitrary initial configuration: scramble states and channels.

    Returns the number of garbage messages injected into channels.
    """
    base = _base_seed(rng_or_seed)
    scramble_processes(sim, base, emit_trace=emit_trace)
    if fill_channels:
        return scramble_channels(sim, base, fill_prob=fill_prob, emit_trace=emit_trace)
    return 0


def figure1_configuration(sim: "Simulator", tag: str = "pif") -> tuple[int, int]:
    """Set up the paper's Figure 1 worst case on a two-process system.

    Processes ``p`` (the observer whose ``State_p[q]`` we watch) and ``q``:

    * the channel ``q -> p`` initially holds a garbage message echoing
      ``pState = 0`` — one spurious increment waiting to happen;
    * ``q``'s ``NeigState_q[p]`` is the stale value 1, and ``q`` is in the
      middle of its own (never-started) broadcast, so ``q``'s periodic sends
      will echo the stale 1 and, after one update, 2;
    * ``p`` is about to start a broadcast.

    From here ``State_p[q]`` can climb to 3 on garbage alone, but — as
    Lemma 4 proves — the 3 -> 4 step requires a genuine causal round trip.
    Returns ``(p, q)``.
    """
    from repro.core.messages import PifMessage
    from repro.core.pif import PifLayer

    if sim.network.n != 2:
        raise SimulationError("figure1_configuration requires exactly 2 processes")
    p, q = sim.pids
    pif_p = sim.layer(p, tag)
    pif_q = sim.layer(q, tag)
    if not isinstance(pif_p, PifLayer) or not isinstance(pif_q, PifLayer):
        raise SimulationError(f"layer {tag!r} is not a PifLayer")

    # q believes p's state is 1 (stale) and is mid-wave itself.
    from repro.types import RequestState

    pif_q.request = RequestState.IN
    pif_q.neig_state[p] = 1
    pif_q.state[p] = 0
    # In-flight garbage: an echo of pState = 0 travelling q -> p.
    garbage = PifMessage(
        tag=tag,
        broadcast=pif_q.b_mes,
        feedback=pif_q.f_mes.get(p),
        state=0,
        echo=0,
    )
    sim.inject(q, p, garbage)
    sim.trace.emit(sim.now, EventKind.SCRAMBLE, None, what="figure1", p=p, q=q)
    return p, q
