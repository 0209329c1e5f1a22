"""Execution-order determinism primitives shared by the serial and sharded engines.

A sharded run (:mod:`repro.sim.sharded`) must produce **bit-identical**
traces to the serial engine for the same seed.  Two things make that possible,
and both live here because the *serial* engine has to play by the same rules:

1. **Per-process random streams** (:func:`derive_seed`).  Every random draw
   the engine makes is taken from a stream owned by the process it concerns —
   an ``"act"`` stream for activation stagger/jitter, a ``"send"`` stream for
   the loss/corruption/latency draws of every channel out of the process, and
   for the scramble adversary a ``"proc"`` stream (its variables) and a
   ``"chanfill"`` stream (the garbage of its out-channels).  Each draw on a
   process's stream happens inside one of that process's own events, so draw
   values depend only on (root seed, process, how many draws that process
   made before), never on how events of *different* processes interleave —
   and a shard that hosts a subset of the processes reproduces exactly the
   draws the serial engine would have made for them.

2. **Canonical event keys** (:func:`driver_key` .. :func:`delivery_key`).
   The scheduler orders same-tick events by ``(key, seq)``.  Engine events
   carry content-derived keys (who fires, which channel, which in-flight
   message), so the order in which same-tick events execute is a function of
   the *simulation state*, not of heap insertion history.  A shard scheduler
   holding only its own processes' events therefore pops them in exactly the
   relative order the global scheduler would have.  Within a tick the classes
   run: external drivers/user posts (0) < process timers (1) < activations
   (2) < message deliveries (3).

Keys are packed into plain ints so heap comparisons stay at C speed.

Which draws a seed yields is versioned: :data:`SEMANTICS_EPOCH` names
the stream layout (and any other hash-moving rule) this checkout runs.
A recorded trial carries it (``TrialSpec.as_provenance``), so a record
from another epoch is refused by name instead of replaying into a bare
hash mismatch; ``docs/architecture.md`` keeps the epoch log.
"""

from __future__ import annotations

import random
from typing import Any

# hashlib's blake2b *is* this built-in one; importing hashlib would also
# load OpenSSL's libcrypto (~3.6 MiB RSS) for nothing.
from _blake2 import blake2b

__all__ = [
    "SEMANTICS_EPOCH",
    "derive_seed",
    "bound_randint",
    "driver_key",
    "timer_key",
    "activation_key",
    "delivery_key",
    "key_owner",
    "SEQ_BITS",
    "SEQ_MAX",
]

#: The semantics epoch: bumped, in one commit with the regenerated
#: ``tests/data`` files (``tests/data/regenerate.py``) and an entry in
#: the epoch log, by any change that moves a seed's trace.
SEMANTICS_EPOCH = 2

# Key layout:  (((cls << PID_BITS | a) << PID_BITS | b) << SEQ_BITS) | c
# pids must fit PID_BITS; per-entity counters (timer seq, channel admission
# seq) fit SEQ_BITS.  Python ints are unbounded so "overflow" would merely
# break ordering — the packers assert the bounds instead.
_PID_BITS = 21
#: A key's low ``SEQ_BITS`` bits are its per-entity counter.
#: ``(key >> SEQ_BITS, key & SEQ_MAX)`` orders as the key does, and each
#: half fits an unsigned 8-byte ``array`` entry (class and pids are 44 bits).
SEQ_BITS = 42
SEQ_MAX = (1 << SEQ_BITS) - 1
_PID_MAX = (1 << _PID_BITS) - 1

#: Key class 0 — external pollers (request drivers) and generic user posts.
DRIVER_CLASS = 0
#: Key class 1 — per-process timers (``host.call_later``).
TIMER_CLASS = 1
#: Key class 2 — weakly-fair activations.
ACTIVATION_CLASS = 2
#: Key class 3 — message deliveries (and cross-shard slot releases).
DELIVERY_CLASS = 3


def _pack(cls: int, a: int, b: int, c: int) -> int:
    if not (0 <= a <= _PID_MAX and 0 <= b <= _PID_MAX and 0 <= c <= SEQ_MAX):
        raise ValueError(f"event key field out of range: cls={cls} a={a} b={b} c={c}")
    return (((cls << _PID_BITS | a) << _PID_BITS | b) << SEQ_BITS) | c


def driver_key() -> int:
    """Key for external request drivers / pollers (class 0, first in a tick)."""
    return _pack(DRIVER_CLASS, 0, 0, 0)


def timer_key(pid: int, seq: int) -> int:
    """Key for a ``call_later`` timer at ``pid`` (``seq`` = per-host counter)."""
    return _pack(TIMER_CLASS, pid, 0, seq)


def activation_key(pid: int) -> int:
    """Key for ``pid``'s activation (at most one per process per tick)."""
    return _pack(ACTIVATION_CLASS, pid, 0, 0)


def delivery_key(dst: int, src: int, entry_seq: int) -> int:
    """Key for delivering in-flight message ``entry_seq`` on ``src -> dst``.

    ``entry_seq`` is the channel's admission counter, so same-tick deliveries
    on one channel keep admission (FIFO) order, and the key is computable on
    both sides of a shard boundary.
    """
    return _pack(DELIVERY_CLASS, dst, src, entry_seq)


def key_owner(key: int) -> int:
    """The pid at which the keyed event executes.

    Timers and activations execute at their own process, deliveries at the
    destination.  Class-0 (driver) keys carry no entity and return 0 — never
    a valid pid, so it reads as "no owning process".
    """
    return (key >> (_PID_BITS + SEQ_BITS)) & _PID_MAX


def _wrong_bounds(lo: int, hi: int, a: int, b: int) -> ValueError:
    # Module-level, not a closure of bound_randint: one draw is compiled
    # per directed channel, and every cell of it is paid per channel.
    return ValueError(
        f"bound_randint compiled for ({lo}, {hi}) called with "
        f"({a}, {b}); rebuild the cached draw for the new bounds"
    )


def bound_randint(rng: "random.Random", lo: int, hi: int) -> Any:
    """A precompiled equivalent of ``rng.randint(lo, hi)``.

    Engine hot paths (latency draws, activation jitter) call ``randint``
    with *fixed* bounds millions of times per trial; CPython routes each
    call through ``randint -> randrange -> _randbelow_with_getrandbits``,
    three Python frames deep.  The returned closure inlines that chain —
    the same rejection sampling over ``getrandbits(width.bit_length())``
    CPython performs — so it **returns the identical value sequence and
    consumes the identical underlying draws**, leaving the stream state bit
    for bit where ``randint`` would have left it.  That equivalence is what
    keeps serial/sharded/loopback traces byte-identical (and is asserted by
    ``tests/test_runtime.py``).

    The bounds are baked in; the closure also stands in for a bound
    ``rng.randint`` at call sites that pass ``(lo, hi)`` positionally
    (e.g. :meth:`Simulator.draw_delivery_time`) — and **raises** if a
    caller ever passes different bounds.  With per-edge latency maps
    (:class:`~repro.sim.topology.Weighted`) each cached draw is compiled
    for its own channel's bounds, so this guard is what makes a call site
    that resolves the wrong edge's bounds — or a cache rebuilt against a
    different topology — fail loudly instead of silently sampling stale
    bounds.  Falls back to the plain method for ``random.Random``
    subclasses, whose ``randint`` may not be getrandbits-based.
    """
    if type(rng) is not random.Random or hi - lo + 1 <= 1:
        # Subclass randint may not be getrandbits-based, and randint(lo, lo)
        # still consumes draws (rejection down to 0) — keep the stock path
        # for these cold cases behind the same guarded signature.
        def fallback(a: int = lo, b: int = hi) -> int:
            if a != lo or b != hi:
                raise _wrong_bounds(lo, hi, a, b)
            return rng.randint(lo, hi)

        return fallback
    width = hi - lo + 1
    k = width.bit_length()
    getrandbits = rng.getrandbits

    def draw(a: int = lo, b: int = hi) -> int:
        if a != lo or b != hi:
            raise _wrong_bounds(lo, hi, a, b)
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        return lo + r

    return draw


def derive_seed(*parts: Any) -> int:
    """A stable 64-bit seed from ``parts`` (ints/strings), identical across
    processes and Python invocations (no reliance on ``hash()``)."""
    h = blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")
