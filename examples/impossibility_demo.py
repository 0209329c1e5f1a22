#!/usr/bin/env python3
"""Theorem 1, live: why unbounded channels doom snap-stabilization.

This script walks through the paper's impossibility proof against our own
snap-stabilizing mutual-exclusion protocol:

1. record, for each process, a legal solo execution in which it enters the
   critical section (the witness fragments of Definition 5);
2. fold the fragments into an initial configuration γ₀ whose channels hold
   exactly the message sequences each process consumed — only possible with
   unbounded capacity;
3. replay: every process deterministically repeats its witness behaviour,
   so ALL of them end up inside the critical section at once;
4. retry step 2 with capacity-1 channels: γ₀ cannot be built — the escape
   hatch Section 4 uses.

Run:  python examples/impossibility_demo.py
"""

from __future__ import annotations

from repro.errors import ImpossibilityConstructionError
from repro.impossibility import (
    attempt_on_bounded,
    build_gamma0,
    record_all_fragments,
    replay,
)
from repro.spec.mutex_spec import check_mutex

N = 3


def main() -> None:
    print(f"Step 1 — recording witness fragments for {N} processes...")
    fragments = record_all_fragments(N, seed=0)
    for fragment in fragments:
        print(
            f"  p{fragment.pid}: {len(fragment.schedule)} local steps, "
            f"{fragment.messages_consumed} messages consumed "
            f"(deepest channel needs {fragment.max_per_channel()} slots)"
        )

    print("\nStep 2 — assembling gamma_0 on UNBOUNDED channels...")
    sim = build_gamma0(fragments, unbounded=True)
    print(f"  {sim.network.in_flight()} messages pre-loaded into the channels")

    print("\nStep 3 — replaying every fragment from gamma_0...")
    peak = replay(sim, fragments)
    # Specification 3 over the replay's trace: the replayed entries are
    # requested ones, so every overlap is a Correctness violation.
    violated = not check_mutex(sim.trace, "me", require_all_served=False).ok
    print(f"  peak concurrency: {peak}/{N} processes in the critical section")
    print(f"  mutual exclusion violated: {violated}")
    assert violated and peak == N

    print("\nStep 4 — the same construction on BOUNDED (capacity-1) channels...")
    error: ImpossibilityConstructionError = attempt_on_bounded(fragments, capacity=1)
    print(f"  construction fails as the paper predicts:\n    {error}")

    print(
        "\nConclusion: with unbounded channels the adversary can always "
        "pre-load the full conversation, so no protocol can be "
        "snap-stabilizing for a safety-distributed specification; with a "
        "known channel bound the pathological gamma_0 simply does not exist. ✓"
    )


if __name__ == "__main__":
    main()
