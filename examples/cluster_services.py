#!/usr/bin/env python3
"""A small cluster control plane built from PIF applications.

The paper motivates PIF as the engine behind Reset, Snapshot, Leader
Election and Termination Detection.  This example stacks all of them on
one five-node cluster and runs a realistic operator workflow:

1. elect a leader: Protocol IDL's minimum identity;
2. take a global snapshot of per-node load counters (a collect wave whose
   value is the load);
3. observe a diffusing computation terminate (termination detection, a
   double collect);
4. issue a cluster-wide reset (a collect wave whose value is the reset
   handler) and verify every node wiped its state.

Everything runs from a scrambled initial configuration over lossy links.

Run:  python examples/cluster_services.py
"""

from __future__ import annotations

from repro import BernoulliLoss, IdlLayer, RequestState, Simulator
from repro.applications import (
    CollectLayer,
    ObservedComputation,
    TerminationDetectorLayer,
)

N = 5


def main() -> None:
    loads = {pid: pid * 100 for pid in range(1, N + 1)}
    computations: dict[int, ObservedComputation] = {}
    reset_log: list[int] = []

    def build(host) -> None:
        pid = host.pid
        computations[pid] = ObservedComputation(idle=False, sent=2, received=1)
        host.register(IdlLayer("elect"))
        host.register(CollectLayer("snap", value=lambda: loads[pid]))
        host.register(TerminationDetectorLayer("td", computation=computations[pid]))

        def wipe() -> None:
            loads[pid] = 0
            reset_log.append(pid)

        host.register(CollectLayer("reset", value=wipe))

    sim = Simulator(N, build, seed=11, loss=BernoulliLoss(0.1))
    print("Scrambling the cluster into an arbitrary initial configuration...")
    sim.scramble(seed=77)

    # 1. Leader election.
    elector = sim.layer(2, "elect")
    elector.request_learn()
    assert sim.run(1_000_000, until=lambda s: elector.request is RequestState.DONE)
    print(f"1. leader elected: node {elector.min_id}")
    assert elector.min_id == 1

    # 2. Global snapshot.  The scramble may leave a reset wave mid-flight
    # that wipes the loads on its own: let every reset layer finish, then
    # re-seed the counters so the snapshot has real values to collect.
    resets = [sim.layer(pid, "reset") for pid in range(1, N + 1)]
    assert sim.run(1_000_000, until=lambda s: all(
        r.request is RequestState.DONE for r in resets))
    loads.update({pid: pid * 100 for pid in loads})
    reset_log.clear()
    snapper = sim.layer(3, "snap")
    snapper.request_collect()
    assert sim.run(1_000_000, until=lambda s: snapper.request is RequestState.DONE)
    print(f"2. global load snapshot: {dict(sorted(snapper.result.items()))}")
    assert snapper.result == loads == {pid: pid * 100 for pid in loads}

    # 3. Termination detection of the fake diffusing computation.
    detector = sim.layer(1, "td")
    detector.request_detection()
    sim.run(20_000)
    assert not detector.terminated, "must not announce while nodes are active"
    print("3a. detector silent while the computation is active ✓")
    for comp in computations.values():
        comp.idle = True
        comp.received = comp.sent = 3
    assert sim.run(2_000_000, until=lambda s: detector.terminated)
    print(f"3b. termination detected after {detector.waves_used} probe waves ✓")

    # 4. Cluster-wide reset.
    resetter = sim.layer(1, "reset")
    resetter.request_collect()
    assert sim.run(1_000_000, until=lambda s: resetter.request is RequestState.DONE)
    print(f"4. reset wave done: loads = {loads}, nodes reset = {sorted(set(reset_log))}")
    assert all(v == 0 for v in loads.values())
    assert sorted(set(reset_log)) == list(range(1, N + 1))

    print("\nAll four PIF-based services behaved to spec from a scrambled start. ✓")


if __name__ == "__main__":
    main()
