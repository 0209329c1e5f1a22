"""Mechanism guard: Python-level calls per sent message, by exact count.

The dense workloads' profile is flat — what a message costs is the number
of interpreter frames it crosses, and the compiled link
(:class:`repro.sim.runtime.Link`) exists to keep that number down: a
send's fate is one engine frame and its admission a second, a lost send
builds nothing, a delivery is two frames, no per-event stop predicate.  A
wall-clock regression of a few frames per message drowns in ledger noise;
the frame count does not — for a fixed spec it repeats exactly — so a
refactor that re-deepens the send or receive path fails here, by name.

Ceilings sit a few percent above the measured value (Python-version
drift in generator/dataclass internals); the parent of the change that
introduced the links measured 24.76 and 35.08 on these two trials, the
parent of dormant activations (an idle process leaves the event heap,
the activation's draw and push are inlined) 13.23 and 23.07, and the
parent of the claim/put split (PIF builds a message only for a claimed
slot, the latency draw is inlined) 12.53 and 13.48.

The second guard counts what the split saves: the messages PIF's sends
build equal the sends that were admitted.
"""

from __future__ import annotations

import sys

import pytest
from conftest import trial_spec

import repro.core.pif as pif_module
from repro.engine import TrialSpec, execute

_ME = trial_spec("me", 4, seed=5)
_PIF = trial_spec("pif", 16, seed=5, topology="ring", loss=0.1)


def _calls_per_sent(spec: TrialSpec) -> float:
    execute(spec)  # imports and lazy tables are not the trial's calls
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run = execute(spec)
    finally:
        sys.setprofile(previous)
    assert run.completed
    return calls / run.stats.sent


@pytest.mark.parametrize("spec, landed, ceiling", [
    pytest.param(_ME, 10.64, 11.0, id="me-complete-n4"),
    pytest.param(_PIF, 11.28, 11.7, id="pif-ring-n16-loss"),
])
def test_python_calls_per_sent_message_stay_shallow(spec, landed, ceiling):
    per_sent = _calls_per_sent(spec)
    assert per_sent <= ceiling, (
        f"{per_sent:.2f} Python calls per sent message (landed at {landed}): "
        "the send/receive path got deeper — see repro.sim.runtime.Link")


@pytest.mark.parametrize("spec", [
    pytest.param(_ME, id="me-complete-n4"),
    pytest.param(_PIF, id="pif-ring-n16-loss"),
])
def test_a_lost_send_builds_no_message(spec, monkeypatch):
    built = 0

    class Counted(pif_module.PifMessage):
        """Counts the messages PIF's sends build (they carry a wave; the
        adversary's garbage does not)."""

        __slots__ = ()

        def __init__(self, *args, **kwargs) -> None:
            nonlocal built
            super().__init__(*args, **kwargs)
            if self.debug_wave is not None:
                built += 1

    monkeypatch.setattr(pif_module, "PifMessage", Counted)
    run = execute(spec)
    assert run.completed
    stats = run.stats
    lost = stats.dropped_full + stats.dropped_loss
    assert lost > 0
    assert built == stats.sent - lost, (
        f"{built} messages built for {stats.sent} sends, {lost} of them lost")
