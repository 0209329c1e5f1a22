"""Mechanism guard: Python-level calls per sent message, by exact count.

The dense workloads' profile is flat — what a message costs is the number
of interpreter frames it crosses, and the compiled link
(:class:`repro.sim.runtime.Link`) exists to keep that number down: one
engine frame per send, two per delivery, no per-event stop predicate.  A
wall-clock regression of a few frames per message drowns in ledger noise;
the frame count does not — for a fixed spec it repeats exactly — so a
refactor that re-deepens the send or receive path fails here, by name.

Ceilings sit a few percent above the measured value (Python-version
drift in generator/dataclass internals); the parent of the change that
introduced the links measured 24.76 and 35.08 on these two trials, and
the parent of dormant activations (an idle process leaves the event heap,
the activation's draw and push are inlined) 13.23 and 23.07.
"""

from __future__ import annotations

import sys

import pytest
from conftest import trial_spec

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
    pytest.param(_ME, 12.53, 12.9, id="me-complete-n4"),
    pytest.param(_PIF, 13.48, 13.9, id="pif-ring-n16-loss"),
])
def test_python_calls_per_sent_message_stay_shallow(spec, landed, ceiling):
    per_sent = _calls_per_sent(spec)
    assert per_sent <= ceiling, (
        f"{per_sent:.2f} Python calls per sent message (landed at {landed}): "
        "the send/receive path got deeper — see repro.sim.runtime.Link")
