"""repro.chaos: deterministic runtime fault injection + recovery helpers.

The simulator already models *protocol-level* faults (scramble, loss
draws, corruption inside :mod:`repro.sim`).  This package injects faults
into the *runtime itself* — worker processes, peer sockets, the CONTROL
channel — on a deterministic schedule (:class:`FaultPlan`), and provides
the backoff policy every dial-retry loop shares (:class:`Backoff`).

The recovery machinery that makes injected faults survivable (crash
detection, respawn and re-run) lives with the runtime it protects
in :mod:`repro.net.cluster`; see ``docs/robustness.md`` for the protocol
and its determinism argument.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.chaos.backoff import Backoff, retry
    from repro.chaos.plan import (
        CrashWorker,
        CutLink,
        FaultPlan,
        ShipFault,
        StallWorker,
    )

__all__ = [
    "Backoff",
    "CrashWorker",
    "CutLink",
    "FaultPlan",
    "ShipFault",
    "StallWorker",
    "retry",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "backoff": ("Backoff", "retry"),
    "plan": (
        "CrashWorker", "CutLink", "FaultPlan", "ShipFault", "StallWorker",
    ),
})
