"""repro — Snap-Stabilization in Message-Passing Systems.

A complete, executable reproduction of Delaët, Devismes, Nesterenko &
Tixeuil, *Snap-Stabilization in Message-Passing Systems* (INRIA RR-6446 /
PODC 2008): the message-passing simulator substrate, the three
snap-stabilizing protocols (PIF, IDs-Learning, Mutual Exclusion), the
Theorem 1 impossibility construction, specification checkers, baselines,
the PIF collect wave and termination detection over it, and the
experiment harness.

Quickstart::

    from repro import Simulator, PifLayer, RequestDriver

    sim = Simulator(3, lambda host: host.register(PifLayer("pif")))
    sim.scramble(seed=42)                       # arbitrary initial configuration
    sim.layer(1, "pif").request_broadcast("hello")
    sim.run(max_time=2_000)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.core import (
        IdlLayer,
        MutexLayer,
        PifClient,
        PifLayer,
        PifMessage,
        RequestDriver,
    )
    from repro.errors import ReproError
    from repro.sim import (
        BernoulliLoss,
        Clustered,
        Complete,
        EventKind,
        Grid2D,
        Network,
        NoLoss,
        RandomGnp,
        Ring,
        Simulator,
        Star,
        Topology,
        Trace,
        topology_from_spec,
    )
    from repro.types import ProcessId, RequestState, Time

#: The one place the version is written (pyproject.toml reads it from here).
__version__ = "0.8.0"

__all__ = [
    "BernoulliLoss",
    "Clustered",
    "Complete",
    "EventKind",
    "Grid2D",
    "IdlLayer",
    "MutexLayer",
    "Network",
    "NoLoss",
    "RandomGnp",
    "Ring",
    "Star",
    "Topology",
    "topology_from_spec",
    "PifClient",
    "PifLayer",
    "PifMessage",
    "ProcessId",
    "ReproError",
    "RequestDriver",
    "RequestState",
    "Simulator",
    "Time",
    "Trace",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "core": (
        "IdlLayer", "MutexLayer", "PifClient", "PifLayer", "PifMessage",
        "RequestDriver",
    ),
    "errors": ("ReproError",),
    "sim": (
        "BernoulliLoss", "Clustered", "Complete", "EventKind", "Grid2D",
        "Network", "NoLoss", "RandomGnp", "Ring", "Simulator", "Star",
        "Topology", "Trace", "topology_from_spec",
    ),
    "types": ("ProcessId", "RequestState", "Time"),
})
