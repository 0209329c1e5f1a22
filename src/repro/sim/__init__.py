"""Message-passing system simulator (the paper's Section 2 model).

Public surface:

* :class:`~repro.sim.runtime.Simulator` — the runtime;
* :class:`~repro.sim.process.Layer`, :class:`~repro.sim.process.Action`,
  :class:`~repro.sim.process.ProcessHost` — the guarded-action process model;
* topologies (:mod:`repro.sim.topology`) — the pluggable communication
  graphs the network and protocols run over;
* channels and loss models (:mod:`repro.sim.channel`);
* configurations and manual-mode steps (:mod:`repro.sim.configuration`);
* adversaries (:mod:`repro.sim.adversary`);
* traces (:mod:`repro.sim.trace`) and stats (:mod:`repro.sim.stats`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.sim.channel import (
        BernoulliLoss,
        BoundedChannel,
        DropFirstK,
        LossModel,
        NoLoss,
        UnboundedChannel,
    )
    from repro.sim.faults import (
        GilbertElliottLoss,
        HeaderCorruption,
        PeriodicLoss,
        TargetedLoss,
    )
    from repro.sim.configuration import (
        Choice,
        Configuration,
        capture,
        restore,
        step,
        successors,
    )
    from repro.sim.network import Network
    from repro.sim.process import Action, Layer, ProcessHost
    from repro.sim.runtime import Simulator
    from repro.sim.scheduler import Scheduler
    from repro.sim.stats import SimStats
    from repro.sim.topology import (
        Clustered,
        Complete,
        Grid2D,
        RandomGnp,
        Ring,
        Star,
        Topology,
        arbitration_clusters,
        topology_from_spec,
    )
    from repro.sim.trace import EventKind, Trace, TraceEvent

__all__ = [
    "Action",
    "BernoulliLoss",
    "BoundedChannel",
    "Choice",
    "Clustered",
    "Complete",
    "Configuration",
    "DropFirstK",
    "EventKind",
    "Grid2D",
    "RandomGnp",
    "Ring",
    "Star",
    "Topology",
    "GilbertElliottLoss",
    "HeaderCorruption",
    "PeriodicLoss",
    "TargetedLoss",
    "Layer",
    "LossModel",
    "Network",
    "NoLoss",
    "ProcessHost",
    "Scheduler",
    "SimStats",
    "Simulator",
    "Trace",
    "TraceEvent",
    "UnboundedChannel",
    "arbitration_clusters",
    "capture",
    "restore",
    "step",
    "successors",
    "topology_from_spec",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "channel": (
        "BernoulliLoss", "BoundedChannel", "DropFirstK", "LossModel", "NoLoss",
        "UnboundedChannel",
    ),
    "faults": (
        "GilbertElliottLoss", "HeaderCorruption", "PeriodicLoss",
        "TargetedLoss",
    ),
    "configuration": (
        "Choice", "Configuration", "capture", "restore", "step", "successors",
    ),
    "network": ("Network",),
    "process": ("Action", "Layer", "ProcessHost"),
    "runtime": ("Simulator",),
    "scheduler": ("Scheduler",),
    "stats": ("SimStats",),
    "topology": (
        "Clustered", "Complete", "Grid2D", "RandomGnp", "Ring", "Star",
        "Topology", "arbitration_clusters", "topology_from_spec",
    ),
    "trace": ("EventKind", "Trace", "TraceEvent"),
})
