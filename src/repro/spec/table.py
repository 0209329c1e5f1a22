"""The table of specifications: conventional instance tag → automaton.

The trials key their protocol instances on the tags ``pif`` / ``idl`` /
``me``; this is the one place that maps a tag to its automaton and to how
a topology scopes it.  Adding a specification is one automaton class plus
one entry of :data:`SPECS`.
"""

from __future__ import annotations

from typing import Any

from repro.sim.topology import Topology, arbitration_clusters
from repro.spec.idl_spec import IdlAutomaton
from repro.spec.mutex_spec import MutexAutomaton
from repro.spec.pif_spec import PifAutomaton

__all__ = ["SPECS", "scope"]


def _neighbors(topology: Topology) -> dict[str, Any]:
    """A wave reaches the initiator's neighbourhood."""
    return {"neighbors": {p: topology.neighbors(p) for p in topology.pids}}


def _clusters(topology: Topology) -> dict[str, Any]:
    """ME arbitrates per leader cluster."""
    return {"clusters": list(arbitration_clusters(topology).values())}


#: tag → (topology scoping, automaton from topology + ground-truth idents).
SPECS = {
    "pif": (_neighbors, lambda top, idents, scoped:
            PifAutomaton("pif", top.pids, **scoped)),
    "idl": (_neighbors, lambda top, idents, scoped:
            IdlAutomaton("idl", idents or {p: p for p in top.pids}, **scoped)),
    "me": (_clusters, lambda top, idents, scoped:
           MutexAutomaton("me", **scoped)),
}


def scope(tag: str, topology: Topology) -> dict[str, Any]:
    """The keyword arguments that scope specification ``tag`` (its
    automaton, its ``check_*``) to ``topology``; none on the complete
    graph, which keeps the paper's global reading."""
    return {} if topology.is_complete else SPECS[tag][0](topology)

