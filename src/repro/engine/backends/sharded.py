"""The sharded backend: the window-sync runtime
(:mod:`repro.engine.backends.cluster`) registered a second time — worker
interpreters on this machine, the worker count on the
``shards`` axis — because the CLI, the benchmark and the gates spell
``engine="sharded"``.  It is bit-identical to serial for the same seed
(``engine-equivalence`` CI gate)."""

from __future__ import annotations

from repro.engine.backends.cluster import ClusterBackend
from repro.engine.registry import register

register(ClusterBackend(
    "sharded", "worker processes on this machine, conservative time windows",
    frozenset({"obs", "shards", "window"}),
))
