"""Metrics registry: counters, high-water gauges and min/max histograms.

The registry is a *sink*, not a hot-path participant.  Engines keep
plain integer counters on their own objects (``Scheduler.pops``,
``Transport.frames_sent``, channel occupancy high-waters, …)
and fold them into a registry exactly once per trial through
``collect_obs(metrics)``.  That keeps the metrics-off overhead at the
cost of a handful of passive integer increments, and it keeps every
wall-clock read and dict update outside the deterministic draw paths —
enabling metrics can never reorder an event or consume an RNG draw.

:class:`NullMetrics` is the no-op twin: same surface, does nothing.
Collection code can therefore run unconditionally against
:data:`NULL_METRICS` when a pillar is disabled instead of branching.

Snapshots are plain JSON-ready dicts so they pickle cheaply across the
workers' CONTROL channel; :meth:`MetricsRegistry.merge`
folds a worker snapshot into the coordinator registry the same way
``SimStats.merge`` folds worker stats.
"""

from __future__ import annotations

__all__ = ["MetricsRegistry", "NullMetrics", "NULL_METRICS"]


class MetricsRegistry:
    """Mutable metric store for one trial (or one worker's slice of it).

    * ``inc(name, value)`` — monotonically growing counter.
    * ``gauge_max(name, value)`` — high-water gauge (keeps the max).
    * ``observe(name, value)`` — histogram summarized as
      ``[count, total, min, max]`` (enough for means and extremes
      without unbounded storage).
    """

    __slots__ = ("counters", "gauges", "hists")

    #: Real registry: collection calls land somewhere.
    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.hists: dict[str, list[float]] = {}

    def inc(self, name: str, value: float = 1) -> None:
        if value:
            counters = self.counters
            counters[name] = counters.get(name, 0) + value

    def gauge_max(self, name: str, value: float) -> None:
        gauges = self.gauges
        prior = gauges.get(name)
        if prior is None or value > prior:
            gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.hists.get(name)
        if hist is None:
            self.hists[name] = [1, value, value, value]
        else:
            hist[0] += 1
            hist[1] += value
            if value < hist[2]:
                hist[2] = value
            if value > hist[3]:
                hist[3] = value

    def snapshot(self) -> dict:
        """Picklable/JSON-ready copy of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "hists": {name: list(h) for name, h in self.hists.items()},
        }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. shipped by a worker) into this
        registry: counters add, gauges keep the max, histograms combine
        count/total/min/max."""
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge_max(name, value)
        for name, (count, total, lo, hi) in snap.get("hists", {}).items():
            hist = self.hists.get(name)
            if hist is None:
                self.hists[name] = [count, total, lo, hi]
            else:
                hist[0] += count
                hist[1] += total
                if lo < hist[2]:
                    hist[2] = lo
                if hi > hist[3]:
                    hist[3] = hi


class NullMetrics:
    """No-op registry: same surface as :class:`MetricsRegistry`, stores
    nothing.  Shared singleton below — collection code never needs a
    ``if metrics is not None`` branch."""

    __slots__ = ()

    enabled = False

    def inc(self, name: str, value: float = 1) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "hists": {}}

    def merge(self, snap: dict) -> None:
        pass


#: Process-wide shared no-op sink.
NULL_METRICS = NullMetrics()
