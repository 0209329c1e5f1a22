"""Per-trial observability funnel: one :class:`ObsRecorder` per process.

The coordinator (:func:`repro.engine.execute`, switched on by a spec's
``obs`` section, and the coordinator it runs) owns the primary
recorder.  Each worker interpreter owns its own recorder with a distinct
Chrome-trace ``pid`` lane, and ships :meth:`ObsRecorder.worker_payload`
back in its pickled RESULT control frame.  :meth:`ObsRecorder.merge_worker`
folds those payloads into the coordinator's registry and timeline.

Nothing here touches the deterministic core: collection reads passive
counters after the fact, and every timestamp comes from the wall clock
outside the draw paths (the same contract provenance already obeys).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.spans import SpanRecorder, chrome_trace, wall

__all__ = ["ObsRecorder", "indexed_path", "summarize_obs_file"]

#: Chrome-trace process lane of the coordinator; worker ``shard`` uses
#: lane ``shard + 1``.
COORDINATOR_PID = 0


def _wire_snapshot() -> dict:
    # Looked up, never imported: the sim layer builds recorders without
    # depending on the net layer, and a process that has not loaded the
    # wire module has framed nothing.
    wire = sys.modules.get("repro.net.wire")
    return wire.STATS.snapshot() if wire is not None else {}


class ObsRecorder:
    """Metrics + spans for one process of one trial."""

    def __init__(self, *, pid: int = COORDINATOR_PID, name: str = "coordinator",
                 metrics: bool = True, timeline: bool = True) -> None:
        self.metrics = MetricsRegistry() if metrics else NULL_METRICS
        self.spans = SpanRecorder(pid=pid)
        self.timeline_enabled = timeline
        self.name = name
        self.process_names = {pid: name}
        self._wire_base: dict | None = None

    # -- span helpers -------------------------------------------------

    @contextmanager
    def phase(self, name: str, **args):
        """Record a coarse phase span (scramble / serve / drain / ...)."""
        with self.spans.span(name, "phase", **args):
            yield

    def record_round(self, name: str, t0: float, t1: float, **args) -> None:
        """A per-window/round span (coordinator barrier round, worker
        compute slice, worker barrier wait)."""
        self.spans.record(name, "round", t0, t1, args=args or None)

    # -- collection ---------------------------------------------------

    def collect_sim(self, sim) -> None:
        """Fold an engine's passive counters into the registry."""
        sim.collect_obs(self.metrics)

    def mark_wire_baseline(self) -> None:
        """Snapshot the process-wide wire counters so a later
        :meth:`collect_wire` reports only this trial's frames.  Cluster
        worker interpreters serve many trials and take theirs at each
        ``spec``."""
        self._wire_base = _wire_snapshot()

    def collect_wire(self) -> None:
        current = _wire_snapshot()
        base = self._wire_base or {}
        for group, values in current.items():
            base_group = base.get(group, {})
            for kind, value in values.items():
                delta = value - base_group.get(kind, 0)
                if delta:
                    self.metrics.inc(f"wire.{group}[{kind}]", delta)

    # -- worker shipping ----------------------------------------------

    def worker_payload(self) -> dict:
        """Picklable bundle a worker ships over its result channel."""
        return {
            "pid": self.spans.pid,
            "name": self.name,
            "metrics": self.metrics.snapshot(),
            "spans": self.spans.payload(),
        }

    def merge_worker(self, payload: dict) -> None:
        self.metrics.merge(payload["metrics"])
        self.spans.extend(payload["spans"])
        self.process_names[payload["pid"]] = payload["name"]

    # -- output -------------------------------------------------------

    def timeline_doc(self, context: dict | None = None) -> dict:
        doc = chrome_trace(self.spans.spans, self.process_names)
        if context:
            doc["otherData"] = dict(context)
        return doc

    def metrics_doc(self, context: dict | None = None) -> dict:
        doc = {"kind": "repro-obs-metrics", "version": 1,
               "context": dict(context or {})}
        doc.update(self.metrics.snapshot())
        return doc

    def write(self, metrics_path=None, timeline_path=None,
              context: dict | None = None) -> None:
        if metrics_path is not None:
            _dump(Path(metrics_path), self.metrics_doc(context))
        if timeline_path is not None:
            # A trace viewer reads this, not a person: no indent keeps
            # the C encoder (4x faster on a thousand-span timeline).
            _dump(Path(timeline_path), self.timeline_doc(context), indent=None)


def _dump(path: Path, doc: dict, indent: int | None = 1) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n",
                    encoding="utf-8")


def indexed_path(path, label) -> Path:
    """``metrics.json`` + label ``seed3`` -> ``metrics.seed3.json`` —
    keeps multi-trial CLI runs (seed sweeps, matrix cells) from
    overwriting one another."""
    path = Path(path)
    return path.with_name(f"{path.stem}.{label}{path.suffix or '.json'}")


# -- `repro obs` summary rendering ------------------------------------


def summarize_obs_file(path) -> str:
    """Human summary of a written obs file — auto-detects whether it is
    a metrics document or a Chrome-trace timeline."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _summarize_timeline(path, doc)
    return _summarize_metrics(path, doc)


def _summarize_metrics(path, doc: dict) -> str:
    lines = [f"metrics {path}"]
    context = doc.get("context") or {}
    if context:
        lines.append("  context: " + " ".join(
            f"{k}={context[k]}" for k in sorted(context)))
    counters = dict(doc.get("counters", {}))
    gauges = doc.get("gauges", {})
    hists = doc.get("hists", {})

    def section(title: str, values: dict) -> None:
        if values:
            lines.append(f"  {title}:")
            width = max(len(name) for name in values)
            for name in sorted(values):
                lines.append(f"    {name.ljust(width)}  {values[name]:>12g}")

    def take(select) -> dict:
        return {name: counters.pop(name) for name in list(counters)
                if select(name)}

    # The wire's frames, bytes and the ships those SHIP frames carried
    # (`ship.messages_out` is traffic, not a fault: a link-round is one
    # frame however many ships it holds).
    wire = take(lambda name: name.startswith("wire.")
                or name == "ship.messages_out")
    # Chaos counters get their own section: on a fault-injection run the
    # injected/recovered story is the headline, not one row among many.
    chaos = take(lambda name: name.startswith(
        ("fault.", "worker.crashed", "recovery.", "backoff.", "ship.")))
    section("faults & recovery", chaos)
    section("wire", wire)
    section("counters", counters)
    activations = counters.get("process.activations")
    if activations:
        # Counted by a dormant process's catch-up, never popped or run.
        dormant = counters.get("process.activations_dormant", 0)
        lines.append(f"    (activations: {dormant:g} of {activations:g} "
                     f"dormant, {dormant / activations:.1%})")
    jumped = counters.get("sync.rounds_jumped")
    if jumped:
        # Worker counters add up: each worker jumps the same rounds.
        lines.append(f"    (window sync: {jumped:g} rounds jumped "
                     f"{counters.get('sync.ticks_jumped', 0):g} quiet ticks, "
                     f"summed over workers)")
    section("gauges (high-water)", gauges)
    if hists:
        lines.append("  histograms:")
        width = max(len(name) for name in hists)
        for name in sorted(hists):
            count, total, lo, hi = hists[name]
            mean = total / count if count else 0.0
            lines.append(f"    {name.ljust(width)}  count={count:g} "
                         f"mean={mean:g} min={lo:g} max={hi:g}")
    if not (chaos or wire or counters or gauges or hists):
        lines.append("  (empty)")
    return "\n".join(lines)


def _summarize_timeline(path, doc: dict) -> str:
    events = doc.get("traceEvents", [])
    names = {event["pid"]: event["args"]["name"] for event in events
             if event.get("ph") == "M" and event.get("name") == "process_name"}
    complete = [event for event in events if event.get("ph") == "X"]
    lines = [f"timeline {path}: {len(complete)} spans, "
             f"{len(names) or len({e['pid'] for e in complete})} process lanes"]
    by_lane: dict[tuple, list] = {}
    for event in complete:
        by_lane.setdefault((event["pid"], event["name"]), []).append(event)
    for (pid, name), group in sorted(by_lane.items()):
        total_ms = sum(event["dur"] for event in group) / 1000.0
        lane = names.get(pid, f"pid {pid}")
        lines.append(f"  {lane:<14} {name:<10} x{len(group):<6} "
                     f"total {total_ms:.3f} ms")
    return "\n".join(lines)
