"""Benchmark-side spans around the calls into each layer.

The traced run wraps — from here, not inside ``src/`` — the public
functions a trial passes through: ``execute`` (pipeline),
``backend.prepare`` / ``backend.run`` (engine), ``check_pif`` /
``check_mutex`` and ``extract_waves`` (spec).  Each call becomes one
span (name, start, end, parent, trial id) kept in memory and written
once, when the run ends, through the program's own Chrome-trace
exporter.  A layer's *self time* is its span minus its child spans.

The same wrapper around ``execute`` hands back the
:class:`~repro.engine.EngineRun` (the trial wrappers do not return the
trace), which is how the serial-hash identity check and the recorded
traces of the spec probes are obtained without re-implementing a
wrapper's spec filling.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.analysis import runner
from repro.engine import EngineRun, resolve
from repro.obs import SpanRecorder, chrome_trace, validate_chrome_trace
from repro.obs.spans import wall

__all__ = ["LAYERS", "SpanTracer", "harvest_obs", "patched_trial_path"]

#: Span name → what it wraps.  Names are module names, so the self-time
#: table reads as "where in the source tree did the wall go".
LAYERS = {
    "analysis.runner": "run_*_trial (self time = result assembly)",
    "engine.pipeline": "repro.engine.execute (self time = validation + obs harvest/write)",
    "engine.prepare": "backend.prepare",
    "engine.run": "backend.run",
    "spec.check": "check_pif / check_mutex",
    "spec.extract_waves": "extract_waves",
}


class SpanTracer:
    """In-memory span store with a parent stack."""

    def __init__(self) -> None:
        self._recorder = SpanRecorder(pid=0)
        self._stack: list[int] = []
        self._next_id = 0
        self.trial: Any = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        t0 = wall()
        try:
            yield
        finally:
            t1 = wall()
            self._stack.pop()
            self._recorder.record(
                name, "ledger", t0, t1,
                args={"trial": self.trial, "id": span_id, "parent": parent})

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def trial_summary(self, trial: Any) -> dict[str, dict[str, float]]:
        """Total and self seconds per span name for one trial."""
        mine = [(name, duration, args)
                for name, _cat, _pid, _tid, _t0, duration, args
                in self._recorder.spans if args["trial"] == trial]
        child_time: dict[int, float] = {}
        for _name, duration, args in mine:
            if args["parent"] is not None:
                child_time[args["parent"]] = (
                    child_time.get(args["parent"], 0.0) + duration)
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for name, duration, args in mine:
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = (self_time.get(name, 0.0) + duration
                               - child_time.get(args["id"], 0.0))
        return {"total": total, "self": self_time}

    def write_chrome_trace(self, path: Path, context: dict) -> list[str]:
        """Write every span as Chrome-trace JSON; returns the validator's
        problems (empty = loadable in Perfetto / chrome://tracing)."""
        doc = chrome_trace(self._recorder.spans, {0: "ledger"})
        doc["otherData"] = context
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return validate_chrome_trace(doc)


@contextmanager
def patched_trial_path(
    engine: str, tracer: SpanTracer | None = None
) -> Iterator[list[EngineRun]]:
    """Wrap the trial path for the duration of the block.

    Yields the list every ``execute`` call appends its
    :class:`~repro.engine.EngineRun` to.  With a ``tracer`` each wrapped
    call also records a span.  Everything is restored on exit, so timed
    untraced trials never run through a wrapper.
    """
    captured: list[EngineRun] = []
    execute = runner.execute

    def capturing_execute(spec):
        run = execute(spec)
        captured.append(run)
        return run

    backend = resolve(engine)
    patches: list[tuple[Any, str, Any]] = [(runner, "execute", capturing_execute)]
    if tracer is not None:
        patches = [
            (runner, "execute", tracer.wrap("engine.pipeline", capturing_execute)),
            (runner, "check_pif", tracer.wrap("spec.check", runner.check_pif)),
            (runner, "check_mutex", tracer.wrap("spec.check", runner.check_mutex)),
            (runner, "extract_waves",
             tracer.wrap("spec.extract_waves", runner.extract_waves)),
            # Instance attributes shadow the class's methods; deleting
            # them below uncovers the originals again.
            (backend, "prepare", tracer.wrap("engine.prepare", backend.prepare)),
            (backend, "run", tracer.wrap("engine.run", backend.run)),
        ]
    originals = [(obj, name, vars(obj).get(name)) for obj, name, _ in patches]
    for obj, name, replacement in patches:
        setattr(obj, name, replacement)
    try:
        yield captured
    finally:
        for obj, name, original in originals:
            if original is None:
                delattr(obj, name)
            else:
                setattr(obj, name, original)


def harvest_obs(metrics_path: Path, timeline_path: Path) -> dict[str, Any]:
    """Read back what the program's own ``ObsOpts(metrics=, timeline=)``
    wrote for one trial: the passive counters, the histograms, and the
    engine's phase spans on the coordinator lane (total seconds by
    name — they do not overlap on that lane)."""
    metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    timeline = json.loads(timeline_path.read_text(encoding="utf-8"))
    phases: dict[str, float] = {}
    for event in timeline["traceEvents"]:
        if event["ph"] == "X" and event["pid"] == 0:
            phases[event["name"]] = (
                phases.get(event["name"], 0.0) + event["dur"] / 1e6)
    return {
        "counters": metrics["counters"],
        "hists": metrics["hists"],
        "phases": phases,
    }
