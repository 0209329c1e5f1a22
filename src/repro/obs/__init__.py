"""repro.obs — engine-wide observability: metrics registry + span timelines.

Two pillars, both strictly *outside* the deterministic core:

* :mod:`repro.obs.metrics` — counters / gauges / histograms with a
  shared no-op twin (:data:`NULL_METRICS`) for disabled runs.  Engines
  keep cheap passive counters on their hot paths and fold them into a
  registry once per trial via ``collect_obs`` — the draw paths never
  see a metrics object.
* :mod:`repro.obs.spans` — wall-clock spans (trial → round/window →
  worker) exported as Chrome trace-event JSON, loadable in Perfetto or
  ``chrome://tracing``.

:class:`repro.obs.recorder.ObsRecorder` ties the two together for one
trial: the coordinator owns one, each sharded/cluster worker owns one,
and worker payloads ride the existing result channel (pipe or pickled
CONTROL frame) back to the coordinator for merging.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.obs.metrics import (
        NULL_METRICS,
        MetricsRegistry,
        NullMetrics,
    )
    from repro.obs.recorder import (
        ObsRecorder,
        summarize_obs_file,
    )
    from repro.obs.spans import (
        SpanRecorder,
        chrome_trace,
        validate_chrome_trace,
    )

__all__ = [
    "NULL_METRICS",
    "MetricsRegistry",
    "NullMetrics",
    "ObsRecorder",
    "SpanRecorder",
    "chrome_trace",
    "summarize_obs_file",
    "validate_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": ("NULL_METRICS", "MetricsRegistry", "NullMetrics"),
    "recorder": ("ObsRecorder", "summarize_obs_file"),
    "spans": ("SpanRecorder", "chrome_trace", "validate_chrome_trace"),
})
