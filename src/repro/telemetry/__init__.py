"""Telemetry: the observability subsystem shared by both frameworks.

What the reproduction previously could not do — measure itself — lives
here.  The package mirrors the operational surface real kernels grew
around eBPF (``kernel.bpf_stats_enabled`` run stats, ``bpftool prog
profile`` style per-program numbers, drop counters, trace rings) and
makes the same surface available to the paper's proposed framework:

* :mod:`repro.telemetry.metrics` — counters, gauges, fixed-bucket
  histograms in a labeled registry;
* :mod:`repro.telemetry.stats` — per-program run and load-pipeline
  statistics;
* :mod:`repro.telemetry.trace` — the structured trace, a view of the
  kernel's event ring (:mod:`repro.kernel.events`), with JSONL;
* :mod:`repro.telemetry.core` — the per-kernel hub wiring it all
  together behind the ``stats_enabled`` toggle;
* :mod:`repro.telemetry.export` — JSON and Prometheus text
  serialization (with parsers).
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.telemetry.stats import ProgStats, ProgStatsTable
from repro.telemetry.trace import TraceEvent, TraceView, parse_jsonl
from repro.telemetry.export import (
    parse_json,
    parse_prometheus,
    to_json,
    to_prometheus,
)

__all__ = [
    "Telemetry",
    "Counter", "Gauge", "Histogram", "MetricFamily",
    "MetricsRegistry",
    "ProgStats", "ProgStatsTable",
    "TraceEvent", "TraceView", "parse_jsonl",
    "parse_json", "parse_prometheus", "to_json", "to_prometheus",
]
