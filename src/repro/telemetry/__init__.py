"""Measurement infrastructure: latency recorders, throughput, memory, reports."""

from repro.telemetry.batching import StageBatchTelemetry
from repro.telemetry.latency import LatencyRecorder, percentile, summarize_latencies
from repro.telemetry.memory import MemoryReport, format_bytes
from repro.telemetry.reporting import ExperimentReport, format_cdf, format_table

__all__ = [
    "StageBatchTelemetry",
    "LatencyRecorder",
    "percentile",
    "summarize_latencies",
    "MemoryReport",
    "format_bytes",
    "format_table",
    "format_cdf",
    "ExperimentReport",
]
