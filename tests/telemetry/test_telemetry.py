"""Tests for the measurement helpers (latency, memory, reporting)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.latency import LatencyRecorder, percentile, summarize_latencies
from repro.telemetry.memory import MemoryReport, format_bytes
from repro.telemetry.reporting import ExperimentReport, format_cdf, format_table


class TestLatency:
    def test_percentile(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summary_fields(self):
        summary = summarize_latencies([0.001, 0.002, 0.003])
        assert summary["count"] == 3
        assert summary["worst"] == 0.003
        assert summarize_latencies([]) == {"count": 0}

    def test_recorder_groups(self):
        recorder = LatencyRecorder()
        recorder.record(0.01, group="hot")
        recorder.extend([0.1, 0.2], group="cold")
        assert recorder.groups() == ["hot", "cold"]
        assert recorder.summary("cold")["count"] == 2

    def test_group_is_a_copy_and_unknown_groups_are_empty(self):
        recorder = LatencyRecorder()
        recorder.extend([0.1, 0.2], group="cold")
        samples = recorder.group("cold")
        samples.append(9.0)
        assert recorder.group("cold") == [0.1, 0.2]
        assert recorder.group("missing") == []

    def test_cdf_monotonic(self):
        recorder = LatencyRecorder()
        recorder.extend([0.005, 0.001, 0.010, 0.002])
        cdf = recorder.cdf(points=10)
        latencies = [point[0] for point in cdf]
        assert latencies == sorted(latencies)
        assert cdf[-1][1] == 1.0

    def test_speedup(self):
        recorder = LatencyRecorder()
        recorder.extend([0.010] * 10, group="baseline")
        recorder.extend([0.002] * 10, group="improved")
        assert recorder.speedup("baseline", "improved") == pytest.approx(5.0)


class TestMemory:
    def test_format_bytes(self):
        assert format_bytes(512) == "512.0B"
        assert format_bytes(2048) == "2.0KB"
        assert format_bytes(3 * 1024**2) == "3.0MB"

    def test_report_ratio(self):
        report = MemoryReport()
        report.record("baseline", 100)
        report.record("baseline", 1000)
        report.record("improved", 100)
        assert report.ratio("baseline", "improved") == pytest.approx(10.0)
        assert report.final("baseline") == 1000
        with pytest.raises(KeyError):
            report.final("missing")

    def test_systems_in_first_recorded_order(self):
        report = MemoryReport()
        for system, total in (("pretzel", 10), ("mlnet", 30), ("pretzel", 20)):
            report.record(system, total)
        assert report.systems() == ["pretzel", "mlnet"]


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        table = format_table(rows)
        assert "a" in table.splitlines()[0]
        assert len(table.splitlines()) == 4

    def test_empty_table(self):
        assert format_table([]) == "(no rows)"

    def test_format_cdf(self):
        text = format_cdf([(0.001, 0.5), (0.002, 1.0)])
        assert "p99" in text

    def test_experiment_report_render(self):
        report = ExperimentReport("Figure X", "description")
        report.add_row(system="pretzel", value=1.0)
        report.add_note("shape holds")
        rendered = report.render()
        assert "Figure X" in rendered and "pretzel" in rendered and "shape holds" in rendered


@settings(max_examples=30, deadline=None)
@given(samples=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=200))
def test_percentiles_bounded_by_extremes_property(samples):
    recorder = LatencyRecorder()
    recorder.extend(samples)
    p99 = recorder.percentile(99)
    assert min(samples) <= p99 <= max(samples)
    summary = recorder.summary()
    assert summary["best"] <= summary["p50"] <= summary["worst"]


class TestStageBatchTelemetry:
    def _telemetry(self):
        from repro.telemetry.batching import StageBatchTelemetry

        telemetry = StageBatchTelemetry()
        telemetry.record("sig-a", 4)
        telemetry.record("sig-a", 2)
        telemetry.record("sig-b", 1)
        return telemetry

    def test_counters_and_means(self):
        telemetry = self._telemetry()
        assert telemetry.total_batches == 3
        assert telemetry.total_events == 7
        assert telemetry.snapshot()["mean_batch_size"] == pytest.approx(7 / 3)
        with pytest.raises(ValueError):
            telemetry.record("sig-a", 0)
