"""Deterministic tests of the benchmark harness (no wall-clock assertions)."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import pathlib
import re
import sys
import threading

import numpy as np
import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.harness import compare, families, layers, loadgen, workloads  # noqa: E402
from benchmarks.harness.spans import SpanRecorder, covered_seconds  # noqa: E402

SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small(name: str, **changes) -> workloads.Workload:
    """A workload at smoke scale: four served plans in total."""
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, served=4 // len(workload.families), **changes)


# -- the declared contract ------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/harness"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert [entry["name"] for entry in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    names = [entry["name"] for group in ("workloads", "end_to_end", "per_layer") for entry in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len((_ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# -- percentiles, seeds -----------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(5, 50.0), (19, 50.0), (20, 50.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (10_000, 99.9), (100_000, 99.99)],
)
def test_highest_percentile_with_ten_samples_beyond(samples, expected):
    assert loadgen.supported_percentile(samples) == expected


def test_percentile_interpolates_and_rejects_empty():
    assert loadgen.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    with pytest.raises(ValueError):
        loadgen.percentile([], 50.0)


def test_poisson_schedule_is_a_function_of_the_seed():
    first = loadgen.poisson_schedule(500.0, 2.0, seed=11)
    assert np.array_equal(first, loadgen.poisson_schedule(500.0, 2.0, seed=11))
    assert not np.array_equal(first, loadgen.poisson_schedule(500.0, 2.0, seed=12))
    assert np.all(np.diff(first) > 0) and first[-1] < 2.0
    assert 700 < len(first) < 1300  # ~ rate x seconds


def test_same_seed_same_requests(sa_family):
    workload = small("sa_online", clients=2)
    first = workloads.prepare(workload, 5, loaded={"sa": sa_family})
    again = workloads.prepare(workload, 5, loaded={"sa": sa_family})
    other = workloads.prepare(workload, 6, loaded={"sa": sa_family})
    assert first.requests == again.requests
    assert first.requests != other.requests
    plans = {call[0] for client in first.requests for request in client for call in request}
    assert plans == {plan_id for plan_id, _generated in first.plans}
    assert len(first.requests) == workload.clients
    assert first.requests[0] != first.requests[1]


def test_blocks_recur_with_the_list_and_the_quietest_replicas_are_kept():
    log = loadgen.ClientLog()
    # a list of four requests (two blocks of two) sent 2.5 times; the second
    # pass is slow, and the request at position 2 of it failed (no sample)
    log.positions = [0, 1, 2, 3, 0, 1, 3, 0, 1]
    log.latencies = [0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.5, 0.1, 0.2]
    log.ends = [1.1, 1.2, 1.4, 1.6, 1.9, 2.2, 3.2, 3.3, 3.5]
    replicas = loadgen.blocks(log, 2)
    assert sorted(replicas) == [0, 1]
    assert [seconds for seconds, _latencies in replicas[0]] == pytest.approx([0.2, 0.6, 0.3])
    assert [latencies for _seconds, latencies in replicas[0]] == [[0.1, 0.1], [0.3, 0.3], [0.1, 0.2]]
    assert replicas[1] == [(pytest.approx(0.4), [0.2, 0.2])]  # the broken replica is dropped
    kept = loadgen.quietest(replicas, 1.0 / 3.0)
    assert kept == [replicas[0][0], replicas[1][0]]  # every block once: the mix is kept
    assert loadgen.quietest(replicas, 0.01) == kept  # never none of a block
    assert len(loadgen.quietest(replicas, 1.0)) == 4
    assert loadgen.blocks(log, 5) == {}  # no block ever completed


def test_match_rules():
    nan = float("nan")
    assert loadgen.exact_match(1.5, 1.5) and loadgen.exact_match(nan, nan)
    assert not loadgen.exact_match(1.5, 1.5 + 1e-15)
    assert loadgen.close_match([1.0, 2.0], np.asarray([1.0, 2.0 * (1 + 1e-11)]))
    assert not loadgen.close_match([1.0, 2.0], np.asarray([1.0, 2.0 * (1 + 1e-6)]))
    assert not loadgen.close_match([1.0], np.asarray([1.0, 2.0]))


# -- spans --------------------------------------------------------------------------


def test_covered_seconds_is_the_union_of_child_intervals():
    assert covered_seconds(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 12.0)]) == 7.0
    assert covered_seconds(0.0, 10.0, []) == 0.0
    assert covered_seconds(4.0, 6.0, [(0.0, 10.0)]) == 2.0


def test_self_time_is_duration_minus_child_coverage():
    recorder = SpanRecorder()
    recorder.request = 3
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            with recorder.span("leaf"):
                pass
        with recorder.span("inner"):
            pass
    assert [span.name for span in recorder.spans] == ["leaf", "inner", "inner", "outer"]
    assert inner.parent is outer and all(span.request == 3 for span in recorder.spans)
    inner_total = sum(recorder.seconds("inner"))
    (outer_self,) = recorder.self_seconds("outer")
    assert outer_self == pytest.approx(outer.seconds - inner_total)
    assert 0.0 <= outer_self <= outer.seconds


def test_spans_from_other_threads_parent_to_the_replaying_span(tmp_path):
    recorder = SpanRecorder()
    wrapped = recorder.wrap("stage", lambda: None)
    with recorder.span("runtime") as runtime:
        thread = threading.Thread(target=wrapped)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    (stage,) = [span for span in recorder.spans if span.name == "stage"]
    assert stage.parent is runtime
    recorder.dump(tmp_path / "spans.json")
    rows = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert {row["name"] for row in rows} == {"stage", "runtime"}
    assert rows[0]["parent"] == 1 and rows[1]["parent"] is None


# -- compare ------------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.05 for v in steady], "lower", 0.10)[0] == "ok"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "regression"
    assert compare.verdict(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "regression"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "higher", 0.10)[0] == "ok"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    outcome, ratio = compare.verdict(noisy, [v * 1.20 for v in noisy], "lower", 0.10)
    assert outcome == "unresolved" and ratio == pytest.approx(1.2)


def test_compare_reads_run_files_and_counts_regressions(tmp_path):
    def record(workload, qps, trace=0):
        return json.dumps(
            {"workload": workload, "trace": trace, "metrics": {"qps": {"value": qps, "unit": "1/s"}}}
        )

    base, slow = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text("\n".join(record("sa_online", v) for v in (100, 101, 99)) + "\n")
    slow.write_text(
        "\n".join([record("sa_online", v) for v in (60, 61, 59)] + [record("sa_online", 1, trace=1)])
    )
    rows, regressions = compare.compare(
        compare.load_runs(str(base)), compare.load_runs(str(slow)), SPEC
    )
    assert regressions == 1 and "0.600x of A=100" in rows[1]
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(slow)]) == 1


# -- smoke: every declared name is emitted -------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_smoke_emits_every_end_to_end_metric(name, sa_family, ac_family):
    prepared = workloads.prepare(small(name), 3, loaded={"sa": sa_family, "ac": ac_family})
    result = workloads.run_untraced(prepared, seconds=0.4, setups_per_run=1)
    assert sorted(result["metrics"]) == sorted(entry["name"] for entry in SPEC["end_to_end"])
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(value > 0 for value in result["metrics"].values())
    assert multiprocessing.active_children() == []


def test_traced_smoke_emits_every_per_layer_metric(sa_family, ac_family):
    prepared = workloads.prepare(small("batch_mixed"), 3, loaded={"sa": sa_family, "ac": ac_family})
    result = layers.run_traced(prepared, seconds=0.5)
    assert sorted(result["metrics"]) == sorted(entry["name"] for entry in SPEC["per_layer"])
    assert result["failed"] == 0
    numbers = result["metrics"]
    parts = (
        "serving.cluster.self_us",
        "serving.router.acquire_release_us",
        "net.encode_request_us",
        "net.decode_request_us",
        "net.encode_reply_us",
        "net.decode_reply_us",
        "serving.control.transport.pipe_rtt_us",
        "serving.worker.self_us",
        "core.runtime.self_us",
        "core.oven.physical.stages_us",
    )
    # the accounting identity: the parts add up to the live round trip
    assert sum(numbers[part] for part in parts) == pytest.approx(numbers["serving.cluster.predict_us"])
    spans = json.loads((_ROOT / result["detail"]["spans_file"]).read_text(encoding="utf-8"))
    assert {"net.encode_request", "serving.worker.handle", "core.runtime.call"} <= {row["name"] for row in spans}
    assert families.OUT_DIR in (_ROOT / result["detail"]["spans_file"]).parents
