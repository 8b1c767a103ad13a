"""Scheduler micro-benchmark: batch formation is O(batch size), not O(queue depth).

The seed scheduler's ``next_batch`` rescanned (and rebuilt) both flat deques
on every pull, so batch-formation cost grew linearly with the backlog --
quadratic work over a drain, exactly under the deep backlogs batching exists
to absorb.  The signature-indexed :class:`~repro.core.scheduler.ReadyQueue`
pops members straight off the leader signature's bucket, so per-pull cost
must stay ~flat as the queue depth grows 10x.  This bench records that
(a ``claim()`` in the report's metrics, not an assert) with numbers in
``benchmarks/results/scheduler_microbench.txt``.
"""

from __future__ import annotations

import time

from conftest import claim, write_report
from repro.core.scheduler import InferenceRequest, Scheduler
from repro.telemetry.reporting import ExperimentReport
from repro.testing import StubPlan

#: backlog depths swept (a 10x range); per-pull cost must not grow ~10x
DEPTHS = [2_000, 20_000]
N_SIGNATURES = 32
MAX_BATCH = 16
PULLS = 64
REPEATS = 3


def _mean_pull_seconds(depth: int) -> tuple[float, float]:
    """Mean ``next_batch`` latency and mean batch size at the given backlog."""
    plans = [StubPlan(f"sig-{index}") for index in range(N_SIGNATURES)]
    best = float("inf")
    mean_batch = 0.0
    for _ in range(REPEATS):
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=MAX_BATCH)
        for index in range(depth):
            scheduler.submit(InferenceRequest(f"p{index}", plans[index % N_SIGNATURES], "x"))
        pulled = 0
        start = time.perf_counter()
        for _pull in range(PULLS):
            batch = scheduler.next_batch(0, timeout=0.0)
            assert batch is not None
            pulled += len(batch)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / PULLS)
        mean_batch = pulled / PULLS
    return best, mean_batch


def test_batch_formation_cost_stays_flat_under_deep_backlog(benchmark):
    def run():
        rows = []
        for depth in DEPTHS:
            pull_seconds, mean_batch = _mean_pull_seconds(depth)
            rows.append(
                {
                    "queue_depth": depth,
                    "mean_pull_us": pull_seconds * 1e6,
                    "mean_batch_size": mean_batch,
                }
            )
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    report = ExperimentReport(
        "Scheduler microbench",
        "next_batch formation cost vs. queue depth (32 signatures round-robin, "
        "max_stage_batch=16): the signature index keeps per-pull cost ~flat "
        "across a 10x backlog sweep (the seed deque scan grew ~linearly).",
    )
    report.rows = rows
    # O(batch size) claim: 10x the backlog must not cost anywhere near 10x per
    # pull.  > 0.25 means the deep backlog costs under 4x the shallow one per
    # pull (the seed implementation measured ~10x, i.e. ~0.1).
    shallow, deep = rows[0]["mean_pull_us"], rows[-1]["mean_pull_us"]
    write_report(
        "scheduler_microbench",
        report.render(),
        metrics=claim("shallow_over_deep_pull_ratio", max(shallow, 0.5) / deep, 0.25),
    )
    # Every pull coalesces a full batch at both depths.
    for row in rows:
        assert row["mean_batch_size"] == MAX_BATCH
