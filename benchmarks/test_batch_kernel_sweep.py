"""Batch kernel sweep: ``transform_batch`` against a scalar ``transform`` loop.

For every hot operator family of the paper's workloads (the AC ensemble
stages and the SA split-linear stage, scaled down) this measures the
per-record time of the family's one batch kernel and of a loop over its
scalar kernel, at batch sizes 1 to 256.  The batch kernel reads the columnar
input the engine hands it (a dense matrix, or a CSR column for
``PartialLinear``); the loop reads the per-record vectors the
request-response engine sees.

It records numbers and gates nothing: the per-family crossover (the smallest
swept batch at which the batch kernel beats the loop) is the data a static
below-the-crossover scalar loop would be sized from.  Measurement idiom for a
1-CPU host: the two kernels are interleaved per trial and the minimum across
trials is kept, so scheduler noise inflates neither side.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_report
from repro.core.oven.rewrite_ops import PartialLinearScorer
from repro.operators import (
    DenseVector,
    KMeans,
    RandomForest,
    SparseVector,
    TreeEnsembleClassifier,
    TreeFeaturizer,
)
from repro.operators.batch import ColumnBatch
from repro.telemetry.reporting import ExperimentReport

BATCH_SIZES = [1, 4, 16, 64, 256]
TRIALS = 5
SEED = 20260808
WIDTH = 32
SPARSE_WIDTH = 2048


def _dense_rows(rng, n, width=WIDTH):
    return [row for row in rng.normal(size=(n, width))]


def _sparse_rows(rng, n, nnz=24):
    rows = []
    for _ in range(n):
        indices = np.sort(rng.choice(SPARSE_WIDTH, size=nnz, replace=False))
        rows.append(SparseVector(indices, rng.normal(size=nnz), SPARSE_WIDTH))
    return rows


def _dense_input(rng, n):
    matrix = rng.normal(size=(n, WIDTH))
    return ColumnBatch.from_matrix(matrix), [DenseVector(row) for row in matrix]


def _sparse_input(rng, n):
    rows = _sparse_rows(rng, n)
    return ColumnBatch.from_csr(*ColumnBatch.from_rows(rows).sparse_csr()), rows


def _fixtures():
    """(family, fitted operator, input maker) per swept hot family.

    An input maker returns ``(columnar batch, per-record rows)`` holding the
    same ``n`` records.
    """
    rng = np.random.default_rng(SEED)
    train = _dense_rows(rng, 400)
    labels = rng.normal(size=400)
    class_labels = rng.integers(0, 6, size=400).astype(float)
    return [
        (
            "RandomForest",
            RandomForest(n_trees=16, max_depth=6, seed=1).fit(train, labels),
            _dense_input,
        ),
        (
            "TreeEnsembleClassifier",
            TreeEnsembleClassifier(n_classes=6, max_depth=6, seed=2).fit(train, class_labels),
            _dense_input,
        ),
        (
            "TreeFeaturizer",
            TreeFeaturizer(n_trees=10, max_depth=6, seed=3).fit(train, labels),
            _dense_input,
        ),
        ("KMeans", KMeans(n_clusters=16, seed=4, max_iterations=10).fit(train), _dense_input),
        (
            "PartialLinear",
            PartialLinearScorer(rng.normal(size=SPARSE_WIDTH), bias=0.25, branch_index=0),
            _sparse_input,
        ),
    ]


def _sweep_family(family, operator, make_input):
    """Min-of-trials per-record seconds: ``{batch_size: (batch, loop)}``."""
    rng = np.random.default_rng(SEED + sum(map(ord, family)))
    times = {}
    for batch_size in BATCH_SIZES:
        batch, rows = make_input(rng, batch_size)
        kernels = {
            "batch": lambda: operator.transform_batch(batch),
            "loop": lambda: [operator.transform(row) for row in rows],
        }
        repeats = max(1, 256 // batch_size)
        for kernel in kernels.values():  # warm-up: arenas, lazy tables
            kernel()
        best = dict.fromkeys(kernels, float("inf"))
        for _trial in range(TRIALS):
            for name, kernel in kernels.items():  # interleaved
                start = time.perf_counter()
                for _ in range(repeats):
                    kernel()
                best[name] = min(best[name], (time.perf_counter() - start) / repeats)
        times[batch_size] = (best["batch"] / batch_size, best["loop"] / batch_size)
    return times


def test_batch_kernel_sweep():
    report = ExperimentReport(
        experiment="batch_kernel_sweep",
        description=(
            "Per-record time of each hot family's transform_batch against a "
            "scalar transform loop, per batch size (min of interleaved trials); "
            "crossover = smallest swept batch where the batch kernel wins."
        ),
    )
    metrics = {"batch_sizes": BATCH_SIZES, "families": {}}
    for family, operator, make_input in _fixtures():
        times = _sweep_family(family, operator, make_input)
        for batch_size, (batch_time, loop_time) in times.items():
            report.add_row(
                family=family,
                batch=batch_size,
                batch_us=round(batch_time * 1e6, 3),
                loop_us=round(loop_time * 1e6, 3),
                speedup=round(loop_time / max(batch_time, 1e-12), 2),
            )
        crossover = next(
            (size for size, (batch_time, loop_time) in times.items() if batch_time < loop_time),
            None,
        )
        report.add_note(f"{family}: crossover at batch {crossover}")
        metrics["families"][family] = {
            "crossover": crossover,
            "per_record_us": {
                str(size): {"batch": batch_time * 1e6, "loop": loop_time * 1e6}
                for size, (batch_time, loop_time) in times.items()
            },
        }
    write_report("batch_kernel_sweep", report.render(), metrics=metrics)
