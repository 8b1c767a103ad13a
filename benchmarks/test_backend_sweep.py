"""Backend sweep: measured per-record kernel time per (family, backend, batch).

The acceptance gate of the kernel-backend registry: for every hot operator
family, sweep batch sizes across every available backend, find each family's
amortization knee, and verify that

* at least two families beat the numpy reference by >= 1.2x at their knee
  batch size (the registry earns its keep), and
* a :class:`~repro.core.cost_model.CostModel` fed the measured table selects,
  for every (family, batch class), a backend within 1.05x of the per-class
  best -- the selection logic cannot squander the measured wins.

``BACKEND_SMOKE=1`` shrinks the grid and the fixtures for the CI smoke job.
The numba backend is skipped (never failed) when numba is not importable.
Measurement idiom for the 1-CPU CI host: backends are interleaved per trial
and the minimum across trials is kept, so scheduler noise inflates nothing.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import write_report
from repro.core.cost_model import CostModel, batch_class
from repro.core.oven.rewrite_ops import PartialLinearScorer
from repro.operators import backends as backend_registry
from repro.operators import (
    KMeans,
    RandomForest,
    SparseVector,
    TreeEnsembleClassifier,
)
from repro.operators.batch import ColumnBatch
from repro.telemetry.reporting import ExperimentReport

SMOKE = os.environ.get("BACKEND_SMOKE", "0") == "1"
BATCH_SIZES = [8, 64] if SMOKE else [1, 4, 16, 64, 256]
TRIALS = 3 if SMOKE else 5
SEED = 20260808

#: minimum measured speedup over reference, at the knee, for the gate
MIN_SPEEDUP = 1.2
#: how many families must clear MIN_SPEEDUP
MIN_WINNING_FAMILIES = 2
#: the cost model's pick may be at most this much slower than the best
SELECTION_SLACK = 1.05


def _dense_rows(rng, n, width):
    return [row for row in rng.normal(size=(n, width))]


def _sparse_rows(rng, n, size, nnz):
    rows = []
    for _ in range(n):
        indices = np.sort(rng.choice(size, size=nnz, replace=False))
        rows.append(SparseVector(indices, rng.normal(size=nnz), size))
    return rows


def _fixtures():
    """(family name, fitted operator, record maker) per swept hot family.

    Dimensions are picked so the reference kernel's per-record overhead is
    real (many trees / the 3-D KMeans broadcast) without making the sweep
    slow: these are the AC ensemble stages and the SA split-linear stages of
    the paper's workloads, scaled down.  ``PartialLinear``'s gemm entry runs
    the reference segmented-sparse kernel, so it sweeps at ~1.0x.
    """
    rng = np.random.default_rng(SEED)
    width = 16 if SMOKE else 32
    n_train = 150 if SMOKE else 400
    train = _dense_rows(rng, n_train, width)
    labels = rng.normal(size=n_train)
    class_labels = rng.integers(0, 6, size=n_train).astype(float)

    forest = RandomForest(
        n_trees=8 if SMOKE else 16, max_depth=6, seed=1
    ).fit(train, labels)
    classifier = TreeEnsembleClassifier(
        n_classes=6, max_depth=6, seed=2
    ).fit(train, class_labels)
    kmeans_width = 32 if SMOKE else 64
    kmeans = KMeans(n_clusters=16, seed=3, max_iterations=10).fit(
        _dense_rows(rng, max(64, n_train // 2), kmeans_width)
    )
    sparse_size = 2048
    partial = PartialLinearScorer(
        rng.normal(size=sparse_size), bias=0.25, branch_index=0
    )

    return [
        ("RandomForest", forest, lambda rng, n: _dense_rows(rng, n, width)),
        ("TreeEnsembleClassifier", classifier, lambda rng, n: _dense_rows(rng, n, width)),
        ("KMeans", kmeans, lambda rng, n: _dense_rows(rng, n, kmeans_width)),
        (
            "PartialLinear",
            partial,
            lambda rng, n: _sparse_rows(rng, n, sparse_size, nnz=24),
        ),
    ]


def _kernels_for(family, operator):
    """(backend name, callable(batch)) pairs, reference first."""
    kernels = [("reference", operator.transform_batch)]
    for name in backend_registry.backend_names():
        spec = backend_registry.kernel_for(family, name)
        if spec is not None:
            kernels.append((name, lambda batch, fn=spec.fn: fn(operator, batch)))
    return kernels


def _sweep_family(family, operator, make_records):
    """Min-of-trials per-record seconds: {backend: {batch_size: seconds}}."""
    rng = np.random.default_rng(SEED + hash(family) % 1000)
    kernels = _kernels_for(family, operator)
    times = {name: {} for name, _fn in kernels}
    for batch_size in BATCH_SIZES:
        batch = ColumnBatch.from_rows(make_records(rng, batch_size))
        repeats = max(1, 256 // batch_size)
        for _name, fn in kernels:  # warm-up: caches, lazy arenas
            fn(batch)
        best = {name: float("inf") for name, _fn in kernels}
        for _trial in range(TRIALS):
            for name, fn in kernels:  # interleaved: noise hits all backends
                start = time.perf_counter()
                for _ in range(repeats):
                    fn(batch)
                elapsed = (time.perf_counter() - start) / repeats
                best[name] = min(best[name], elapsed)
        for name, _fn in kernels:
            times[name][batch_size] = best[name] / batch_size
    return times


def _feed_cost_model(model, family, times):
    for backend, by_batch in times.items():
        for batch_size, per_record in by_batch.items():
            model.record(family, backend, batch_size, per_record * batch_size)


def test_backend_sweep_and_cost_model_selection():
    report = ExperimentReport(
        experiment="backend_sweep",
        description=(
            "Measured per-record kernel time per (family, backend, batch size); "
            "knee = smallest batch class within 10% of the family's best "
            "per-record time, chosen = the cost model's pick at that class."
        ),
    )
    cost_model = CostModel(
        max_batch_size=max(BATCH_SIZES), warmup_samples=1, knee_tolerance=0.10
    )
    metrics = {"smoke": SMOKE, "batch_sizes": BATCH_SIZES, "families": {}}
    winning = []
    for family, operator, make_records in _fixtures():
        times = _sweep_family(family, operator, make_records)
        _feed_cost_model(cost_model, family, times)
        candidates = list(times)
        knee = cost_model.knee(family) or batch_class(max(BATCH_SIZES))
        knee_batch = min(BATCH_SIZES, key=lambda n: abs(batch_class(n) - knee))
        reference = times["reference"][knee_batch]
        best_backend = min(candidates, key=lambda name: times[name][knee_batch])
        speedup = reference / max(times[best_backend][knee_batch], 1e-12)
        if best_backend != "reference" and speedup >= MIN_SPEEDUP:
            winning.append(family)
        for batch_size in BATCH_SIZES:
            chosen = cost_model.choose(family, candidates, batch_size)
            per_class_best = min(times[name][batch_size] for name in candidates)
            chosen_time = times[chosen][batch_size]
            assert chosen_time <= per_class_best * SELECTION_SLACK, (
                f"{family}@{batch_size}: cost model chose {chosen} "
                f"({chosen_time * 1e6:.2f}us/rec) but {per_class_best * 1e6:.2f}us/rec "
                "was available"
            )
            for name in candidates:
                report.add_row(
                    family=family,
                    batch=batch_size,
                    backend=name,
                    per_record_us=round(times[name][batch_size] * 1e6, 3),
                    chosen="*" if name == chosen else "",
                )
        report.add_note(
            f"{family}: knee at batch class {knee}, best backend {best_backend} "
            f"({speedup:.2f}x over reference at batch {knee_batch})"
        )
        metrics["families"][family] = {
            "knee": knee,
            "best_backend": best_backend,
            "speedup_at_knee": round(speedup, 3),
            "per_record_us": {
                name: {str(n): round(t * 1e6, 3) for n, t in by_batch.items()}
                for name, by_batch in times.items()
            },
        }
    if "numba" not in backend_registry.backend_names():
        report.add_note("numba backend unavailable on this host: skipped, not failed")
    write_report("backend_sweep", report.render(), metrics=metrics)
    assert len(winning) >= MIN_WINNING_FAMILIES, (
        f"only {winning} beat the reference by {MIN_SPEEDUP}x at the knee; "
        "the registry must earn its keep on at least "
        f"{MIN_WINNING_FAMILIES} families (see results/backend_sweep.txt)"
    )
