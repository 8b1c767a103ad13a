"""Identity digests: the harness families' outputs, pinned bit for bit.

A refactor of the runtime or the serving tier must not move a single output
bit.  These tests take the benchmark harness's SA and AC families (60 + 60
pipelines, built with the harness's builder seeds by the ``repro.workloads``
builders in the root ``conftest.py``), draw the harness's 32 seed-7 records
per family, and hash every ``PretzelRuntime.predict`` output (``float.hex``,
plans in family order, records in draw order) into one SHA-256 digest per
family.  The golden values are committed constants: a change that alters
scalar semantics on purpose updates them and says why, and any other change
leaves them alone.  A 2-worker ``PretzelCluster`` must serve the very same
digests.

The batch path has its own pin: ``predict_batch`` over 100 records per plan
(the harness's ``batch_mixed`` size) with stage batching on, which runs every
stage as one columnar ``transform_batch`` call.  A 2-worker cluster must
serve the same bits as the in-process runtime for both families.  AC's final
outputs absorb small changes upstream (its tree classifier thresholds the
PCA and KMeans features), so every column each AC stage publishes over the
same 100 records is pinned too.

Three more pins cover what registration builds: a SHA-256 over every
stage's ``physical.full_signature`` (plans in family order), each worker's
``ObjectStore.stats()`` parameter count and bytes after a default 2-worker
cluster registers a whole family, and a default runtime's
``memory_bytes()`` once a whole family is registered.  A change to an
operator's signature input moves the first; a change to any parameter's
bytes moves the second; a change to what the runtime accounts moves the
third.

Training and dense products go through BLAS, so every golden table is keyed
by the CPU kernel numpy's bundled OpenBLAS dispatched to (read through
ctypes; set ``OPENBLAS_CORETYPE`` to force another -- Zen reports Haswell,
Prescott reports Katmai).  AC's trained PCA and KMeans weights differ per
kernel, which moves its signatures and, on the pre-AVX2 kernels, its stored
bytes; SA's registration pins and batch digest are the same on every kernel.
On a kernel with no entry the tests fail and name it: compute its values
there and add them, rather than skipping.
"""

import bisect
import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from repro.core.config import PretzelConfig
from repro.core.engines import execute_plan_stage_columns
from repro.core.runtime import PretzelRuntime
from repro.operators.batch import ColumnBatch
from repro.serving import PretzelCluster

#: OpenBLAS kernel -> family -> digest of ``PretzelRuntime.predict`` outputs
GOLDEN = {
    "SkylakeX": {"sa": "58d0cd57d631f267", "ac": "60b7719a7d25498c"},
    "Haswell": {"sa": "71c1723c2f8e8f29", "ac": "a9bf9857cacdaf70"},
    "Sandybridge": {"sa": "b643d7bb63ee6033", "ac": "88e34db5f21df615"},
    "Katmai": {"sa": "31c530e625f42271", "ac": "3aaa8011e9a250d1"},
}
#: first 16 hex digits of the SHA-256 of the families' stage signatures
GOLDEN_SIGNATURES = {
    "SkylakeX": {"sa": "6a5f66c6eb26b0e1", "ac": "8db2a83f39680dd5"},
    "Haswell": {"sa": "6a5f66c6eb26b0e1", "ac": "2866f2a34ef78ef6"},
    "Sandybridge": {"sa": "6a5f66c6eb26b0e1", "ac": "c390cafc7e2e47fd"},
    "Katmai": {"sa": "6a5f66c6eb26b0e1", "ac": "59609dff68bc350e"},
}
#: every worker's Object Store: (unique_parameters, memory_bytes)
GOLDEN_WORKER_STORE = {
    "SkylakeX": {"sa": (187, 657_478), "ac": (365, 233_383)},
    "Haswell": {"sa": (187, 657_478), "ac": (365, 233_383)},
    "Sandybridge": {"sa": (187, 657_478), "ac": (365, 233_223)},
    "Katmai": {"sa": (187, 657_478), "ac": (365, 233_223)},
}
#: OpenBLAS kernel -> family -> digest of ``predict_batch`` at ``BATCH`` records
GOLDEN_BATCH = {
    "SkylakeX": {"sa": "6ccdbd9b8895f718", "ac": "7592016e35403d42"},
    "Haswell": {"sa": "6ccdbd9b8895f718", "ac": "1cb8b44db2391ffe"},
    "Sandybridge": {"sa": "6ccdbd9b8895f718", "ac": "7da7c16f282e14bd"},
    "Katmai": {"sa": "6ccdbd9b8895f718", "ac": "12ab74231c094a1b"},
}
#: OpenBLAS kernel -> digest of every column each AC stage publishes over
#: ``BATCH`` records (plans in family order, stages in plan order)
GOLDEN_AC_STAGE_COLUMNS = {
    "SkylakeX": "e2a648a43424d909",
    "Haswell": "19bc9fd3e1107cc2",
    "Sandybridge": "af0086489d1ad56c",
    "Katmai": "e473e89158b2a17a",
}
#: a default runtime's ``memory_bytes()`` with the whole family registered
GOLDEN_MEMORY_BYTES = {
    "SkylakeX": {"sa": 12_320_550, "ac": 2_576_295},
    "Haswell": {"sa": 12_320_550, "ac": 2_576_295},
    "Sandybridge": {"sa": 12_320_550, "ac": 2_576_135},
    "Katmai": {"sa": 12_320_550, "ac": 2_576_135},
}

#: the harness's run seed, record count and length stratification
#: (``benchmarks/harness/families.py``)
SEED = 7
RECORDS = 32
BATCH = 100
STRATUM = 8
REFERENCE_SEED = 0


def _records(family, seed=SEED, count=RECORDS):
    """The harness's length-stratified draw: the lengths of the reference
    seed's stratified sample, each matched by the nearest-length record of
    ``seed``'s own pool."""
    reference = sorted(family.sample_inputs(count * STRATUM, seed=REFERENCE_SEED), key=len)
    pool = sorted(family.sample_inputs(count * STRATUM, seed=seed), key=len)
    lengths = [len(record) for record in pool]
    chosen = []
    for target in map(len, reference[STRATUM // 2 :: STRATUM]):
        index = bisect.bisect_left(lengths, target)
        if index == len(lengths) or (
            index > 0 and target - lengths[index - 1] <= lengths[index] - target
        ):
            index -= 1
        chosen.append(pool.pop(index))
        lengths.pop(index)
    return chosen


def _openblas_kernel():
    """The CPU kernel numpy's bundled OpenBLAS runs (``"unknown"`` if none)."""
    libraries = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libraries, "*openblas*"))):
        library = ctypes.CDLL(path)  # numpy loaded it already: same handle
        # numpy >= 2 bundles scipy-openblas; numpy 1.x bundled openblas64_
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_char_p
                return function().decode()
    return "unknown"


def _golden(table):
    """This host's row of a kernel-keyed golden table; fails naming a missing kernel."""
    kernel = _openblas_kernel()
    assert kernel in table, f"no golden digests for OpenBLAS kernel {kernel!r}"
    return table[kernel]


def test_a_kernel_with_no_golden_row_fails_naming_it(monkeypatch):
    monkeypatch.setitem(_golden.__globals__, "_openblas_kernel", lambda: "NoSuchCore")
    for table in (GOLDEN, GOLDEN_BATCH, GOLDEN_AC_STAGE_COLUMNS):
        with pytest.raises(AssertionError, match="no golden digests for OpenBLAS kernel 'NoSuchCore'"):
            _golden(table)


def _digest(outputs):
    assert all(type(value) is float for value in outputs)
    return hashlib.sha256("".join(value.hex() for value in outputs).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def harness_families(harness_sa_family, harness_ac_family):
    """The session's harness families (the root ``conftest.py``) and their records."""
    families = {"sa": harness_sa_family, "ac": harness_ac_family}
    return {name: (family, _records(family)) for name, family in families.items()}


def test_runtime_outputs_match_the_golden_digests(harness_families):
    config = PretzelConfig(enable_stage_batching=False, enable_profiling=False)
    for name, (family, records) in harness_families.items():
        with PretzelRuntime(config) as runtime:
            outputs = []
            for generated in family.pipelines:
                plan_id = runtime.register(generated.pipeline, stats=generated.stats)
                outputs.extend(runtime.predict(plan_id, record) for record in records)
        assert len(outputs) == 60 * RECORDS
        assert _digest(outputs) == _golden(GOLDEN)[name], name


def test_a_two_worker_cluster_serves_the_golden_digests(harness_families):
    # One replica per plan: the hash ring spreads the plans, so both workers
    # serve (with two, every sequential predict would go to worker-0).
    config = PretzelConfig(num_workers=2, placement_replicas=1)
    with PretzelCluster(config) as cluster:
        for name, (family, records) in harness_families.items():
            outputs = []
            for generated in family.pipelines:
                plan_id = cluster.register(generated.pipeline, stats=generated.stats)
                outputs.extend(cluster.predict(plan_id, record) for record in records)
            assert _digest(outputs) == _golden(GOLDEN)[name], name
        assert all(worker["served_predictions"] for worker in cluster.stats()["workers"].values())
        # every predict took the straight line: a PZF1 frame out, PZR2 back
        wire = cluster.wire_stats()
        assert wire["binary_messages"] == wire["binary_replies"] == 2 * 60 * RECORDS


def _batch_digest(host, family, records):
    """Digest of ``predict_batch`` over every plan of ``family``, served by
    ``host`` (a runtime or a cluster: both register and batch alike)."""
    outputs = []
    for generated in family.pipelines:
        plan_id = host.register(generated.pipeline, stats=generated.stats, engine="batch")
        outputs.extend(host.predict_batch(plan_id, records))
    assert len(outputs) == len(family.pipelines) * len(records)
    return _digest(outputs)


def test_predict_batch_outputs_match_the_golden_digests(harness_families):
    config = PretzelConfig(enable_stage_batching=True, placement_replicas=1)
    batches = {name: _records(family, count=BATCH) for name, (family, _) in harness_families.items()}
    in_process = {}
    for name, (family, _records_) in harness_families.items():
        with PretzelRuntime(config) as runtime:
            in_process[name] = _batch_digest(runtime, family, batches[name])
    assert in_process == _golden(GOLDEN_BATCH)
    with PretzelCluster(config) as cluster:
        for name, (family, _records_) in harness_families.items():
            assert _batch_digest(cluster, family, batches[name]) == in_process[name], name


def _column_bytes(column):
    """A stage output column's values as bytes, tagged with its storage form."""
    matrix = column.dense_matrix()
    if matrix is not None:
        return b"dense" + np.ascontiguousarray(matrix, dtype=np.float64).tobytes()
    csr = column.sparse_csr()
    if csr is not None:
        indptr, indices, data, width = csr
        arrays = (np.asarray(indptr, np.int64), np.asarray(indices, np.int64), data)
        return b"csr%d" % width + b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    scalars = column.scalar_array()
    assert scalars is not None, f"a stage published a {column.kind} column"
    return b"scalar" + np.ascontiguousarray(scalars, dtype=np.float64).tobytes()


def test_every_ac_stage_column_matches_the_golden_digest(harness_families):
    family, _records_ = harness_families["ac"]
    records = ColumnBatch.from_rows(_records(family, count=BATCH))
    digest = hashlib.sha256()
    with PretzelRuntime(PretzelConfig(enable_stage_batching=True)) as runtime:
        for generated in family.pipelines:
            plan = runtime.plan(runtime.register(generated.pipeline, stats=generated.stats))
            columns = {}
            for stage in plan.stages:  # the stage loop of ``predict_batch``
                execute_plan_stage_columns(stage, records, columns)
                for key in stage.output_keys:
                    digest.update(_column_bytes(columns[key]))
    assert digest.hexdigest()[:16] == _golden(GOLDEN_AC_STAGE_COLUMNS)


def test_stage_signatures_match_the_golden_digests(harness_families):
    for name, (family, _records) in harness_families.items():
        with PretzelRuntime(PretzelConfig()) as runtime:
            signatures = []
            for generated in family.pipelines:
                plan = runtime.plan(runtime.register(generated.pipeline, stats=generated.stats))
                signatures.extend(stage.physical.full_signature for stage in plan.stages)
        digest = hashlib.sha256("\n".join(signatures).encode()).hexdigest()[:16]
        assert digest == _golden(GOLDEN_SIGNATURES)[name], name


def test_every_worker_object_store_holds_the_golden_parameters(harness_families):
    for name, (family, _records) in harness_families.items():
        with PretzelCluster(PretzelConfig(num_workers=2)) as cluster:
            for generated in family.pipelines:
                cluster.register(generated.pipeline, stats=generated.stats)
            workers = cluster.stats()["workers"]
        assert len(workers) == 2
        for worker_id, worker in workers.items():
            store = worker["stats"]["object_store"]
            pinned = (store["unique_parameters"], store["memory_bytes"])
            assert pinned == _golden(GOLDEN_WORKER_STORE)[name], (name, worker_id)


def test_runtime_memory_bytes_match_the_golden_values(harness_families):
    for name, (family, _records_) in harness_families.items():
        with PretzelRuntime(PretzelConfig()) as runtime:
            for generated in family.pipelines:
                runtime.register(generated.pipeline, stats=generated.stats)
            assert runtime.memory_bytes() == _golden(GOLDEN_MEMORY_BYTES)[name], name
