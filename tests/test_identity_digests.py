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
"""

import bisect
import hashlib

import pytest

from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.serving import PretzelCluster

GOLDEN = {"sa": "58d0cd57d631f267", "ac": "60b7719a7d25498c"}

#: the harness's run seed, record count and length stratification
#: (``benchmarks/harness/families.py``)
SEED = 7
RECORDS = 32
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
        assert _digest(outputs) == GOLDEN[name], name


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
            assert _digest(outputs) == GOLDEN[name], name
        assert all(worker["served_predictions"] for worker in cluster.stats()["workers"].values())
        # every predict took the straight line: a PZF1 frame out, PZR2 back
        wire = cluster.wire_stats()
        assert wire["binary_messages"] == wire["binary_replies"] == 2 * 60 * RECORDS
