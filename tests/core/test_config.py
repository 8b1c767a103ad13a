"""PretzelConfig carries only knobs the runtime reads.

Fields that no caller set and that only selected alternate code paths were
deleted; passing one now fails loudly instead of being silently ignored.
Every remaining field must be read somewhere in the package, so a knob that
loses its last reader is caught here rather than lingering as dead surface,
and every boolean knob must change something a caller can observe when it
is flipped (``KNOB_PROBES``), so a switch that reads but no longer decides
anything is caught too.
"""

import dataclasses
import functools
import re
from pathlib import Path

import pytest

import repro
from repro import observability
from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime

DELETED_FIELDS = (
    "arena_concurrency",
    "scheduler_shards",
    "failover_policy",
    "arena_codec",
    "arena_min_compress_ratio",
    "arena_cold_compress_ema",
    "profiler_interval_seconds",
    "runtime_overhead_bytes",
    "per_plan_overhead_bytes",
    "vector_pool_entries",
    "arena_eviction_policy",
    "mp_start_method",
    "transport",
    "enable_vector_pooling",
)

FIELDS = [field.name for field in dataclasses.fields(PretzelConfig)]
PACKAGE = Path(repro.__file__).resolve().parent


@functools.lru_cache(maxsize=None)
def _package_source_without_config() -> str:
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "core" / "config.py"
    )


@pytest.mark.parametrize("name", DELETED_FIELDS)
def test_deleted_field_is_rejected(name):
    with pytest.raises(TypeError):
        PretzelConfig(**{name: None})


def test_field_count():
    assert len(FIELDS) == 18


@pytest.mark.parametrize("name", FIELDS)
def test_remaining_field_is_read_by_the_package(name):
    assert re.search(rf"\.{name}\b", _package_source_without_config()), name



# Each probe builds a runtime from ``config``, drives it, and returns what the
# knob under test should change.


def _object_store_probe(config, sa, sa_variant, inputs):
    # two registrations of one pipeline: shared parameters are counted once
    with PretzelRuntime(config) as runtime:
        runtime.register(sa)
        runtime.register(sa)
        return runtime.memory_bytes()


def _aot_probe(config, sa, sa_variant, inputs):
    with PretzelRuntime(config) as runtime:
        plan = runtime.plan(runtime.register(sa))
        return [stage.physical.is_compiled for stage in plan.stages]


def _materialization_probe(config, sa, sa_variant, inputs):
    with PretzelRuntime(config) as runtime:
        for plan_id in (runtime.register(sa), runtime.register(sa_variant)):
            runtime.predict(plan_id, inputs[0])
        return runtime.materializer.stats()["hits"]


def _stage_batching_probe(config, sa, sa_variant, inputs):
    with PretzelRuntime(config) as runtime:
        runtime.predict_batch(runtime.register(sa), inputs[:4])
        return runtime.stats()["stage_batching"]["batches"]


def _profiling_probe(config, sa, sa_variant, inputs):
    with PretzelRuntime(config) as runtime:
        return "profile" in runtime.stats()


def _tracing_probe(config, sa, sa_variant, inputs):
    with PretzelRuntime(config.clone(trace_sample_rate=1)) as runtime:
        observability.tracer().clear()
        runtime.predict(runtime.register(sa), inputs[0])
        return len(observability.tracer().dump(drain=True))


#: one probe per boolean knob: what flipping it changes that a caller can see
KNOB_PROBES = {
    "enable_object_store": _object_store_probe,
    "enable_aot_compilation": _aot_probe,
    "enable_subplan_materialization": _materialization_probe,
    "enable_stage_batching": _stage_batching_probe,
    "enable_profiling": _profiling_probe,
    "enable_tracing": _tracing_probe,
}


def test_every_boolean_knob_has_a_probe():
    fields = dataclasses.fields(PretzelConfig)
    booleans = [field.name for field in fields if field.type in (bool, "bool")]
    assert sorted(KNOB_PROBES) == sorted(booleans)


@pytest.mark.parametrize("name", sorted(KNOB_PROBES))
def test_flipping_a_boolean_knob_changes_what_the_runtime_does(
    name, sa_pipeline, sa_pipeline_variant, sa_inputs
):
    probe = KNOB_PROBES[name]
    observed = [
        probe(PretzelConfig(**{name: flag}), sa_pipeline, sa_pipeline_variant, sa_inputs)
        for flag in (False, True)
    ]
    assert observed[0] != observed[1], (name, observed)
