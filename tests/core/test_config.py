"""PretzelConfig carries only knobs the runtime reads.

Fields that no caller set and that only selected alternate code paths were
deleted; passing one now fails loudly instead of being silently ignored.
Every remaining field must be read somewhere in the package, so a knob that
loses its last reader is caught here rather than lingering as dead surface.
"""

import dataclasses
import functools
import re
from pathlib import Path

import pytest

import repro
from repro.core.config import PretzelConfig

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
    assert len(FIELDS) == 19


@pytest.mark.parametrize("name", FIELDS)
def test_remaining_field_is_read_by_the_package(name):
    assert re.search(rf"\.{name}\b", _package_source_without_config()), name
