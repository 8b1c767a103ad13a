"""Unit tests for the named-lock wait profiler and its ``stats()`` wiring.

A holder thread parked on an event makes every contended acquisition
deterministic.
"""

import importlib
import threading

import pytest

from repro import profiling
from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.profiling import GLOBAL_LOCK_REGISTRY
from repro.profiling.locks import LockWaitRegistry, ProfiledLock, ProfiledRLock


# -- named locks ----------------------------------------------------------------


def test_uncontended_acquire_records_no_wait():
    registry = LockWaitRegistry()
    lock = ProfiledLock("t.uncontended", registry=registry)
    for _ in range(5):
        with lock:
            pass
    stats = registry.snapshot()["t.uncontended"]
    assert stats["acquisitions"] == 5
    assert stats["contended"] == 0
    assert stats["wait_seconds"] == 0.0


def test_contended_acquire_records_wait_time():
    registry = LockWaitRegistry()
    lock = ProfiledLock("t.contended", registry=registry)
    entered = threading.Event()
    release = threading.Event()

    def holder():
        with lock:
            entered.set()
            release.wait(timeout=5.0)

    thread = threading.Thread(target=holder)
    thread.start()
    assert entered.wait(timeout=5.0)
    # Deterministic contention: the holder owns the lock until ``release``.
    timer = threading.Timer(0.05, release.set)
    timer.start()
    with lock:
        pass
    thread.join(timeout=5.0)
    timer.cancel()
    stats = registry.snapshot()["t.contended"]
    assert stats["acquisitions"] == 2
    assert stats["contended"] == 1
    assert stats["wait_seconds"] >= 0.02


def test_nonblocking_acquire_contract():
    lock = ProfiledLock("t.nonblocking", registry=LockWaitRegistry())
    assert lock.acquire(blocking=False)
    assert lock.locked()
    # A second non-blocking attempt fails without recording a wait.
    result = []
    thread = threading.Thread(target=lambda: result.append(lock.acquire(blocking=False)))
    thread.start()
    thread.join(timeout=5.0)
    assert result == [False]
    lock.release()


def test_rlock_reentrancy_stays_on_fast_path():
    registry = LockWaitRegistry()
    lock = ProfiledRLock("t.reentrant", registry=registry)
    with lock:
        with lock:
            with lock:
                pass
    stats = registry.snapshot()["t.reentrant"]
    assert stats["acquisitions"] == 3
    assert stats["contended"] == 0


def test_locks_sharing_a_name_share_one_accumulator():
    registry = LockWaitRegistry()
    first = ProfiledLock("t.shared", registry=registry)
    second = ProfiledLock("t.shared", registry=registry)
    with first:
        pass
    with second:
        pass
    assert registry.snapshot()["t.shared"]["acquisitions"] == 2


def test_registry_reset_zeroes_but_keeps_recording():
    registry = LockWaitRegistry()
    lock = ProfiledLock("t.reset", registry=registry)
    with lock:
        pass
    registry.reset()
    assert registry.snapshot()["t.reset"]["acquisitions"] == 0
    with lock:
        pass
    assert registry.snapshot()["t.reset"]["acquisitions"] == 1


# -- package surface ------------------------------------------------------------


def _contend(lock):
    """One contended acquisition of ``lock``: a holder thread keeps it until
    the main thread is about to block on it."""
    held = threading.Event()
    release = threading.Event()

    def holder():
        with lock:
            held.set()
            release.wait(timeout=10.0)

    thread = threading.Thread(target=holder)
    thread.start()
    assert held.wait(timeout=5.0)
    timer = threading.Timer(0.02, release.set)
    timer.start()
    with lock:
        pass
    thread.join(timeout=5.0)
    timer.join(timeout=5.0)


def test_module_snapshot_is_the_global_lock_registry():
    lock = ProfiledLock("t.module.snapshot")
    _contend(lock)
    snapshot = profiling.snapshot()
    assert set(snapshot) == {"locks"}
    row = snapshot["locks"]["t.module.snapshot"]
    assert row == GLOBAL_LOCK_REGISTRY.snapshot()["t.module.snapshot"]
    assert row["acquisitions"] == 2
    assert row["contended"] == 1
    assert row["wait_seconds"] > 0


def test_module_reset_zeroes_the_global_registry():
    lock = ProfiledLock("t.module.reset")
    _contend(lock)
    profiling.reset()
    row = profiling.snapshot()["locks"]["t.module.reset"]
    assert row["acquisitions"] == 0
    assert row["contended"] == 0
    assert row["wait_seconds"] == 0.0
    with lock:
        pass
    assert profiling.snapshot()["locks"]["t.module.reset"]["acquisitions"] == 1


def test_stop_is_a_no_op():
    """``stop()`` starts, stops and clears nothing, however often it runs."""
    lock = ProfiledLock("t.module.stop")
    with lock:
        pass
    threads_before = set(threading.enumerate())
    assert profiling.stop() is None
    profiling.stop()
    assert set(threading.enumerate()) == threads_before
    assert profiling.snapshot()["locks"]["t.module.stop"]["acquisitions"] == 1


def test_package_carries_no_sampler():
    for name in (
        "SamplingProfiler",
        "DEFAULT_INTERVAL_SECONDS",
        "profiler",
        "ensure_started",
    ):
        assert not hasattr(profiling, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.profiling.sampler")


# -- runtime wiring -------------------------------------------------------------


def test_runtime_stats_carry_profile_payload():
    runtime = PretzelRuntime(PretzelConfig())
    try:
        stats = runtime.stats()
        profile = stats["profile"]
        assert set(profile) == {"locks"}
        # The scheduler's profiled locks registered under their names.
        assert any(
            name.startswith("scheduler.") for name in profile["locks"]
        ), profile["locks"]
    finally:
        runtime.shutdown()


def test_runtime_profile_gated_by_config():
    runtime = PretzelRuntime(PretzelConfig(enable_profiling=False))
    try:
        assert "profile" not in runtime.stats()
    finally:
        runtime.shutdown()


def test_global_registry_reports_runtime_locks():
    # The process-global registry aggregates by name; a runtime's scheduler
    # locks must record acquisitions there during normal operation.
    runtime = PretzelRuntime(PretzelConfig())
    try:
        runtime.stats()
    finally:
        runtime.shutdown()
    names = set(GLOBAL_LOCK_REGISTRY.snapshot())
    assert any(name.startswith("scheduler.") for name in names)
