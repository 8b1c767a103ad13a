"""Unit tests for the always-on profiler: named locks + sampling attribution.

The sampler's attribution logic is driven deterministically through
``sample_once`` against threads parked at known points -- no wall-clock
sampling, no flaky sleeps on the assertion path.
"""

import gc
import threading
import time
import weakref

import pytest

from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.profiling import GLOBAL_LOCK_REGISTRY
from repro.profiling.locks import LockWaitRegistry, ProfiledLock, ProfiledRLock
from repro.profiling.sampler import SamplingProfiler


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


# -- sampler --------------------------------------------------------------------


class _Stage:
    def __init__(self, full_signature):
        self.full_signature = full_signature


def _marked_wait(physical, entered, release):
    """Stand-in for the engine's stage executor: ``physical`` is the local
    the sampler reads the signature from."""
    entered.set()
    release.wait(timeout=10.0)


def test_sample_once_attributes_stage_and_function():
    profiler = SamplingProfiler(interval_seconds=0.001)
    profiler.register_stage_marker(_marked_wait, "physical")
    entered = threading.Event()
    release = threading.Event()
    thread = threading.Thread(
        target=_marked_wait, args=(_Stage("stage::sig"), entered, release)
    )
    thread.start()
    try:
        assert entered.wait(timeout=5.0)
        sampled = profiler.sample_once()
        assert sampled >= 1
    finally:
        release.set()
        thread.join(timeout=5.0)
    snapshot = profiler.snapshot()
    assert snapshot["samples"] >= 1
    assert "stage::sig" in snapshot["stages"]
    stage = snapshot["stages"]["stage::sig"]
    assert stage["samples"] >= 1
    assert stage["est_self_seconds"] > 0
    assert 0 < stage["share"] <= 1
    # The parked thread's top-of-stack is inside Event.wait.
    assert any(
        "wait" in entry["function"] for entry in snapshot["top_functions"]
    )


class _Payload:
    pass


def _hold(payload_ref, entered, release):
    payload = _Payload()  # a local the sampled frame keeps alive while it runs
    payload_ref.append(weakref.ref(payload))
    entered.set()
    release.wait(timeout=10.0)


def test_sample_once_keeps_no_sampled_frame_alive():
    """Once a sampled function returns, its locals die at once: the sampler
    leaves no reference cycle that only the cyclic collector would break."""
    profiler = SamplingProfiler(interval_seconds=0.001)
    payload_ref = []
    entered = threading.Event()
    release = threading.Event()
    thread = threading.Thread(target=_hold, args=(payload_ref, entered, release))
    enabled = gc.isenabled()
    gc.disable()
    try:
        thread.start()
        assert entered.wait(timeout=5.0)
        assert profiler.sample_once() >= 1
        release.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert payload_ref[0]() is None
    finally:
        release.set()
        if enabled:
            gc.enable()


def test_sample_once_without_marker_counts_functions_only():
    profiler = SamplingProfiler(interval_seconds=0.001)
    entered = threading.Event()
    release = threading.Event()
    thread = threading.Thread(
        target=_marked_wait, args=(_Stage("unregistered"), entered, release)
    )
    thread.start()
    try:
        assert entered.wait(timeout=5.0)
        profiler.sample_once()
    finally:
        release.set()
        thread.join(timeout=5.0)
    assert profiler.snapshot()["stages"] == {}


def test_start_stop_idempotent_and_reset():
    profiler = SamplingProfiler(interval_seconds=0.001)
    profiler.start()
    profiler.start()  # idempotent
    assert profiler.running
    deadline = time.monotonic() + 5.0
    while profiler.ticks == 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    profiler.stop()
    profiler.stop()  # idempotent
    assert not profiler.running
    assert profiler.ticks > 0
    profiler.reset()
    assert profiler.samples == 0
    assert profiler.snapshot()["stages"] == {}


def test_rejects_non_positive_interval():
    with pytest.raises(ValueError):
        SamplingProfiler(interval_seconds=0.0)


# -- runtime wiring -------------------------------------------------------------


def test_runtime_stats_carry_profile_payload():
    runtime = PretzelRuntime(PretzelConfig())
    try:
        stats = runtime.stats()
        profile = stats["profile"]
        assert set(profile) == {"sampler", "locks"}
        assert profile["sampler"]["running"]
        assert profile["sampler"]["interval_seconds"] > 0
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
