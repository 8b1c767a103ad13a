"""Tiered parameter memory: compressed-tier state machine, end to end.

Covers the ``arena_eviction_policy="compress-tiered"`` ladder: budget
pressure compresses the coldest plan's slabs in place instead of evicting
them, the first request touching the demoted plan rehydrates (decompress +
re-ship refs + workers re-adopt) before dispatch, incompressible plans skip
to the privatize-then-evict final tier, and with the tier disabled the
eviction behaviour and stats surface stay byte-identical to the plain
"traffic-ema" policy.
"""

import threading

import numpy as np
import pytest

from repro.core.config import PretzelConfig
from repro.mlnet.pipeline import Pipeline
from repro.operators.linear import LinearRegressor
from repro.serving import PretzelCluster


def _config(**overrides):
    defaults = dict(
        num_workers=2,
        placement_replicas=2,
        shm_budget_bytes=8 * 1024 * 1024,
        shm_min_parameter_bytes=1024,
        worker_timeout_seconds=60.0,
        arena_eviction_policy="compress-tiered",
    )
    defaults.update(overrides)
    return PretzelConfig(**defaults)


def _linear_pipeline(name, seed, n=4096):
    """One-node linear plan with distinct, highly compressible weights."""
    weights = ((np.arange(n, dtype=np.float64) % 17) + seed) * 0.25
    pipeline = Pipeline(name)
    pipeline.add("linear", LinearRegressor(weights=weights, bias=0.5), ["input"])
    return pipeline


_RECORD = [1.0] * 4096


def _probe_plan_bytes():
    """Arena bytes one linear plan costs (slab rounding included)."""
    with PretzelCluster(_config()) as probe:
        probe.register(_linear_pipeline("probe", seed=0), plan_id="probe")
        return probe.arena.stats()["allocated_bytes"]


def test_pressure_compresses_coldest_plan_then_first_touch_rehydrates():
    """The tiering smoke scenario (also run by CI): registrations past the
    budget land in the compressed tier instead of being evicted, one
    request triggers exactly the rehydration flow, and every prediction is
    bit-equal to the plan's pre-demotion output."""
    per_plan = _probe_plan_bytes()
    # Room for ~1.5 plans: the second registration must demote the first.
    with PretzelCluster(_config(shm_budget_bytes=per_plan + per_plan // 2)) as cluster:
        cold = _linear_pipeline("cold", seed=1)
        warm = _linear_pipeline("warm", seed=2)
        cluster.register(cold, plan_id="cold")
        before = cluster.predict("cold", _RECORD)
        assert before == pytest.approx(cold.predict(_RECORD))

        cluster.register(warm, plan_id="warm")

        stats = cluster.stats()
        assert stats["control_plane"]["arena_compressions"] >= 1
        assert stats["control_plane"]["arena_evictions"] == 0
        assert stats["arena"]["tier"]["compressions"] >= 1
        assert stats["arena"]["tier"]["compressed_parameters"] >= 1
        assert cluster.lifecycle.tier_of("cold") == "compressed"
        # The squeezed footprint is what made room for the second plan.
        assert stats["arena"]["used_bytes"] <= cluster.arena.budget_bytes

        # First touch of the demoted plan: rehydrate, re-adopt, serve --
        # and the output is bit-identical to the pre-demotion prediction.
        after = cluster.predict("cold", _RECORD)
        assert after == before
        assert cluster.lifecycle.tier_of("cold") == "resident"
        control = cluster.stats()["control_plane"]
        assert control["rehydrations"] == 1
        assert control["p99_rehydration_seconds"] is not None
        # Zero lost predictions either side of the transition.
        assert cluster.predict("warm", _RECORD) == pytest.approx(warm.predict(_RECORD))


def test_state_machine_resident_compressed_rehydrated_evicted():
    """Walk one plan through every tier transition, asserting bit-equality
    of outputs and exact arena bookkeeping at each step."""
    with PretzelCluster(_config(num_workers=1, placement_replicas=1)) as cluster:
        pipeline = _linear_pipeline("plan", seed=3)
        cluster.register(pipeline, plan_id="plan")
        resident_output = cluster.predict("plan", _RECORD)
        checksums = cluster.lifecycle.checksums("plan")
        assert checksums and cluster.lifecycle.tier_of("plan") == "resident"

        # resident -> compressed (the demotion the pressure path runs; it
        # acquires the victim's plan lock itself).
        assert cluster._demote_plan_compressed("plan", frozenset())
        assert cluster.lifecycle.tier_of("plan") == "compressed"
        for checksum in checksums:
            assert cluster.arena.is_compressed(checksum)
        tier = cluster.arena.stats()["tier"]
        assert tier["compressed_parameters"] == len(checksums)
        assert tier["compressed_payload_bytes"] < tier["compressed_original_bytes"]

        # compressed -> rehydrated, triggered by the first request.
        assert cluster.predict("plan", _RECORD) == resident_output
        assert cluster.lifecycle.tier_of("plan") == "resident"
        for checksum in checksums:
            assert not cluster.arena.is_compressed(checksum)
            assert cluster.arena.get(checksum) is not None
        assert cluster.predict("plan", _RECORD) == resident_output

        # rehydrated -> evicted (unregister frees the resident slabs).
        cluster.unregister("plan")
        assert cluster.arena.stats()["used_bytes"] == 0
        with pytest.raises(KeyError):
            cluster.predict("plan", _RECORD)


def test_unregister_while_compressed_frees_payload_slabs():
    with PretzelCluster(_config(num_workers=1, placement_replicas=1)) as cluster:
        cluster.register(_linear_pipeline("plan", seed=4), plan_id="plan")
        assert cluster._demote_plan_compressed("plan", frozenset())
        assert cluster.arena.stats()["tier"]["compressed_parameters"] == 1
        cluster.unregister("plan")
        stats = cluster.arena.stats()
        assert stats["used_bytes"] == 0
        assert stats["tier"]["compressed_parameters"] == 0


def test_incompressible_plan_falls_through_to_eviction():
    """Slabs that refuse to compress skip the tier: the final response is
    today's privatize-then-evict path, and the victim keeps serving."""

    def _noise_pipeline(name, seed):
        pipeline = Pipeline(name)
        pipeline.add(
            "linear",
            LinearRegressor(
                weights=np.random.default_rng(seed).standard_normal(4096), bias=0.0
            ),
            ["input"],
        )
        return pipeline

    per_plan = _probe_plan_bytes()
    with PretzelCluster(_config(shm_budget_bytes=per_plan + 1024)) as cluster:
        first = _noise_pipeline("first", seed=8)
        cluster.register(first, plan_id="first")
        cluster.register(_noise_pipeline("second", seed=9), plan_id="second")
        stats = cluster.stats()
        assert stats["arena"]["tier"]["failed_compressions"] >= 1
        assert stats["arena"]["tier"]["compressions"] == 0
        assert stats["control_plane"]["arena_evictions"] >= 1
        assert cluster.lifecycle.tier_of("first") == "resident"
        # The evicted plan serves from its privatized copies, bit-equal.
        assert cluster.predict("first", _RECORD) == pytest.approx(
            first.predict(_RECORD)
        )


def test_concurrent_registration_races_compression_pass():
    """A registration storm racing explicit (self-locking) compression
    passes must neither deadlock nor corrupt any plan's outputs."""
    with PretzelCluster(_config()) as cluster:
        cluster.register(_linear_pipeline("anchor", seed=5), plan_id="anchor")
        anchor_output = cluster.predict("anchor", _RECORD)
        errors = []
        done = threading.Event()

        def churn():
            try:
                for round_index in range(6):
                    plan_id = f"churn-{round_index}"
                    cluster.register(
                        _linear_pipeline(plan_id, seed=10 + round_index), plan_id=plan_id
                    )
                    cluster.predict(plan_id, _RECORD)
                    cluster.unregister(plan_id)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)
            finally:
                done.set()

        def compress():
            try:
                while not done.is_set():
                    cluster._demote_plan_compressed("anchor", frozenset())
                    cluster.predict("anchor", _RECORD)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=churn), threading.Thread(target=compress)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert cluster.predict("anchor", _RECORD) == anchor_output


def test_dispatch_retry_after_a_raced_demotion_cannot_be_demoted_again():
    """A dispatch that loses the race with a demotion's teardown rehydrates
    and retries once; a second demotion landing inside that retry (another
    thread's registration squeezing the arena) must be refused, or the
    retried round trip finds the plan torn down again and the caller gets a
    ``KeyError`` for a registered plan."""
    with PretzelCluster(_config(num_workers=1, placement_replicas=1)) as cluster:
        pipeline = _linear_pipeline("plan", seed=6)
        cluster.register(pipeline, plan_id="plan")
        expected = cluster.predict("plan", _RECORD)
        router = cluster.router
        original = router.acquire
        calls = []
        retry_demotions = []

        def racing_acquire(plan_id):
            # Each demotion lands after the router picked a worker and
            # before the predict round trip reaches it.
            worker_id = original(plan_id)
            calls.append(cluster.lifecycle.tier_of(plan_id))
            if len(calls) == 1:
                assert cluster._demote_plan_compressed(plan_id, frozenset())
            else:
                demoter = threading.Thread(
                    target=lambda: retry_demotions.append(
                        cluster._demote_plan_compressed(plan_id, frozenset())
                    )
                )
                demoter.start()
                demoter.join(timeout=30.0)
            return worker_id

        router.acquire = racing_acquire
        try:
            assert cluster.predict("plan", _RECORD) == expected
        finally:
            router.acquire = original
        assert calls == ["resident", "resident"]  # rehydrated before the retry
        assert retry_demotions == [False]
        assert cluster.lifecycle.tier_of("plan") == "resident"
        assert cluster.stats()["control_plane"]["rehydrations"] == 1


def test_traffic_ema_policy_stays_byte_identical_to_pre_tier_surface(
    sa_pipeline, sa_pipeline_variant, sa_inputs
):
    """With tiering disabled the eviction behaviour and the stats surface
    must be exactly PR 5's: same keys, no tier section, plain demotion."""
    with PretzelCluster(_config(arena_eviction_policy="traffic-ema")) as probe:
        probe.register(sa_pipeline, plan_id="probe")
        per_plan = probe.arena.stats()["allocated_bytes"]
    config = _config(
        shm_budget_bytes=per_plan + 1024, arena_eviction_policy="traffic-ema"
    )
    with PretzelCluster(config) as cluster:
        cluster.register(sa_pipeline, plan_id="cold")
        cluster.register(sa_pipeline_variant, plan_id="warm")
        stats = cluster.stats()
        assert stats["control_plane"]["arena_evictions"] >= 1
        assert set(stats["arena"]) == {
            "segment",
            "budget_bytes",
            "used_bytes",
            "allocated_bytes",
            "parameters",
            "dedup_hits",
            "allocations",
            "frees",
            "free_slabs",
            "free_slab_bytes",
        }
        assert set(stats["control_plane"]) == {
            "transport",
            "arena_eviction_policy",
            "heartbeat_interval_seconds",
            "failovers",
            "plans_failed_over",
            "arena_evictions",
            "unregistered_plans",
            "heartbeats_sent",
            "heartbeat_ages_seconds",
            "worker_states",
            "dead_workers",
            "lifecycle",
        }
        assert "tiers" not in stats["control_plane"]["lifecycle"]
        assert cluster.predict("cold", sa_inputs[0]) == pytest.approx(
            sa_pipeline.predict(sa_inputs[0])
        )
