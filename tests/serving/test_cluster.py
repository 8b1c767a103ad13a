"""End-to-end tests for the multi-process PretzelCluster."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.serving import BackpressureError, PretzelCluster, WorkerFailure


def _config(**overrides):
    defaults = dict(
        num_workers=2,
        placement_replicas=2,
        shm_budget_bytes=8 * 1024 * 1024,
        shm_min_parameter_bytes=1024,
        worker_timeout_seconds=60.0,
    )
    defaults.update(overrides)
    return PretzelConfig(**defaults)


def test_smoke_two_workers_two_plans_hundred_predictions(sa_pipeline, sa_pipeline_variant, sa_inputs):
    """The CI smoke scenario: a 2-worker cluster, two plans sharing their
    featurizers, 100 predictions bit-equal to the single-process runtime,
    and a clean shutdown."""
    with PretzelRuntime(PretzelConfig()) as runtime, PretzelCluster(_config()) as cluster:
        reference = {
            "a": runtime.register(sa_pipeline, plan_id="a"),
            "b": runtime.register(sa_pipeline_variant, plan_id="b"),
        }
        assert cluster.register(sa_pipeline, plan_id="a") == "a"
        assert cluster.register(sa_pipeline_variant, plan_id="b") == "b"
        served = 0
        while served < 100:
            for plan_id in ("a", "b"):
                record = sa_inputs[served % len(sa_inputs)]
                assert cluster.predict(plan_id, record) == pytest.approx(
                    runtime.predict(reference[plan_id], record)
                )
                served += 1
        stats = cluster.stats()
        assert stats["served_predictions"] >= 100
        assert stats["shed"] == 0
        assert stats["plans"] == 2
        assert stats["control_plane"]["failovers"] == 0
    # Shutdown is clean and idempotent; the facade then refuses to serve.
    cluster.shutdown()
    with pytest.raises(RuntimeError):
        cluster.predict("a", sa_inputs[0])


def test_predict_batch_matches_single_process(sa_pipeline, sa_inputs):
    with PretzelCluster(_config()) as cluster:
        plan_id = cluster.register(sa_pipeline)
        outputs = cluster.predict_batch(plan_id, sa_inputs)
        assert outputs == pytest.approx([sa_pipeline.predict(text) for text in sa_inputs])
        assert cluster.predict_batch(plan_id, []) == []


def test_parameter_sharing_across_workers(sa_pipeline, sa_pipeline_variant):
    """Both workers host both plans; array parameters land in the arena once
    and are excluded from every worker's private accounting."""
    with PretzelCluster(_config()) as cluster:
        cluster.register(sa_pipeline, plan_id="a")
        cluster.register(sa_pipeline_variant, plan_id="b")
        stats = cluster.stats()
        arena = stats["arena"]
        assert arena["parameters"] >= 2  # two distinct classifier weight arrays
        for worker_stats in stats["workers"].values():
            backing = worker_stats["stats"]["object_store"]["parameter_backing"]
            assert backing["adopted_parameters"] >= 2
            assert worker_stats["stats"]["object_store"]["shared_parameter_bytes"] > 0
        # Cluster accounting counts the shared bytes once, not per worker.
        assert stats["memory_bytes"] == sum(
            w["memory_bytes"] for w in stats["workers"].values()
        ) + arena["used_bytes"]
        assert cluster.memory_bytes() == stats["memory_bytes"]


def test_cluster_without_arena_still_serves(sa_pipeline, sa_inputs):
    with PretzelCluster(_config(shm_budget_bytes=0)) as cluster:
        plan_id = cluster.register(sa_pipeline)
        assert cluster.predict(plan_id, sa_inputs[0]) == pytest.approx(
            sa_pipeline.predict(sa_inputs[0])
        )
        assert cluster.stats()["arena"] is None


def test_registration_validation(sa_pipeline):
    with PretzelCluster(_config()) as cluster:
        cluster.register(sa_pipeline, plan_id="a")
        with pytest.raises(ValueError):
            cluster.register(sa_pipeline, plan_id="a")
        with pytest.raises(TypeError):
            cluster.register("not a pipeline")
        with pytest.raises(KeyError):
            cluster.predict("unregistered", "text")


def test_worker_failure_is_typed_and_non_fatal(sa_pipeline, sa_inputs):
    from repro.mlnet.pipeline import Pipeline
    from repro.operators import Tokenizer

    # Structurally broken: two sinks, so worker-side compilation must fail.
    broken = Pipeline("broken")
    broken.add("a", Tokenizer(), ["input"])
    broken.add("b", Tokenizer(), ["input"])
    with PretzelCluster(_config(shm_budget_bytes=0)) as cluster:
        plan_id = cluster.register(sa_pipeline)
        with pytest.raises(WorkerFailure) as excinfo:
            cluster.register(broken)
        assert excinfo.value.worker_id in cluster.worker_ids()
        assert "sink" in str(excinfo.value)
        # The failed registration is rolled back and the shard keeps serving.
        assert "broken" not in " ".join(cluster.plan_ids())
        assert cluster.predict(plan_id, sa_inputs[0]) == pytest.approx(
            sa_pipeline.predict(sa_inputs[0])
        )
        assert cluster.stats()["failed_requests"] >= 1


def test_partial_registration_rolls_back_and_id_stays_usable(
    sa_pipeline, sa_pipeline_variant, sa_inputs
):
    """If registration fails on the second placed worker, the first worker is
    unregistered and the plan id (and its placement) remains reusable."""
    with PretzelCluster(_config(shm_budget_bytes=0)) as cluster:
        placed = cluster.router.place("x")
        assert len(placed) == 2
        # Occupy the id on the *second* placed worker only, so the cluster's
        # registration succeeds on the first worker and fails on the second.
        from repro.serving.worker import encode_model

        cluster._workers[placed[1]].request(
            {
                "type": "register",
                "msg_id": -1,
                "plan_id": "x",
                "model_b64": encode_model(sa_pipeline, None),
            },
            timeout=60.0,
        )
        with pytest.raises(WorkerFailure) as excinfo:
            cluster.register(sa_pipeline_variant, plan_id="x")
        assert excinfo.value.worker_id == placed[1]
        assert "x" not in cluster.plan_ids()
        # Rollback unregistered the first worker: its runtime hosts no plans.
        first_stats = cluster.stats()["workers"][placed[0]]["stats"]
        assert first_stats["plans"] == 0
        # Clear the injected copy, then the same id registers cleanly.
        cluster._workers[placed[1]].request(
            {"type": "unregister", "msg_id": -2, "plan_id": "x"}, timeout=60.0
        )
        assert cluster.register(sa_pipeline_variant, plan_id="x") == "x"
        assert cluster.predict("x", sa_inputs[0]) == pytest.approx(
            sa_pipeline_variant.predict(sa_inputs[0])
        )


def test_admission_control_sheds_under_overload(sa_pipeline, sa_inputs):
    """Saturate both workers with long-running batches, then observe a typed
    shed (and its accounting) instead of unbounded queueing."""
    config = _config(max_inflight_per_worker=1)
    with PretzelCluster(config) as cluster:
        plan_id = cluster.register(sa_pipeline)
        big_batch = (sa_inputs * 2000)[:8000]
        workers_busy = threading.Barrier(3)
        results = []

        def flood():
            workers_busy.wait()
            results.append(len(cluster.predict_batch(plan_id, big_batch)))

        threads = [threading.Thread(target=flood) for _ in range(2)]
        for thread in threads:
            thread.start()
        workers_busy.wait()
        # Wait until both in-flight slots are held (the floods are dispatched),
        # then a third request must be shed deterministically: slots are only
        # released when a worker finishes its 8000-record batch.
        deadline = time.time() + 30.0
        while sum(cluster.router.stats()["inflight"].values()) < 2:
            assert time.time() < deadline, "floods never became in-flight"
            time.sleep(0.001)
        with pytest.raises(BackpressureError) as excinfo:
            cluster.predict(plan_id, sa_inputs[0])
        assert excinfo.value.plan_id == plan_id
        for thread in threads:
            thread.join()
        assert results == [8000, 8000]
        stats = cluster.stats()
        assert stats["shed"] >= 1
        assert stats["router"]["shed"] == stats["shed"]
        # No unbounded queue growth: admission control capped in-flight work.
        assert all(
            count <= config.max_inflight_per_worker
            for count in stats["router"]["inflight"].values()
        )


# -- control plane: fail-over, lifecycle ---------------------------


def test_batch_path_smoke_binary_frames(ac_pipeline):
    """The batch-path-smoke scenario: a 2-worker cluster serves a
    500-record ``predict_batch`` of structured numeric records, the records
    travel as one ``PZF1`` request frame and the outputs as one ``PZR2``
    reply frame, and every output matches the single-process oracle
    bit-for-bit."""
    from repro.workloads.events_data import generate_events

    records = generate_events(n_events=500, seed=123).records
    config = _config()
    with PretzelRuntime(PretzelConfig()) as runtime, PretzelCluster(config) as cluster:
        reference = runtime.register(ac_pipeline)
        plan_id = cluster.register(ac_pipeline)
        before = cluster.wire_stats()
        outputs = cluster.predict_batch(plan_id, records)
        wire = cluster.wire_stats()
        oracle = [runtime.predict(reference, record) for record in records]
        assert outputs == oracle  # bit-equal, not approx
        # The batch went out as one request frame and came back as one:
        # exactly one more binary request and one more binary reply.
        assert wire["binary_messages"] == before["binary_messages"] + 1
        assert wire["binary_replies"] == before["binary_replies"] + 1
        # The frame must actually be the smaller encoding on the wire.
        sent = wire["bytes_sent"] - before["bytes_sent"]
        from repro.net import serialize_message

        json_request_bytes = len(serialize_message({"records": records}))
        assert 0 < sent < json_request_bytes
        assert cluster.stats()["shed"] == 0


def test_failover_zero_lost_requests(sa_pipeline, sa_inputs):
    """The acceptance scenario (and the CI failover-smoke job): 4 clients
    stream predictions while one worker is killed mid-stream; every request
    completes via typed-retryable errors and the fail-over is counted in the
    control-plane stats."""
    from repro.serving import WorkerFailedError

    config = _config(
        heartbeat_interval_seconds=0.2,
        worker_timeout_seconds=30.0,
    )
    clients, per_client = 4, 25
    with PretzelCluster(config) as cluster:
        plan_id = cluster.register(sa_pipeline)
        results = [[] for _ in range(clients)]
        kill_at = threading.Barrier(clients + 1)

        def client(slot):
            for index in range(per_client):
                if index == per_client // 4:
                    kill_at.wait()  # line every client up around the kill
                record = sa_inputs[(slot + index) % len(sa_inputs)]
                deadline = time.time() + 60.0
                while True:
                    try:
                        results[slot].append(cluster.predict(plan_id, record))
                        break
                    except (WorkerFailedError, BackpressureError) as error:
                        assert error.retryable is True
                        assert time.time() < deadline, "retry never succeeded"
                        time.sleep(0.005)

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(clients)]
        for thread in threads:
            thread.start()
        kill_at.wait()
        victim = cluster.placement(plan_id)[0]
        cluster._workers[victim].process.kill()
        for thread in threads:
            thread.join(timeout=120.0)
        assert all(not thread.is_alive() for thread in threads)
        # Zero lost requests: every prediction completed, with correct values.
        expected = {
            record: sa_pipeline.predict(record) for record in sa_inputs
        }
        for slot in range(clients):
            assert len(results[slot]) == per_client
            for index, value in enumerate(results[slot]):
                record = sa_inputs[(slot + index) % len(sa_inputs)]
                assert value == pytest.approx(expected[record])
        stats = cluster.stats()
        control = stats["control_plane"]
        assert control["failovers"] == 1
        assert victim in control["dead_workers"]
        assert control["worker_states"][victim] == "dead"
        assert victim not in cluster.worker_ids()
        assert victim not in cluster.placement(plan_id)


def _running(pid):
    """True while ``pid`` exists and is not a zombie (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_workers_exit_when_their_cluster_is_killed():
    """A worker serves until its channel reads EOF, so no worker may keep a
    copy of any cluster-side socket open: a cluster killed without a
    shutdown must leave no worker behind.  The deadline is only a liveness
    bound; how fast the workers go is not asserted."""
    import repro

    script = (
        "import time\n"
        "from repro.core.config import PretzelConfig\n"
        "from repro.serving import PretzelCluster\n"
        "cluster = PretzelCluster(PretzelConfig(num_workers=2))\n"
        "print(*(handle.process.pid for handle in cluster._workers.values()), flush=True)\n"
        "time.sleep(600)\n"
    )
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=source_root)
    holder = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        pids = [int(pid) for pid in holder.stdout.readline().split()]
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 60.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids)), "a worker outlived its killed cluster"
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def test_failover_rehomes_single_replica_plans(sa_pipeline, sa_pipeline_variant, sa_inputs):
    """With replicas=1 a dead worker's plans must be re-registered onto the
    survivor (the registration path + arena adoption, reused)."""
    from repro.serving import WorkerFailedError

    config = _config(placement_replicas=1, heartbeat_interval_seconds=0.2)
    with PretzelCluster(config) as cluster:
        ids = [
            cluster.register(sa_pipeline, plan_id="a"),
            cluster.register(sa_pipeline_variant, plan_id="b"),
        ]
        hosted = {plan: cluster.placement(plan)[0] for plan in ids}
        victim = hosted["a"]
        victim_plans = [plan for plan, worker in hosted.items() if worker == victim]
        cluster._workers[victim].process.kill()
        for plan in ids:
            reference = sa_pipeline if plan == "a" else sa_pipeline_variant
            deadline = time.time() + 60.0
            while True:
                try:
                    value = cluster.predict(plan, sa_inputs[0])
                    break
                except WorkerFailedError:
                    assert time.time() < deadline
                    time.sleep(0.01)
            assert value == pytest.approx(reference.predict(sa_inputs[0]))
            assert victim not in cluster.placement(plan)
        control = cluster.stats()["control_plane"]
        assert control["failovers"] == 1
        assert control["plans_failed_over"] == len(victim_plans)


def test_idle_workers_are_pinged_and_stay_alive(sa_pipeline):
    config = _config(heartbeat_interval_seconds=0.1)
    with PretzelCluster(config) as cluster:
        cluster.register(sa_pipeline)
        deadline = time.time() + 10.0
        while cluster.control.heartbeats_sent == 0:
            assert time.time() < deadline, "no idle ping within 10s"
            time.sleep(0.02)
        control = cluster.stats()["control_plane"]
        assert set(control["worker_states"].values()) == {"alive"}
        assert control["heartbeat_interval_seconds"] == pytest.approx(0.1)
        assert all(age < 5.0 for age in control["heartbeat_ages_seconds"].values())


def test_unregister_reclaims_exclusive_slabs(sa_pipeline, sa_pipeline_variant, sa_inputs):
    """The acceptance criterion: after unregister, the plan's exclusively
    referenced slabs are back on the free lists and memory_bytes() drops;
    slabs shared with a surviving plan stay live until the *last* plan
    referencing their checksum unregisters."""
    with PretzelCluster(_config()) as cluster:
        # "a" and "a2" are checksum-identical (every slab shared between
        # them); "b" has its own classifier weights (exclusive slabs).
        cluster.register(sa_pipeline, plan_id="a")
        cluster.register(sa_pipeline, plan_id="a2")
        cluster.register(sa_pipeline_variant, plan_id="b")
        arena_before = cluster.arena.stats()
        assert arena_before["free_slabs"] == 0
        memory_before = cluster.memory_bytes()
        exclusive_b = cluster.lifecycle.exclusive_checksums("b")
        shared_a = cluster.lifecycle.checksums("a")
        assert exclusive_b and shared_a
        assert cluster.lifecycle.exclusive_checksums("a") == set()

        cluster.unregister("b")

        arena_after = cluster.arena.stats()
        assert arena_after["frees"] == len(exclusive_b)
        assert arena_after["free_slabs"] == len(exclusive_b)
        assert arena_after["free_slab_bytes"] > 0
        assert arena_after["parameters"] == arena_before["parameters"] - len(exclusive_b)
        assert arena_after["used_bytes"] < arena_before["used_bytes"]
        assert cluster.memory_bytes() < memory_before
        # The unregistered id is gone end to end (router included).
        assert "b" not in cluster.plan_ids()
        with pytest.raises(KeyError):
            cluster.predict("b", sa_inputs[0])
        assert cluster.stats()["control_plane"]["unregistered_plans"] == 1

        # A slab frees only when the LAST plan referencing its checksum goes:
        # dropping "a" keeps everything live for "a2"...
        cluster.unregister("a")
        assert cluster.arena.stats()["frees"] == len(exclusive_b)
        for checksum in shared_a:
            assert cluster.arena.get(checksum) is not None
        assert cluster.predict("a2", sa_inputs[0]) == pytest.approx(
            sa_pipeline.predict(sa_inputs[0])
        )
        # ...and dropping "a2" finally releases the shared slabs too.
        cluster.unregister("a2")
        assert cluster.arena.stats()["frees"] == len(exclusive_b) + len(shared_a)
        assert cluster.arena.stats()["used_bytes"] == 0
        # Freed ids stay reusable; recycled slabs are re-populated safely.
        assert cluster.register(sa_pipeline, plan_id="a") == "a"
        assert cluster.predict("a", sa_inputs[0]) == pytest.approx(
            sa_pipeline.predict(sa_inputs[0])
        )


def test_unregister_unknown_plan_raises():
    with PretzelCluster(_config(shm_budget_bytes=0)) as cluster:
        with pytest.raises(KeyError):
            cluster.unregister("never-registered")


def test_arena_pressure_leaves_overflow_private(
    sa_pipeline, sa_pipeline_variant, sa_inputs
):
    """A registration that does not fit the arena keeps its overflowing
    parameters private to its workers: the resident plan keeps every slab,
    nothing is freed, both plans serve bit-equal outputs, and only an
    unregister makes room for a later registration."""
    # Find how much one plan's shared set costs, then budget for ~1 plan.
    with PretzelCluster(_config()) as probe:
        probe.register(sa_pipeline, plan_id="probe")
        per_plan = probe.arena.stats()["allocated_bytes"]
    with PretzelRuntime(PretzelConfig()) as runtime, PretzelCluster(
        _config(shm_budget_bytes=per_plan + 1024)
    ) as cluster:
        oracle = {
            "A": runtime.register(sa_pipeline, plan_id="A"),
            "B": runtime.register(sa_pipeline_variant, plan_id="B"),
        }
        cluster.register(sa_pipeline, plan_id="A")
        resident = dict(cluster._plans["A"]["arena_refs"])
        shared = cluster._plans["A"]["shared_parameters"]
        assert shared >= 1
        cluster.register(sa_pipeline_variant, plan_id="B")
        # The resident plan was not touched to make room...
        assert cluster._plans["A"]["arena_refs"] == resident
        assert cluster._plans["A"]["shared_parameters"] == shared
        stats = cluster.stats()
        assert stats["arena"]["frees"] == 0
        overflows = stats["arena_overflows"]
        assert overflows >= 1
        # ...and both plans serve bit-equal outputs, B through its private
        # copies of the parameters that did not fit.
        for record in sa_inputs:
            for plan_id in ("A", "B"):
                assert cluster.predict(plan_id, record) == runtime.predict(
                    oracle[plan_id], record
                )
        # Unregistering A frees its exclusive slabs; a third registration
        # then fits without a new overflow.
        cluster.unregister("A")
        cluster.register(sa_pipeline, plan_id="C")
        stats = cluster.stats()
        assert stats["arena_overflows"] == overflows
        assert stats["arena"]["frees"] >= 1
        assert cluster._plans["C"]["shared_parameters"] == shared
        assert cluster.predict("C", sa_inputs[0]) == runtime.predict(
            oracle["A"], sa_inputs[0]
        )


def test_unregistering_an_overflowed_plan_leaves_the_resident_plan_intact(
    sa_pipeline, sa_pipeline_variant, sa_inputs
):
    """Tearing down a plan whose parameters overflowed frees only slabs it
    claimed alone; the resident plan keeps every slab and keeps serving."""
    with PretzelCluster(_config()) as probe:
        probe.register(sa_pipeline, plan_id="probe")
        per_plan = probe.arena.stats()["allocated_bytes"]
    with PretzelCluster(_config(shm_budget_bytes=per_plan + 1024)) as cluster:
        cluster.register(sa_pipeline, plan_id="A")
        resident = dict(cluster._plans["A"]["arena_refs"])
        cluster.register(sa_pipeline_variant, plan_id="B")
        overflows = cluster.stats()["arena_overflows"]
        assert overflows >= 1
        claimed_by_b = cluster.lifecycle.exclusive_checksums("B")

        cluster.unregister("B")

        assert cluster.arena.stats()["frees"] == len(claimed_by_b)
        assert cluster._plans["A"]["arena_refs"] == resident
        for checksum in resident:
            assert cluster.arena.get(checksum) is not None
        assert cluster.lifecycle.plans() == ["A"]
        assert cluster.predict("A", sa_inputs[0]) == pytest.approx(
            sa_pipeline.predict(sa_inputs[0])
        )
        # With A still resident, B overflows again on re-registration and
        # serves from its private copies.
        cluster.register(sa_pipeline_variant, plan_id="B")
        assert cluster.stats()["arena_overflows"] > overflows
        assert cluster.predict("B", sa_inputs[0]) == pytest.approx(
            sa_pipeline_variant.predict(sa_inputs[0])
        )

def test_no_thread_is_alive_at_worker_spawn(monkeypatch, sa_pipeline, sa_inputs):
    """A thread alive at fork() leaves the child's interpreter state
    undefined.  A default runtime serving inline starts no thread, so a
    cluster built afterwards in the same process forks from its main thread
    alone."""
    threads_before = threading.active_count()
    with PretzelRuntime(PretzelConfig()) as runtime:
        plan_id = runtime.register(sa_pipeline)
        runtime.predict(plan_id, sa_inputs[0])
        runtime.predict_batch(plan_id, sa_inputs[:4])
        assert threading.active_count() == threads_before
    alive_at_spawn = []
    spawn = PretzelCluster._spawn_worker

    def recording_spawn(self, context, worker_id):
        alive_at_spawn.append(list(threading.enumerate()))
        return spawn(self, context, worker_id)

    monkeypatch.setattr(PretzelCluster, "_spawn_worker", recording_spawn)
    with PretzelCluster(_config()):
        pass
    main = threading.main_thread()
    assert alive_at_spawn == [[main], [main]]


@pytest.mark.parametrize("enable_profiling", [True, False])
def test_cluster_stats_profile_is_lock_telemetry_only(sa_pipeline, enable_profiling):
    """``enable_profiling`` gates the ``profile`` block of the cluster's and
    each worker's stats, and the block holds lock-wait telemetry alone."""
    with PretzelCluster(_config(enable_profiling=enable_profiling)) as cluster:
        cluster.register(sa_pipeline)
        stats = cluster.stats()
    worker_stats = [worker["stats"] for worker in stats["workers"].values()]
    assert len(worker_stats) == 2
    if enable_profiling:
        assert set(stats["profile"]) == {"locks"}
        assert "cluster.phase" in stats["profile"]["locks"]
        for worker in worker_stats:
            assert set(worker["profile"]) == {"locks"}
    else:
        assert "profile" not in stats
        for worker in worker_stats:
            assert "profile" not in worker


def test_failed_registration_rolls_back_arena_slabs(sa_pipeline, sa_pipeline_variant):
    """A rolled-back registration (application error on the second placed
    worker) returns the plan's freshly allocated slabs to the arena -- the
    acked rollback path of the liveness guard."""
    from repro.serving.worker import encode_model

    with PretzelCluster(_config()) as cluster:
        cluster.register(sa_pipeline, plan_id="keeper")
        arena_before = cluster.arena.stats()
        placed = cluster.router.place("x")
        # Occupy the id on the second placed worker so registration succeeds
        # on the first and fails (ok=False, healthy channel) on the second.
        cluster._workers[placed[1]].request(
            {
                "type": "register",
                "msg_id": -1,
                "plan_id": "x",
                "model_b64": encode_model(sa_pipeline_variant, None),
            },
            timeout=60.0,
        )
        with pytest.raises(WorkerFailure):
            cluster.register(sa_pipeline_variant, plan_id="x")
        arena_after = cluster.arena.stats()
        # The variant's exclusive weights were allocated then freed; nothing
        # of the keeper's was touched.
        assert arena_after["frees"] == arena_after["allocations"] - arena_before["allocations"]
        assert arena_after["used_bytes"] == arena_before["used_bytes"]
        assert arena_after["free_slabs"] > 0
        assert "x" not in cluster.lifecycle.plans()


def test_msg_ids_are_unique_per_cluster_generation(sa_pipeline):
    """Two cluster generations never produce colliding msg ids."""
    with PretzelCluster(_config(num_workers=1, shm_budget_bytes=0)) as first:
        first_message = first._message("ping")
        assert first_message["msg_id"].startswith(f"{first._msg_prefix}:")
        with PretzelCluster(_config(num_workers=1, shm_budget_bytes=0)) as second:
            assert first._msg_prefix != second._msg_prefix
            assert second._message("ping")["msg_id"] != first_message["msg_id"]


def test_teardown_guard_skips_evicted_workers():
    """A worker evicted from the membership was terminated by the eviction,
    so its mappings died with the process: the reclamation guard skips it,
    and skips ids it never saw."""
    with PretzelCluster(_config(num_workers=1, shm_budget_bytes=0)) as cluster:
        cluster._evicted_handles["ghost-spawned"] = cluster._workers["worker-0"]
        assert cluster._teardown_on_workers(
            ["ghost-spawned"], "unregister", plan_id="x", drop_checksums=[]
        ) is True
        assert cluster._teardown_on_workers(
            ["never-existed"], "unregister", plan_id="x", drop_checksums=[]
        ) is True


# -- data-plane predict frames ---------------------------------------------------


def _frame_bytes(plan_id, records, schema):
    """Size of the request frame for this predict (no field depends on the seq)."""
    from repro.net import PREDICT_FRAME_MAGIC, encode_predict

    frame = encode_predict(
        {
            "plan_id": plan_id,
            "records": records,
            "latency_sensitive": False,
            "type": "predict",
            "msg_id": "00000000:0",
        },
        schema,
    )
    assert frame.startswith(PREDICT_FRAME_MAGIC)
    return len(frame)


def test_predicts_travel_as_frames_bit_equal_to_one_process(
    ac_pipeline, ac_inputs, sa_pipeline, sa_inputs
):
    """AC (dict records) and SA (text) predicts ride data-plane frames:
    outputs bit-equal to a single-process runtime, every message counted as
    binary, and the wire bytes are exactly the frames'."""
    from repro.serving.worker import input_frame_schema

    # untraced: a sampled request's header is 32 bytes (its trace context) longer
    config = _config(enable_tracing=False)
    with PretzelRuntime(PretzelConfig()) as runtime, PretzelCluster(config) as cluster:
        for plan_id, pipeline, inputs in (("ac", ac_pipeline, ac_inputs), ("sa", sa_pipeline, sa_inputs)):
            runtime.register(pipeline, plan_id=plan_id)
            cluster.register(pipeline, plan_id=plan_id)
            schema = input_frame_schema(pipeline)
            oracle = [runtime.predict(plan_id, record) for record in inputs]
            before = cluster.wire_stats()
            single = [cluster.predict(plan_id, record) for record in inputs]
            batch = cluster.predict_batch(plan_id, inputs)
            wire = cluster.wire_stats()
            assert single == oracle and batch == oracle  # bit-equal, not approx
            assert all(type(value) is float for value in single + batch)
            calls = len(inputs) + 1
            assert wire["binary_messages"] - before["binary_messages"] == calls
            assert wire["binary_replies"] - before["binary_replies"] == calls
            assert wire["json_messages"] == before["json_messages"]
            assert wire["bytes_sent"] - before["bytes_sent"] == sum(
                _frame_bytes(plan_id, [record], schema) for record in inputs
            ) + _frame_bytes(plan_id, list(inputs), schema)
            # reply frame: 28-byte header + one float64 per record
            assert wire["bytes_received"] - before["bytes_received"] == (
                len(inputs) * (28 + 8) + 28 + 8 * len(inputs)
            )
        # no key name travels: an AC request is its header plus 40 raw doubles
        assert _frame_bytes("ac", ac_inputs[:1], input_frame_schema(ac_pipeline)) < 400


def test_non_conforming_records_fall_back_to_the_envelope(ac_pipeline, ac_inputs):
    """A record a frame cannot carry (an int value, a None, an extra key, a
    missing key) rides the plain JSON envelope and is served exactly as the
    single-process runtime serves it."""
    odd_records = [
        {"f0": 1},
        {**ac_inputs[0], "f3": None},
        {**ac_inputs[1], "unheard-of": 1.0},
        {key: value for key, value in ac_inputs[2].items() if key != "f7"},
    ]
    config = _config()
    with PretzelRuntime(PretzelConfig()) as runtime, PretzelCluster(config) as cluster:
        runtime.register(ac_pipeline, plan_id="ac")
        cluster.register(ac_pipeline, plan_id="ac")
        before = cluster.wire_stats()
        for record in odd_records:
            assert cluster.predict("ac", record) == runtime.predict("ac", record)
        mixed = [ac_inputs[0], odd_records[0]]
        assert cluster.predict_batch("ac", mixed) == [runtime.predict("ac", r) for r in mixed]
        wire = cluster.wire_stats()
        # Every one of the five requests is a JSON envelope, keys and all,
        # and so is every reply: no array envelope is left on the wire.
        assert wire["json_messages"] - before["json_messages"] == 5
        assert wire["binary_messages"] == before["binary_messages"]
        assert wire["binary_replies"] == before["binary_replies"]
        assert wire["bytes_sent"] - before["bytes_sent"] > 2 * 700
        # ... and conforming records right after still take the data plane
        assert cluster.predict("ac", ac_inputs[0]) == runtime.predict("ac", ac_inputs[0])
        after = cluster.wire_stats()
        assert after["binary_messages"] == wire["binary_messages"] + 1
        assert after["binary_replies"] == wire["binary_replies"] + 1
        assert after["bytes_sent"] - wire["bytes_sent"] < 450


def test_a_record_keyed_like_a_vector_is_served_as_a_plain_record(ac_pipeline, ac_inputs):
    """Only replies rebuild vectors: a non-conforming record that happens to
    carry a vector's tag key reaches the plan as the dict it was."""
    records = [
        {**ac_inputs[0], "__vector__": "dense"},
        {**ac_inputs[1], "__vector__": "no such form"},
        {"__vector__": "sparse", "size": 3, "indices": [0], "values": [1.0]},
    ]
    with PretzelRuntime(PretzelConfig()) as runtime, PretzelCluster(_config()) as cluster:
        runtime.register(ac_pipeline, plan_id="ac")
        cluster.register(ac_pipeline, plan_id="ac")
        expected = [runtime.predict("ac", record) for record in records]
        assert [cluster.predict("ac", record) for record in records] == expected
        assert cluster.predict_batch("ac", records) == expected


def test_vector_outputs_are_served_equal_to_one_process():
    """A plan whose sink returns a vector (tree-ensemble class scores) is
    served: its reply rides the JSON envelope and decodes to a vector equal
    to, and of the type of, the one the single-process runtime returns."""
    import numpy as np

    from repro.mlnet.pipeline import Pipeline
    from repro.operators.featurizers import ColumnSelector
    from repro.operators.trees import TreeEnsembleClassifier
    from repro.operators.vectors import DenseVector

    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 2))
    classifier = TreeEnsembleClassifier(n_classes=3, max_depth=3).fit(
        list(rows), np.digitize(rows[:, 0], [-0.5, 0.5])
    )
    pipeline = Pipeline("class-scores")
    pipeline.add("selector", ColumnSelector(["a", "b"]), ["input"])
    pipeline.add("classifier", classifier, ["selector"])
    records = [{"a": float(a), "b": float(b)} for a, b in rng.normal(size=(5, 2))]
    with PretzelRuntime(PretzelConfig()) as runtime, PretzelCluster(_config()) as cluster:
        runtime.register(pipeline, plan_id="scores")
        cluster.register(pipeline, plan_id="scores")
        expected = [runtime.predict("scores", record) for record in records]
        assert all(type(value) is DenseVector for value in expected)
        outputs = [cluster.predict("scores", record) for record in records]
        assert [type(value) for value in outputs] == [DenseVector] * len(records)
        assert outputs == expected
        assert cluster.predict_batch("scores", records) == expected


@pytest.mark.parametrize("call", ["predict", "predict_batch"])
def test_json_fallback_keeps_every_float_exact(call, ac_pipeline, ac_inputs):
    """Non-conforming records (an extra key) carrying NaN, +-inf and -0.0
    ride the JSON envelope both ways; the outputs are the single-process
    runtime's to the last bit (``float.hex``, which also tells -0.0 apart).
    The linear plan passes ``f0``'s specials through to its outputs, so the
    replies carry them too."""
    import numpy as np

    from repro.mlnet.pipeline import Pipeline
    from repro.operators.featurizers import ColumnSelector
    from repro.operators.linear import LinearRegressor

    linear = Pipeline("identity-f0")
    linear.add("selector", ColumnSelector(["f0"]), ["input"])
    model = LinearRegressor()
    model.weights = np.array([1.0])
    model.bias = 0.0
    linear.add("model", model, ["selector"])
    specials = [float("nan"), float("inf"), float("-inf"), -0.0]
    records = []
    for offset, record in enumerate(ac_inputs[:4]):
        record = {
            key: specials[(index + offset) % 4] if (index + offset) % 3 == 0 else value
            for index, (key, value) in enumerate(record.items())
        }
        record["f0"] = specials[offset]
        record["unheard-of"] = specials[offset]
        records.append(record)
    config = _config()
    with PretzelRuntime(PretzelConfig()) as runtime, PretzelCluster(config) as cluster:
        for plan_id, pipeline in (("ac", ac_pipeline), ("linear", linear)):
            runtime.register(pipeline, plan_id=plan_id)
            cluster.register(pipeline, plan_id=plan_id)
            oracle = [runtime.predict(plan_id, record) for record in records]
            before = cluster.wire_stats()
            if call == "predict":
                outputs = [cluster.predict(plan_id, record) for record in records]
            else:
                outputs = cluster.predict_batch(plan_id, records)
            wire = cluster.wire_stats()
            assert all(type(value) is float for value in outputs)
            assert [value.hex() for value in outputs] == [value.hex() for value in oracle]
            calls = len(records) if call == "predict" else 1
            assert wire["json_messages"] - before["json_messages"] == calls
            assert wire["binary_messages"] == before["binary_messages"]
            assert wire["binary_replies"] == before["binary_replies"]
        assert [value.hex() for value in oracle] == ["nan", "inf", "-inf", "0x0.0p+0"]


def test_reregistering_a_plan_id_with_other_columns_uses_the_new_schema():
    """Unregister -> re-register under the same id with a different column
    set: both ends recompile the schema, so frames carry the new columns."""
    import numpy as np

    from repro.mlnet.pipeline import Pipeline
    from repro.operators.featurizers import ColumnSelector
    from repro.operators.linear import LinearRegressor

    def pipeline_over(name, columns):
        pipeline = Pipeline(name)
        pipeline.add("selector", ColumnSelector(columns), ["input"])
        model = LinearRegressor()
        model.weights = np.array([10.0**position for position in range(len(columns))])
        model.bias = 0.0
        pipeline.add("model", model, ["selector"])
        return pipeline

    with PretzelCluster(_config(shm_budget_bytes=0, enable_tracing=False)) as cluster:
        cluster.register(pipeline_over("first", ["a", "b"]), plan_id="p")
        assert cluster.predict("p", {"a": 1.0, "b": 2.0}) == 21.0
        cluster.unregister("p")
        cluster.register(pipeline_over("second", ["b", "c", "a"]), plan_id="p")
        before = cluster.wire_stats()
        assert cluster.predict("p", {"a": 1.0, "b": 2.0, "c": 3.0}) == 132.0
        framed = cluster.wire_stats()
        assert framed["bytes_sent"] - before["bytes_sent"] == 33 + len("p") + 4 + 3 * 8
        # the old shape no longer conforms: it rides the envelope (keys and
        # all, so more bytes for fewer values) and the missing column reads 0.0
        assert cluster.predict("p", {"a": 1.0, "b": 2.0}) == 102.0
        assert cluster.wire_stats()["bytes_sent"] - framed["bytes_sent"] > 100


def test_encoded_model_is_retained_only_while_it_can_be_reshipped(sa_pipeline):
    """A plan hosted by every worker can never be re-homed (membership only
    shrinks), so the front door does not keep its encoding alive."""
    with PretzelCluster(_config(num_workers=2, placement_replicas=2)) as cluster:
        cluster.register(sa_pipeline, plan_id="everywhere")
        cluster.register(sa_pipeline, plan_id="one-replica", replicas=1)
        assert cluster._plans["everywhere"]["model_b64"] is None
        assert cluster._plans["one-replica"]["model_b64"]
