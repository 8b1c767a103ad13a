"""Fail-over quickstart: kill a worker mid-traffic, lose zero requests.

The serving tier's control plane (``src/repro/serving/control/``) makes the
cluster dynamic: every worker reply doubles as a heartbeat (idle workers are
pinged), a dead worker is evicted from every placement, its plans are
re-registered onto survivors, and requests that were in flight against it
fail with a *typed, retryable* ``WorkerFailedError`` -- the same contract
``BackpressureError`` already gives clients for load shedding.  A client
that retries on those two errors therefore completes every request across a
worker kill.

This demo runs a 2-worker cluster, streams predictions from four client
threads, kills one worker mid-stream, and shows all requests completing via
retry.

Run with:  python examples/failover_demo.py
"""

import threading
import time

from repro.core import PretzelConfig
from repro.serving import BackpressureError, PretzelCluster, WorkerFailedError
from repro.workloads import build_sentiment_family

CLIENTS = 4
REQUESTS_PER_CLIENT = 40
KILL_AFTER = 10  # requests each client completes before the kill


def main() -> None:
    family = build_sentiment_family(n_pipelines=4, seed=11)
    inputs = family.sample_inputs(6)
    config = PretzelConfig(
        num_workers=2,
        placement_replicas=2,            # hot standby: both workers host each plan
        heartbeat_interval_seconds=0.5,  # aggressive for a short demo
        shm_budget_bytes=16 * 1024 * 1024,
        shm_min_parameter_bytes=1024,
    )

    with PretzelCluster(config) as cluster:
        plan_ids = [
            cluster.register(generated.pipeline, stats=generated.stats)
            for generated in family.pipelines
        ]
        print(f"Registered {len(plan_ids)} plans on {config.num_workers} workers")

        completed = [0] * CLIENTS
        retries = [0] * CLIENTS
        kill_gate = threading.Barrier(CLIENTS + 1)

        def client(slot: int) -> None:
            for index in range(REQUESTS_PER_CLIENT):
                if index == KILL_AFTER:
                    kill_gate.wait()  # line up so the kill lands mid-stream
                plan_id = plan_ids[(slot + index) % len(plan_ids)]
                record = inputs[index % len(inputs)]
                while True:
                    try:
                        cluster.predict(plan_id, record)
                        completed[slot] += 1
                        break
                    except (WorkerFailedError, BackpressureError):
                        retries[slot] += 1  # typed and retryable by contract
                        time.sleep(0.005)

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(CLIENTS)]
        for thread in threads:
            thread.start()

        kill_gate.wait()
        victim = cluster.placement(plan_ids[0])[0]
        print(f"\n>>> killing {victim} mid-traffic...")
        cluster._workers[victim].process.kill()

        for thread in threads:
            thread.join()

        stats = cluster.stats()
        control = stats["control_plane"]
        print(f"\nAll clients done: {sum(completed)}/{CLIENTS * REQUESTS_PER_CLIENT} "
              f"requests completed, {sum(retries)} typed-retryable errors retried")
        print(f"  failovers={control['failovers']}  "
              f"plans_failed_over={control['plans_failed_over']}  "
              f"dead_workers={control['dead_workers']}")
        print(f"  worker states: {control['worker_states']}")
        print(f"  surviving placement of {plan_ids[0]!r}: {cluster.placement(plan_ids[0])}")
        assert sum(completed) == CLIENTS * REQUESTS_PER_CLIENT, "a request was lost!"
        print("\nZero lost requests.")


if __name__ == "__main__":
    main()
