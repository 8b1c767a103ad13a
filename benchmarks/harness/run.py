"""The benchmark's one command.

One run of one workload (what the driver calls)::

    python3 benchmarks/harness/run.py --workload sa_online --seed 7 --seconds 16 --trace 0

prints every metric by name with its unit, then -- as the last line of
standard output -- one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
(or ``--traced``) is the separate traced run that yields the per-layer table.

A set of runs for :mod:`benchmarks.harness.compare`::

    python3 benchmarks/harness/run.py --workload all --repeat 5 --seed 7 --out A.json

runs every workload ``--repeat`` times (seeds 7, 8, ...) and appends one JSON
record per run.

Every run is measured in a *child* interpreter this supervisor starts in its
own session: with address-space randomisation off and a fixed hash seed (both
are drawn per process, are inherited by the forked workers and shift
throughput by several percent for the life of the process; pinning them is
the same on every commit), under a hard wall-clock limit, and with the whole
session killed afterwards so that no worker survives a run whatever happened
to it.  The child pins itself and its workers to one CPU
(:func:`benchmarks.harness.workloads.pin_to_one_cpu`).
"""

from __future__ import annotations

import argparse
import ctypes
import faulthandler
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Sequence, Set

_ROOT = pathlib.Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

#: a run that has not finished by then is killed and fails (contract: 180 s)
HARD_TIMEOUT_SECONDS = 170.0
SHM_DIR = pathlib.Path("/dev/shm")
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def declared() -> Dict[str, Any]:
    with open(_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _shm_segments() -> Set[str]:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


# -- the supervisor -------------------------------------------------------------


def _disable_aslr() -> None:
    """Switch address-space randomisation off for every process started from here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)  # inherited over fork and exec
    except (OSError, AttributeError):
        pass  # not Linux: the hash seed alone is still worth pinning


def supervise(name: str, seed: int, seconds: float, trace: int, out: str) -> int:
    """Measure one run in a child session; returns the child's exit status.

    The child inherits standard output, so its report and result line are the
    supervisor's.  Afterwards the child's whole session is killed -- a no-op
    after a clean run (the child itself checks that it left nothing behind),
    the guarantee that no worker outlives a run that crashed or hung.  A child
    killed by a signal is measured again, once: the always-on sampler thread
    the cluster starts in its front-door process has been seen to segfault
    inside CPython (about one run in a hundred), which says nothing about the
    metrics of the run that replaces it.  The crash is reported on stderr.
    """
    command = [
        sys.executable,
        str(pathlib.Path(__file__).resolve()),
        "--inner",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if out:
        command += ["--out", out]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    for attempt in (1, 2):
        segments_before = _shm_segments()
        sys.stdout.flush()
        child = subprocess.Popen(command, env=environment, start_new_session=True)
        try:
            status = child.wait(timeout=HARD_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"harness: run exceeded {HARD_TIMEOUT_SECONDS:.0f}s; killed\n")
            status = 3
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the session is already empty
            child.wait()
        if status >= 0:
            return status
        # Killed by a signal: its arena segment is orphaned with it.
        for segment in _shm_segments() - segments_before:
            (SHM_DIR / segment).unlink(missing_ok=True)
        sys.stderr.write(
            f"harness: {name} seed {seed} died of signal {-status} (attempt {attempt} of 2)\n"
        )
    return 1


# -- the measured child ---------------------------------------------------------


def measure(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """One workload, one process: prepare, measure, check hygiene, print."""
    # Imported here: the supervisor stays a few megabytes of standard library.
    from benchmarks.harness import families, layers, workloads

    faulthandler.enable()
    cpu = workloads.pin_to_one_cpu()
    segments_before = _shm_segments()
    started = time.perf_counter()
    prepared = workloads.prepare(workloads.WORKLOADS[args.workload], args.seed)
    prepare_s = time.perf_counter() - started
    if args.trace:
        result = layers.run_traced(prepared, args.seconds)
    else:
        result = workloads.run_untraced(prepared, args.seconds)
    leftovers = multiprocessing.active_children()
    leaked = _shm_segments() - segments_before
    if leftovers or leaked:
        raise RuntimeError(f"run left behind processes {leftovers} / shm segments {leaked}")

    # BENCHMARK.json is the one place names and units are declared.
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if args.trace else "end_to_end"]
    }
    if set(result["metrics"]) != set(units):
        raise RuntimeError(
            "emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result['metrics']))}"
        )
    result["detail"]["cpu"] = cpu
    result["detail"]["calibration_ms"] = layers.calibration_ms()
    result["detail"]["prepare_s"] = prepare_s
    result["detail"]["wall_s"] = time.perf_counter() - started
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in result["metrics"].items()
        },
        "detail": result["detail"],
        "config": vars(prepared.workload),
        "provenance": families.provenance(),
    }
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"{'traced (per-layer)' if args.trace else 'untraced (end-to-end)'}"
    )
    width = max(len(metric) for metric in units)
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<{width}}  {entry['value']:>14.4f} {entry['unit']}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")
    for key, value in record["detail"].items():
        print(f"  . {key}: {value}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, default=str) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = declared()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *names])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default="", help="append one JSON record per run to this file")
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.inner:
        return measure(args, spec)
    _disable_aslr()
    status = 0
    for repeat in range(args.repeat):
        for name in names if args.workload == "all" else [args.workload]:
            status = max(
                status, supervise(name, args.seed + repeat, args.seconds, args.trace, args.out)
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
