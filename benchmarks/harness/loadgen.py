"""Load generation: seeded request streams, closed/open-loop clients, percentiles.

Everything here is deterministic in its seed and independent of the serving
tier: a client is handed a ``call(plan_id, payload)`` function and a list of
pre-built requests, so the program under test only ever sees the generated
requests (never the seed).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.router import BackpressureError

__all__ = [
    "Call",
    "ClientLog",
    "blocks",
    "close_match",
    "closed_loop",
    "exact_match",
    "merge_logs",
    "open_loop",
    "percentile",
    "poisson_schedule",
    "quietest",
    "spread",
    "supported_percentile",
]

#: percentiles a timing may be reported at, lowest first
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
#: a percentile is reported only with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def supported_percentile(n_samples: int) -> float:
    """Highest of :data:`PERCENTILES` with >= 10 of ``n_samples`` beyond it."""
    best = PERCENTILES[0]
    for q in PERCENTILES:
        # rounded: 10_000 * (100 - 99.9) / 100 is 9.999999999999432 in floats
        if round(n_samples * (100.0 - q) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; raises on an empty sample."""
    if len(samples) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def poisson_schedule(rate_rps: float, seconds: float, seed: int) -> np.ndarray:
    """Due times (offsets from phase start) of a Poisson process at ``rate_rps``."""
    rng = np.random.default_rng(seed)
    count = max(1, int(rate_rps * seconds * 1.5) + 16)
    due = np.cumsum(rng.exponential(1.0 / rate_rps, size=count))
    return due[due < seconds]


#: one cluster call of a request: (plan id, payload, expected output)
Call = Tuple[str, Any, Any]


@dataclass
class ClientLog:
    """What one client thread observed; merged across threads afterwards."""

    latencies: List[float] = field(default_factory=list)
    #: completion time (``perf_counter``) of each latency sample, in order
    ends: List[float] = field(default_factory=list)
    #: position in the client's request list of each latency sample
    positions: List[int] = field(default_factory=list)
    #: per-call latencies of multi-call requests, by call position
    call_latencies: Dict[int, List[float]] = field(default_factory=dict)
    lateness: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: Dict[str, int] = field(
        default_factory=lambda: {"mismatch": 0, "error": 0, "shed": 0, "timeout": 0}
    )
    first_error: Optional[str] = None
    #: seconds the client(s) spent sending
    elapsed: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def merge_logs(logs: Sequence[ClientLog], sequential: bool = False) -> ClientLog:
    """Pool the logs of clients that ran side by side, or of phases run in turn."""
    merged = ClientLog()
    for log in logs:
        merged.latencies.extend(log.latencies)
        merged.ends.extend(log.ends)
        merged.positions.extend(log.positions)
        merged.lateness.extend(log.lateness)
        for slot, values in log.call_latencies.items():
            merged.call_latencies.setdefault(slot, []).extend(values)
        merged.attempted += log.attempted
        for kind, count in log.failures.items():
            merged.failures[kind] += count
        merged.first_error = merged.first_error or log.first_error
    spans = [log.elapsed for log in logs]
    merged.elapsed = sum(spans) if sequential else max(spans)
    return merged


#: one replica of a block: (seconds it took, the latency of each of its requests)
Replica = Tuple[float, List[float]]


def blocks(log: ClientLog, size: int) -> Dict[int, List[Replica]]:
    """Cut a closed-loop phase into the replicas of its request list's blocks.

    A client sends its request list over and over, so the ``size`` requests at
    positions ``[b * size, (b + 1) * size)`` -- block ``b`` -- recur with
    identical content on every pass.  Returns, per block, one replica for each
    time it was sent completely: from the first request leaving to the last
    reply arriving.  A replica with a failed request is dropped.
    """
    replicas: Dict[int, List[Replica]] = {}
    current, opened, latencies = -1, 0.0, []
    for position, end, latency in zip(log.positions, log.ends, log.latencies):
        block, offset = divmod(position, size)
        if offset == 0:
            current, opened, latencies = block, end - latency, []
        if block == current and len(latencies) == offset:
            latencies.append(latency)
            if len(latencies) == size:
                replicas.setdefault(block, []).append((end - opened, latencies))
    return replicas


def quietest(replicas: Dict[int, List[Replica]], share: float) -> List[Replica]:
    """Of every block, the ``share`` of its replicas that took least time (>= 1)."""
    kept: List[Replica] = []
    for found in replicas.values():
        kept.extend(sorted(found, key=lambda replica: replica[0])[: max(1, round(len(found) * share))])
    return kept


def _serve(
    call: Callable[[str, Any], Any],
    request: Sequence[Call],
    matches: Callable[[Any, Any], bool],
    log: ClientLog,
    timed_from: float,
) -> float:
    """Send one request (its calls back to back); returns the finish time.

    A failed request is counted by kind and contributes no latency sample:
    it misses any latency limit by definition.
    """
    log.attempted += 1
    split = len(request) > 1
    mark = time.perf_counter()
    try:
        for slot, (plan_id, payload, expected) in enumerate(request):
            output = call(plan_id, payload)
            now = time.perf_counter()
            if not matches(output, expected):
                log.failures["mismatch"] += 1
                return now
            if split:
                log.call_latencies.setdefault(slot, []).append(now - mark)
            mark = now
    except BackpressureError:
        log.failures["shed"] += 1
        return time.perf_counter()
    except TimeoutError as error:
        log.failures["timeout"] += 1
        log.first_error = log.first_error or repr(error)
        return time.perf_counter()
    except Exception as error:  # noqa: BLE001 - every failure is counted, none is fatal
        log.failures["error"] += 1
        log.first_error = log.first_error or repr(error)
        return time.perf_counter()
    log.latencies.append(mark - timed_from)
    log.ends.append(mark)
    return mark


def closed_loop(
    call: Callable[[str, Any], Any],
    requests: Sequence[Sequence[Call]],
    matches: Callable[[Any, Any], bool],
    seconds: float,
    on_request: Optional[Callable[[int, float, float], None]] = None,
) -> ClientLog:
    """One closed-loop client: the next request leaves when the reply is in.

    ``on_request(index, start, end)`` is the harness's own span hook (the
    traced run passes one; the untraced run passes None).
    """
    log = ClientLog()
    started = now = time.perf_counter()
    stop_at = started + seconds
    index = 0
    count = len(requests)
    while now < stop_at:
        end = _serve(call, requests[index % count], matches, log, now)
        if len(log.positions) < len(log.latencies):
            log.positions.append(index % count)
        if on_request is not None:
            on_request(index, now, end)
        index += 1
        now = time.perf_counter()
    log.elapsed = now - started
    return log


def open_loop(
    call: Callable[[str, Any], Any],
    requests: Sequence[Sequence[Call]],
    matches: Callable[[Any, Any], bool],
    due_offsets: Sequence[float],
) -> ClientLog:
    """One open-loop sender: requests leave on a schedule, timed from due time.

    The sender is synchronous, so a slow reply makes it late for the next due
    time; that lateness is recorded, and because latency runs from the due
    time it is charged to the requests it delayed.
    """
    log = ClientLog()
    started = time.perf_counter()
    count = len(requests)
    for index, offset in enumerate(due_offsets):
        due = started + float(offset)
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)  # no spinning: the host has no core to spare for it
        log.lateness.append(time.perf_counter() - due)
        _serve(call, requests[index % count], matches, log, due)
    log.elapsed = time.perf_counter() - started
    return log


def exact_match(output: Any, expected: Any) -> bool:
    """Bit-equal floats (NaN equals NaN): the online workloads' contract."""
    return output == expected or (output != output and expected != expected)


def close_match(outputs: Any, expected: np.ndarray) -> bool:
    """``rtol=1e-9`` per record: vectorised kernels reorder reductions."""
    if len(outputs) != len(expected):
        return False
    return bool(np.allclose(outputs, expected, rtol=1e-9, atol=1e-12, equal_nan=True))


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (the driver's steadiness rule)."""
    if len(values) < 2:
        return math.nan
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else math.nan
