"""A scalene-style sampling profiler: frames are read, never instrumented.

One background daemon thread wakes every ``interval_seconds``, snapshots
every thread's current frame with ``sys._current_frames()`` and attributes
the sample:

* **top-of-stack function** -- which function the thread was executing at
  the sample instant (self-time, scalene's core statistic); and
* **pipeline stage** -- the sampler walks up the stack looking for a
  registered *marker* code object -- the engine's three stage entry points:
  ``execute_plan_stage`` (scalar), ``execute_plan_stage_batch`` (a
  scheduler ``StageBatch``) and ``execute_plan_stage_columns`` (a
  ``predict_batch`` group) -- and, on a hit, reads the stage's physical
  signature out of the frame's locals.  A sample inside a stage therefore
  counts toward that stage's self-time, operators included, without the
  stage ever being wrapped or timed inline.

The profiled threads pay **nothing**: no ``sys.setprofile`` hooks, no
signals, no per-call bookkeeping.  The whole cost sits on the sampler
thread (one ``_current_frames`` call plus a short stack walk per tick),
which at the default 5 ms interval is well under the 5% overhead budget the
serving benchmarks enforce -- cheap enough to leave on in production.

Counter dictionaries are written only by the sampler thread; readers
snapshot them with a single atomic ``dict(...)`` call, so ``snapshot()``
needs no lock against the sampler.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from types import CodeType
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["SamplingProfiler"]

#: default sampling period: 200 Hz keeps stage attribution responsive while
#: the sampler thread's own CPU share stays well under 1% on one core
DEFAULT_INTERVAL_SECONDS = 0.005


class SamplingProfiler:
    """Background sampler attributing self-time to functions and stages."""

    def __init__(
        self,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        max_stack_depth: int = 64,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.interval_seconds = interval_seconds
        self.max_stack_depth = max_stack_depth
        #: marker code object -> (frame-local name, attribute holding the
        #: stage signature); registered once, read on every sample
        self._markers: Dict[CodeType, Tuple[str, str]] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._state_lock = threading.Lock()  # start/stop/reset only
        # -- counters: written by the sampler thread only --------------------
        self.samples = 0
        self.ticks = 0
        self._stage_samples: Dict[str, int] = {}
        self._function_samples: Dict[str, int] = {}
        self._started_at: Optional[float] = None
        self._active_seconds = 0.0

    # -- marker registration ---------------------------------------------------

    def register_stage_marker(
        self,
        function: Callable[..., Any],
        local_name: str,
        attribute: str = "full_signature",
    ) -> None:
        """Mark ``function`` as a stage-execution entry point.

        When a sampled stack contains ``function``'s code object, the sample
        is attributed to ``getattr(frame.f_locals[local_name], attribute)``
        -- e.g. the ``physical`` local of the engine's stage executors, whose
        ``full_signature`` names the stage.  Reading ``f_locals`` costs a
        dict materialization, paid by the sampler thread only, and only on
        marker hits.
        """
        self._markers[function.__code__] = (local_name, attribute)

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Start the sampler thread (idempotent)."""
        with self._state_lock:
            if self.running:
                return
            self._stop = threading.Event()
            self._started_at = time.perf_counter()
            self._thread = threading.Thread(
                target=self._run, name="pretzel-profiler", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop sampling (the accumulated counters are kept)."""
        with self._state_lock:
            thread = self._thread
            if thread is None:
                return
            self._stop.set()
            thread.join(timeout=2.0)
            self._thread = None
            if self._started_at is not None:
                self._active_seconds += time.perf_counter() - self._started_at
                self._started_at = None

    def reset(self) -> None:
        """Zero the sample counters (markers and run state are kept)."""
        self.samples = 0
        self.ticks = 0
        self._stage_samples = {}
        self._function_samples = {}
        self._active_seconds = 0.0
        if self.running:
            self._started_at = time.perf_counter()

    # -- sampling ---------------------------------------------------------------

    def _run(self) -> None:  # pragma: no cover - timing loop; body unit-tested
        stop = self._stop
        while not stop.wait(self.interval_seconds):
            try:
                self.sample_once()
            except Exception:
                # A torn frame walk (thread exiting mid-sample) must never
                # kill the profiler; skip the tick.
                continue

    def sample_once(self) -> int:
        """Take one sample of every live thread; returns threads sampled.

        Public so tests can drive the attribution logic deterministically
        without depending on wall-clock sampling.
        """
        frames = sys._current_frames()
        # Drop this thread's own frame: it holds ``frames`` as a local, so
        # keeping it would make a cycle that pins every sampled stack -- and
        # the locals of functions that have since returned -- until the next
        # cyclic collection.
        del frames[threading.get_ident()]
        self.ticks += 1
        sampled = 0
        for top in frames.values():
            sampled += 1
            self.samples += 1
            code = top.f_code
            key = f"{os.path.basename(code.co_filename)}:{code.co_name}"
            self._function_samples[key] = self._function_samples.get(key, 0) + 1
            frame: Any = top
            depth = 0
            while frame is not None and depth < self.max_stack_depth:
                marker = self._markers.get(frame.f_code)
                if marker is not None:
                    local_name, attribute = marker
                    signature = getattr(frame.f_locals.get(local_name), attribute, None)
                    if isinstance(signature, str):
                        self._stage_samples[signature] = (
                            self._stage_samples.get(signature, 0) + 1
                        )
                    break
                frame = frame.f_back
                depth += 1
        return sampled

    # -- reporting --------------------------------------------------------------

    def snapshot(self, top_functions: int = 10) -> Dict[str, Any]:
        """Current sample attribution (safe to call from any thread)."""
        # dict(...) is one C call, atomic under the GIL, so the copies are
        # consistent even while the sampler thread keeps writing.
        stages = dict(self._stage_samples)
        functions = dict(self._function_samples)
        samples = self.samples
        interval = self.interval_seconds
        active = self._active_seconds
        if self._started_at is not None:
            active += time.perf_counter() - self._started_at
        return {
            "running": self.running,
            "interval_seconds": interval,
            "active_seconds": round(active, 3),
            "samples": samples,
            "stages": {
                signature: {
                    "samples": count,
                    "est_self_seconds": round(count * interval, 6),
                    "share": round(count / samples, 4) if samples else 0.0,
                }
                for signature, count in sorted(
                    stages.items(), key=lambda item: -item[1]
                )
            },
            "top_functions": [
                {"function": name, "samples": count}
                for name, count in sorted(functions.items(), key=lambda item: -item[1])[
                    :top_functions
                ]
            ],
        }
