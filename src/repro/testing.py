"""Shared test doubles for scheduler-facing suites and micro-benchmarks.

The scheduler only ever looks at a plan through two surfaces: the
``stages[i].physical.full_signature`` chain and ``stage_signature(index)``.
:class:`StubPlan` provides exactly that and nothing else, so scheduler-policy
tests and the batch-formation micro-benchmark can drive queueing behaviour
without training or compiling a real model plan.  The virtual-time simulator
(:func:`repro.simulation.queueing.simulate_stage_scheduler`) builds one per
simulated model as well, to run the shipped scheduler on calibrated stage
times.
"""

from __future__ import annotations

from typing import List

__all__ = ["StubStage", "StubPlan"]


class _StubPhysical:
    def __init__(self, signature: str):
        self.full_signature = signature


class StubStage:
    """The minimum a scheduler-side stage needs: a physical signature."""

    def __init__(self, signature: str):
        self.physical = _StubPhysical(signature)


class StubPlan:
    """A plan skeleton: a list of stage signatures, no executable code."""

    def __init__(self, *signatures: str):
        self.stages: List[StubStage] = [StubStage(signature) for signature in signatures]

    def stage_signature(self, index: int) -> str:
        return self.stages[index].physical.full_signature
