"""Virtual-time simulation of multi-core serving.

Python threads cannot exhibit linear multi-core scaling under the GIL, so the
throughput and heavy-load experiments (Figures 12-14) run the serving
systems' *scheduling behaviour* in virtual time: per-stage and per-request
service times are measured from the real implementations (calibration), and a
discrete-event loop replays request arrivals over N simulated cores.  The
black-box systems run thread-per-request; PRETZEL runs the shipped
:class:`repro.core.scheduler.Scheduler` itself (two priority queues, late
binding, reservations, stage batching), pulled by virtual cores instead of
executor threads.

See ARCHITECTURE.md, "The batch engine: caller-runs groups and the
scheduler".
"""

from repro.simulation.calibrate import (
    CalibratedPlan,
    calibrate_blackbox,
    calibrate_container,
    calibrate_plan_stages,
)
from repro.simulation.queueing import (
    ArrivalProcess,
    SimulationResult,
    simulate_stage_scheduler,
    simulate_thread_per_request,
)

__all__ = [
    "CalibratedPlan",
    "calibrate_plan_stages",
    "calibrate_blackbox",
    "calibrate_container",
    "ArrivalProcess",
    "SimulationResult",
    "simulate_thread_per_request",
    "simulate_stage_scheduler",
]
