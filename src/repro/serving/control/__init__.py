"""Serving control plane: the transport, failure detection, plan lifecycle.

The data plane (:mod:`repro.serving.worker`, the router's dispatch path)
moves predictions; this package holds the byte transport that connects the
cluster to each worker (:mod:`~repro.serving.control.transport`) and
decides *membership and placement over time*: when a worker is declared dead
and its plans re-homed (:mod:`~repro.serving.control.failure`,
:mod:`~repro.serving.control.plane`), and when a plan's shared-memory slabs
can be reclaimed (:mod:`~repro.serving.control.lifecycle`).
"""

from repro.serving.control.failure import FailureDetector, WorkerFailedError
from repro.serving.control.lifecycle import PlanLifecycle
from repro.serving.control.plane import ControlPlane
from repro.serving.control.transport import SocketTransport, Transport

__all__ = [
    "Transport",
    "SocketTransport",
    "FailureDetector",
    "WorkerFailedError",
    "PlanLifecycle",
    "ControlPlane",
]
