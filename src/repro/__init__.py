"""PRETZEL reproduction: white-box machine-learning prediction serving.

The package is organised in layers (see ARCHITECTURE.md):

* :mod:`repro.operators` -- the ML operator substrate (featurizers + models),
* :mod:`repro.mlnet` -- the ML.Net-like black-box pipeline library & runtime,
* :mod:`repro.clipper` -- the containerized (Clipper-style) serving baseline,
* :mod:`repro.core` -- PRETZEL itself: Flour, Oven, Object Store, Runtime,
  Scheduler, FrontEnd,
* :mod:`repro.workloads` -- the SA / AC pipeline families and datasets,
* :mod:`repro.simulation` -- virtual-time multi-core serving simulation,
* :mod:`repro.telemetry` -- latency/memory/throughput measurement helpers.
"""

from repro.core import (
    FlourContext,
    FlourProgram,
    ObjectStore,
    PretzelConfig,
    PretzelFrontEnd,
    PretzelRuntime,
    flour_from_pipeline,
)
from repro.mlnet import MLNetRuntime, Pipeline
from repro.clipper import ClipperFrontEnd

__version__ = "0.1.0"

__all__ = [
    "PretzelRuntime",
    "PretzelConfig",
    "PretzelFrontEnd",
    "FlourContext",
    "FlourProgram",
    "flour_from_pipeline",
    "ObjectStore",
    "MLNetRuntime",
    "Pipeline",
    "ClipperFrontEnd",
    "__version__",
]
