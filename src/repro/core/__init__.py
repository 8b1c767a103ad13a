"""PRETZEL: the white-box prediction serving system.

The package mirrors the paper's architecture (Section 4):

* **off-line phase** -- :mod:`repro.core.flour` (language-integrated API),
  :mod:`repro.core.oven` (optimizer + model plan compiler) and
  :mod:`repro.core.object_store` (shared parameter storage);
* **on-line phase** -- :mod:`repro.core.runtime` (catalog + engines),
  :mod:`repro.core.scheduler` (event-based late-binding scheduling over
  executors) and :mod:`repro.core.frontend` (client-facing layer with
  external optimizations such as prediction caching and delayed batching).

The paper's per-executor vector pools (Section 4.2.1) are not reproduced:
every kernel here allocates its own outputs, so a pooled buffer would be
lent and returned without being written.
"""

from repro.core.config import PretzelConfig
from repro.core.flour import FlourContext, FlourProgram, flour_from_pipeline
from repro.core.object_store import ObjectStore
from repro.core.runtime import PretzelRuntime
from repro.core.frontend import PretzelFrontEnd, FrontEndConfig
from repro.core.statistics import TransformStats

__all__ = [
    "PretzelConfig",
    "FlourContext",
    "FlourProgram",
    "flour_from_pipeline",
    "ObjectStore",
    "PretzelRuntime",
    "PretzelFrontEnd",
    "FrontEndConfig",
    "TransformStats",
]
