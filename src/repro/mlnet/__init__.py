"""ML.Net-like black-box pipeline library and serving runtime.

This package is the *baseline* the paper compares against: a declarative
pipeline library whose trained models are deployed as black boxes.  It
provides

* :mod:`repro.mlnet.pipeline` -- the pipeline DAG abstraction with pull-based
  operator-at-a-time execution,
* :mod:`repro.mlnet.dataview` -- Volcano-style cursors used by that execution
  model,
* :mod:`repro.mlnet.model_file` -- the stored form of a trained model: one
  state blob per operator (hyper-parameters, parameter arrays, vocabularies),
  and
* :mod:`repro.mlnet.runtime` -- a serving runtime that loads models from that
  stored form and answers prediction requests, paying per-pipeline
  initialization (graph analysis, type checking, code specialization) on the
  cold path.
"""

from repro.mlnet.pipeline import Pipeline, PipelineNode
from repro.mlnet.runtime import MLNetRuntime, MLNetRuntimeConfig

__all__ = [
    "Pipeline",
    "PipelineNode",
    "MLNetRuntime",
    "MLNetRuntimeConfig",
]
