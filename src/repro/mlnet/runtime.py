"""Black-box serving runtime (the "ML.Net" baseline of the paper).

One runtime instance hosts many trained pipelines, but each pipeline is an
opaque unit: parameters are never shared across pipelines, and the first
prediction for a pipeline pays the full initialization cost -- materializing
the pipeline from its stored representation, pipeline analysis and
validation, and specialization of the function-call chain (the stand-in for
reflection + JIT compilation in the CLR).  Subsequent ("hot") predictions
reuse the specialized chain.  Per the ML.Net execution model, every operator
materializes its output into a fresh immutable buffer on each prediction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mlnet.model_file import operator_from_state, operator_state
from repro.mlnet.pipeline import Pipeline
from repro.operators.base import _nbytes_of
from repro.operators.vectors import DenseVector, SparseVector

__all__ = ["MLNetRuntimeConfig", "MLNetRuntime", "LoadedModel", "ModelInitializer"]


@dataclass
class MLNetRuntimeConfig:
    """Knobs of the black-box runtime.

    ``runtime_overhead_bytes`` models the fixed footprint of the hosting
    process (CLR, libraries, thread stacks).  ``per_model_overhead_bytes``
    models per-pipeline bookkeeping the runtime allocates besides the
    parameters themselves (buffers, delegates, reflection caches).  Both are
    scaled down by the same ~1/64 factor applied to the workload parameter
    sizes (see ARCHITECTURE.md) so ratios between systems match the paper.
    ``copy_outputs`` reproduces ML.Net's immutable per-operator output
    buffers (allocation on the data path); ``lazy_initialization`` defers
    pipeline materialization and chain specialization to the first prediction
    (the cold path of Figures 4 and 9).
    """

    runtime_overhead_bytes: int = 2 * 1024 * 1024
    per_model_overhead_bytes: int = 64 * 1024
    enable_specialization: bool = True
    copy_outputs: bool = True
    lazy_initialization: bool = True


@dataclass
class LoadedModel:
    """A pipeline registered in the runtime together with its serving state."""

    name: str
    pipeline: Optional[Pipeline] = None
    #: deferred representation: the pipeline graph plus per-operator state
    #: blobs, materialized into operators on first use
    graph: Optional[List[Dict[str, Any]]] = None
    states: Optional[List[Dict[str, Any]]] = None
    initialized: bool = False
    compiled: Optional[Callable[[Any], Any]] = None
    load_seconds: float = 0.0
    init_seconds: float = 0.0
    predictions: int = 0
    extra_bytes: int = 0
    #: parameter bytes of the stored representation, computed once at load
    state_bytes: int = 0


def _copy_value(value: Any) -> Any:
    """Copy an operator output into a fresh buffer (immutable VBuffer semantics)."""
    if isinstance(value, DenseVector):
        return DenseVector(value.values.copy())
    if isinstance(value, SparseVector):
        return SparseVector(value.indices.copy(), value.values.copy(), value.size)
    if isinstance(value, list):
        return list(value)
    return value


class ModelInitializer:
    """Performs the cold-path work: analysis, validation and specialization.

    The specialization step builds a single Python function whose body chains
    all operator calls of the DAG (the analogue of ML.Net JIT-compiling the
    function-call chain into one method).  Building, compiling and executing
    that source is real work paid exactly once per pipeline.
    """

    def __init__(self, enable_specialization: bool = True, copy_outputs: bool = True):
        self.enable_specialization = enable_specialization
        self.copy_outputs = copy_outputs

    def initialize(self, pipeline: Pipeline) -> Callable[[Any], Any]:
        pipeline.validate()
        self._analyze_schemas(pipeline)
        if not self.enable_specialization:
            return lambda record: pipeline.predict(record)
        return self._specialize(pipeline)

    def _analyze_schemas(self, pipeline: Pipeline) -> Dict[str, str]:
        """Propagate output kinds through the DAG (ML.Net's type inference)."""
        kinds: Dict[str, str] = {Pipeline.INPUT: "row-or-text"}
        for name in pipeline.topological_order():
            node = pipeline.nodes[name]
            for upstream in node.inputs:
                if upstream not in kinds:
                    raise RuntimeError(f"schema analysis visited {name!r} before {upstream!r}")
            kinds[name] = node.operator.output_kind.value
        return kinds

    def _specialize(self, pipeline: Pipeline) -> Callable[[Any], Any]:
        order = pipeline.topological_order()
        lines = ["def _predict(record, _ops):"]
        var_of = {Pipeline.INPUT: "record"}
        for index, name in enumerate(order):
            node = pipeline.nodes[name]
            var = f"_v{index}"
            if len(node.inputs) == 1:
                argument = var_of[node.inputs[0]]
            else:
                argument = "[" + ", ".join(var_of[upstream] for upstream in node.inputs) + "]"
            lines.append(f"    {var} = _ops[{name!r}]({argument})")
            var_of[name] = var
        lines.append(f"    return {var_of[pipeline.sink()]}")
        source = "\n".join(lines)
        namespace: Dict[str, Any] = {}
        code = compile(source, filename=f"<specialized:{pipeline.name}>", mode="exec")
        exec(code, namespace)  # noqa: S102 - controlled, generated source
        if self.copy_outputs:
            ops = {
                name: self._copying_kernel(pipeline.nodes[name].operator.transform)
                for name in order
            }
        else:
            ops = {name: pipeline.nodes[name].operator.transform for name in order}
        compiled = namespace["_predict"]
        return lambda record: compiled(record, ops)

    @staticmethod
    def _copying_kernel(transform: Callable[[Any], Any]) -> Callable[[Any], Any]:
        return lambda value: _copy_value(transform(value))


class MLNetRuntime:
    """Serve predictions for many black-box pipelines from one process."""

    def __init__(self, config: Optional[MLNetRuntimeConfig] = None):
        self.config = config or MLNetRuntimeConfig()
        self._models: Dict[str, LoadedModel] = {}
        self._initializer = ModelInitializer(
            self.config.enable_specialization, self.config.copy_outputs
        )

    # -- registration ------------------------------------------------------

    def load(self, pipeline: Pipeline, name: Optional[str] = None, clone: bool = True) -> str:
        """Register an in-memory pipeline.

        With ``clone=True`` (default) the runtime stores its own serialized
        copy of the model -- as if a separate model file had been deployed --
        and defers materialization to the first prediction (when
        ``lazy_initialization`` is on), exactly like deploying the training
        pipeline unchanged.
        """
        model_name = name or pipeline.name
        if model_name in self._models:
            raise ValueError(f"model {model_name!r} already loaded")
        start = time.perf_counter()
        entry = LoadedModel(name=model_name)
        if clone:
            entry.graph = [
                {"name": node_name, "inputs": pipeline.nodes[node_name].inputs}
                for node_name in pipeline.topological_order()
            ]
            entry.states = [
                operator_state(pipeline.nodes[node_name].operator)
                for node_name in pipeline.topological_order()
            ]
            entry.state_bytes = self._state_bytes(entry.states)
            if not self.config.lazy_initialization:
                entry.pipeline = self._materialize(entry)
        else:
            entry.pipeline = pipeline
        entry.load_seconds = time.perf_counter() - start
        self._models[model_name] = entry
        return model_name

    def unload(self, name: str) -> None:
        """Evict a model (the "infrequent access" policy of Section 2)."""
        self._models.pop(name, None)

    def is_loaded(self, name: str) -> bool:
        return name in self._models

    def model_names(self) -> List[str]:
        return list(self._models)

    def model(self, name: str) -> LoadedModel:
        if name not in self._models:
            raise KeyError(f"model {name!r} is not loaded")
        return self._models[name]

    # -- initialization (the cold path) --------------------------------------

    def _materialize(self, entry: LoadedModel) -> Pipeline:
        """Rebuild the pipeline object from its stored representation."""
        if entry.pipeline is not None:
            return entry.pipeline
        if entry.graph is None or entry.states is None:
            raise RuntimeError(f"model {entry.name!r} has no stored representation")
        pipeline = Pipeline(entry.name)
        for node, state in zip(entry.graph, entry.states):
            pipeline.add(node["name"], operator_from_state(state), node["inputs"])
        return pipeline

    def _ensure_initialized(self, entry: LoadedModel) -> None:
        if entry.initialized:
            return
        start = time.perf_counter()
        entry.pipeline = self._materialize(entry)
        entry.compiled = self._initializer.initialize(entry.pipeline)
        entry.init_seconds = time.perf_counter() - start
        entry.initialized = True

    def warm_up(self, name: str, record: Any) -> None:
        """Initialize a model and run one prediction (pre-warming)."""
        self.predict(name, record)

    # -- inference ---------------------------------------------------------

    def predict(self, name: str, record: Any) -> Any:
        """Score one record; the first call per model pays initialization."""
        entry = self.model(name)
        self._ensure_initialized(entry)
        entry.predictions += 1
        assert entry.compiled is not None
        return entry.compiled(record)

    def predict_batch(self, name: str, records: Sequence[Any]) -> List[Any]:
        """Score a batch of records through the pull-based DataView chain."""
        entry = self.model(name)
        self._ensure_initialized(entry)
        entry.predictions += len(records)
        assert entry.pipeline is not None
        return entry.pipeline.predict_batch(records)

    def timed_predict(self, name: str, record: Any) -> Tuple[Any, float]:
        """Return ``(prediction, latency_seconds)`` for one request."""
        start = time.perf_counter()
        result = self.predict(name, record)
        return result, time.perf_counter() - start

    # -- accounting --------------------------------------------------------

    @staticmethod
    def _state_bytes(states: Sequence[Dict[str, Any]]) -> int:
        total = 0
        for state in states:
            for array in state.get("arrays", {}).values():
                total += int(np.asarray(array).nbytes)
            total += _nbytes_of(state.get("vocab", {}))
        return total

    def memory_bytes(self) -> int:
        """Total resident footprint: runtime + per-model copies (no sharing)."""
        total = self.config.runtime_overhead_bytes
        for entry in self._models.values():
            if entry.pipeline is not None:
                total += entry.pipeline.memory_bytes()
            elif entry.states is not None:
                total += entry.state_bytes
            total += self.config.per_model_overhead_bytes
            total += entry.extra_bytes
        return total

    def load_seconds(self) -> float:
        """Cumulative time spent loading/cloning models (excluding lazy init)."""
        return sum(entry.load_seconds for entry in self._models.values())

    def initialization_seconds(self) -> float:
        """Cumulative time spent in first-prediction initialization."""
        return sum(entry.init_seconds for entry in self._models.values())

    def stats(self) -> Dict[str, Any]:
        return {
            "models": len(self._models),
            "memory_bytes": self.memory_bytes(),
            "initialized": sum(1 for entry in self._models.values() if entry.initialized),
            "predictions": sum(entry.predictions for entry in self._models.values()),
        }
