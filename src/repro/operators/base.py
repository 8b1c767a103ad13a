"""Operator abstraction shared by every runtime in the repository.

An :class:`Operator` is a trained transformation: it consumes one value per
record (a string, a token list, a feature vector, ...) and produces one value.
Operators carry

* a *schema* (:class:`ValueKind` of input and output) used by Oven's
  validation rules,
* a set of *annotations* (memory-bound vs compute-bound, 1-to-1 vs n-to-1,
  commutative/associative, ...) used by Oven's stage-building rules, and
* a list of :class:`Parameter` objects -- the trained state that PRETZEL's
  Object Store deduplicates across pipelines.

Training (``fit``) happens once, off-line; serving systems only ever call
``transform``.  This mirrors the paper's observation that, once trained, ML
models behave like any other featurizer.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.operators.batch import ColumnBatch, as_column_batch

__all__ = [
    "ValueKind",
    "OperatorKind",
    "Annotation",
    "Parameter",
    "Operator",
    "known_parameters",
]


class ValueKind(enum.Enum):
    """The type of a value flowing between operators (ML.Net column types)."""

    TEXT = "text"
    TOKENS = "tokens"
    VECTOR = "vector"
    SCALAR = "scalar"
    KEY = "key"  # categorical key (e.g. predicted class id, cluster id)
    ROW = "row"  # raw structured record (dict of named fields)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ValueKind.{self.name}"


class OperatorKind(enum.Enum):
    """Coarse role of an operator inside a pipeline."""

    SOURCE = "source"
    FEATURIZER = "featurizer"
    PREDICTOR = "predictor"


class Annotation(enum.Flag):
    """Static properties Oven uses to group operators into stages.

    The paper (Section 4.1.2) notes that ML.Net's operator set is fixed, so
    manual annotation is sufficient for the optimizer -- no dynamic analysis
    is required.  The same approach is used here.
    """

    NONE = 0
    ONE_TO_ONE = enum.auto()
    N_TO_ONE = enum.auto()  # pipeline breaker: needs all inputs materialized
    MEMORY_BOUND = enum.auto()
    COMPUTE_BOUND = enum.auto()
    COMMUTATIVE = enum.auto()
    ASSOCIATIVE = enum.auto()
    VECTORIZABLE = enum.auto()


#: value types a *flat* dict may hold (exact types: a subclass may override
#: ``repr``); see :func:`_flat_value_types`
_FLAT_VALUE_TYPES = frozenset((int, float, bool, str, type(None)))
#: ``str(dtype).encode()`` of the numeric dtypes seen so far, by
#: ``(dtype.type, dtype.str)``
_DTYPE_TAGS: Dict[Tuple[type, str], bytes] = {}


def _flat_value_types(mapping: dict) -> Optional[set]:
    """The value types of a dict of ``str`` keys and scalar values, else None.

    Such a *flat* dict (a trained vocabulary, a config) is checksummed and
    sized in bulk, at C speed, with the same result as the per-entry walk.
    """
    if not set(map(type, mapping)) <= {str}:
        return None
    value_types = set(map(type, mapping.values()))
    return value_types if value_types <= _FLAT_VALUE_TYPES else None


def _checksum_of(value: Any) -> str:
    """Stable content checksum used for parameter deduplication."""
    hasher = hashlib.sha256()
    _feed(hasher, value)
    return hasher.hexdigest()


def _feed(hasher: "hashlib._Hash", value: Any) -> None:
    if isinstance(value, np.ndarray):
        dtype = value.dtype
        if dtype.kind in "biufc":
            # A numeric dtype's str() is its name ("float64") when native,
            # else its ``.str`` ("<f8"): both are fixed by the scalar type
            # and ``.str``.  Unpickled dtypes are fresh objects, so the key
            # is not the dtype itself.
            key = (dtype.type, dtype.str)
            tag = _DTYPE_TAGS.get(key)
            if tag is None:
                tag = _DTYPE_TAGS[key] = str(dtype).encode()
        else:
            tag = str(dtype).encode()
        hasher.update(b"ndarray")
        hasher.update(tag)
        hasher.update(str(value.shape).encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        hasher.update(b"dict")
        if _flat_value_types(value) is not None:
            # The per-entry walk below feeds repr(key) + repr(item) in
            # repr(key) order.  SHA-256 is streaming, so one update of the
            # concatenation is the same digest; and str reprs are prefix-free,
            # so sorting the concatenations orders them by repr(key) too.
            entries = map(str.__add__, map(repr, value), map(repr, value.values()))
            hasher.update("".join(sorted(entries)).encode())
            return
        for key in sorted(value, key=repr):
            hasher.update(repr(key).encode())
            _feed(hasher, value[key])
    elif isinstance(value, (list, tuple)):
        hasher.update(b"seq")
        for item in value:
            _feed(hasher, item)
    else:
        hasher.update(repr(value).encode())


def _nbytes_of(value: Any) -> int:
    """Approximate in-memory size of a parameter value in bytes."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        # Keys are typically short strings (n-grams); count their UTF-8 bytes
        # plus a small per-entry overhead for the hash-table slot.
        value_types = _flat_value_types(value)
        if value_types is not None:
            # The loop below in closed form: str items count their UTF-8
            # bytes, every other flat item 8.
            strings = (
                [item for item in value.values() if type(item) is str]
                if str in value_types
                else []
            )
            return (
                len("".join(value).encode())
                + len("".join(strings).encode())
                + 16 * len(value)
                + 8 * (len(value) - len(strings))
            )
        total = 0
        for key, item in value.items():
            total += len(str(key).encode()) + 16
            total += _nbytes_of(item)
        return total
    if isinstance(value, (list, tuple)):
        return sum(_nbytes_of(item) for item in value) + 8 * len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (int, float, bool)) or value is None:
        return 8
    return 64


#: parameter values at least this large have their ``(checksum, nbytes)``
#: memoised on their owner (see :class:`Parameter`)
_PARAMETER_MEMO_MIN_BYTES = 4096
#: instance attribute holding an owner's memo: parameter name ->
#: ``(value, checksum, nbytes)``
_PARAMETER_MEMO_ATTR = "_parameter_memo"
#: ``id(value)`` -> ``(value, checksum, nbytes)`` of the values whose checksum
#: is already known; filled only inside :func:`known_parameters`
_KNOWN_VALUES: Dict[int, Tuple[Any, str, int]] = {}


@contextlib.contextmanager
def known_parameters(parameters: Iterable["Parameter"]) -> Iterator[None]:
    """Within the block, a Parameter built on one of these very values skips hashing.

    It takes the checksum and size of the listed parameter holding that
    value.  A serving worker wraps a registration in this with the
    parameters its Object Store resolved by reference, so a shared
    vocabulary is hashed once per process, not once per plan.  Entries are
    matched by identity and hold their value, so a recycled ``id()`` can
    never match one.
    """
    added = []
    for parameter in parameters:
        key = id(parameter.value)
        if key not in _KNOWN_VALUES:
            _KNOWN_VALUES[key] = (parameter.value, parameter.checksum, parameter.nbytes)
            added.append(key)
    try:
        yield
    finally:
        for key in added:
            _KNOWN_VALUES.pop(key, None)


class Parameter:
    """A named piece of trained operator state.

    Parameters are the unit of sharing in PRETZEL's Object Store: two
    operators from different pipelines that were trained to identical state
    (same dictionary, same weights) produce parameters with the same checksum
    and are stored only once.

    Checksumming a trained dictionary or weight array costs O(its bytes), and
    ``parameters()`` is called several times per registration.  Passing the
    object that holds ``value`` as ``owner`` memoises ``(checksum, nbytes)``
    *on that owner*, so repeated calls are O(1) and the memo lives exactly as
    long as the state it describes: an unpickled plan's private duplicates are
    freed as soon as the Object Store swaps in the canonical operator, and a
    canonical operator's when its last plan unregisters.  The memo is checked
    by identity, so values must be replaced, never mutated in place, once a
    Parameter has been built from them.  A value listed by an enclosing
    :func:`known_parameters` is not hashed either.
    """

    __slots__ = ("name", "value", "checksum", "nbytes")

    def __init__(self, name: str, value: Any, owner: Any = None):
        self.name = name
        self.value = value
        if owner is not None:
            cached = owner.__dict__.get(_PARAMETER_MEMO_ATTR, {}).get(name)
            if cached is not None and cached[0] is value:
                self.checksum = cached[1]
                self.nbytes = cached[2]
                return
        known = _KNOWN_VALUES.get(id(value))
        if known is not None and known[0] is value:
            self.checksum = known[1]
            self.nbytes = known[2]
        else:
            self.checksum = _checksum_of(value)
            self.nbytes = _nbytes_of(value)
        if owner is not None and self.nbytes >= _PARAMETER_MEMO_MIN_BYTES:
            memo = owner.__dict__.setdefault(_PARAMETER_MEMO_ATTR, {})
            memo[name] = (value, self.checksum, self.nbytes)

    @property
    def key(self) -> str:
        """The Object Store's key for this parameter: ``name:checksum``."""
        return f"{self.name}:{self.checksum}"

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, {self.nbytes}B, {self.checksum[:8]})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Parameter)
            and self.name == other.name
            and self.checksum == other.checksum
        )

    def __hash__(self) -> int:
        return hash((self.name, self.checksum))


class Operator:
    """Base class for all trained transformations."""

    #: human readable operator family name ("Tokenizer", "CharNgram", ...)
    name: str = "Operator"
    kind: OperatorKind = OperatorKind.FEATURIZER
    input_kind: ValueKind = ValueKind.VECTOR
    output_kind: ValueKind = ValueKind.VECTOR
    annotations: Annotation = Annotation.ONE_TO_ONE | Annotation.MEMORY_BOUND
    #: static hint that the operator's output vectors are typically sparse
    #: (used by Oven's stage labelling when no training statistics exist)
    produces_sparse: bool = False
    #: True when :meth:`transform_batch` is a genuinely vectorized kernel.
    #: The base-class implementation is a per-record loop over
    #: :meth:`transform` -- the explicit escape hatch the engine records as a
    #: loop fallback in its stage-batching telemetry.
    supports_batch: bool = False
    #: instance attributes holding derived state (memos, caches): rebuilt on
    #: demand, excluded from pickles by :meth:`__getstate__`
    derived_attributes: Tuple[str, ...] = (_PARAMETER_MEMO_ATTR,)

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        """Estimate parameters from training data.  Returns ``self``."""
        return self

    def transform(self, value: Any) -> Any:
        """Transform a single record's value.

        The batch kernel is the primary contract; the base implementation is
        the derived batch-of-1 wrapper around :meth:`transform_batch`.  Most
        operators override it with a scalar fast path (the request-response
        engine executes one record at a time and must not pay batch set-up).
        """
        if type(self).transform_batch is Operator.transform_batch:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither transform nor transform_batch"
            )
        return self.transform_batch(ColumnBatch.from_rows([value])).row(0)

    def transform_batch(self, values: Union[ColumnBatch, Sequence[Any]]) -> ColumnBatch:
        """Transform a whole batch; the primary kernel of the contract.

        Accepts (and returns) a :class:`~repro.operators.batch.ColumnBatch`;
        plain sequences are coerced, so callers outside the engine can still
        pass lists.  The base implementation is the ``supports_batch=False``
        escape hatch: a per-record loop over :meth:`transform`.  Operators
        with vectorizable kernels override it with a columnar numpy path and
        declare ``supports_batch = True``.
        """
        batch = as_column_batch(values)
        return ColumnBatch.from_rows([self.transform(value) for value in batch.rows])

    def parameters(self) -> List[Parameter]:
        """Trained state as a list of shareable :class:`Parameter` objects."""
        return []

    def prepare(self) -> None:
        """Build derived serving state ahead of the first request (idempotent).

        Called by the plan compiler on every canonical operator when AOT
        compilation is enabled, so structures derived from the trained state
        (e.g. the n-gram key tables) are paid for at registration, not on the
        prediction path.  Derived state is never a :class:`Parameter` and
        never pickled.
        """

    def __getstate__(self) -> Dict[str, Any]:
        # Derived state (the parameter memo, kernel caches) stays out of pickles.
        state = self.__dict__
        derived = self.derived_attributes
        if any(name in state for name in derived):
            state = {key: value for key, value in state.items() if key not in derived}
        return state

    def output_size(self) -> Optional[int]:
        """Dimensionality of the output vector, if the output is a vector."""
        return None

    # -- bookkeeping ------------------------------------------------------

    def memory_bytes(self) -> int:
        """Total parameter footprint of this operator instance."""
        return sum(param.nbytes for param in self.parameters())

    def signature(self) -> str:
        """Checksum identifying the operator family plus all of its state.

        Two operators with equal signatures are functionally interchangeable;
        PRETZEL uses this to share physical stages and materialized sub-plan
        results between pipelines.
        """
        hasher = hashlib.sha256()
        hasher.update(self.name.encode())
        for param in self.parameters():
            hasher.update(param.name.encode())
            hasher.update(param.checksum.encode())
        hasher.update(repr(self._config()).encode())
        return hasher.hexdigest()

    def _config(self) -> Dict[str, Any]:
        """Hyper-parameters that affect behaviour but are not trained state."""
        return {}

    def describe(self) -> Dict[str, Any]:
        """Structured description used by model files and reporting."""
        return {
            "name": self.name,
            "kind": self.kind.value,
            "input": self.input_kind.value,
            "output": self.output_kind.value,
            "config": self._config(),
            "memory_bytes": self.memory_bytes(),
        }

    def is_pipeline_breaker(self) -> bool:
        """True when this operator needs all inputs materialized (n-to-1)."""
        return bool(self.annotations & Annotation.N_TO_ONE)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def iter_parameters(operators: Iterable[Operator]) -> Iterable[Parameter]:
    """Yield every parameter of every operator (duplicates included)."""
    for operator in operators:
        yield from operator.parameters()
