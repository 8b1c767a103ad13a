"""The Object Store: shared storage for operator parameters and cached results.

Section 4.1.3: many DAGs have similar structures, so sharing operators' state
(parameters) considerably improves memory footprint and, as a consequence,
the number of predictions served per machine.  Parameters are compared by the
checksum of their serialized form; parameters already present are reused and
the registering plan is rewritten to point at the existing copy.

The store also hosts the LRU byte-budgeted cache used by sub-plan
materialization (Section 4.3).

**Parameter backing.**  A store may be constructed with a *parameter backing*
(:class:`ParameterBacking`) -- the hook the multi-process serving tier uses to
map parameter buffers out of the hosting process.  On registration every new
parameter is offered to the backing via :meth:`ParameterBacking.adopt`, which
may rebind its value to externally shared storage (a
:class:`~repro.serving.shm_store.SharedMemoryArena` slab).  Backed parameters
are excluded from :meth:`ObjectStore.memory_bytes` -- their bytes live in the
shared segment and are accounted exactly once by whoever owns it -- and
reported separately via :meth:`shared_parameter_bytes`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.operators.base import Operator, Parameter

__all__ = ["ObjectStore", "LruByteCache", "ParameterBacking"]


class ParameterBacking:
    """Hook for mapping parameter values onto storage outside this process.

    The default implementation is a no-op (every parameter stays process
    local).  The serving tier's :class:`~repro.serving.shm_store.ArenaClient`
    overrides :meth:`adopt` to rebind numpy-array parameters to read-only
    views of a shared-memory arena, and :meth:`is_shared` so the store can
    account those bytes as mapped-once instead of owned.
    """

    def adopt(self, parameter: Parameter) -> Parameter:
        """Return the parameter to store (possibly rebound to shared storage)."""
        return parameter

    def adopt_operator(self, operator: Operator) -> None:
        """Rebind a new canonical operator's state onto shared storage.

        Called once per operator, right before the store keeps it as the
        canonical instance every plan will execute.  Plan compilation may
        rewrite trained state into new arrays (e.g. the linear push-through
        rule splits a model's weights per concat branch), so attribute-level
        rebinding must happen *here*, on the post-rewrite operator -- not
        only on the raw pipeline the model file carried.
        """

    def is_shared(self, parameter: Parameter) -> bool:
        """True when the parameter's bytes live in shared storage."""
        return False

    def stats(self) -> Dict[str, Any]:
        """Backing-specific counters merged into the store's stats."""
        return {}


class LruByteCache:
    """A byte-budgeted LRU cache (used for materialized sub-plan results)."""

    def __init__(self, budget_bytes: int):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key][0]
            self.misses += 1
            return None

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        if nbytes > self.budget_bytes:
            return
        with self._lock:
            if key in self._entries:
                self._used -= self._entries[key][1]
            self._entries[key] = (value, nbytes)
            self._entries.move_to_end(key)
            self._used += nbytes
            while self._used > self.budget_bytes and self._entries:
                _key, (_value, size) = self._entries.popitem(last=False)
                self._used -= size
                self.evictions += 1

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._used = 0


class ObjectStore:
    """Deduplicated storage of operator parameters (and whole operators).

    ``intern_operator`` returns a canonical operator instance for a given
    operator *signature* (operator family + configuration + parameter
    checksums): the first registration stores the instance, later
    registrations of functionally identical operators are rewritten to the
    stored one.  ``intern_parameter`` provides the same service at the
    granularity of a single parameter.

    Dedup hits and misses are counted per granularity (``parameter_hits``/
    ``parameter_misses``, ``operator_hits``/``operator_misses``) so serving
    telemetry can report cache health per runtime.
    """

    def __init__(
        self,
        enabled: bool = True,
        materialization_budget_bytes: int = 32 * 1024 * 1024,
        parameter_backing: Optional[ParameterBacking] = None,
    ):
        self.enabled = enabled
        self.parameter_backing = parameter_backing
        self._parameters: Dict[str, Parameter] = {}
        self._parameter_refcount: Dict[str, int] = {}
        self._operators: Dict[str, Operator] = {}
        self._operator_refcount: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.materialization_cache = LruByteCache(materialization_budget_bytes)
        self.parameter_hits = 0
        self.parameter_misses = 0
        self.operator_hits = 0
        self.operator_misses = 0

    # -- parameters ---------------------------------------------------------

    def intern_parameter(self, parameter: Parameter) -> Parameter:
        """Return the canonical copy of ``parameter`` (storing it if new)."""
        if not self.enabled:
            return parameter
        key = parameter.key
        with self._lock:
            existing = self._parameters.get(key)
            if existing is not None:
                self.parameter_hits += 1
                self._parameter_refcount[key] += 1
                return existing
            self.parameter_misses += 1
            return self._store_parameter(key, parameter)

    def _store_parameter(self, key: str, parameter: Parameter) -> Parameter:
        """Store a new parameter, offering it to the backing first (lock held)."""
        if self.parameter_backing is not None:
            parameter = self.parameter_backing.adopt(parameter)
        self._parameters[key] = parameter
        self._parameter_refcount[key] = 1
        return parameter

    def has_parameter(self, parameter: Parameter) -> bool:
        return parameter.key in self._parameters

    def stored_parameter(self, key: str) -> Optional[Parameter]:
        """The stored parameter under ``key`` (:attr:`Parameter.key`), else None.

        Its value is the very object every plan holding the parameter
        executes against: a serving worker resolves a by-reference register
        to it instead of unpickling another copy.
        """
        return self._parameters.get(key)

    # -- operators ----------------------------------------------------------

    def intern_operator(self, operator: Operator) -> Operator:
        """Return the canonical instance for this operator's trained state.

        With the store disabled every caller keeps its own instance, which is
        exactly the "Pretzel (no ObjStore)" configuration of Figure 8.
        """
        if not self.enabled:
            return operator
        # Compute-then-publish: the signature (which checksums the trained
        # state) and the parameter harvest are the expensive part of an
        # intern and depend only on ``operator`` -- both run before the lock,
        # which is held just for the table lookups/updates.  The hit path
        # wastes one harvest; the lock stops being the registration-storm
        # bottleneck.
        signature = operator.signature()
        with self._lock:
            existing = self._operators.get(signature)
            if existing is not None:
                self._operator_refcount[signature] += 1
                self.operator_hits += 1
                return existing
        parameters = operator.parameters()
        with self._lock:
            # Recheck: another thread may have interned the same trained
            # state while we harvested its parameters.
            existing = self._operators.get(signature)
            if existing is not None:
                self._operator_refcount[signature] += 1
                self.operator_hits += 1
                return existing
            if self.parameter_backing is not None:
                self.parameter_backing.adopt_operator(operator)
            self._operators[signature] = operator
            self._operator_refcount[signature] = 1
            self.operator_misses += 1
            # Register the operator's parameters as well so parameter-level
            # queries (and memory accounting) see them.
            for parameter in parameters:
                key = parameter.key
                if key not in self._parameters:
                    self.parameter_misses += 1
                    self._store_parameter(key, parameter)
                else:
                    self.parameter_hits += 1
                    self._parameter_refcount[key] += 1
            return operator

    def release_operator(self, operator: Operator) -> bool:
        """Undo one :meth:`intern_operator` registration of this operator.

        Decrements the operator's reference count; when the last plan
        referencing this trained state releases it, the canonical instance is
        dropped and each of its parameters loses one reference (a parameter
        disappears only when *its* count reaches zero -- it may be shared by
        other operators or direct :meth:`intern_parameter` callers).  Dropping
        the canonical instance releases the store's hold on any externally
        backed (arena-adopted) views, which is what lets the serving tier's
        plan teardown honor the arena's slab liveness contract.

        Returns True when the canonical operator was actually removed.
        """
        if not self.enabled:
            return False
        signature = operator.signature()
        with self._lock:
            count = self._operator_refcount.get(signature)
            if count is None:
                return False
            if count > 1:
                self._operator_refcount[signature] = count - 1
                return False
            del self._operator_refcount[signature]
            stored = self._operators.pop(signature)
            for parameter in stored.parameters():
                self._release_parameter_locked(parameter.key)
            return True

    def _release_parameter_locked(self, key: str) -> None:
        count = self._parameter_refcount.get(key)
        if count is None:
            return
        if count > 1:
            self._parameter_refcount[key] = count - 1
            return
        del self._parameter_refcount[key]
        self._parameters.pop(key, None)

    def operator_refcount(self, operator: Operator) -> int:
        """How many plans registered an operator with this trained state."""
        return self._operator_refcount.get(operator.signature(), 0)

    # -- accounting ---------------------------------------------------------

    def unique_operator_count(self) -> int:
        return len(self._operators)

    def unique_parameter_count(self) -> int:
        return len(self._parameters)

    def parameters(self) -> List[Parameter]:
        """Snapshot of every stored parameter (post plan-compilation state)."""
        with self._lock:
            return list(self._parameters.values())

    def operators(self) -> List[Operator]:
        """Snapshot of every canonical (executing) operator instance."""
        with self._lock:
            return list(self._operators.values())

    def _is_shared(self, parameter: Parameter) -> bool:
        backing = self.parameter_backing
        return backing is not None and backing.is_shared(parameter)

    def memory_bytes(self) -> int:
        """Bytes *owned* by this store: local parameters + materialization cache.

        Parameters adopted by the backing live in shared storage mapped by
        potentially many processes; their bytes are reported by
        :meth:`shared_parameter_bytes` and counted once by the arena owner.
        """
        total = sum(
            param.nbytes for param in self._parameters.values() if not self._is_shared(param)
        )
        return total + self.materialization_cache.used_bytes

    def shared_parameter_bytes(self) -> int:
        """Bytes of registered parameters whose storage is externally shared."""
        if self.parameter_backing is None:
            return 0
        return sum(
            param.nbytes for param in self._parameters.values() if self._is_shared(param)
        )

    def stats(self) -> Dict[str, Any]:
        cache = self.materialization_cache
        stats = {
            "enabled": self.enabled,
            "unique_operators": self.unique_operator_count(),
            "unique_parameters": self.unique_parameter_count(),
            "memory_bytes": self.memory_bytes(),
            "shared_parameter_bytes": self.shared_parameter_bytes(),
            "parameter_hits": self.parameter_hits,
            "parameter_misses": self.parameter_misses,
            "operator_hits": self.operator_hits,
            "operator_misses": self.operator_misses,
            "materialization_entries": len(cache),
            "materialization_hits": cache.hits,
            "materialization_misses": cache.misses,
            "materialization_evictions": cache.evictions,
        }
        if self.parameter_backing is not None:
            stats["parameter_backing"] = self.parameter_backing.stats()
        return stats
