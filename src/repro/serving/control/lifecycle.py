"""Plan lifecycle bookkeeping: reference counts over arena slabs.

The shared-memory arena's ``free`` carries a liveness contract: a slab may
only be recycled once no worker still serves a plan mapping it.  The cluster
is the single writer of both registrations and arena allocations, so the
contract is enforced here with plain reference counts:

* every registered plan records the set of parameter *checksums* it shares
  through the arena (:meth:`note_registered`);
* a checksum's slab is **exclusively referenced** by a plan when no other
  plan records it; only exclusively-referenced slabs may be freed, and only
  after every worker hosting the plan has acknowledged teardown
  (:meth:`release` computes the freeable set, the cluster frees after the
  acks).

A plan's claims end only when the plan is unregistered (or its registration
rolls back): nothing demotes a registered plan out of the arena.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Set

__all__ = ["PlanLifecycle"]


class PlanLifecycle:
    """Reference counts of every cluster-registered plan's arena slabs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: plan -> checksums it shares through the arena
        self._plan_checksums: Dict[str, Set[str]] = {}
        #: checksum -> plans referencing its slab
        self._checksum_plans: Dict[str, Set[str]] = {}

    def note_registered(self, plan_id: str, checksums: Iterable[str]) -> None:
        with self._lock:
            owned = self._plan_checksums.setdefault(plan_id, set())
            for checksum in checksums:
                owned.add(checksum)
                self._checksum_plans.setdefault(checksum, set()).add(plan_id)

    def plans(self) -> List[str]:
        with self._lock:
            return list(self._plan_checksums)

    def checksums(self, plan_id: str) -> Set[str]:
        with self._lock:
            return set(self._plan_checksums.get(plan_id, ()))

    def exclusive_checksums(self, plan_id: str) -> Set[str]:
        """Checksums whose slab no *other* plan references."""
        with self._lock:
            return self._exclusive_locked(plan_id)

    def _exclusive_locked(self, plan_id: str) -> Set[str]:
        return {
            checksum
            for checksum in self._plan_checksums.get(plan_id, ())
            if self._checksum_plans.get(checksum) == {plan_id}
        }

    def release(self, plan_id: str) -> Set[str]:
        """Forget a plan entirely; returns the checksums now safe to free.

        Call only after every hosting worker acknowledged teardown -- the
        returned set honors the arena's liveness contract by construction
        (no surviving plan references those slabs).
        """
        with self._lock:
            freeable = self._exclusive_locked(plan_id)
            for checksum in self._plan_checksums.pop(plan_id, set()):
                plans = self._checksum_plans.get(checksum)
                if plans is not None:
                    plans.discard(plan_id)
                    if not plans:
                        del self._checksum_plans[checksum]
            return freeable

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "plans_tracked": len(self._plan_checksums),
                "shared_checksums": len(self._checksum_plans),
            }
