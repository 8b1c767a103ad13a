"""PRETZEL's client-facing FrontEnd.

The FrontEnd accepts prediction requests over a (simulated) HTTP hop, applies
prediction result caching with LRU eviction -- one of the *external*
black-box optimizations Clipper offers -- and forwards work to the Runtime: a
single record to :meth:`PretzelRuntime.predict`, several to
:meth:`PretzelRuntime.predict_batch`.  Caching is orthogonal to the white-box
optimizations and is measured separately in the end-to-end experiments
(Figure 11).  The paper's other external optimization, delayed batching, is
not implemented on this front end; Clipper's front end keeps its own.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.core.runtime import PretzelRuntime
from repro.net import NetworkModel

__all__ = ["FrontEndConfig", "PretzelFrontEnd", "FrontEndResponse"]


@dataclass
class FrontEndConfig:
    """Configuration of the ASP.Net-style front-end."""

    client_network: NetworkModel = field(default_factory=lambda: NetworkModel(round_trip_seconds=0.004))
    enable_cache: bool = False
    cache_size: int = 2048
    frontend_overhead_bytes: int = 1024 * 1024


@dataclass
class FrontEndResponse:
    """Outputs plus the latency breakdown observed by the client."""

    plan_id: str
    outputs: List[Any]
    prediction_seconds: float
    network_seconds: float
    cache_hit: bool = False

    @property
    def end_to_end_seconds(self) -> float:
        return self.prediction_seconds + self.network_seconds


class PretzelFrontEnd:
    """Submit prediction requests to a PRETZEL runtime on behalf of clients."""

    def __init__(self, runtime: PretzelRuntime, config: Optional[FrontEndConfig] = None):
        self.runtime = runtime
        self.config = config or FrontEndConfig()
        self._cache: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- caching helpers ---------------------------------------------------------

    def _cache_lookup(self, key: Hashable) -> Optional[Any]:
        if key in self._cache:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            return self._cache[key]
        self.cache_misses += 1
        return None

    def _cache_store(self, key: Hashable, value: Any) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.config.cache_size:
            self._cache.popitem(last=False)

    # -- serving --------------------------------------------------------------------

    def predict(self, plan_id: str, records: Sequence[Any]) -> FrontEndResponse:
        """Serve one client request end-to-end.

        An empty ``records`` sequence is answered immediately with an empty
        response (it used to fall into the single-record path and crash on
        ``records[0]``).
        """
        records = list(records)
        if not records:
            return FrontEndResponse(
                plan_id=plan_id, outputs=[], prediction_seconds=0.0, network_seconds=0.0
            )
        cache_key: Optional[Hashable] = None
        if self.config.enable_cache and len(records) == 1:
            cache_key = (plan_id, repr(records[0]))
            cached = self._cache_lookup(cache_key)
            if cached is not None:
                network, _rq, _rs = self.config.client_network.round_trip(
                    {"plan": plan_id, "records": records}, {"outputs": [cached]}
                )
                return FrontEndResponse(
                    plan_id=plan_id,
                    outputs=[cached],
                    prediction_seconds=0.0,
                    network_seconds=network,
                    cache_hit=True,
                )
        start = time.perf_counter()
        if len(records) > 1:
            outputs = self.runtime.predict_batch(plan_id, records)
        else:
            outputs = [self.runtime.predict(plan_id, records[0])]
        prediction_seconds = time.perf_counter() - start
        if cache_key is not None:
            self._cache_store(cache_key, outputs[0])
        network, _rq, _rs = self.config.client_network.round_trip(
            {"plan": plan_id, "records": records}, {"outputs": outputs}
        )
        return FrontEndResponse(
            plan_id=plan_id,
            outputs=outputs,
            prediction_seconds=prediction_seconds,
            network_seconds=network,
        )

    # -- accounting ---------------------------------------------------------------------

    def memory_bytes(self) -> int:
        return self.config.frontend_overhead_bytes + self.runtime.memory_bytes()

    def cache_stats(self) -> Dict[str, int]:
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
        }
