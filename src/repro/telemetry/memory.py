"""Memory accounting helpers used by the Figure 8 / Figure 3 reproductions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["format_bytes", "MemoryReport"]


def format_bytes(n_bytes: float) -> str:
    """Human-readable byte counts (10.0KB, 3.2MB, 1.5GB)."""
    value = float(n_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}TB"


@dataclass
class MemoryReport:
    """Per-system memory series (one value per number of loaded models)."""

    series: Dict[str, List[int]] = field(default_factory=dict)

    def record(self, system: str, total_bytes: int) -> None:
        self.series.setdefault(system, []).append(int(total_bytes))

    def final(self, system: str) -> int:
        values = self.series.get(system, [])
        if not values:
            raise KeyError(f"no samples recorded for {system!r}")
        return values[-1]

    def ratio(self, baseline: str, improved: str) -> float:
        """How many times less memory ``improved`` uses than ``baseline``."""
        return self.final(baseline) / max(self.final(improved), 1)

    def systems(self) -> List[str]:
        return list(self.series)
