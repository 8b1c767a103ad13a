"""Plain-text reporting of experiment results.

Every benchmark prints the same rows/series the corresponding paper table or
figure reports, using these helpers so the output format is uniform and easy
to diff across runs (EXPERIMENTS.md embeds the resulting tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["format_table", "format_cdf", "ExperimentReport"]


def format_table(rows: Sequence[Dict[str, Any]], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[_cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(row[i]) for row in rendered)) for i, column in enumerate(columns)
    ]
    lines = [
        "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_cdf(points: Sequence[Tuple[float, float]], unit: str = "ms", scale: float = 1e3) -> str:
    """Render a CDF as (percentile -> latency) checkpoints.

    Checkpoints are *interpolated* between the surrounding CDF points (the
    same linear rule as ``LatencyRecorder.cdf`` / ``np.quantile``).  The old
    nearest-point match could print the identical latency for two adjacent
    checkpoints whenever the CDF was sampled more coarsely than the
    checkpoint spacing -- e.g. p95 and p99 both snapping to the p97 point.
    """
    if not points:
        return "(empty cdf)"
    ordered = sorted(points, key=lambda pair: pair[1])
    fractions = np.asarray([pair[1] for pair in ordered], dtype=np.float64)
    values = np.asarray([pair[0] for pair in ordered], dtype=np.float64)
    checkpoints = [0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
    interpolated = np.interp(checkpoints, fractions, values)
    lines = []
    for target, value in zip(checkpoints, interpolated):
        lines.append(f"  p{int(target * 100):<3d}  {float(value) * scale:10.3f} {unit}")
    return "\n".join(lines)


@dataclass
class ExperimentReport:
    """A named experiment result: header, table rows and free-form notes."""

    experiment: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        parts = [f"=== {self.experiment} ===", self.description, ""]
        if self.rows:
            parts.append(format_table(self.rows))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def print(self) -> None:  # pragma: no cover - console side effect
        print("\n" + self.render() + "\n")
