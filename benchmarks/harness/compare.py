"""Apply the bounds of ``BENCHMARK.json`` to two sets of runs.

    python3 benchmarks/harness/compare.py A.json B.json

``A.json`` (the base) and ``B.json`` are files written by ``run.py --out``:
one JSON record per run.  For every (end-to-end metric, workload) pair this
prints both medians, the ratio B/A *with its base*, and each side's
run-to-run spread (interquartile range over the median).  A pair is

* ``regression`` when B's median is worse than A's by more than the bound,
* ``unresolved`` when a recorded same-code spread exceeds the bound -- the
  runs cannot tell a change of that size from noise -- and
* ``ok`` otherwise.

Exits non-zero when any pair is a regression.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

_ROOT = pathlib.Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.harness.loadgen import spread  # noqa: E402

Key = Tuple[str, str]


def load_runs(path: str) -> Dict[Key, List[float]]:
    """(workload, metric) -> values of the untraced runs recorded in ``path``."""
    values: Dict[Key, List[float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for metric, entry in record["metrics"].items():
                values.setdefault((record["workload"], metric), []).append(entry["value"])
    return values


def verdict(
    base: Sequence[float], other: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """(``ok`` | ``regression`` | ``unresolved``, ratio other/base of the medians)."""
    base_median, other_median = statistics.median(base), statistics.median(other)
    ratio = other_median / base_median
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    spreads = [value for value in (spread(base), spread(other)) if not math.isnan(value)]
    if spreads and max(spreads) > bound:
        return "unresolved", ratio
    return ("regression" if worse_by > bound else "ok"), ratio


def compare(
    base: Dict[Key, List[float]], other: Dict[Key, List[float]], spec: Dict[str, Any]
) -> Tuple[List[str], int]:
    rows = [
        f"{'workload':<12} {'metric':<20} {'A median':>12} {'B median':>12} "
        f"{'B/A':>8} {'bound':>6} {'A spread':>9} {'B spread':>9}  verdict"
    ]
    regressions = 0
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in other:
                continue
            outcome, ratio = verdict(base[key], other[key], metric["better"], metric["bound"])
            regressions += outcome == "regression"
            base_median = statistics.median(base[key])
            rows.append(
                f"{workload:<12} {metric['name']:<20} {base_median:>12.4f} "
                f"{statistics.median(other[key]):>12.4f} {ratio:>7.3f}x {metric['bound']:>6.2f} "
                f"{spread(base[key]):>9.3f} {spread(other[key]):>9.3f}  {outcome}"
                f" ({ratio:.3f}x of A={base_median:.4g} {metric['unit']}, "
                f"{metric['better']} is better, n={len(base[key])}/{len(other[key])})"
            )
    return rows, regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if len(arguments) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows, regressions = compare(load_runs(arguments[0]), load_runs(arguments[1]), spec)
    print("\n".join(rows))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
