"""Shared fixtures for the figure/table reproduction benchmarks.

Family sizes default to a laptop-friendly scale (60 + 60 pipelines) so the
whole harness finishes in a few minutes; set ``REPRO_FULL=1`` to run the
paper's full 250 + 250 pipelines.  Every benchmark writes its report (the
rows/series of the corresponding paper figure) to a per-session temporary
directory; set ``REPRO_WRITE_RESULTS=1`` to refresh the committed copies under
``benchmarks/results/`` instead.
"""

from __future__ import annotations

import os

# One BLAS thread, set before anything imports NumPy: a multi-threaded
# OpenBLAS stalls ``np.dot`` over wide dense vectors by milliseconds per call
# in a cold process, which is what the figure benchmarks would then measure.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
del _variable

import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402

import pytest  # noqa: E402

from repro.workloads.attendee import build_attendee_family  # noqa: E402
from repro.workloads.sentiment import build_sentiment_family  # noqa: E402
from repro.workloads.text_data import generate_reviews  # noqa: E402

FULL_SCALE = os.environ.get("REPRO_FULL", "0") == "1"
N_SA = 250 if FULL_SCALE else 60
N_AC = 250 if FULL_SCALE else 60
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: where this process writes reports: the committed ``results/`` only when
#: asked, so an ordinary test run leaves the tree clean
_report_dir: Optional[str] = (
    RESULTS_DIR if os.environ.get("REPRO_WRITE_RESULTS", "0") == "1" else None
)
_BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark as ``figure`` so the fast gate can skip them."""
    for item in items:
        if _BENCHMARKS_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.figure)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


#: structured provenance attached to every result file: the figures are
#: host-specific, so a number without these fields is not comparable.
ENVIRONMENT_FIELDS: Dict[str, Any] = {
    "platform": platform.platform(),
    "python": platform.python_version(),
    "cpus": os.cpu_count(),
    "cpu_model": _cpu_model(),
    "full_scale": FULL_SCALE,
}

ENVIRONMENT = ", ".join(
    str(value)
    for value in (
        ENVIRONMENT_FIELDS["platform"],
        f"python {ENVIRONMENT_FIELDS['python']}",
        f"{ENVIRONMENT_FIELDS['cpus']} cpu(s)",
        ENVIRONMENT_FIELDS["cpu_model"],
    )
    if value
)


@pytest.fixture(scope="session", autouse=True)
def _session_report_dir(tmp_path_factory):
    """Give this session's reports a temporary home unless results are refreshed."""
    global _report_dir
    if _report_dir is None:
        _report_dir = str(tmp_path_factory.mktemp("results"))


def claim(name: str, value: float, floor: float) -> Dict[str, Any]:
    """One wall-clock claim as report ``metrics`` fields: value, floor and whether met.

    Timing claims are recorded, not asserted: they move with host load, and
    the benchmark harness's trajectory is what gates them.
    """
    return {name: value, f"{name}_floor": floor, f"{name}_met": value > floor}


def claim_below(name: str, value: float, ceiling: float) -> Dict[str, Any]:
    """Like :func:`claim`, for a wall-clock value that must stay under a ceiling."""
    return {name: value, f"{name}_ceiling": ceiling, f"{name}_met": value < ceiling}


def write_report(name: str, text: str, metrics: Optional[Dict[str, Any]] = None) -> None:
    """Persist a figure report so it survives pytest output capture.

    Writes ``{name}.txt`` (the human-readable rows, with a one-line
    environment footer) and a machine-readable twin ``{name}.json`` carrying
    the report text, the caller's ``metrics`` (when given) and the structured
    provenance fields -- so regression tooling can diff runs without
    re-parsing the text tables.  They go to ``results/`` under
    ``REPRO_WRITE_RESULTS=1`` and to the session's temporary directory
    otherwise.
    """
    os.makedirs(_report_dir, exist_ok=True)
    with open(os.path.join(_report_dir, f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(text + f"\nenvironment: {ENVIRONMENT}\n")
    payload = {
        "name": name,
        "metrics": metrics if metrics is not None else {},
        "text": text,
        "environment": dict(ENVIRONMENT_FIELDS),
    }
    with open(os.path.join(_report_dir, f"{name}.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def sa_family():
    """The Sentiment Analysis pipeline family (Table 1, SA column)."""
    corpus = generate_reviews(n_reviews=800, vocabulary_size=3000, seed=23)
    return build_sentiment_family(n_pipelines=N_SA, corpus=corpus, seed=23)


@pytest.fixture(scope="session")
def ac_family():
    """The Attendee Count pipeline family (Table 1, AC column)."""
    return build_attendee_family(n_pipelines=N_AC, n_configurations=12, seed=41)


@pytest.fixture(scope="session")
def sa_inputs(sa_family):
    return sa_family.sample_inputs(20, seed=join_seed(1))


@pytest.fixture(scope="session")
def ac_inputs(ac_family):
    return ac_family.sample_inputs(20, seed=join_seed(2))


def join_seed(offset: int) -> int:
    return 1000 + offset
