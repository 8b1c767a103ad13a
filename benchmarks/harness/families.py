"""The SA and AC pipeline families, seeded inputs and the output oracle.

The families are the ``benchmarks/conftest.py`` laptop scale (60 + 60
pipelines, same generator seeds).  Training them is the benchmark's build
step: the trained families are cached under ``out/cache`` keyed by a hash of
the source tree, so only the first run in a checkout pays for it.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import pathlib
import pickle
import platform
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.workloads.attendee import build_attendee_family
from repro.workloads.sentiment import build_sentiment_family
from repro.workloads.text_data import generate_reviews

__all__ = ["OUT_DIR", "load_family", "sample_inputs", "oracle_outputs", "provenance"]

HARNESS_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parents[1]
OUT_DIR = HARNESS_DIR / "out"

FAMILY_SIZE = 60
#: distinct records per family a run draws its requests from
N_INPUTS = 32
#: seeded pool records per record kept (one per length stratum)
STRATUM = 8
#: the seed whose length-stratified sample sets the record lengths of every seed
REFERENCE_SEED = 0


def _build(name: str, size: int) -> Any:
    if name == "sa":
        corpus = generate_reviews(n_reviews=800, vocabulary_size=3000, seed=23)
        return build_sentiment_family(n_pipelines=size, corpus=corpus, seed=23)
    if name == "ac":
        return build_attendee_family(n_pipelines=size, n_configurations=12, seed=41)
    raise ValueError(f"unknown family {name!r} (sa or ac)")


def _source_key() -> str:
    """Hash of every source file a pickled family depends on."""
    hasher = hashlib.sha256(np.__version__.encode())
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(REPO_ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def load_family(name: str, size: int = FAMILY_SIZE) -> Tuple[Any, float]:
    """The trained family and the seconds it took to obtain (build or load)."""
    started = time.perf_counter()
    cache = OUT_DIR / "cache" / f"{name}-{size}-{_source_key()}.pkl"
    if cache.exists():
        # Only ever bytes this harness wrote, for exactly this source tree.
        with open(cache, "rb") as handle:
            family = pickle.load(handle)
    else:
        family = _build(name, size)
        cache.parent.mkdir(parents=True, exist_ok=True)
        scratch = cache.with_suffix(f".{os.getpid()}.tmp")
        with open(scratch, "wb") as handle:
            pickle.dump(family, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(scratch, cache)
    return family, time.perf_counter() - started


def sample_inputs(family: Any, seed: int, count: int = N_INPUTS) -> List[Any]:
    """``count`` fresh records of the family's input type, from the run seed.

    Serving cost is linear in text length, and the mean length of a few dozen
    reviews swings by several percent from seed to seed -- also when they are
    a length-stratified sample of a larger pool.  So the lengths are fixed:
    they are those of the stratified sample of :data:`REFERENCE_SEED`, and a
    seed contributes, for each of them, the record of its own pool that is
    nearest in length.  Every seed gets different records, and the same work.
    """
    reference = sorted(family.sample_inputs(count * STRATUM, seed=REFERENCE_SEED), key=len)
    pool = sorted(family.sample_inputs(count * STRATUM, seed=seed), key=len)
    lengths = [len(record) for record in pool]
    chosen = []
    for target in map(len, reference[STRATUM // 2 :: STRATUM]):
        index = bisect.bisect_left(lengths, target)
        if index == len(lengths) or (
            index > 0 and target - lengths[index - 1] <= lengths[index] - target
        ):
            index -= 1
        chosen.append(pool.pop(index))
        lengths.pop(index)
    return chosen


def oracle_outputs(pipelines: Sequence[Any], inputs: Sequence[Any]) -> List[List[float]]:
    """Expected output of every (pipeline, input) pair.

    Computed by an in-process scalar ``PretzelRuntime`` (request-response
    engine, no stage batching): the contract every serving path must match.
    Profiling is off so no sampler thread exists yet when the cluster forks.
    """
    config = PretzelConfig(enable_stage_batching=False, enable_profiling=False)
    with PretzelRuntime(config) as runtime:
        expected: List[List[float]] = []
        for generated in pipelines:
            plan_id = runtime.register(generated.pipeline, stats=generated.stats)
            expected.append([runtime.predict(plan_id, record) for record in inputs])
    return expected


def provenance() -> Dict[str, Any]:
    """The ``write_report``-style host record every result carries."""
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = ""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            commit = (REPO_ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        else:
            commit = ref
    except OSError:
        pass  # not a git checkout (the driver's copy is not one)
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
    }
