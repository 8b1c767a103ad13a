"""Session fixtures shared by ``tests/`` and ``benchmarks/``.

The benchmark harness's SA and AC families (60 + 60 pipelines, the builder
seeds of ``benchmarks/harness/families.py``) take ~15 s to train.  The
identity digests (``tests/test_identity_digests.py``) and the laptop-scale
figure benchmarks (``benchmarks/conftest.py``) use the very same families, so
one session trains them once.  The builders are imported inside the fixtures:
``tests/conftest.py`` pins BLAS threads before anything loads NumPy, and this
file is loaded first.
"""

import pytest

#: pipelines per family at the harness (and laptop benchmark) scale
HARNESS_FAMILY_SIZE = 60


@pytest.fixture(scope="session")
def harness_sa_family():
    from repro.workloads import build_sentiment_family, generate_reviews

    corpus = generate_reviews(n_reviews=800, vocabulary_size=3000, seed=23)
    return build_sentiment_family(n_pipelines=HARNESS_FAMILY_SIZE, corpus=corpus, seed=23)


@pytest.fixture(scope="session")
def harness_ac_family():
    from repro.workloads import build_attendee_family

    return build_attendee_family(n_pipelines=HARNESS_FAMILY_SIZE, n_configurations=12, seed=41)
