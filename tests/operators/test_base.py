"""Tests for the operator/parameter base abstractions (checksums, sharing identity)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.operators.base import (
    Annotation,
    Operator,
    Parameter,
    ValueKind,
    _checksum_of,
    _nbytes_of,
)
from repro.operators.linear import LinearRegressor
from repro.operators.text import Tokenizer, WordNgramFeaturizer


class TestParameter:
    def test_identical_values_identical_checksums(self):
        a = Parameter("weights", np.array([1.0, 2.0]))
        b = Parameter("weights", np.array([1.0, 2.0]))
        assert a.checksum == b.checksum
        assert a == b

    def test_different_values_different_checksums(self):
        a = Parameter("weights", np.array([1.0, 2.0]))
        b = Parameter("weights", np.array([1.0, 2.1]))
        assert a.checksum != b.checksum

    def test_same_value_different_name_not_equal(self):
        value = np.array([1.0])
        assert Parameter("a", value) != Parameter("b", value)

    def test_dict_checksum_order_independent(self):
        a = Parameter("vocab", {"x": 0, "y": 1})
        b = Parameter("vocab", {"y": 1, "x": 0})
        assert a.checksum == b.checksum

    def test_nbytes_for_arrays(self):
        assert Parameter("w", np.zeros(10)).nbytes == 80

    def test_nbytes_for_dicts_counts_keys(self):
        param = Parameter("vocab", {"abc": 1})
        assert param.nbytes >= 3

    def test_large_values_are_memoised_on_their_owner(self, monkeypatch):
        import repro.operators.base as base

        calls = []
        checksum_of = base._checksum_of
        monkeypatch.setattr(
            base, "_checksum_of", lambda value: calls.append(1) or checksum_of(value)
        )
        model = LinearRegressor(weights=np.arange(1024.0), bias=0.0)
        first, second = model.parameters()[0], model.parameters()[0]
        assert (first.checksum, first.nbytes) == (second.checksum, second.nbytes)
        assert first.checksum == checksum_of(model.weights)
        assert len(calls) == 3  # the weights once, the (small, unmemoised) bias both times
        # The memo is checked by identity: a replaced value is checksummed
        # afresh and takes the old entry's place (nothing stale stays pinned).
        model.weights = np.arange(1024.0) + 1.0
        assert model.parameters()[0].checksum == checksum_of(model.weights)
        assert [entry[0] for entry in model._parameter_memo.values()] == [model.weights]

    def test_memo_dies_with_its_owner_and_is_not_pickled(self):
        import pickle
        import weakref

        model = LinearRegressor(weights=np.arange(1024.0), bias=0.0)
        before = pickle.dumps(model)
        model.parameters()
        assert model._parameter_memo
        assert pickle.dumps(model) == before
        assert not hasattr(pickle.loads(before), "_parameter_memo")
        weights = weakref.ref(model.weights)
        del model
        assert weights() is None

    def test_values_without_an_owner_are_not_memoised(self):
        vocab = {f"gram{i}": i for i in range(2000)}
        first = Parameter("vocab", vocab)
        second = Parameter("vocab", vocab)
        assert first.checksum == second.checksum
        assert first.nbytes == second.nbytes


class TestOperatorIdentity:
    def test_signature_equal_for_equal_state(self):
        proto = WordNgramFeaturizer(ngram_range=(1, 1), max_features=5).fit([["a", "b"]])
        clone = WordNgramFeaturizer(ngram_range=(1, 1), max_features=5, dictionary=proto.dictionary)
        assert proto.signature() == clone.signature()

    def test_signature_differs_for_different_weights(self):
        a = LinearRegressor(weights=np.array([1.0]), bias=0.0)
        b = LinearRegressor(weights=np.array([2.0]), bias=0.0)
        assert a.signature() != b.signature()

    def test_memory_bytes_sums_parameters(self):
        model = LinearRegressor(weights=np.zeros(100), bias=0.0)
        assert model.memory_bytes() >= 800

    def test_describe_contains_schema(self):
        description = Tokenizer().describe()
        assert description["input"] == "text"
        assert description["output"] == "tokens"

    def test_default_transform_batch_loops(self):
        class Doubler(Operator):
            input_kind = ValueKind.SCALAR
            output_kind = ValueKind.SCALAR

            def transform(self, value):
                return value * 2

        assert Doubler().transform_batch([1, 2, 3]) == [2, 4, 6]

    def test_pipeline_breaker_flag(self):
        class Breaker(Operator):
            annotations = Annotation.N_TO_ONE

        class NonBreaker(Operator):
            annotations = Annotation.ONE_TO_ONE

        assert Breaker().is_pipeline_breaker()
        assert not NonBreaker().is_pipeline_breaker()


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50))
def test_checksum_is_content_based_property(values):
    """Checksums depend on content only, not on array object identity."""
    array = np.asarray(values)
    copy = np.asarray(list(values))
    assert Parameter("p", array).checksum == Parameter("p", copy).checksum


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=1, max_size=20, unique=True)
)
def test_dict_checksum_permutation_invariance_property(keys):
    mapping = {key: index for index, key in enumerate(keys)}
    shuffled = dict(reversed(list(mapping.items())))
    assert Parameter("vocab", mapping).checksum == Parameter("vocab", shuffled).checksum


# -- bulk checksums and sizes --------------------------------------------------


def _reference_feed(hasher, value):
    """The per-entry checksum walk, frozen: flat dicts must hash exactly like it."""
    if isinstance(value, np.ndarray):
        hasher.update(b"ndarray")
        hasher.update(str(value.dtype).encode())
        hasher.update(str(value.shape).encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        hasher.update(b"dict")
        for key in sorted(value, key=repr):
            hasher.update(repr(key).encode())
            _reference_feed(hasher, value[key])
    elif isinstance(value, (list, tuple)):
        hasher.update(b"seq")
        for item in value:
            _reference_feed(hasher, item)
    else:
        hasher.update(repr(value).encode())


def _reference_checksum(value):
    hasher = hashlib.sha256()
    _reference_feed(hasher, value)
    return hasher.hexdigest()


def _reference_nbytes(value):
    """The per-entry size walk, frozen."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(
            len(str(key).encode()) + 16 + _reference_nbytes(item) for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return sum(_reference_nbytes(item) for item in value) + 8 * len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (int, float, bool)) or value is None:
        return 8
    return 64


#: keys whose reprs stress the bulk path's ordering argument: quote styles
#: (repr switches to double quotes), escapes, NUL, astral characters, the
#: empty key, and keys that are prefixes of each other
_TRICKY_KEYS = [
    "", "'", '"', "'\"", "\\", "\\'", "a\x00b", "\x00", "\U0001f600", "\U0001f600a",
    "a", "a b", "a'", "ab", "it's", 'it"s', "tab\there", "\x7f", "é", "\u200b",
]
_KEYS = st.one_of(st.sampled_from(_TRICKY_KEYS), st.text(max_size=6))
_SCALARS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([float("nan"), -0.0, 0.0, float("inf"), -float("inf")]),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
)
_ARRAYS = hnp.arrays(
    dtype=st.sampled_from(
        [np.int64, np.int32, np.uint8, np.float64, np.float32, np.bool_, ">f8", ">i4", "<U3"]
    ),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, max_side=3),
)
_VALUES = st.recursive(
    st.one_of(_SCALARS, _ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=6),
        st.dictionaries(st.integers(), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(mapping=st.dictionaries(_KEYS, _SCALARS, max_size=40))
def test_flat_dict_checksum_and_size_match_the_per_entry_walk(mapping):
    """A dict of str keys and scalar values takes the bulk path, with equal results."""
    assert _checksum_of(mapping) == _reference_checksum(mapping)
    assert _nbytes_of(mapping) == _reference_nbytes(mapping)


@settings(max_examples=300, deadline=None)
@given(value=_VALUES)
def test_nested_checksum_and_size_match_the_per_entry_walk(value):
    assert _checksum_of(value) == _reference_checksum(value)
    assert _nbytes_of(value) == _reference_nbytes(value)


def test_keys_differing_only_in_quote_style_hash_apart_and_like_the_walk():
    single, double = {"it's": 1, 'it"s': 2}, {"it's": 2, 'it"s': 1}
    assert _checksum_of(single) != _checksum_of(double)
    assert _checksum_of(single) == _reference_checksum(single)
    assert _checksum_of(double) == _reference_checksum(double)


#: digests and sizes recorded with the per-entry walk before the bulk path
_GOLDEN = {
    "vocab": (
        {
            "a": 0, " a": 1, "it's": 2, 'say "hi"': 3,
            "back\\slash": 4, "": 5, "nul\x00": 6, "\U0001f600": 7,
        },
        "b9541bcf045a78fa3cfc7d41021ad58cd4d1d5285ca1a6bc516aab172c9a2f9b",
        225,
    ),
    "config": (
        {
            "ngram_range": [1, 3], "max_features": 300, "weighting": "tf",
            "lowercase": True, "seed": None, "rate": 0.5,
        },
        "1f77f3527cbe6b462f13ee42cfe9c366262979f29c040f45fb16fab1838bc64d",
        211,
    ),
    "nodes": (
        {
            "feature": np.array([0, -1, -1], dtype=np.int64),
            "threshold": np.array([0.5, 0.0, 0.0]),
            "value": np.array([1.0, -1.0, 2.5], dtype=np.float32),
        },
        "a938c6bf0408f67a9cc454f6e528f1484993ea406ac753d6a7515177f5daff60",
        129,
    ),
    "scalars": (
        {
            "nan": float("nan"), "neg_zero": -0.0, "inf": float("inf"),
            "flag": False, "none": None, "text": "x",
        },
        "535e4e2661bc74b6b92d8e5e8cc348ae79d10945f75f0f5e7cbcdafc79194c89",
        163,
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_checksums_and_sizes(name):
    value, digest, nbytes = _GOLDEN[name]
    assert _checksum_of(value) == digest
    assert _nbytes_of(value) == nbytes


def test_unpickled_arrays_hash_like_fresh_ones():
    """Unpickled dtypes are new objects; the cached dtype tag must not care."""
    import pickle

    for dtype in (np.int64, np.float32, ">f8", np.bool_):
        array = np.arange(4).astype(dtype)
        copy = pickle.loads(pickle.dumps(array))
        assert _checksum_of(array) == _reference_checksum(array)
        assert _checksum_of(copy) == _reference_checksum(copy)
