"""Tests for the operator/parameter base abstractions (checksums, sharing identity)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.base import Annotation, Operator, Parameter, ValueKind
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
