"""Tests for the text featurization operators."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.text import (
    CharNgramFeaturizer,
    NgramDictionary,
    Tokenizer,
    WordNgramFeaturizer,
    _NgramKeyTable,
)
from repro.operators.vectors import SparseVector
from repro.workloads.sentiment import _CHAR_VERSION_SPECS, _WORD_VERSION_SPECS


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert Tokenizer().transform("Hello, World!") == ["hello", "world"]

    def test_keeps_digits_and_apostrophes(self):
        assert Tokenizer().transform("it's 2 good") == ["it's", "2", "good"]

    def test_none_input(self):
        assert Tokenizer().transform(None) == []

    def test_no_lowercase_option(self):
        tokens = Tokenizer(lowercase=False, pattern=r"[A-Za-z]+").transform("Hello World")
        assert tokens == ["Hello", "World"]

    def test_signature_depends_on_config(self):
        assert Tokenizer().signature() == Tokenizer().signature()
        assert Tokenizer().signature() != Tokenizer(lowercase=False).signature()

    def test_parameters_present(self):
        assert len(Tokenizer().parameters()) == 1


class TestNgramDictionary:
    def test_train_word_unigrams(self):
        dictionary = NgramDictionary.train([["a", "b", "a"], ["b", "c"]], (1, 1), 10)
        assert dictionary.size == 3
        assert set(dictionary.ngram_to_index) == {"a", "b", "c"}

    def test_train_respects_max_features(self):
        tokens = [["a", "b", "c", "d", "e"]] * 3
        dictionary = NgramDictionary.train(tokens, (1, 1), 2)
        assert dictionary.size == 2

    def test_train_bigrams(self):
        dictionary = NgramDictionary.train([["a", "b", "c"]], (2, 2), 10)
        assert set(dictionary.ngram_to_index) == {"a b", "b c"}

    def test_lookup_missing(self):
        dictionary = NgramDictionary.train([["a"]], (1, 1), 10)
        assert dictionary.lookup("zzz") is None

    def test_equality(self):
        a = NgramDictionary({"x": 0}, (1, 1))
        b = NgramDictionary({"x": 0}, (1, 1))
        c = NgramDictionary({"x": 0}, (1, 2))
        assert a == b
        assert a != c


class TestWordNgram:
    def test_fit_transform_counts(self):
        featurizer = WordNgramFeaturizer(ngram_range=(1, 1), max_features=10)
        featurizer.fit([["good", "product"], ["bad", "product"]])
        vec = featurizer.transform(["good", "good", "product"])
        assert isinstance(vec, SparseVector)
        dense = vec.to_dense().values
        good_index = featurizer.dictionary.lookup("good")
        product_index = featurizer.dictionary.lookup("product")
        assert dense[good_index] == 2.0
        assert dense[product_index] == 1.0

    def test_unknown_tokens_ignored(self):
        featurizer = WordNgramFeaturizer(ngram_range=(1, 1), max_features=10)
        featurizer.fit([["known"]])
        vec = featurizer.transform(["unknown", "tokens"])
        assert vec.nnz() == 0
        assert vec.size == featurizer.dictionary.size

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            WordNgramFeaturizer().transform(["a"])

    def test_rejects_raw_string(self):
        featurizer = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4).fit([["a"]])
        with pytest.raises(TypeError):
            featurizer.transform("a raw string")

    def test_binary_weighting(self):
        featurizer = WordNgramFeaturizer(ngram_range=(1, 1), max_features=10, weighting="binary")
        featurizer.fit([["a", "b"]])
        vec = featurizer.transform(["a", "a", "a"])
        assert vec.to_dense().values.max() == 1.0

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            WordNgramFeaturizer(ngram_range=(2, 1))
        with pytest.raises(ValueError):
            WordNgramFeaturizer(weighting="nope")

    def test_parameters_include_dictionary(self):
        featurizer = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4).fit([["a", "b"]])
        names = [param.name for param in featurizer.parameters()]
        assert "wordngram.dictionary" in names

    def test_same_dictionary_same_signature(self):
        proto = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4).fit([["a", "b"]])
        clone = WordNgramFeaturizer(ngram_range=(1, 1), max_features=4, dictionary=proto.dictionary)
        assert proto.signature() == clone.signature()


class TestCharNgram:
    def test_fit_transform(self):
        featurizer = CharNgramFeaturizer(ngram_range=(2, 2), max_features=50)
        featurizer.fit([["ab", "bc"]])
        vec = featurizer.transform(["ab"])
        assert vec.nnz() >= 1

    def test_accepts_string_input(self):
        featurizer = CharNgramFeaturizer(ngram_range=(2, 2), max_features=50).fit([["abc"]])
        vec = featurizer.transform("abc")
        assert vec.nnz() >= 1

    def test_output_size_matches_dictionary(self):
        featurizer = CharNgramFeaturizer(ngram_range=(2, 3), max_features=30).fit([["hello world"]])
        assert featurizer.output_size() == featurizer.dictionary.size


@settings(max_examples=30, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet="abcde ", min_size=1, max_size=30), min_size=1, max_size=10
    )
)
def test_ngram_output_dimension_is_stable_property(texts):
    """Every transform output has the trained dictionary's dimensionality."""
    tokenizer = Tokenizer()
    token_lists = [tokenizer.transform(t) for t in texts]
    featurizer = WordNgramFeaturizer(ngram_range=(1, 2), max_features=100).fit(token_lists)
    for tokens in token_lists:
        vec = featurizer.transform(tokens)
        assert vec.size == featurizer.dictionary.size
        assert vec.nnz() <= max(2 * len(tokens), 1)


@settings(max_examples=30, deadline=None)
@given(text=st.text(alphabet="abcdefg hij", min_size=0, max_size=60))
def test_tokenizer_is_deterministic_and_lowercase_property(text):
    tokens_a = Tokenizer().transform(text)
    tokens_b = Tokenizer().transform(text)
    assert tokens_a == tokens_b
    assert all(token == token.lower() for token in tokens_a)


# -- the n-gram kernels against a slow reference -------------------------------
#
# ``_slow_reference`` is a literal per-gram loop (one ``str.join`` and one
# dictionary probe per window) feeding the validating ``SparseVector``
# constructor: the oracle.  It shares no code with the kernels it checks --
# the builtin-driven probe loop of ``_NgramFeaturizerBase.transform``, the
# array kernel of ``CharNgramFeaturizer.transform`` and both featurizers'
# ``transform_batch`` -- and each must reproduce it bit for bit.

#: characters the vocabularies are trained on: NUL, a space, an astral code
#: point and a non-ASCII letter beside plain letters
_VOCAB_CHARS = "ab c\x00\u00e9\U0001f600"
#: inputs also draw characters no vocabulary contains (one beyond every
#: code-point lookup table, one below its end)
_INPUT_CHARS = _VOCAB_CHARS + "zB\x01\u4e2d\U0001f680"
_WEIGHTINGS = ("count", "binary", "tf")
_CHAR_RANGES = sorted({ngram_range for ngram_range, _size in _CHAR_VERSION_SPECS})
_WORD_RANGES = sorted({ngram_range for ngram_range, _size in _WORD_VERSION_SPECS})
#: word tokens: in and out of vocabulary, empty, non-ASCII, and two that
#: contain the joiner (which only the per-gram loop can serve)
_VOCAB_TOKENS = ["a", "b", "cc", "", "\u00e9\U0001f600", "a b"]
_INPUT_TOKENS = _VOCAB_TOKENS + ["zz", "b a", "\x00"]


def _slow_reference(featurizer, value):
    """The featurizer's output for ``value``, computed the slow, obvious way."""
    units = featurizer._units(value)
    joiner = featurizer._joiner()
    vocabulary = featurizer.dictionary.ngram_to_index
    low, high = featurizer.ngram_range
    counts = {}
    total = 0
    for n in range(low, high + 1):
        for start in range(len(units) - n + 1):
            total += 1
            index = vocabulary.get(joiner.join(units[start : start + n]))
            if index is not None:
                counts[index] = counts.get(index, 0.0) + 1.0
    if featurizer.weighting == "binary":
        counts = {index: 1.0 for index in counts}
    elif featurizer.weighting == "tf":
        counts = {index: count / total for index, count in counts.items()}
    return SparseVector(list(counts), list(counts.values()), featurizer.dictionary.size)


_oracle = _slow_reference


def _assert_bit_equal(actual, expected):
    assert isinstance(actual, SparseVector)
    assert actual.size == expected.size
    assert actual.indices.dtype == expected.indices.dtype
    assert actual.values.dtype == expected.values.dtype
    assert actual.indices.tobytes() == expected.indices.tobytes()
    assert actual.values.tobytes() == expected.values.tobytes()


def _assert_holds_the_invariant(vector):
    """What ``SparseVector.from_sorted`` takes on trust from the kernels."""
    assert vector.indices.dtype == np.int64 and vector.values.dtype == np.float64
    assert vector.indices.ndim == 1 and vector.indices.shape == vector.values.shape
    assert np.all(np.diff(vector.indices) > 0)
    assert np.all((vector.indices >= 0) & (vector.indices < vector.size))


def _assert_kernel_matches_oracle(featurizer, rows):
    """Scalar kernel == oracle per row, and batch row i == scalar of row i;
    every output holds the sorted, in-bounds, int64/float64 invariant."""
    expected = [_oracle(featurizer, row) for row in rows]
    for row, vector in zip(rows, expected):
        actual = featurizer.transform(row)
        _assert_holds_the_invariant(actual)
        _assert_bit_equal(actual, vector)
    batch = featurizer.transform_batch(rows).rows
    assert len(batch) == len(rows)
    for vector, reference in zip(batch, expected):
        _assert_holds_the_invariant(vector)
        _assert_bit_equal(vector, reference)


_char_rows = st.lists(
    st.one_of(
        st.none(),
        st.text(alphabet=_INPUT_CHARS, max_size=40),
        st.lists(st.text(alphabet=_INPUT_CHARS, max_size=6), max_size=8),
    ),
    max_size=8,
)
_word_rows = st.lists(
    st.one_of(st.none(), st.lists(st.sampled_from(_INPUT_TOKENS), max_size=12)), max_size=8
)


@settings(max_examples=150, deadline=None)
@given(
    corpus=st.lists(
        st.lists(st.text(alphabet=_VOCAB_CHARS, min_size=1, max_size=8), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ),
    rows=_char_rows,
    trained_range=st.sampled_from(_CHAR_RANGES),
    served_range=st.sampled_from(_CHAR_RANGES),
    weighting=st.sampled_from(_WEIGHTINGS),
    max_features=st.integers(1, 80),
)
def test_char_kernel_is_bit_equal_to_the_per_gram_loop_property(
    corpus, rows, trained_range, served_range, weighting, max_features
):
    dictionary = (
        CharNgramFeaturizer(ngram_range=trained_range, max_features=max_features)
        .fit(corpus)
        .dictionary
    )
    # Serving a range other than the trained one covers windows longer than
    # any vocabulary gram (counted in ``tf`` totals, never matched).
    featurizer = CharNgramFeaturizer(
        ngram_range=served_range, dictionary=dictionary, weighting=weighting
    )
    if dictionary.size:
        assert dictionary.key_table("") is not None
    _assert_kernel_matches_oracle(featurizer, rows)


@settings(max_examples=150, deadline=None)
@given(
    corpus=st.lists(
        st.lists(st.sampled_from(_VOCAB_TOKENS), min_size=1, max_size=8), min_size=1, max_size=6
    ),
    rows=_word_rows,
    trained_range=st.sampled_from(_WORD_RANGES),
    served_range=st.sampled_from(_WORD_RANGES),
    weighting=st.sampled_from(_WEIGHTINGS),
    max_features=st.integers(1, 60),
)
def test_word_kernel_is_bit_equal_to_the_per_gram_loop_property(
    corpus, rows, trained_range, served_range, weighting, max_features
):
    dictionary = (
        WordNgramFeaturizer(ngram_range=trained_range, max_features=max_features)
        .fit(corpus)
        .dictionary
    )
    featurizer = WordNgramFeaturizer(
        ngram_range=served_range, dictionary=dictionary, weighting=weighting
    )
    if dictionary.size:
        assert dictionary.key_table(" ") is not None
    _assert_kernel_matches_oracle(featurizer, rows)


class TestNgramKeyTable:
    def test_a_token_containing_the_joiner_matches_like_the_loop(self):
        featurizer = WordNgramFeaturizer(
            ngram_range=(1, 2), dictionary=NgramDictionary({"a b": 0, "a": 1}, (1, 2))
        )
        rows = [["a b"], ["a", "b"], ["a b", "a"]]
        _assert_kernel_matches_oracle(featurizer, rows)
        # the loop finds the bigram's string in the one-token record too
        assert featurizer.transform_batch(rows).rows[0].indices.tolist() == [0]

    @pytest.mark.parametrize("weighting", _WEIGHTINGS)
    def test_vocabulary_too_wide_for_int64_keys_falls_back_to_the_loop(self, weighting):
        # 2**13 distinct units need 14 bits each; a 5-gram then needs 70 + 3
        tokens = [f"t{i}" for i in range(2**13)]
        vocabulary = {token: index for index, token in enumerate(tokens)}
        vocabulary[" ".join(tokens[:5])] = len(vocabulary)
        word = WordNgramFeaturizer(
            ngram_range=(1, 5), dictionary=NgramDictionary(vocabulary, (1, 5)), weighting=weighting
        )
        assert word.dictionary.key_table(" ") is None
        _assert_kernel_matches_oracle(word, [tokens[:7], None, [], tokens[3:5] + ["zz"]])

        chars = [chr(0x4E00 + i) for i in range(2**13)]
        vocabulary = {char: index for index, char in enumerate(chars)}
        vocabulary["".join(chars[:5])] = len(vocabulary)
        char = CharNgramFeaturizer(
            ngram_range=(1, 5), dictionary=NgramDictionary(vocabulary, (1, 5)), weighting=weighting
        )
        assert char.dictionary.key_table("") is None
        _assert_kernel_matches_oracle(char, ["".join(chars[:9]), None, "", [chars[1], "a"]])

    def test_widest_vocabulary_that_fits_uses_all_63_bits(self, monkeypatch):
        corpus = [["abcab", "cabba"], ["bcabc"]]
        featurizer = CharNgramFeaturizer(ngram_range=(2, 4), max_features=50).fit(corpus)
        table = featurizer.dictionary.key_table("")
        needed = table.bits * table.max_len + table.max_len.bit_length()
        monkeypatch.setattr(_NgramKeyTable, "MAX_KEY_BITS", needed)
        assert _NgramKeyTable.build(featurizer.dictionary.ngram_to_index, "") is not None
        monkeypatch.setattr(_NgramKeyTable, "MAX_KEY_BITS", needed - 1)
        assert _NgramKeyTable.build(featurizer.dictionary.ngram_to_index, "") is None

    def test_keys_are_sorted_distinct_and_cover_the_vocabulary(self):
        featurizer = WordNgramFeaturizer(ngram_range=(1, 3), max_features=40).fit(
            [["a", "b", "a", "c"], ["c", "a", "b"]]
        )
        table = featurizer.dictionary.key_table(" ")
        assert np.all(np.diff(table.keys) > 0)
        assert sorted(table.features.tolist()) == sorted(
            featurizer.dictionary.ngram_to_index.values()
        )

    def test_tables_are_built_once_and_never_pickled(self):
        featurizer = CharNgramFeaturizer(ngram_range=(2, 3), max_features=30).fit([["hello"]])
        before = pickle.dumps(featurizer)
        featurizer.prepare()
        table = featurizer.dictionary.key_table("")
        assert table is not None and featurizer.dictionary.key_table("") is table
        featurizer.parameters()
        assert pickle.dumps(featurizer) == before
        clone = pickle.loads(before)
        assert "_key_tables" not in clone.dictionary.__dict__
        _assert_bit_equal(clone.transform(["hello"]), featurizer.transform(["hello"]))

    def test_prepare_before_fit_is_a_no_op(self):
        CharNgramFeaturizer().prepare()
