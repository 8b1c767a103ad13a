"""Text featurization operators: tokenization and n-gram extraction.

These are the operators dominating the Sentiment Analysis pipelines in the
paper (Figure 5 shows Char/WordNgram taking two orders of magnitude more time
than the final linear model), and the ones whose dictionaries dominate the
memory footprint (Figure 3 reports 59-83 MB WordNgram dictionaries shared by
dozens of pipelines).
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.operators.base import Annotation, Operator, OperatorKind, Parameter, ValueKind
from repro.operators.batch import ColumnBatch, as_column_batch
from repro.operators.vectors import SparseVector

__all__ = ["Tokenizer", "NgramDictionary", "CharNgramFeaturizer", "WordNgramFeaturizer"]

_TOKEN_PATTERN = re.compile(r"[a-z0-9']+")


class Tokenizer(Operator):
    """Split input text into lowercase word tokens.

    The tokenizer is stateless (its only parameters are the separators),
    which is why all 250 SA pipelines in Figure 3 share a single instance.
    """

    name = "Tokenizer"
    kind = OperatorKind.FEATURIZER
    input_kind = ValueKind.TEXT
    output_kind = ValueKind.TOKENS
    annotations = Annotation.ONE_TO_ONE | Annotation.MEMORY_BOUND

    def __init__(self, lowercase: bool = True, pattern: str = _TOKEN_PATTERN.pattern):
        self.lowercase = lowercase
        self.pattern = pattern
        self._compiled = re.compile(pattern)

    def transform(self, value: Any) -> List[str]:
        if value is None:
            return []
        text = str(value)
        if self.lowercase:
            text = text.lower()
        return self._compiled.findall(text)

    supports_batch = True

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Tokenize a whole batch with one shared regex scan.

        The batch's texts are joined with a NUL sentinel and matched in a
        *single* ``finditer`` pass; match offsets are bucketed back to their
        records with one ``searchsorted`` over the cumulative record
        boundaries.  This is the same shared-assembly idiom the n-gram
        featurizers use: the per-record Python overhead (a method call, a
        findall set-up, a result list) is paid once per batch instead of once
        per record.  The fused scan is bit-equal to the scalar path because
        the default token pattern is a character class that can never match
        the sentinel, so no token spans a record boundary; custom patterns
        (or grouped ones, whose ``findall`` semantics differ) keep the exact
        per-record scan.
        """
        batch = as_column_batch(values)
        rows = batch.rows
        if not rows:
            return ColumnBatch.from_rows([])
        if self.pattern != _TOKEN_PATTERN.pattern or self._compiled.groups:
            return ColumnBatch.from_rows([self.transform(value) for value in rows])
        texts: List[str] = []
        for value in rows:
            text = "" if value is None else str(value)
            if self.lowercase:
                text = text.lower()
            texts.append(text)
        # boundaries[i] = first joined-string offset past record i (its
        # sentinel included), so searchsorted(right) maps offset -> record.
        boundaries = np.cumsum(np.fromiter(
            (len(text) + 1 for text in texts), dtype=np.int64, count=len(texts)
        ))
        tokens: List[str] = []
        positions: List[int] = []
        for match in self._compiled.finditer("\x00".join(texts)):
            tokens.append(match.group())
            positions.append(match.start())
        record_of = np.searchsorted(
            boundaries, np.asarray(positions, dtype=np.int64), side="right"
        )
        counts = np.bincount(record_of, minlength=len(texts))
        outputs: List[List[str]] = []
        position = 0
        for count in counts:
            end = position + int(count)
            outputs.append(tokens[position:end])
            position = end
        return ColumnBatch.from_rows(outputs)

    def parameters(self) -> List[Parameter]:
        return [Parameter("tokenizer.config", {"lowercase": self.lowercase, "pattern": self.pattern})]

    def _config(self) -> Dict[str, Any]:
        return {"lowercase": self.lowercase, "pattern": self.pattern}


class _NgramKeyTable:
    """Array form of one :class:`NgramDictionary`, for one unit joiner.

    Units (code points when ``joiner`` is empty, else the joiner-separated
    tokens) get dense ids ``1..A``; ``0`` means "not in any vocabulary gram".
    A gram of ``n`` units is packed into one non-negative ``int64``: ``bits``
    bits per unit id, first unit most significant, plus the length ``n`` above
    them at ``tag_shift = bits * max_len``.  The packing is injective over
    unit-id sequences of up to ``max_len`` units -- equal length and equal
    fixed-width digits -- and a vocabulary gram has no zero digit, so a window
    of the input matches a key exactly when it spells that gram: the lookup is
    a ``searchsorted`` plus an equality test, with no hashing and no collision
    pass.  ``keys`` is sorted; ``features`` is the parallel feature index.
    """

    __slots__ = ("unit_ids", "bits", "max_len", "tag_shift", "keys", "features")

    #: the packed gram (``bits * max_len`` bits) and its length tag must fit
    #: the 63 value bits of an int64
    MAX_KEY_BITS = 63

    def __init__(
        self,
        unit_ids: Union[np.ndarray, Dict[str, int]],
        bits: int,
        max_len: int,
        keys: np.ndarray,
        features: np.ndarray,
    ):
        #: code point -> id lookup array whose last slot is 0, so that
        #: ``take(..., mode="clip")`` maps every larger code point to 0
        #: (empty joiner); token -> id dict otherwise
        self.unit_ids = unit_ids
        self.bits = bits
        self.max_len = max_len
        self.tag_shift = bits * max_len
        self.keys = keys
        self.features = features

    @classmethod
    def build(cls, ngram_to_index: Dict[str, int], joiner: str) -> Optional["_NgramKeyTable"]:
        """The table for this vocabulary, or None when int64 keys cannot hold it."""
        grams = list(ngram_to_index)
        if not grams:
            return None
        unit_ids: Union[np.ndarray, Dict[str, int]]
        if joiner:
            # Splitting the joined vocabulary equals splitting every gram.
            units = joiner.join(grams).split(joiner)
            unit_ids = {unit: index + 1 for index, unit in enumerate(dict.fromkeys(units))}
            flat_ids = np.fromiter(
                map(unit_ids.__getitem__, units), dtype=np.int64, count=len(units)
            )
            lengths = np.fromiter(
                (gram.count(joiner) + 1 for gram in grams), dtype=np.int64, count=len(grams)
            )
            n_units = len(unit_ids)
        else:
            codes = _code_points("".join(grams))
            if not codes.size:
                return None
            alphabet = np.unique(codes)
            n_units = int(alphabet.size)
            unit_ids = np.zeros(int(alphabet[-1]) + 2, dtype=np.int64)
            unit_ids[alphabet] = np.arange(1, n_units + 1)
            flat_ids = unit_ids[codes]
            lengths = np.fromiter(map(len, grams), dtype=np.int64, count=len(grams))
        bits = n_units.bit_length()
        max_len = int(lengths.max())
        if bits * max_len + max_len.bit_length() > cls.MAX_KEY_BITS:
            return None
        starts = np.cumsum(lengths) - lengths
        keys = np.zeros(len(grams), dtype=np.int64)
        for position in range(max_len):
            longer = np.flatnonzero(lengths > position)
            keys[longer] = (keys[longer] << bits) | flat_ids[starts[longer] + position]
        keys += lengths << (bits * max_len)
        order = np.argsort(keys)
        features = np.fromiter(ngram_to_index.values(), dtype=np.int64, count=len(grams))
        return cls(unit_ids, bits, max_len, keys[order], features[order])

    def windows(self, ids: np.ndarray, low: int, high: int) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(n, keys)`` for ``n`` in ``low..high``: the key of every
        length-``n`` window of ``ids`` (``keys[p]`` covers ``ids[p : p + n]``).

        Keys roll: the length-``n`` key is the length-``n-1`` key shifted by
        one unit with the next id or-ed in.  Lengths beyond ``max_len`` are
        not yielded -- no gram is that long, and their keys would overflow.
        """
        key = ids
        for n in range(1, min(high, self.max_len, ids.size) + 1):
            if n > 1:
                key = (key[:-1] << self.bits) | ids[n - 1 :]
            if n >= low:
                yield n, key + (n << self.tag_shift)

    def match(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(hit, features)``: which of ``keys`` spell a vocabulary gram, and
        the feature index of each one that does (``features`` is as long as
        ``hit`` has true entries)."""
        slot = self.keys.searchsorted(keys)
        hit = self.keys.take(slot, mode="clip") == keys
        return hit, self.features[slot[hit]]


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text`` as a ``uint32`` array (one per character)."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


class NgramDictionary:
    """A trained n-gram vocabulary mapping n-grams to feature indices.

    The dictionary is the large shareable object: in the paper these reach
    tens of megabytes (about one million entries).  It is deliberately a
    standalone object (not buried inside the featurizer) so the Object Store
    can hold exactly one copy per distinct trained vocabulary.

    Beside the ``str -> index`` mapping (the trained state: what is
    checksummed, accounted and pickled) a dictionary carries *derived* state
    that is rebuilt per process and never pickled: the array-form key tables
    the featurizer kernels search (:meth:`key_table`) and the parameter
    checksum memo.  ``ngram_to_index`` must not be mutated once either exists.
    """

    def __init__(self, ngram_to_index: Dict[str, int], ngram_range: Tuple[int, int]):
        self.ngram_to_index = ngram_to_index
        self.ngram_range = ngram_range

    @property
    def size(self) -> int:
        return len(self.ngram_to_index)

    @classmethod
    def train(
        cls,
        token_lists: Sequence[Sequence[str]],
        ngram_range: Tuple[int, int],
        max_features: int,
        joiner: str = " ",
    ) -> "NgramDictionary":
        """Build a vocabulary of the ``max_features`` most frequent n-grams."""
        counts: Counter = Counter()
        low, high = ngram_range
        for tokens in token_lists:
            for n in range(low, high + 1):
                if len(tokens) < n:
                    continue
                for start in range(len(tokens) - n + 1):
                    counts[joiner.join(tokens[start : start + n])] += 1
        most_common = counts.most_common(max_features)
        # Sort selected n-grams lexicographically so the mapping is stable
        # regardless of tie-breaking inside Counter.
        vocab = sorted(gram for gram, _count in most_common)
        return cls({gram: idx for idx, gram in enumerate(vocab)}, ngram_range)

    def lookup(self, gram: str) -> Optional[int]:
        return self.ngram_to_index.get(gram)

    def key_table(self, joiner: str) -> Optional[_NgramKeyTable]:
        """The array-form lookup table for grams joined by ``joiner``.

        Built on first call and kept for the dictionary's lifetime; None when
        the vocabulary does not fit 63-bit keys (callers then count grams
        through :meth:`lookup`).  Two threads racing the first call both
        build the same table and one assignment wins.
        """
        tables = self.__dict__.setdefault("_key_tables", {})
        if joiner not in tables:
            tables[joiner] = _NgramKeyTable.build(self.ngram_to_index, joiner)
        return tables[joiner]

    def __getstate__(self) -> Dict[str, Any]:
        # Only the trained state travels; tables and memo are rebuilt per process.
        return {"ngram_to_index": self.ngram_to_index, "ngram_range": self.ngram_range}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NgramDictionary)
            and self.ngram_range == other.ngram_range
            and self.ngram_to_index == other.ngram_to_index
        )

    def __repr__(self) -> str:
        return f"NgramDictionary(size={self.size}, range={self.ngram_range})"


class _NgramFeaturizerBase(Operator):
    """Common machinery for char- and word-level n-gram featurizers."""

    kind = OperatorKind.FEATURIZER
    output_kind = ValueKind.VECTOR
    annotations = Annotation.ONE_TO_ONE | Annotation.MEMORY_BOUND
    produces_sparse = True

    def __init__(
        self,
        ngram_range: Tuple[int, int] = (1, 2),
        max_features: int = 5000,
        dictionary: Optional[NgramDictionary] = None,
        weighting: str = "count",
    ):
        if ngram_range[0] < 1 or ngram_range[1] < ngram_range[0]:
            raise ValueError(f"invalid ngram_range {ngram_range}")
        if weighting not in ("count", "binary", "tf"):
            raise ValueError(f"unknown weighting {weighting!r}")
        self.ngram_range = ngram_range
        self.max_features = max_features
        self.dictionary = dictionary
        self.weighting = weighting

    # -- training ---------------------------------------------------------

    def _units(self, value: Any) -> Sequence[str]:
        """Turn the input value into the sequence of units to n-gram over."""
        raise NotImplementedError

    def _joiner(self) -> str:
        raise NotImplementedError

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        unit_lists = [self._units(record) for record in records]
        self.dictionary = NgramDictionary.train(
            unit_lists, self.ngram_range, self.max_features, joiner=self._joiner()
        )
        return self

    # -- inference --------------------------------------------------------

    def prepare(self) -> None:
        if self.dictionary is not None:
            self.dictionary.key_table(self._joiner())

    def _count_grams(self, value: Any) -> Tuple[Dict[int, float], int]:
        """Count one record's in-vocabulary grams: ``(index -> count, total)``.

        The per-gram loop: one string join and one dictionary probe per gram,
        driven by builtins -- ``zip`` over ``n`` shifted unit lists yields the
        windows, ``map`` joins and probes them, and unigrams are the units
        themselves.  It serves what the array kernels do not: single-record
        word n-grams, vocabularies without a key table, and token lists whose
        tokens contain the joiner.
        """
        assert self.dictionary is not None
        units = self._units(value)
        get = self.dictionary.ngram_to_index.get
        joiner = self._joiner()
        low, high = self.ngram_range
        counts: Dict[int, float] = {}
        total = 0
        for n in range(low, min(high, len(units)) + 1):
            grams = units if n == 1 else map(joiner.join, zip(*(units[k:] for k in range(n))))
            total += len(units) - n + 1
            for index in map(get, grams):
                if index is not None:
                    counts[index] = counts.get(index, 0.0) + 1.0
        return counts, total

    def transform(self, value: Any) -> SparseVector:
        if self.dictionary is None:
            raise RuntimeError(f"{self.name} used before fit(): no dictionary")
        counts, total = self._count_grams(value)
        # Dictionary values are distinct feature indices below ``size``, so
        # the sorted keys already hold the SparseVector invariant.
        indices = sorted(counts)
        values = np.fromiter(map(counts.__getitem__, indices), np.float64, len(indices))
        return SparseVector.from_sorted(
            np.array(indices, dtype=np.int64), self._weigh(values, total), self.dictionary.size
        )

    def _weigh(self, counts: np.ndarray, totals: Any) -> np.ndarray:
        """Feature values from gram counts (``totals``: grams per record)."""
        if self.weighting == "binary":
            return np.ones(counts.size)
        values = counts.astype(np.float64)
        return values / totals if self.weighting == "tf" else values

    def _batch_unit_ids(
        self, rows: Sequence[Any], table: _NgramKeyTable
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The batch's unit ids, concatenated, and each record's unit count;
        None when the table cannot represent some record's units."""
        raise NotImplementedError

    supports_batch = True

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Featurize a whole batch with one pass of the array kernel.

        All records' unit ids are concatenated; for every ``n`` in range the
        rolling window keys of the whole batch are resolved with one
        ``searchsorted`` against the dictionary's key table (see
        :class:`_NgramKeyTable`), windows that run past their record's end
        are masked out, and the hits -- as ``record * size + feature``
        composites -- are sorted and counted once (``np.unique``) into every
        record's ``(index, count)`` pairs.  That sorted composite already is
        CSR: weighting is one vectorized pass, a ``searchsorted`` over record
        boundaries gives ``indptr``, and the batch leaves as one sparse
        column -- no per-record object.  Its rows are bit-equal to
        per-record :meth:`transform`; batches the table cannot represent take
        exactly that path.
        """
        if self.dictionary is None:
            raise RuntimeError(f"{self.name} used before fit(): no dictionary")
        rows = as_column_batch(values).rows
        if not rows:
            return ColumnBatch.from_rows([])
        table = self.dictionary.key_table(self._joiner())
        encoded = None if table is None else self._batch_unit_ids(rows, table)
        if encoded is None:
            return ColumnBatch.from_rows([self.transform(value) for value in rows])
        ids, lengths = encoded
        size = self.dictionary.size
        low, high = self.ngram_range
        record_of = np.repeat(np.arange(len(rows)), lengths)
        # units left in the record from each position on: a window of n units
        # starting there stays inside its record iff n <= remaining
        remaining = np.cumsum(lengths)[record_of] - np.arange(ids.size)
        hits = [np.empty(0, dtype=np.int64)]
        for n, keys in table.windows(ids, low, high):
            # Sorted needles search several times faster than scattered ones;
            # ``order`` maps each hit back to its window's start position.
            order = keys.argsort()
            hit, features = table.match(keys[order])
            start = order[hit]
            inside = remaining[start] >= n
            hits.append(record_of[start[inside]] * size + features[inside])
        composite, counts = np.unique(np.concatenate(hits), return_counts=True)
        record, indices = np.divmod(composite, size)
        totals = sum(np.maximum(lengths - n + 1, 0) for n in range(low, high + 1))
        weights = self._weigh(counts, totals[record])
        bounds = np.searchsorted(record, np.arange(len(rows) + 1))
        return ColumnBatch.from_csr(bounds, indices, weights, size)

    def parameters(self) -> List[Parameter]:
        params = [
            Parameter(
                f"{self.name.lower()}.config",
                {
                    "ngram_range": list(self.ngram_range),
                    "max_features": self.max_features,
                    "weighting": self.weighting,
                },
            )
        ]
        if self.dictionary is not None:
            params.append(
                Parameter(
                    f"{self.name.lower()}.dictionary",
                    self.dictionary.ngram_to_index,
                    owner=self.dictionary,
                )
            )
        return params

    def output_size(self) -> Optional[int]:
        return None if self.dictionary is None else self.dictionary.size

    def _config(self) -> Dict[str, Any]:
        return {
            "ngram_range": list(self.ngram_range),
            "max_features": self.max_features,
            "weighting": self.weighting,
        }


class WordNgramFeaturizer(_NgramFeaturizerBase):
    """Bag of word n-grams over a token list."""

    name = "WordNgram"
    input_kind = ValueKind.TOKENS

    def _units(self, value: Any) -> Sequence[str]:
        if value is None:
            return []
        if isinstance(value, str):
            raise TypeError("WordNgram expects a token list; run Tokenizer first")
        return list(value)

    def _joiner(self) -> str:
        return " "

    def _batch_unit_ids(
        self, rows: Sequence[Any], table: _NgramKeyTable
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        token_lists = [self._units(value) for value in rows]
        tokens = list(chain.from_iterable(token_lists))
        # A token containing the joiner makes a joined gram ambiguous (the
        # per-gram loop would match ["a b"] against the bigram "a b"), so the
        # table, whose units never contain it, cannot stand in for the loop.
        joiner = self._joiner()
        if joiner.join(tokens).count(joiner) != max(len(tokens) - 1, 0):
            return None
        unit_id = table.unit_ids.get
        ids = np.fromiter((unit_id(token, 0) for token in tokens), np.int64, len(tokens))
        lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
        return ids, lengths


class CharNgramFeaturizer(_NgramFeaturizerBase):
    """Bag of character n-grams over the concatenated token text."""

    name = "CharNgram"
    input_kind = ValueKind.TOKENS

    @staticmethod
    def _text(value: Any) -> str:
        if value is None:
            return ""
        return value if isinstance(value, str) else " ".join(value)

    def _units(self, value: Any) -> Sequence[str]:
        return list(self._text(value))

    def _joiner(self) -> str:
        return ""

    def transform(self, value: Any) -> SparseVector:
        """Featurize one record with the array kernel.

        The text becomes a code-point array, then unit ids; the rolling window
        keys for every ``n`` in range are resolved with one ``searchsorted``
        against the dictionary's key table.  The matched feature indices are
        sorted in place and counted as runs: one ``not_equal`` marks where a
        run starts, and the gaps between the starts are the counts.
        """
        if self.dictionary is None:
            raise RuntimeError(f"{self.name} used before fit(): no dictionary")
        table = self.dictionary.key_table("")
        if table is None:
            return super().transform(value)
        size = self.dictionary.size
        low, high = self.ngram_range
        ids = table.unit_ids.take(_code_points(self._text(value)), mode="clip")
        windows = [keys for _n, keys in table.windows(ids, low, high)]
        if not windows:
            return SparseVector.from_sorted(np.empty(0, dtype=np.int64), np.empty(0), size)
        keys = np.concatenate(windows)
        keys.sort()  # which window matched is irrelevant; sorted needles search faster
        _hit, features = table.match(keys)
        features.sort()
        # edges[i]: a run starts at features[i]; the padding at both ends
        # makes the last start the end of the array
        edges = np.ones(features.size + 1, dtype=bool)
        np.not_equal(features[1:], features[:-1], out=edges[1:-1])
        starts = np.flatnonzero(edges)
        total = sum(max(ids.size - n + 1, 0) for n in range(low, high + 1))
        return SparseVector.from_sorted(
            features[starts[:-1]], self._weigh(np.diff(starts), total), size
        )

    def _batch_unit_ids(
        self, rows: Sequence[Any], table: _NgramKeyTable
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        texts = [self._text(value) for value in rows]
        ids = table.unit_ids.take(_code_points("".join(texts)), mode="clip")
        return ids, np.fromiter(map(len, texts), np.int64, len(texts))
