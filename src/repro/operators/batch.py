"""ColumnBatch: the columnar batch representation operators execute over.

PRETZEL's stage-level batching only pays off when the layers underneath it
are actually vectorized: a batch that travels as a Python list of per-record
objects forces every operator kernel back into a per-record loop.  A
:class:`ColumnBatch` keeps one *column* of the batch -- the value every
record carries at one point of the pipeline -- in struct-of-arrays form
(one numpy array for the whole batch plus dtype/shape metadata) whenever the
values are uniformly numeric, while still round-tripping exactly to and from
the row-major lists the scalar path and the wire format use.

A column is in one of five storage kinds:

``dense``
    Every row is a :class:`~repro.operators.vectors.DenseVector` of one
    width; the storage is a single ``(n_records, width)`` float64 matrix and
    rows are materialized lazily as views into it.
``sparse``
    Every row is a :class:`~repro.operators.vectors.SparseVector` of one
    width; the storage is CSR -- ``indptr`` (``n_records + 1`` offsets,
    starting at 0), ``indices`` (strictly increasing within each record) and
    ``data`` -- so a sparse batch is three arrays, not ``n`` objects.  Rows
    materialize lazily as :meth:`SparseVector.from_sorted` views, and only
    for consumers that need per-record objects (the scalar oracle, a
    loop-fallback operator, the materializer, an error re-run).
``scalar``
    Every row is a float; the storage is a 1-D float64 array.
``multi``
    The column feeds an n-ary operator (Concat): storage is one
    :class:`ColumnBatch` per upstream branch, and rows materialize as the
    per-record argument lists the scalar contract passes.
``rows``
    Anything else (texts, token lists, dict records, mixed batches): storage
    is the plain row list -- the loop-fallback representation.  A row list
    of same-width sparse vectors converts to CSR on first
    :meth:`ColumnBatch.sparse_csr`, so sparse kernels see one form.

``ColumnBatch`` is also a read-only sequence of its rows (``len``, ``in``,
indexing, iteration, equality against plain lists), so operator kernels and
tests that treated batches as lists keep working unchanged.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.operators.vectors import DenseVector, SparseVector, as_vector

__all__ = [
    "ColumnBatch",
    "Csr",
    "as_column_batch",
    "batch_matrix",
    "concat_csr",
    "stack_columns",
]

#: a sparse column's storage: ``(indptr, indices, data, width)``
Csr = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


class ColumnBatch:
    """One column of a record batch, columnar when the values allow it."""

    __slots__ = ("_rows", "_matrix", "_csr", "_scalars", "_parts", "_length")

    def __init__(self) -> None:  # use the from_* constructors
        self._rows: Optional[List[Any]] = None
        self._matrix: Optional[np.ndarray] = None
        self._csr: Optional[Csr] = None
        self._scalars: Optional[np.ndarray] = None
        self._parts: Optional[List["ColumnBatch"]] = None
        self._length = 0

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Any]) -> "ColumnBatch":
        """Wrap a row-major list of per-record values (any content)."""
        batch = cls()
        batch._rows = list(rows)
        batch._length = len(batch._rows)
        return batch

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "ColumnBatch":
        """Wrap an ``(n_records, width)`` float64 matrix of dense vectors."""
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"from_matrix needs a 2-D array, got shape {arr.shape}")
        batch = cls()
        batch._matrix = arr
        batch._length = int(arr.shape[0])
        return batch

    @classmethod
    def from_csr(
        cls, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, width: int
    ) -> "ColumnBatch":
        """Wrap a CSR batch of ``width``-wide sparse vectors.

        Record ``r`` holds ``indices[indptr[r]:indptr[r + 1]]`` with values
        ``data[...]``.  Like :meth:`SparseVector.from_sorted` this trusts its
        caller: ``indptr`` starts at 0 and ends at ``len(indices)``, and every
        record's indices are strictly increasing and below ``width`` by
        construction of the kernel that built them.
        """
        offsets = np.asarray(indptr, dtype=np.int64)
        positions = np.asarray(indices, dtype=np.int64)
        values = np.asarray(data, dtype=np.float64)
        if offsets.ndim != 1 or offsets.size < 1 or positions.shape != values.shape:
            raise ValueError(
                f"from_csr needs 1-D indptr and equal indices/data shapes, got "
                f"{offsets.shape}, {positions.shape}, {values.shape}"
            )
        batch = cls()
        batch._csr = (offsets, positions, values, int(width))
        batch._length = int(offsets.size) - 1
        return batch

    @classmethod
    def from_scalars(cls, values: np.ndarray) -> "ColumnBatch":
        """Wrap a 1-D float64 array of per-record scalar outputs."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"from_scalars needs a 1-D array, got shape {arr.shape}")
        batch = cls()
        batch._scalars = arr
        batch._length = int(arr.shape[0])
        return batch

    @classmethod
    def multi(cls, parts: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Combine one column per upstream branch into an n-ary input column."""
        parts = list(parts)
        if not parts:
            raise ValueError("multi needs at least one part")
        lengths = {len(part) for part in parts}
        if len(lengths) != 1:
            raise ValueError(f"multi parts disagree on batch size: {sorted(lengths)}")
        batch = cls()
        batch._parts = parts
        batch._length = len(parts[0])
        return batch

    # -- columnar views ------------------------------------------------------

    @property
    def parts(self) -> Optional[List["ColumnBatch"]]:
        """The per-branch columns of an n-ary input column (None otherwise)."""
        return self._parts

    @property
    def kind(self) -> str:
        """The storage kind: ``dense``, ``sparse``, ``scalar``, ``multi`` or ``rows``.

        A row list whose matrix or CSR form has been built (and cached)
        reports that columnar kind.
        """
        if self._matrix is not None:
            return "dense"
        if self._csr is not None:
            return "sparse"
        if self._scalars is not None:
            return "scalar"
        if self._parts is not None:
            return "multi"
        return "rows"

    @property
    def width(self) -> Optional[int]:
        """Vector width of a dense or sparse column, ``0`` for scalars, None otherwise."""
        if self._matrix is not None:
            return int(self._matrix.shape[1])
        if self._csr is not None:
            return self._csr[3]
        if self._scalars is not None:
            return 0
        return None

    def dense_matrix(self) -> Optional[np.ndarray]:
        """The batch as one ``(n_records, width)`` float64 matrix, or None.

        Returns the columnar storage directly when the batch was built from a
        matrix; otherwise the rows are stacked (once, then cached) if and only
        if every row is a :class:`DenseVector` of one width.
        """
        if self._matrix is not None:
            return self._matrix
        rows = self._rows
        if not rows:
            return None
        width = -1
        for row in rows:
            if not isinstance(row, DenseVector):
                return None
            if width < 0:
                width = row.size
            elif row.size != width:
                return None
        matrix = np.empty((len(rows), width), dtype=np.float64)
        for index, row in enumerate(rows):
            matrix[index] = row.values
        self._matrix = matrix
        return matrix

    def sparse_csr(self) -> Optional[Csr]:
        """The batch as CSR ``(indptr, indices, data, width)``, or None.

        Returns the columnar storage of a sparse column; a row list is
        converted (once, then cached) if and only if every row is a
        :class:`SparseVector` of one width, so sparse kernels handle a single
        representation whichever way the batch was built.
        """
        if self._csr is not None:
            return self._csr
        rows = self._rows
        if not rows:
            return None
        width = -1
        for row in rows:
            if not isinstance(row, SparseVector):
                return None
            if width < 0:
                width = row.size
            elif row.size != width:
                return None
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((row.indices.shape[0] for row in rows), np.int64, len(rows)),
            out=indptr[1:],
        )
        indices = np.concatenate([row.indices for row in rows]).astype(np.int64, copy=False)
        data = np.concatenate([row.values for row in rows]).astype(np.float64, copy=False)
        self._csr = (indptr, indices, data, width)
        return self._csr

    def head(self, count: int) -> "ColumnBatch":
        """The column of the first ``count`` records, in the same storage kind."""
        if count >= self._length:
            return self
        if self._matrix is not None:
            return ColumnBatch.from_matrix(self._matrix[:count])
        if self._csr is not None:
            indptr, indices, data, width = self._csr
            end = int(indptr[count])
            return ColumnBatch.from_csr(indptr[: count + 1], indices[:end], data[:end], width)
        if self._scalars is not None:
            return ColumnBatch.from_scalars(self._scalars[:count])
        if self._parts is not None:
            return ColumnBatch.multi([part.head(count) for part in self._parts])
        return ColumnBatch.from_rows(self.rows[:count])

    def scalar_array(self) -> Optional[np.ndarray]:
        """The batch as one 1-D float64 array, or None when rows are not floats."""
        if self._scalars is not None:
            return self._scalars
        rows = self._rows
        if not rows:
            return None
        for row in rows:
            if type(row) is not float and not isinstance(row, (int, np.floating)):
                return None
            if isinstance(row, bool):
                return None
        self._scalars = np.asarray(rows, dtype=np.float64)
        return self._scalars

    # -- row-major views -----------------------------------------------------

    @property
    def rows(self) -> List[Any]:
        """The batch as the row-major list the scalar contract uses.

        Columnar kinds materialize lazily: dense rows are
        :class:`DenseVector` *views* into the columnar matrix, sparse rows
        :meth:`SparseVector.from_sorted` views into the CSR arrays (operators
        treat vectors as immutable, so sharing the storage is safe and keeps
        the batch one allocation).
        """
        if self._rows is None:
            if self._matrix is not None:
                self._rows = [DenseVector(row) for row in self._matrix]
            elif self._csr is not None:
                indptr, indices, data, width = self._csr
                bounds = indptr.tolist()
                view = SparseVector.from_sorted
                self._rows = [
                    view(indices[start:end], data[start:end], width)
                    for start, end in zip(bounds, bounds[1:])
                ]
            elif self._scalars is not None:
                self._rows = [float(value) for value in self._scalars]
            elif self._parts is not None:
                part_rows = [part.rows for part in self._parts]
                self._rows = [list(values) for values in zip(*part_rows)]
            else:
                self._rows = []
        return self._rows

    def row(self, index: int) -> Any:
        return self.rows[index]

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Any]:
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnBatch):
            return self.rows == other.rows
        if isinstance(other, (list, tuple)):
            return self.rows == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        kind = self.kind
        if kind in ("dense", "sparse"):
            kind = f"{kind}[{self.width}]"
        elif kind == "multi":
            kind = f"multi[{len(self._parts or ())}]"
        return f"ColumnBatch(n={self._length}, kind={kind})"


def as_column_batch(values: Any) -> ColumnBatch:
    """Coerce a row-major sequence (or pass through a ColumnBatch)."""
    if isinstance(values, ColumnBatch):
        return values
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return ColumnBatch.from_matrix(values)
    return ColumnBatch.from_rows(list(values))


def _scatter_csr(matrix: np.ndarray, column_offset: int, csr: Csr) -> None:
    """Write CSR entries into a zeroed ``matrix``, shifted right by ``column_offset``.

    Indices are unique per record, so assignment places every stored value
    exactly as the per-record :meth:`SparseVector.to_dense` scatter does.
    """
    indptr, indices, data, _width = csr
    if indices.size:
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        matrix[rows, indices + column_offset if column_offset else indices] = data


def batch_matrix(batch: ColumnBatch) -> Optional[np.ndarray]:
    """The batch as one ``(n, width)`` float64 matrix, densifying as needed.

    Unlike :meth:`ColumnBatch.dense_matrix` (dense-vector rows only, zero
    copy), this coerces every row the way the scalar kernels do
    (``as_vector(value).to_numpy()``): sparse batches are scattered from
    their CSR form in one pass, anything else vector-like is stacked.
    Returns None when the rows are not uniformly vector-like -- the caller
    then takes its per-record fallback, which reports the real error for
    genuinely bad records.
    """
    matrix = batch.dense_matrix()
    if matrix is not None:
        return matrix
    csr = batch.sparse_csr()
    if csr is not None:
        matrix = np.zeros((len(batch), csr[3]), dtype=np.float64)
        _scatter_csr(matrix, 0, csr)
        return matrix
    rows = batch.rows
    if not rows:
        return None
    arrays: List[np.ndarray] = []
    width = -1
    for value in rows:
        try:
            array = as_vector(value).to_numpy()
        except Exception:
            return None
        if array.ndim != 1:
            return None
        if width < 0:
            width = int(array.shape[0])
        elif array.shape[0] != width:
            return None
        arrays.append(array)
    matrix = np.empty((len(arrays), width), dtype=np.float64)
    for index, array in enumerate(arrays):
        matrix[index] = array
    return matrix


def stack_columns(parts: Sequence[ColumnBatch]) -> Optional[np.ndarray]:
    """Horizontally stack vector columns into one ``(n, total width)`` matrix.

    The dense ``Concat`` kernel: dense parts are copied in and sparse parts
    scattered straight from their CSR storage into their slice of the
    output, so no per-part dense intermediate (and no per-record vector) is
    built.  Bit-equal to concatenating each record's densified vectors.
    Returns None when some part is not uniformly vector-like.
    """
    sources: List[Any] = []
    for part in parts:
        source: Any = part.sparse_csr()
        if source is None:
            source = batch_matrix(part)
        if source is None:
            return None
        sources.append(source)
    widths = [
        source.shape[1] if isinstance(source, np.ndarray) else source[3] for source in sources
    ]
    matrix = np.zeros((len(parts[0]), sum(widths)), dtype=np.float64)
    offset = 0
    for source, width in zip(sources, widths):
        if isinstance(source, np.ndarray):
            matrix[:, offset : offset + width] = source
        else:
            _scatter_csr(matrix, offset, source)
        offset += width
    return matrix


def concat_csr(parts: Sequence[Csr]) -> Csr:
    """Concatenate same-length CSR columns record by record.

    Part ``p``'s indices shift by the widths of the parts before it and the
    ``indptr`` arrays add up; each entry lands at its record's write cursor,
    so every record's indices stay strictly increasing.  Equal to
    concatenating each record's sparse vectors.
    """
    counts = [np.diff(indptr) for indptr, _indices, _data, _width in parts]
    indptr = np.zeros(parts[0][0].size, dtype=np.int64)
    np.cumsum(np.sum(counts, axis=0), out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    data = np.empty(int(indptr[-1]), dtype=np.float64)
    cursor = indptr[:-1].copy()
    offset = 0
    for (part_indptr, part_indices, part_data, width), count in zip(parts, counts):
        target = np.repeat(cursor - part_indptr[:-1], count) + np.arange(part_indices.size)
        indices[target] = part_indices + offset
        data[target] = part_data
        cursor += count
        offset += width
    return indptr, indices, data, offset
