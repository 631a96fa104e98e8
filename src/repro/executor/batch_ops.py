"""Column batches and the batch-at-a-time kernels of the query evaluator.

Lohman's LOLEPOPs are defined over *streams* with property vectors, so
nothing in their semantics is tuple-at-a-time; pulling one ``dict`` row
at a time through a tree of generators makes every tuple pay generator
dispatch, dict construction, and predicate evaluation through a fresh
:class:`~repro.query.expressions.RowContext`.  This module supplies the
columnar data plane the plan interpreter
(:mod:`repro.executor.vectorized`) runs on instead:

* :class:`ColumnBatch` — a fixed-capacity slice of a stream stored as
  column lists keyed by :class:`~repro.query.expressions.ColumnRef`, with
  an optional *selection vector* (``sel``) of surviving row positions so
  chained predicates narrow an index list instead of copying columns;
* predicate compilation — :func:`compile_predicates` turns a frozenset of
  predicates into a closure evaluating whole batches via list
  comprehensions, specializing the common sargable shapes
  (``col op literal``, ``col op col``) and falling back to the scalar
  ``Predicate.evaluate`` through a :class:`BatchRowView` for everything
  else (ORs, arithmetic, outer-bound columns);
* expression extraction — :func:`extract_values` evaluates a join-key
  expression over a batch, marking rows whose evaluation fails with
  :data:`EVAL_FAILED` (such a row has no key and joins nothing);
* :func:`gather` / :func:`column_of` — the one gather and the one
  row-major to column-major transposition idiom every kernel uses, both
  a C-level ``map`` with no bytecode per element;
* :class:`BatchBuilder` — cuts join output chunks into full batches,
  copying each value once;
* :func:`sort_permutation` / :func:`batch_bytes` — the SORT key and the
  SHIP byte-accounting kernels.

Every kernel keeps its input's row *order* and the engine's two-valued
``None`` semantics (a comparison with ``None`` on either side is false):
``tests/reference_executor.py`` holds them to a tuple-at-a-time
interpreter on both.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, Expr, Literal, RowContext
from repro.query.predicates import Comparison, Conjunction, Predicate, _OP_FUNCS

#: Sentinel marking a row whose key expression raised ExecutionError —
#: such rows silently drop out of hash/merge keys.
EVAL_FAILED = object()

#: Width charged for a shipped TID pseudo-column value.
TID_WIDTH = 8

Row = dict[ColumnRef, Any]


def _sort_key(value: Any) -> tuple:
    """None-safe sort key: values in order, Nones after them."""
    return (value is None, value)


def gather(col: list, indices: Iterable[int]) -> list:
    """``[col[i] for i in indices]`` without a bytecode per element — the
    one gather idiom of every kernel (selection vectors, join assembly,
    SORT permutations)."""
    return list(map(col.__getitem__, indices))


def column_of(raws: Iterable[Sequence], pos: int) -> list:
    """Column ``pos`` of a run of stored row tuples — the one row-major
    to column-major transposition idiom of the scans and GET."""
    return list(map(itemgetter(pos), raws))


class ColumnBatch:
    """A slice of a stream stored column-wise.

    ``columns`` maps every column of the stream to a list of ``length``
    values; row ``i`` of the batch is ``{c: columns[c][i] for c}``.
    ``sel``, when not ``None``, is the selection vector: the ordered row
    positions that survive the filters applied so far.  Kernels that need
    dense columns call :meth:`compact` once, so a conjunction of
    predicates narrows one index list instead of rebuilding every column
    per conjunct.
    """

    __slots__ = ("columns", "length", "sel")

    def __init__(
        self,
        columns: dict[ColumnRef, list],
        length: int,
        sel: list[int] | None = None,
    ):
        self.columns = columns
        self.length = length
        self.sel = sel

    def __len__(self) -> int:
        return self.length if self.sel is None else len(self.sel)

    def compact(self) -> "ColumnBatch":
        """Apply the selection vector, returning a dense batch."""
        sel = self.sel
        if sel is None:
            return self
        if len(sel) == self.length:
            return ColumnBatch(self.columns, self.length)
        columns = {c: gather(col, sel) for c, col in self.columns.items()}
        return ColumnBatch(columns, len(sel))

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather the given (dense) row positions into a new dense batch."""
        columns = {c: gather(col, indices) for c, col in self.columns.items()}
        return ColumnBatch(columns, len(indices))

    def rows(self) -> Iterator[Row]:
        """Materialize every row as a dict, selection applied."""
        batch = self.compact()
        columns = batch.columns
        for i in range(batch.length):
            yield {c: col[i] for c, col in columns.items()}

    def column(self, ref: ColumnRef) -> list:
        """A (dense) column, padding with Nones when the stream lacks it —
        the batch analogue of ``row.get(ref)``."""
        batch = self.compact()
        col = batch.columns.get(ref)
        if col is None:
            return [None] * batch.length
        return col

    @classmethod
    def from_rows(cls, rows: Sequence[Row], schema: Sequence[ColumnRef]) -> "ColumnBatch":
        columns: dict[ColumnRef, list] = {
            c: [row.get(c) for row in rows] for c in schema
        }
        return cls(columns, len(rows))


class BatchRowView(Mapping):
    """A Mapping view of one batch row, reused across rows by mutating
    ``index`` — gives the scalar ``Predicate.evaluate`` fallback a row
    without building a dict per tuple."""

    __slots__ = ("columns", "index")

    def __init__(self, columns: dict[ColumnRef, list], index: int = 0):
        self.columns = columns
        self.index = index

    def __getitem__(self, ref: ColumnRef) -> Any:
        return self.columns[ref][self.index]

    def __contains__(self, ref: object) -> bool:
        return ref in self.columns

    def __iter__(self) -> Iterator[ColumnRef]:
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)


#: A compiled filter: (columns, candidate indices, outer bindings) ->
#: surviving indices, in order.
BatchFilter = Callable[[dict[ColumnRef, list], list[int], RowContext | None], list[int]]


def _compile_one(pred: Predicate, schema: frozenset[ColumnRef]) -> BatchFilter:
    """Compile a single predicate against the stream's column set."""
    if isinstance(pred, Conjunction):
        parts = [_compile_one(p, schema) for p in pred.parts]

        def conj(cols, idx, bindings, _parts=parts):
            for part in _parts:
                if not idx:
                    break
                idx = part(cols, idx, bindings)
            return idx

        return conj

    if isinstance(pred, Comparison):
        left, right, op = pred.left, pred.right, _OP_FUNCS[pred.op]
        if isinstance(left, ColumnRef) and left in schema:
            if isinstance(right, Literal):
                value = right.value

                def col_lit(cols, idx, bindings, _c=left, _v=value, _op=op):
                    if _v is None:
                        return []
                    col = cols[_c]
                    return [
                        i for i in idx
                        if (x := col[i]) is not None and _op(x, _v)
                    ]

                return col_lit
            if isinstance(right, ColumnRef) and right in schema:

                def col_col(cols, idx, bindings, _l=left, _r=right, _op=op):
                    lc, rc = cols[_l], cols[_r]
                    return [
                        i for i in idx
                        if (a := lc[i]) is not None
                        and (b := rc[i]) is not None
                        and _op(a, b)
                    ]

                return col_col
        if (
            isinstance(right, ColumnRef)
            and right in schema
            and isinstance(left, Literal)
        ):
            value = left.value

            def lit_col(cols, idx, bindings, _c=right, _v=value, _op=op):
                if _v is None:
                    return []
                col = cols[_c]
                return [
                    i for i in idx
                    if (x := col[i]) is not None and _op(_v, x)
                ]

            return lit_col

    # Generic fallback: scalar evaluation per row through a reused view.
    def generic(cols, idx, bindings, _pred=pred):
        view = BatchRowView(cols)
        ctx = RowContext(view, outer=bindings)
        out = []
        for i in idx:
            view.index = i
            if _pred.evaluate(ctx):
                out.append(i)
        return out

    return generic


def compile_predicates(
    preds: frozenset[Predicate] | Sequence[Predicate],
    schema: frozenset[ColumnRef],
) -> BatchFilter | None:
    """Compile a predicate set into one batch filter (AND of all parts).

    Returns ``None`` for an empty set so callers can skip the call
    entirely.  Predicates apply in sorted order — evaluation is pure, so
    only the surviving set matters, and a deterministic order keeps runs
    reproducible.
    """
    parts = [_compile_one(p, schema) for p in sorted(preds, key=str)]
    if not parts:
        return None

    def filt(cols, idx, bindings):
        for part in parts:
            if not idx:
                break
            idx = part(cols, idx, bindings)
        return idx

    return filt


def apply_filter(
    batch: ColumnBatch,
    filt: BatchFilter | None,
    bindings: RowContext | None,
) -> ColumnBatch:
    """Run a compiled filter over a batch, narrowing its selection."""
    if filt is None:
        return batch
    batch = batch.compact()
    idx = filt(batch.columns, list(range(batch.length)), bindings)
    return ColumnBatch(batch.columns, batch.length, sel=idx)


def extract_values(
    batch: ColumnBatch, expr: Expr, bindings: RowContext | None
) -> list:
    """Evaluate an expression per batch row; failures yield EVAL_FAILED.

    A bare column of the stream is returned without any per-row work —
    the common hash/merge-key case.
    """
    batch = batch.compact()
    if isinstance(expr, ColumnRef):
        col = batch.columns.get(expr)
        if col is not None:
            return col
    view = BatchRowView(batch.columns)
    ctx = RowContext(view, outer=bindings)
    out = []
    for i in range(batch.length):
        view.index = i
        try:
            out.append(expr.evaluate(ctx))
        except ExecutionError:
            out.append(EVAL_FAILED)
    return out


def key_tuples(
    batch: ColumnBatch,
    exprs: Sequence[Expr],
    bindings: RowContext | None,
) -> list[tuple | None]:
    """Per-row key tuples over a batch; ``None`` marks a row whose key
    could not be evaluated (dropped from hash joins)."""
    batch = batch.compact()
    if not exprs:
        return [()] * batch.length
    columns = batch.columns
    if all(isinstance(e, ColumnRef) and e in columns for e in exprs):
        # Bare stream columns: nothing is evaluated, so nothing can fail.
        return list(zip(*[columns[e] for e in exprs]))
    value_lists = [extract_values(batch, e, bindings) for e in exprs]
    return [
        None if EVAL_FAILED in values else values
        for values in zip(*value_lists)
    ]


class BatchBuilder:
    """Accumulates output rows column-wise and emits full batches.

    Join kernels append *chunks* (already-filtered column batches); the
    builder cuts them into ``batch_size`` pieces so downstream operators
    always see bounded batches.  Every value of a chunk is copied once,
    by a slice: the head that completes the pending batch, each whole
    batch, and the tail that stays pending — so a chunk of any length
    costs time linear in its rows.  The builder never mutates a list it
    was given and never hands one out (a chunk may share its columns
    with a batch that is still in use upstream): what it emits and what
    it keeps are always slices of its own making.
    """

    def __init__(self, batch_size: int):
        self.batch_size = batch_size
        #: The pending rows — fewer than ``batch_size`` between calls.
        self._columns: dict[ColumnRef, list] | None = None
        self._length = 0

    def append_batch(self, batch: ColumnBatch) -> list[ColumnBatch]:
        batch = batch.compact()
        n = batch.length
        if n == 0:
            return []
        if self._columns is None:
            self._columns = {c: [] for c in batch.columns}
        size = self.batch_size
        head = min(n, size - self._length)
        for c, col in self._columns.items():
            col.extend(batch.columns[c][:head])
        self._length += head
        if self._length < size:
            return []
        out = [ColumnBatch(self._columns, size)]
        stop = head  # the chunk is cut up to here
        for stop in range(head + size, n + 1, size):
            out.append(ColumnBatch(
                {c: batch.columns[c][stop - size:stop] for c in self._columns},
                size,
            ))
        self._columns = {c: batch.columns[c][stop:] for c in self._columns}
        self._length = n - stop
        return out

    def flush(self) -> list[ColumnBatch]:
        if self._columns is None or self._length == 0:
            return []
        out = [ColumnBatch(self._columns, self._length)]
        self._columns = None
        self._length = 0
        return out


def batches_of(items: Iterator, batch_size: int) -> Iterator[list]:
    """Chunk an iterator into lists of at most ``batch_size`` items,
    pulling lazily so an abandoned stream stops charging I/O."""
    chunk: list = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= batch_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def sort_permutation(
    batch: ColumnBatch, order: Sequence[ColumnRef]
) -> list[int]:
    """Row permutation sorting the batch by the order columns.

    Successive stable sorts on the reversed key list are equivalent to
    one sort on the key tuple, and each pass compares plain values
    instead of building a tuple per row.
    """
    batch = batch.compact()
    perm = list(range(batch.length))
    for ref in reversed(list(order)):
        col = batch.column(ref)
        perm.sort(key=lambda i: _sort_key(col[i]))
    return perm


def concat_batches(batches: Sequence[ColumnBatch]) -> ColumnBatch:
    """Concatenate batches of one stream into a single dense batch."""
    dense = [b.compact() for b in batches if len(b)]
    if not dense:
        return ColumnBatch({}, 0)
    if len(dense) == 1:
        return dense[0]
    columns: dict[ColumnRef, list] = {
        c: list(col) for c, col in dense[0].columns.items()
    }
    for batch in dense[1:]:
        for c, col in columns.items():
            col.extend(batch.columns[c])
    return ColumnBatch(columns, sum(b.length for b in dense))


def batch_bytes(batch: ColumnBatch) -> int:
    """Shipped-byte accounting for a batch: 8 bytes per TID, string
    length for strings, 8 for floats, 4 otherwise."""
    batch = batch.compact()
    total = 0
    for ref, col in batch.columns.items():
        if ref.column.startswith("#"):
            total += TID_WIDTH * batch.length
            continue
        for value in col:
            if isinstance(value, str):
                total += len(value)
            elif isinstance(value, float):
                total += 8
            else:
                total += 4
    return total
