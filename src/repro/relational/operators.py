"""Relational operators: join, semijoin, project, select, union, partition.

These are the only operations PANDA performs (§1.3: "join, horizontal
partition, union" — plus the projections of monotonicity steps and the
semijoins of the query drivers).  All of them run directly on the sorted
integer code columns of :mod:`repro.relational.columns`:

* projections and partitions are run scans over a column set sorted with the
  kept/grouping attributes first;
* the natural join is a sort-merge join on the shared-attribute prefix;
* the semijoin matches each left row's shared-attribute codes against the
  right side's distinct keys;
* union sorts both sides' rows under the left schema and keeps one row per
  run of equal rows; difference filters code tuples through a set (shared
  dictionaries make codes directly comparable across relations).

Under the vectorized backend (:mod:`repro.relational.backend`), inputs of at
least :data:`_VEC_MIN_ROWS` rows run on numpy blocks of the code columns:
projection, the single-key join, the semijoin (any number of shared
attributes folded into one composite int64 key per row, probed with
``searchsorted``), union (composite-key sort and a run-boundary mask), and
the Lemma 6.1 partition (run boundaries, integer log-degree buckets, and
index gathers).  Outputs and work charges equal the row paths' exactly;
the row paths remain the stdlib-only engine and the reference.

Every operator counts the tuple-level work it performs into the *current*
:class:`WorkCounter`, so benchmarks can report machine-independent work
alongside wall-clock time.  The counter is scoped through a
:class:`~contextvars.ContextVar` — concurrent or interleaved runs (parallel
pytest, async drivers) each see their own counter under
:func:`scoped_work_counter`, while the module-level :data:`work_counter`
proxy keeps the historical ``work_counter.reset()`` / ``work_counter.total``
call sites working against whichever counter is current.

The heavy/light partition implements Lemma 6.1: a table ``T(A_Y)`` with
``X ⊂ Y`` splits into ``O(log |T|)`` pieces ``T^(j)`` with

    |Π_X(T^(j))| * deg_{T^(j)}(Y | X)  <=  |T|.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.exceptions import SchemaError
from repro.relational.backend import current_backend
from repro.relational.columns import decode_row, merge_runs
from repro.relational.relation import Relation

#: Operator inputs at least this large route to the numpy kernels when the
#: vectorized backend is active (below it the ndarray overhead loses).
_VEC_MIN_ROWS = 256

__all__ = [
    "WorkCounter",
    "work_counter",
    "current_counter",
    "scoped_work_counter",
    "project",
    "select_equal",
    "natural_join",
    "semijoin",
    "union",
    "difference",
    "heavy_light_partition",
    "PartitionPiece",
]


@dataclass
class WorkCounter:
    """Counts tuple-level operations for machine-independent cost reporting."""

    tuples_scanned: int = 0
    tuples_emitted: int = 0
    joins: int = 0
    partitions: int = 0

    def reset(self) -> None:
        self.tuples_scanned = 0
        self.tuples_emitted = 0
        self.joins = 0
        self.partitions = 0

    @property
    def total(self) -> int:
        """Total work units (scans + emissions): the benchmarks' cost metric."""
        return self.tuples_scanned + self.tuples_emitted

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict — the wire format worker processes
        report back through (:mod:`repro.parallel.pool`)."""
        return {
            "tuples_scanned": self.tuples_scanned,
            "tuples_emitted": self.tuples_emitted,
            "joins": self.joins,
            "partitions": self.partitions,
        }

    def absorb(self, counts: "WorkCounter | dict") -> None:
        """Add another counter's numbers into this one.

        The parent-scope aggregation of partition-parallel execution: each
        worker runs its shard under its own scoped counter and ships the
        totals home, so ``repro run --stats`` stays truthful about the work
        actually performed regardless of the worker count.
        """
        if isinstance(counts, WorkCounter):
            counts = counts.as_dict()
        self.tuples_scanned += counts.get("tuples_scanned", 0)
        self.tuples_emitted += counts.get("tuples_emitted", 0)
        self.joins += counts.get("joins", 0)
        self.partitions += counts.get("partitions", 0)


#: Process-wide fallback counter (what un-scoped code observes).
_DEFAULT_COUNTER = WorkCounter()

_counter_var: ContextVar[WorkCounter] = ContextVar(
    "repro_work_counter", default=_DEFAULT_COUNTER
)


def current_counter() -> WorkCounter:
    """The :class:`WorkCounter` active in the current context."""
    return _counter_var.get()


@contextmanager
def scoped_work_counter(counter: WorkCounter | None = None) -> Iterator[WorkCounter]:
    """Run the body against its own work counter.

    Every operator inside the ``with`` block charges the scoped counter
    instead of the process-wide one, so interleaved runs cannot corrupt each
    other's scan/emit counts.  Scoping follows :mod:`contextvars` semantics:
    asyncio tasks spawned inside the block inherit the counter, but worker
    *threads* start from a fresh context and see the process-wide default —
    to count inside a thread, enter ``scoped_work_counter(counter)`` in the
    thread body (or run it under ``contextvars.copy_context()``)::

        with scoped_work_counter() as counter:
            generic_join(relations)
            print(counter.total)
    """
    if counter is None:
        counter = WorkCounter()
    token = _counter_var.set(counter)
    try:
        yield counter
    finally:
        _counter_var.reset(token)


class _WorkCounterProxy:
    """Module-level facade forwarding to the context's current counter.

    Keeps the historical ``from repro.relational import work_counter`` call
    sites (tests, benchmarks, downstream users) working unchanged: attribute
    reads, writes, and ``reset()`` all hit whatever counter is current.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        return getattr(_counter_var.get(), name)

    def __setattr__(self, name: str, value) -> None:
        setattr(_counter_var.get(), name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"work_counter -> {_counter_var.get()!r}"


#: Context-following proxy used by legacy call sites.  Benchmarks reset it
#: around runs; new code should prefer :func:`scoped_work_counter`.
work_counter = _WorkCounterProxy()


def project(relation: Relation, attrs: Iterable[str], name: str | None = None) -> Relation:
    """``Π_attrs(relation)``; output schema order follows the input schema.

    A run scan over the column set sorted by the kept attributes: distinct
    projections are exactly the run starts, so no hashing is needed and the
    output rows come out pre-sorted.
    """
    attr_set = frozenset(attrs)
    if not attr_set <= relation.attributes:
        raise SchemaError(
            f"cannot project {relation.schema} onto {sorted(attr_set)}"
        )
    out_schema = tuple(a for a in relation.schema if a in attr_set)
    column_set = relation.column_set(out_schema)
    counter = _counter_var.get()
    if (
        out_schema
        and column_set.nrows >= _VEC_MIN_ROWS
        and current_backend() == "vectorized"
    ):
        # The distinct rows are the run starts of the sorted columns; they
        # gather straight into output columns.
        from repro.relational.vectorized import np_to_column, run_starts

        cols = column_set.np_columns()
        keep = run_starts(cols, column_set.nrows)
        out_cols = tuple(np_to_column(col[keep]) for col in cols)
        counter.tuples_scanned += len(relation)
        counter.tuples_emitted += len(out_cols[0])
        return Relation.from_columns(
            name or f"Π({relation.name})", out_schema, out_cols
        )
    rows = column_set.rows
    out_rows: list[tuple] = []
    previous = None
    for row in rows:
        if row != previous:
            out_rows.append(row)
            previous = row
    counter.tuples_scanned += len(relation)
    counter.tuples_emitted += len(out_rows)
    return Relation.from_codes(
        name or f"Π({relation.name})",
        out_schema,
        out_rows,
        presorted=True,
        distinct=True,
    )


def select_equal(relation: Relation, attr: str, value, name: str | None = None) -> Relation:
    """``σ_{attr = value}(relation)`` via binary search on the sorted column."""
    position = relation.position(attr)
    code = relation.dictionaries[position].encode_existing(value)
    counter = _counter_var.get()
    if code is None or relation.is_empty():
        return Relation.from_codes(
            name or f"σ({relation.name})", relation.schema, [], presorted=True,
            distinct=True,
        )
    order = (attr,) + tuple(a for a in relation.schema if a != attr)
    column_set = relation.column_set(order)
    column = column_set.columns[0]
    lo = bisect_left(column, code)
    hi = bisect_right(column, code, lo)
    selected = column_set.rows[lo:hi]
    # Reorder each row back to schema layout; with the selected attribute
    # constant, sortedness under `order` implies sortedness under the schema.
    inverse = tuple(order.index(a) for a in relation.schema)
    out_rows = [tuple(row[i] for i in inverse) for row in selected]
    counter.tuples_scanned += len(out_rows)
    counter.tuples_emitted += len(out_rows)
    return Relation.from_codes(
        name or f"σ({relation.name})",
        relation.schema,
        out_rows,
        presorted=True,
        distinct=True,
    )


def natural_join(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """``left ⋈ right`` via sort-merge join on the shared attributes.

    Both sides are sorted shared-attributes-major; matching key runs are
    paired by a linear merge and their row blocks cross-multiplied.  The
    output schema is left's schema followed by right's private attributes.
    A cross product (no shared attributes) is supported but counted at full
    cost, as it should be.
    """
    shared = tuple(sorted(left.attributes & right.attributes))
    out_schema = left.schema + tuple(
        a for a in right.schema if a not in left.attributes
    )
    right_private = tuple(a for a in right.schema if a not in left.attributes)

    k = len(shared)
    left_order = shared + tuple(a for a in left.schema if a not in shared)
    right_order = shared + right_private
    left_set = left.column_set(left_order)
    right_set = right.column_set(right_order)

    counter = _counter_var.get()
    if (
        k == 1
        and left_set.nrows + right_set.nrows >= _VEC_MIN_ROWS
        and current_backend() == "vectorized"
    ):
        counter.tuples_scanned += left_set.nrows + right_set.nrows
        out_columns = _np_merge_join(
            left_set, right_set, left_order, right_order, out_schema
        )
        counter.tuples_emitted += len(out_columns[0])
        counter.joins += 1
        return Relation.from_columns(
            name or f"({left.name}⋈{right.name})", out_schema, out_columns
        )
    left_rows = left_set.rows
    right_rows = right_set.rows
    # Positions mapping a left-order row back to left-schema layout.
    left_inverse = tuple(left_order.index(a) for a in left.schema)

    counter.tuples_scanned += len(left_rows) + len(right_rows)
    out_rows: list[tuple] = []
    for i, i_end, j, j_end in merge_runs(
        left_rows, right_rows, lambda row: row[:k]
    ):
        for a in range(i, i_end):
            realigned = tuple(left_rows[a][p] for p in left_inverse)
            for b in range(j, j_end):
                out_rows.append(realigned + right_rows[b][k:])
    counter.tuples_emitted += len(out_rows)
    counter.joins += 1
    return Relation.from_codes(
        name or f"({left.name}⋈{right.name})", out_schema, out_rows,
        distinct=True,
    )


def _np_merge_join(left_set, right_set, left_order, right_order, out_schema):
    """Single-shared-attribute sort-merge ⋈ as numpy block kernels.

    Matching key runs are located with vectorized ``searchsorted`` over the
    shared-attribute-major columns; the per-run cross products expand with
    one ``repeat``/``tile``-style indexing pass, and the result columns are
    lex-sorted into the canonical ``out_schema`` row order — exactly the
    rows the interpreted merge emits after its ``from_codes`` sort.
    """
    import numpy as np

    from repro.relational.vectorized import lex_order, np_to_column, sorted_unique

    left_cols = left_set.np_columns()
    right_cols = right_set.np_columns()
    left_key = left_cols[0]
    right_key = right_cols[0]
    empty = ()
    if len(left_key) and len(right_key):
        shared_codes = sorted_unique(left_key)
        pos = np.searchsorted(right_key, shared_codes)
        inside = pos < len(right_key)
        pos[~inside] = 0
        shared_codes = shared_codes[inside & (right_key[pos] == shared_codes)]
    else:
        shared_codes = None
    if shared_codes is None or not len(shared_codes):
        return tuple(np_to_column(np.empty(0, dtype=np.int64)) for _ in out_schema)
    left_lo = np.searchsorted(left_key, shared_codes, side="left")
    left_hi = np.searchsorted(left_key, shared_codes, side="right")
    right_lo = np.searchsorted(right_key, shared_codes, side="left")
    right_hi = np.searchsorted(right_key, shared_codes, side="right")
    left_counts = left_hi - left_lo
    right_counts = right_hi - right_lo
    pair_counts = left_counts * right_counts
    total = int(pair_counts.sum())
    # Per output slot: which key run, and the (left, right) offsets inside
    # its cross product — all index arithmetic, no per-run Python loop.
    slots = np.arange(total, dtype=np.int64)
    run = np.repeat(np.arange(len(shared_codes), dtype=np.int64), pair_counts)
    local = slots - np.repeat(np.cumsum(pair_counts) - pair_counts, pair_counts)
    left_index = left_lo[run] + local // right_counts[run]
    right_index = right_lo[run] + local % right_counts[run]
    columns = []
    for attr in out_schema:
        if attr in left_order:
            columns.append(left_cols[left_order.index(attr)][left_index])
        else:
            columns.append(right_cols[right_order.index(attr)][right_index])
    order = lex_order(columns)
    return tuple(np_to_column(column[order]) for column in columns)


def semijoin(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """``left ⋉ right``: the left tuples with a join partner in right.

    The left side streams in canonical order, so the output is pre-sorted.
    Under the vectorized backend every shared attribute set folds into one
    composite int64 key per row, and the left keys probe the right side's
    sorted distinct keys with one ``searchsorted``; the interpreted path
    probes the right side's cached distinct-key set with code tuples.
    """
    shared = tuple(sorted(left.attributes & right.attributes))
    counter = _counter_var.get()
    if (
        shared
        and len(left) + len(right) >= _VEC_MIN_ROWS
        and current_backend() == "vectorized"
    ):
        import numpy as np

        from repro.relational.vectorized import (
            composite_keys,
            membership_mask,
            np_to_column,
        )

        left_cols = left.column_set(left.schema).np_columns()
        right_cols = right.column_set(right.schema).np_columns()
        left_key, right_key = composite_keys(
            (
                tuple(left_cols[left.position(a)] for a in shared),
                tuple(right_cols[right.position(a)] for a in shared),
            )
        )
        mask = membership_mask(left_key, np.unique(right_key))
        counter.tuples_scanned += len(left_key)
        counter.tuples_emitted += int(mask.sum())
        columns = tuple(np_to_column(col[mask]) for col in left_cols)
        return Relation.from_columns(name or left.name, left.schema, columns)
    keys = right.key_set(shared)
    positions = tuple(left.position(a) for a in shared)
    out_rows = []
    for row in left.code_rows:
        counter.tuples_scanned += 1
        if tuple(row[p] for p in positions) in keys:
            out_rows.append(row)
            counter.tuples_emitted += 1
    return Relation.from_codes(
        name or left.name, left.schema, out_rows, presorted=True, distinct=True
    )


def union(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Set union of two relations over the same attribute set.

    Schemas may order attributes differently; the left order wins.  Shared
    dictionaries let the realignment work purely on codes.  Under the
    vectorized backend the realigned columns are concatenated, lex-sorted
    and deduplicated by a run-boundary mask; the interpreted path is a set
    union of code tuples.
    """
    if left.attributes != right.attributes:
        raise SchemaError(
            f"union needs equal attribute sets, got {left.schema} vs {right.schema}"
        )
    positions = tuple(right.position(a) for a in left.schema)
    counter = _counter_var.get()
    counter.tuples_scanned += len(left) + len(right)
    name = name or f"({left.name}∪{right.name})"
    if (
        left.schema
        and len(left) + len(right) >= _VEC_MIN_ROWS
        and current_backend() == "vectorized"
    ):
        import numpy as np

        from repro.relational.vectorized import (
            composite_keys,
            np_to_column,
            run_starts,
        )

        left_cols = left.column_set(left.schema).np_columns()
        right_cols = right.column_set(right.schema).np_columns()
        columns = [
            np.concatenate((left_col, right_cols[p]))
            for left_col, p in zip(left_cols, positions)
        ]
        # Sort by composite row key; equal rows are adjacent equal keys.
        keys = composite_keys((columns,))[0]
        order = np.argsort(keys, kind="stable")
        order = order[run_starts((keys[order],), len(order))]
        counter.tuples_emitted += len(order)
        return Relation.from_columns(
            name, left.schema, tuple(np_to_column(col[order]) for col in columns)
        )
    rows = set(left.code_rows)
    rows.update(tuple(row[p] for p in positions) for row in right.code_rows)
    counter.tuples_emitted += len(rows)
    return Relation.from_codes(name, left.schema, list(rows), distinct=True)


def difference(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Set difference ``left - right`` over the same attribute set."""
    if left.attributes != right.attributes:
        raise SchemaError(
            f"difference needs equal attribute sets, got {left.schema} vs {right.schema}"
        )
    positions = tuple(right.position(a) for a in left.schema)
    removed = {tuple(row[p] for p in positions) for row in right.code_rows}
    out_rows = [row for row in left.code_rows if row not in removed]
    counter = _counter_var.get()
    counter.tuples_scanned += len(left) + len(right)
    counter.tuples_emitted += len(out_rows)
    return Relation.from_codes(
        name or f"({left.name}-{right.name})", left.schema, out_rows,
        presorted=True, distinct=True,
    )


@dataclass(frozen=True)
class PartitionPiece:
    """One piece of a Lemma 6.1 heavy/light partition.

    Attributes:
        relation: the sub-table ``T^(j)``.
        x_count: ``N^(j)_{X|∅} = |Π_X(T^(j))|``.
        y_degree: ``N^(j)_{Y|X} = max deg_{T^(j)}(Y | t_X)``.
    """

    relation: Relation
    x_count: int
    y_degree: int


def heavy_light_partition(
    relation: Relation, x: Iterable[str]
) -> list[PartitionPiece]:
    """Partition ``relation`` by the degree of its ``X``-projection (Lemma 6.1).

    Groups tuples into log-degree buckets ``[2^j, 2^{j+1})`` and then halves
    any bucket whose ``x_count * y_degree`` product still exceeds ``|T|``, so
    every returned piece satisfies

        piece.x_count * piece.y_degree <= len(relation).

    Returns at most ``2·log2|T| + O(1)`` pieces whose union is ``relation``.
    The ``X``-groups are the runs of the ``X``-major sorted column set — one
    linear scan, no hashing.
    """
    x_attrs = tuple(sorted(frozenset(x)))
    if not frozenset(x_attrs) < relation.attributes:
        raise SchemaError(
            f"partition needs X ⊂ schema, got {x_attrs} vs {relation.schema}"
        )
    total = len(relation)
    if total == 0:
        return []

    order = x_attrs + tuple(a for a in relation.schema if a not in x_attrs)
    column_set = relation.column_set(order)
    counter = _counter_var.get()
    counter.tuples_scanned += total
    # Bucket halving sorts by decoded x-*values*, not codes: codes order by
    # process-global first-appearance, so splitting on them would make the
    # partition (and every PANDA run built on it) depend on interning
    # history rather than on the relation's contents.
    x_dicts = tuple(relation.dictionaries[relation.position(a)] for a in x_attrs)
    if total >= _VEC_MIN_ROWS and current_backend() == "vectorized":
        pieces = _np_partition(relation, column_set, x_dicts, counter)
    else:
        pieces = _row_partition(relation, column_set, x_dicts, counter)
    counter.partitions += 1
    return pieces


def _row_partition(relation, column_set, x_dicts, counter):
    """The interpreted Lemma 6.1 partition over code-row tuples."""
    k = len(x_dicts)
    order = column_set.attrs
    rows = column_set.rows
    inverse = tuple(order.index(a) for a in relation.schema)
    total = len(rows)

    # X-groups = runs of the X-prefix; rows realigned back to schema layout.
    groups: list[tuple[tuple, list[tuple]]] = []
    i = 0
    n = len(rows)
    while i < n:
        key = rows[i][:k]
        i_end = i + 1
        while i_end < n and rows[i_end][:k] == key:
            i_end += 1
        groups.append(
            (key, [tuple(row[p] for p in inverse) for row in rows[i:i_end]])
        )
        i = i_end

    buckets: dict[int, list[tuple[tuple, list[tuple]]]] = {}
    for key, group_rows in groups:
        buckets.setdefault(len(group_rows).bit_length() - 1, []).append(
            (key, group_rows)
        )

    def decoded_x(entry: tuple) -> tuple:
        return decode_row(x_dicts, entry[0])

    pieces: list[PartitionPiece] = []
    for j in sorted(buckets):
        # Each entry in the stack is a list of (x_key, rows) pairs sharing
        # log-degree bucket j; halve until the Lemma 6.1 product bound holds.
        stack = [buckets[j]]
        while stack:
            entries = stack.pop()
            x_count = len(entries)
            y_degree = max(len(group_rows) for _, group_rows in entries)
            if x_count * y_degree > total and x_count > 1:
                entries_sorted = sorted(entries, key=decoded_x)
                half = len(entries_sorted) // 2
                stack.append(entries_sorted[:half])
                stack.append(entries_sorted[half:])
                continue
            all_rows = [row for _, group_rows in entries for row in group_rows]
            counter.tuples_emitted += len(all_rows)
            piece = Relation.from_codes(
                f"{relation.name}[{len(pieces) + 1}]",
                relation.schema,
                all_rows,
                distinct=True,
            )
            pieces.append(PartitionPiece(piece, x_count, y_degree))
    return pieces


def _np_partition(relation, column_set, x_dicts, counter):
    """:func:`heavy_light_partition` on numpy blocks, piece for piece.

    The ``X``-groups are the run starts of the ``X``-prefix columns; a
    group's log-degree bucket is its size's bit length minus one, computed
    by integer shifts.  Buckets are halved exactly as in the row path
    (decoded-value order, upper half emitted first), and each piece
    gathers its groups' row ranges by index and leaves columnar.
    """
    import numpy as np

    from repro.relational.vectorized import lex_order, np_to_column, run_starts

    k = len(x_dicts)
    total = column_set.nrows
    cols = column_set.np_columns()
    starts = run_starts(cols[:k], total)
    sizes = np.diff(np.append(starts, total))
    buckets = np.zeros(len(sizes), dtype=np.int64)
    rest = sizes.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        wide = rest >= 1 << shift
        rest[wide] >>= shift
        buckets[wide] += shift
    inverse = tuple(column_set.attrs.index(a) for a in relation.schema)
    schema_cols = [cols[p] for p in inverse]

    def decoded_order(entries):
        x_codes = [col[starts[entries]].tolist() for col in cols[:k]]
        keys = list(
            zip(*(
                [d.values[c] for c in codes] for d, codes in zip(x_dicts, x_codes)
            ))
        )
        return entries[sorted(range(len(keys)), key=keys.__getitem__)]

    pieces: list[PartitionPiece] = []
    for j in np.unique(buckets).tolist():
        # Stack entries: (group indices of bucket j, already value-sorted).
        stack = [(np.flatnonzero(buckets == j), False)]
        while stack:
            entries, value_sorted = stack.pop()
            x_count = len(entries)
            y_degree = int(sizes[entries].max())
            if x_count * y_degree > total and x_count > 1:
                if not value_sorted:
                    entries = decoded_order(entries)
                half = x_count // 2
                stack.append((entries[:half], True))
                stack.append((entries[half:], True))
                continue
            lengths = sizes[entries]
            count = int(lengths.sum())
            offsets = np.cumsum(lengths) - lengths
            index = np.arange(count, dtype=np.int64) + np.repeat(
                starts[entries] - offsets, lengths
            )
            piece_cols = [col[index] for col in schema_cols]
            ordering = lex_order(piece_cols)
            counter.tuples_emitted += count
            piece = Relation.from_columns(
                f"{relation.name}[{len(pieces) + 1}]",
                relation.schema,
                tuple(np_to_column(col[ordering]) for col in piece_cols),
            )
            pieces.append(PartitionPiece(piece, x_count, y_degree))
    return pieces
