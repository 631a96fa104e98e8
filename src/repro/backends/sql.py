"""Lowering a chosen QEP to deterministic standalone SQL.

The emitter walks the plan bottom-up and produces one nested ``SELECT``
per LOLEPOP, so the emitted statement has the same shape as the plan
tree (``docs/backends.md`` has the full per-operator mapping).  Three
translation problems dominate:

**Sideways information passing.**  A nested-loop inner subtree carries
predicates referencing outer tables (``ACCESS(index, EMP_DNO, ...,
{DEPT.DNO = EMP.DNO})``); SQL has no per-probe parameter binding, so
such *free* predicates are hoisted up the tree and attached as join
conditions at the first ancestor whose table set covers them — a
row-set-preserving move because conjunctive filters commute across the
inner side of a nested-loop join.  Hoisting across operators where a
filter does **not** commute (UNION, DEDUP, INTERSECT, PROJECT, a
materialized temp) raises :class:`~repro.errors.UnsupportedPlanError`.

**NULL semantics.**  The engine's :class:`~repro.query.predicates.Comparison`
returns ``False`` whenever either side is ``None`` — two-valued logic —
while SQL comparisons are three-valued.  Every comparison is therefore
emitted with explicit guards, ``(a IS NOT NULL AND b IS NOT NULL AND
a op b)``, which is never NULL, so ``NOT`` composes identically on both
sides.  The hash-semijoin flavor is the one deliberate exception: the
engine's ``SJ`` matches via set membership (``None == None`` holds), so
its ``EXISTS`` probe uses SQLite's null-safe ``IS`` operator.

**Tuple identifiers.**  Index streams carry the ``#TID`` pseudo-column;
the SQLite side exposes a synthetic ``__tid`` rowid-ordinal column (see
:mod:`repro.backends.sqlite`) that plays the same role: ``GET`` becomes
a join on it.  TIDs never appear in a final projection, so the engine's
``RID(page, slot)`` pairs and the ordinal never have to agree — each
backend only needs to be internally consistent.

Physical choices that do not change the row set — join order/method,
SHIP sites, SORT placement, which index served a probe — are collapsed
and recorded as ``-- note:`` comments in the artifact, keeping the
statement runnable on a stock single-node SQLite while still documenting
the plan it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import UnsupportedPlanError
from repro.executor.keys import _hash_sides
from repro.plans.operators import (
    ACCESS,
    BUILDIX,
    DEDUP,
    FILTER,
    GET,
    INTERSECT,
    JOIN,
    PROJECT,
    SHIP,
    SORT,
    STORE,
    UNION,
)
from repro.plans.plan import PlanNode
from repro.query.expressions import Arith, ColumnRef, Expr, FuncCall, Literal
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
)
from repro.query.query import QueryBlock
from repro.storage.table import TID_NAME

#: Name of the synthetic tuple-identifier column every loaded SQLite
#: table carries (see :func:`repro.backends.sqlite.load_database`).
TID_SQL_COLUMN = "__tid"

Resolve = Callable[[ColumnRef], str]


def _q(name: str) -> str:
    """Quote an SQL identifier (doubling embedded quotes)."""
    return '"' + name.replace('"', '""') + '"'


def _col_alias(ref: ColumnRef) -> str:
    """The stable output name a stream column gets in emitted SQL:
    ``EMP.DNO`` travels as the quoted identifier ``"EMP.DNO"``."""
    return _q(f"{ref.table}.{ref.column}")


def _sorted_cols(cols) -> tuple[ColumnRef, ...]:
    return tuple(sorted(cols, key=str))


def _sorted_preds(preds) -> tuple[Predicate, ...]:
    return tuple(sorted(preds, key=str))


def _render_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _render_expr(expr: Expr, resolve: Resolve) -> str:
    if isinstance(expr, ColumnRef):
        return resolve(expr)
    if isinstance(expr, Literal):
        return _render_literal(expr.value)
    if isinstance(expr, Arith):
        left = _render_expr(expr.left, resolve)
        right = _render_expr(expr.right, resolve)
        if expr.op == "/":
            # Python `/` is true division; SQLite `/` truncates on two
            # integers.  CAST forces real division on both engines.
            return f"(CAST({left} AS REAL) / {right})"
        if expr.op == "%":
            # Python `%` follows the divisor's sign; SQLite's follows the
            # dividend's.  ((a % b) + b) % b agrees with Python for both.
            return f"((({left} % {right}) + {right}) % {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, FuncCall):
        args = [_render_expr(a, resolve) for a in expr.args]
        if expr.name == "mod":
            return f"((({args[0]} % {args[1]}) + {args[1]}) % {args[1]})"
        if expr.name in ("abs", "lower", "upper", "length"):
            return f"{expr.name}({', '.join(args)})"
    raise UnsupportedPlanError(f"no SQL lowering for expression {expr}")


def _render_pred(pred: Predicate, resolve: Resolve) -> str:
    """Render a predicate under the engine's two-valued NULL semantics:
    a guarded comparison evaluates to 0 (not NULL) when either side is
    NULL, so NOT/AND/OR compose exactly like the interpreter."""
    if isinstance(pred, Comparison):
        left = _render_expr(pred.left, resolve)
        right = _render_expr(pred.right, resolve)
        guards = []
        for side, text in ((pred.left, left), (pred.right, right)):
            if isinstance(side, Literal) and side.value is not None:
                continue  # a non-NULL literal needs no guard
            guards.append(f"{text} IS NOT NULL")
        guards.append(f"{left} {pred.op} {right}")
        return "(" + " AND ".join(guards) + ")"
    if isinstance(pred, Conjunction):
        return "(" + " AND ".join(_render_pred(p, resolve) for p in pred.parts) + ")"
    if isinstance(pred, Disjunction):
        return "(" + " OR ".join(_render_pred(p, resolve) for p in pred.parts) + ")"
    if isinstance(pred, Negation):
        return f"(NOT {_render_pred(pred.part, resolve)})"
    raise UnsupportedPlanError(f"no SQL lowering for predicate {pred}")


@dataclass(frozen=True)
class _Rel:
    """One lowered subtree: a complete SELECT, its exported columns
    (each aliased per :func:`_col_alias`), and the *free* predicates not
    yet applied because they reference tables outside the subtree."""

    sql: str
    cols: tuple[ColumnRef, ...]
    free: frozenset[Predicate]


class SqlEmitter:
    """One plan → one deterministic SQL statement (stateful per call)."""

    def __init__(self) -> None:
        self._ctes: dict[str, tuple[str, str]] = {}  # digest -> (name, sql)
        self._cte_cols: dict[str, tuple[ColumnRef, ...]] = {}
        self._notes: list[str] = []
        self._alias_counter = 0

    # -- small helpers -----------------------------------------------------------

    def _alias(self, prefix: str) -> str:
        self._alias_counter += 1
        return f"{prefix}{self._alias_counter}"

    def _note(self, text: str) -> None:
        if text not in self._notes:
            self._notes.append(text)

    @staticmethod
    def _scope(alias: str, cols) -> Resolve:
        """Resolver over one subquery alias exporting ``cols``."""
        known = set(cols)

        def resolve(ref: ColumnRef) -> str:
            if ref not in known:
                raise UnsupportedPlanError(
                    f"predicate references column {ref} absent from the stream"
                )
            return f"{alias}.{_col_alias(ref)}"

        return resolve

    @staticmethod
    def _split_preds(preds, covered: frozenset[str]):
        """Partition predicates into (applicable now, free)."""
        local, free = [], []
        for pred in _sorted_preds(preds):
            (local if pred.tables() <= covered else free).append(pred)
        return local, frozenset(free)

    def _where(self, preds, resolve: Resolve) -> str:
        if not preds:
            return ""
        return " WHERE " + " AND ".join(
            _render_pred(p, resolve) for p in _sorted_preds(preds)
        )

    # -- dispatch ----------------------------------------------------------------

    def lower(self, node: PlanNode) -> _Rel:
        if node.op == ACCESS:
            return self._access(node)
        if node.op == GET:
            return self._get(node)
        if node.op == FILTER:
            return self._filter(node)
        if node.op == SORT:
            return self._passthrough(node, f"SORT({', '.join(str(c) for c in node.param('order', ()))}) elided: row-set comparison is order-insensitive and the outer query re-derives ORDER BY")
        if node.op == SHIP:
            return self._passthrough(
                node,
                f"SHIP {node.inputs[0].props.site} -> {node.param('to_site')} "
                "collapsed: emitted SQL runs single-site",
            )
        if node.op == JOIN:
            return self._join(node)
        if node.op == UNION:
            return self._union(node)
        if node.op == DEDUP:
            return self._dedup(node)
        if node.op == PROJECT:
            return self._project(node)
        if node.op == INTERSECT:
            return self._intersect(node)
        if node.op in (STORE, BUILDIX):
            # Bare STORE/BUILDIX at stream position: materialize as a
            # CTE and stream it back out, like the interpreter does.
            name, cols = self._temp_cte(node)
            return _Rel(f"SELECT * FROM {name}", cols, frozenset())
        raise UnsupportedPlanError("no SQL lowering routine", op=node.op)

    # -- ACCESS ------------------------------------------------------------------

    def _access(self, node: PlanNode) -> _Rel:
        if node.flavor == "temp" or node.inputs:
            return self._access_temp(node)
        table = node.param("table")
        columns = node.param("columns") or frozenset()
        preds = node.param("preds") or frozenset()
        alias = self._alias("t")

        if node.flavor == "index":
            path = node.param("path")
            self._note(
                f"ACCESS(index) via {path.name} on {table} lowered to a "
                "predicate scan (probe bounds become WHERE conditions)"
            )
            if path.clustered:
                providable = None  # clustered leaves carry the full row
            else:
                providable = {ColumnRef(table, c) for c in path.columns}
        else:
            providable = None
            if node.flavor == "btree":
                self._note(
                    f"ACCESS(btree) on {table}: clustered key-order scan "
                    "lowered to a sequential scan"
                )

        def resolve(ref: ColumnRef) -> str:
            if ref.table != table:
                raise UnsupportedPlanError(
                    f"scan of {table} cannot resolve {ref}", op=ACCESS
                )
            if ref.column.startswith("#"):
                return f"{alias}.{_q(TID_SQL_COLUMN)}"
            if providable is not None and ref not in providable:
                raise UnsupportedPlanError(
                    f"unclustered index scan cannot provide {ref}", op=ACCESS
                )
            return f"{alias}.{_q(ref.column)}"

        out_cols = _sorted_cols(columns)
        items = ", ".join(f"{resolve(c)} AS {_col_alias(c)}" for c in out_cols)
        local, free = self._split_preds(preds, frozenset((table,)))
        sql = f"SELECT {items} FROM {_q(table)} AS {alias}" + self._where(
            local, resolve
        )
        return _Rel(sql, out_cols, free)

    def _access_temp(self, node: PlanNode) -> _Rel:
        """Rescan of a materialized temp: a SELECT from its CTE."""
        if not node.inputs:
            raise UnsupportedPlanError(
                "temp access without a producing subtree", op=ACCESS
            )
        name, stored = self._temp_cte(node.inputs[0])
        columns = node.param("columns") or node.props.cols
        preds = node.param("preds") or frozenset()
        alias = self._alias("s")
        stored_set = set(stored)
        out_cols = tuple(c for c in _sorted_cols(columns) if c in stored_set)
        resolve = self._scope(alias, stored)
        items = ", ".join(f"{resolve(c)} AS {_col_alias(c)}" for c in out_cols)
        local, free = self._split_preds(preds, node.props.tables)
        sql = f"SELECT {items} FROM {name} AS {alias}" + self._where(local, resolve)
        return _Rel(sql, out_cols, free)

    def _temp_cte(self, node: PlanNode) -> tuple[str, tuple[ColumnRef, ...]]:
        """Materialize a STORE/BUILDIX subtree as a shared CTE (one per
        plan digest, so shared subplans are emitted once)."""
        while node.op == BUILDIX:
            key = ", ".join(str(c) for c in node.param("key", ()))
            self._note(f"BUILDIX({key}) collapsed: dynamic temp index becomes a CTE scan")
            node = node.inputs[0]
        if node.op != STORE:
            raise UnsupportedPlanError("cannot materialize this node", op=node.op)
        digest = node.digest
        cached = self._ctes.get(digest)
        if cached is not None:
            return cached[0], self._cte_cols[digest]
        rel = self.lower(node.inputs[0])
        if rel.free:
            raise UnsupportedPlanError(
                "materialized temp depends on outer bindings: "
                + "; ".join(str(p) for p in _sorted_preds(rel.free)),
                op=STORE,
            )
        schema = _sorted_cols(node.props.cols)
        if set(schema) - set(rel.cols):
            raise UnsupportedPlanError(
                "temp schema not covered by its producing stream", op=STORE
            )
        alias = self._alias("s")
        resolve = self._scope(alias, rel.cols)
        items = ", ".join(f"{resolve(c)} AS {_col_alias(c)}" for c in schema)
        name = f"temp_{digest}"
        sql = f"SELECT {items} FROM ({rel.sql}) AS {alias}"
        self._ctes[digest] = (name, sql)
        self._cte_cols[digest] = schema
        self._note(f"STORE materialized as CTE {name}")
        return name, schema

    # -- GET ---------------------------------------------------------------------

    def _get(self, node: PlanNode) -> _Rel:
        table = node.param("table")
        columns = node.param("columns") or frozenset()
        preds = node.param("preds") or frozenset()
        inner = self.lower(node.inputs[0])
        tid = ColumnRef(table, TID_NAME)
        if tid not in inner.cols:
            raise UnsupportedPlanError(
                f"GET on {table}: input stream lacks a TID", op=GET
            )
        stream = self._alias("s")
        base = self._alias("g")
        fetched = set(columns)
        out_cols = _sorted_cols(set(inner.cols) | fetched)

        def resolve(ref: ColumnRef) -> str:
            # Fetched columns overwrite same-named stream columns, like
            # the interpreter's ``out[column] = raw[pos]``.
            if ref in fetched:
                return f"{base}.{_q(ref.column)}"
            if ref in set(inner.cols):
                return f"{stream}.{_col_alias(ref)}"
            raise UnsupportedPlanError(
                f"GET predicate references unavailable column {ref}", op=GET
            )

        items = ", ".join(f"{resolve(c)} AS {_col_alias(c)}" for c in out_cols)
        covered = node.props.tables | frozenset((table,))
        local, free = self._split_preds(preds, covered)
        free_in = {p for p in inner.free if p.tables() <= covered}
        conds = [
            f"{base}.{_q(TID_SQL_COLUMN)} = {stream}.{_col_alias(tid)}"
        ]
        conds += [
            _render_pred(p, resolve) for p in _sorted_preds(set(local) | free_in)
        ]
        sql = (
            f"SELECT {items} FROM ({inner.sql}) AS {stream}, {_q(table)} AS {base} "
            f"WHERE {' AND '.join(conds)}"
        )
        return _Rel(sql, out_cols, (inner.free - free_in) | free)

    # -- FILTER / passthrough ----------------------------------------------------

    def _filter(self, node: PlanNode) -> _Rel:
        inner = self.lower(node.inputs[0])
        preds = node.param("preds") or frozenset()
        local, free = self._split_preds(preds, node.props.tables)
        alias = self._alias("s")
        resolve = self._scope(alias, inner.cols)
        applicable = set(local) | {
            p for p in inner.free if p.tables() <= node.props.tables
        }
        sql = f"SELECT * FROM ({inner.sql}) AS {alias}" + self._where(
            applicable, resolve
        )
        remaining = (inner.free - applicable) | free
        return _Rel(sql, inner.cols, remaining)

    def _passthrough(self, node: PlanNode, note: str) -> _Rel:
        self._note(note)
        return self.lower(node.inputs[0])

    # -- JOIN --------------------------------------------------------------------

    def _join(self, node: PlanNode) -> _Rel:
        if node.flavor == "SJ":
            return self._join_sj(node)
        outer, inner = node.inputs
        o = self.lower(outer)
        i = self.lower(inner)
        if node.flavor in ("MG", "HA"):
            self._note(
                f"JOIN({node.flavor}) lowered to a predicate join: the "
                "merge/hash physical strategy does not change the row set"
            )
        oa, ia = self._alias("a"), self._alias("b")
        out_cols = _sorted_cols(set(o.cols) | set(i.cols))
        inner_set = set(i.cols)

        def resolve(ref: ColumnRef) -> str:
            if ref in inner_set:
                return f"{ia}.{_col_alias(ref)}"
            if ref in set(o.cols):
                return f"{oa}.{_col_alias(ref)}"
            raise UnsupportedPlanError(
                f"join predicate references unavailable column {ref}", op=JOIN
            )

        covered = node.props.tables
        own = (node.param("join_preds") or frozenset()) | (
            node.param("residual_preds") or frozenset()
        )
        local, free_own = self._split_preds(own, covered)
        hoisted = {p for p in (o.free | i.free) if p.tables() <= covered}
        if hoisted:
            self._note(
                "sideways (per-probe) predicates hoisted to join scope: "
                + "; ".join(str(p) for p in _sorted_preds(hoisted))
            )
        conds = [
            _render_pred(p, resolve) for p in _sorted_preds(set(local) | hoisted)
        ]
        items = ", ".join(f"{resolve(c)} AS {_col_alias(c)}" for c in out_cols)
        sql = f"SELECT {items} FROM ({o.sql}) AS {oa}, ({i.sql}) AS {ia}"
        if conds:
            sql += f" WHERE {' AND '.join(conds)}"
        remaining = ((o.free | i.free) - hoisted) | free_own
        return _Rel(sql, out_cols, remaining)

    def _join_sj(self, node: PlanNode) -> _Rel:
        """Hash semijoin → EXISTS.  The engine matches via set membership
        (``None == None`` holds, residual predicates are ignored), so the
        probe uses null-safe ``IS`` equality, not guarded ``=``."""
        outer, inner = node.inputs
        o = self.lower(outer)
        i = self.lower(inner)
        join_preds = node.param("join_preds") or frozenset()
        sides = _hash_sides(join_preds, outer.props.tables)
        if not sides:
            raise UnsupportedPlanError("semijoin without hashable predicates", op=JOIN)
        if {p for p in i.free if p.tables() & outer.props.tables}:
            raise UnsupportedPlanError(
                "semijoin inner carries predicates on the semijoin outer "
                "(the engine does not bind outer rows across SJ)",
                op=JOIN,
            )
        oa, ia = self._alias("a"), self._alias("b")
        o_resolve = self._scope(oa, o.cols)
        i_resolve = self._scope(ia, i.cols)
        matches = []
        for o_expr, i_expr, _ in sides:
            left = _render_expr(o_expr, o_resolve)
            right = _render_expr(i_expr, i_resolve)
            guards = []
            if not isinstance(o_expr, ColumnRef):
                # The engine skips rows whose key expression *raises*
                # (arithmetic over NULL); a bare column never raises.
                guards += [
                    f"{_render_expr(c, o_resolve)} IS NOT NULL"
                    for c in _sorted_cols(o_expr.columns())
                ]
            if not isinstance(i_expr, ColumnRef):
                guards += [
                    f"{_render_expr(c, i_resolve)} IS NOT NULL"
                    for c in _sorted_cols(i_expr.columns())
                ]
            matches.append(" AND ".join(guards + [f"{left} IS {right}"]))
        self._note(
            "JOIN(SJ) lowered to EXISTS with null-safe IS matching "
            "(the engine's hash-set membership semantics)"
        )
        items = ", ".join(f"{o_resolve(c)} AS {_col_alias(c)}" for c in o.cols)
        sql = (
            f"SELECT {items} FROM ({o.sql}) AS {oa} WHERE EXISTS "
            f"(SELECT 1 FROM ({i.sql}) AS {ia} WHERE {' AND '.join(matches)})"
        )
        return _Rel(sql, o.cols, o.free | i.free)

    # -- UNION / DEDUP / PROJECT / INTERSECT -------------------------------------

    def _union(self, node: PlanNode) -> _Rel:
        left = self.lower(node.inputs[0])
        right = self.lower(node.inputs[1])
        if left.free or right.free:
            raise UnsupportedPlanError(
                "cannot hoist sideways predicates across UNION "
                "(the filter would apply to both branches)",
                op=UNION,
            )
        if set(left.cols) != set(right.cols):
            raise UnsupportedPlanError(
                "UNION branches export different column sets", op=UNION
            )
        # Both branches emit columns in sorted order, so positional
        # UNION ALL lines up; duplicates are preserved like the engine's
        # stream concatenation.
        sql = f"{left.sql} UNION ALL {right.sql}"
        return _Rel(sql, left.cols, frozenset())

    def _dedup(self, node: PlanNode) -> _Rel:
        inner = self.lower(node.inputs[0])
        if inner.free:
            raise UnsupportedPlanError(
                "cannot hoist sideways predicates across DEDUP "
                "(first-row-per-key depends on pre-filter order)",
                op=DEDUP,
            )
        key = tuple(node.param("key", ()))
        key_set = set(key)
        inner_set = set(inner.cols)
        if not key or not key_set <= inner_set:
            raise UnsupportedPlanError(
                "DEDUP key not present in the input stream", op=DEDUP
            )
        # SELECT DISTINCT dedups on *all* columns; that equals the
        # engine's first-row-per-key exactly when equal keys imply equal
        # rows: a TID key on a single-table stream (every carried column
        # is determined by the base row), or a key covering every column.
        tid_keyed = len(node.props.tables) == 1 and any(
            c.column.startswith("#") for c in key
        )
        if not (tid_keyed or key_set == inner_set):
            raise UnsupportedPlanError(
                "DEDUP key does not functionally determine the stream "
                "(DISTINCT would change the row set)",
                op=DEDUP,
            )
        alias = self._alias("s")
        self._note(
            f"DEDUP({', '.join(str(c) for c in key)}) lowered to SELECT "
            "DISTINCT (key functionally determines the stream)"
        )
        sql = f"SELECT DISTINCT * FROM ({inner.sql}) AS {alias}"
        return _Rel(sql, inner.cols, frozenset())

    def _project(self, node: PlanNode) -> _Rel:
        inner = self.lower(node.inputs[0])
        if inner.free:
            raise UnsupportedPlanError(
                "cannot hoist sideways predicates across PROJECT "
                "(the projection may drop their columns)",
                op=PROJECT,
            )
        columns = node.param("columns") or frozenset()
        out_cols = tuple(c for c in inner.cols if c in columns)
        alias = self._alias("s")
        resolve = self._scope(alias, inner.cols)
        items = ", ".join(f"{resolve(c)} AS {_col_alias(c)}" for c in out_cols)
        sql = f"SELECT {items} FROM ({inner.sql}) AS {alias}"
        return _Rel(sql, out_cols, frozenset())

    def _intersect(self, node: PlanNode) -> _Rel:
        left = self.lower(node.inputs[0])
        right = self.lower(node.inputs[1])
        if right.free:
            raise UnsupportedPlanError(
                "cannot hoist sideways predicates out of an INTERSECT "
                "right side (membership would change)",
                op=INTERSECT,
            )
        key = tuple(node.param("key", ()))
        if not key or not (set(key) <= set(left.cols) and set(key) <= set(right.cols)):
            raise UnsupportedPlanError(
                "INTERSECT key not present on both sides", op=INTERSECT
            )
        la, ra = self._alias("a"), self._alias("b")
        # The engine intersects on raw tuples (None == None matches), so
        # the key comparison is null-safe IS, not guarded =.
        conds = " AND ".join(
            f"{la}.{_col_alias(c)} IS {ra}.{_col_alias(c)}" for c in key
        )
        self._note(
            f"INTERSECT({', '.join(str(c) for c in key)}) lowered to "
            "EXISTS with null-safe IS matching"
        )
        sql = (
            f"SELECT * FROM ({left.sql}) AS {la} WHERE EXISTS "
            f"(SELECT 1 FROM ({right.sql}) AS {ra} WHERE {conds})"
        )
        return _Rel(sql, left.cols, left.free)


def compile_sql(query: QueryBlock, plan: PlanNode) -> str:
    """Lower ``plan`` to one standalone SQLite-dialect statement that
    returns ``query``'s projection: a header naming the plan digest and
    query, one ``-- note:`` line per lowering decision, then the
    statement (``WITH`` the materialized temps).  Raises
    :class:`~repro.errors.UnsupportedPlanError` for a plan outside the
    lowerable subset."""
    emitter = SqlEmitter()
    rel = emitter.lower(plan)
    if rel.free:
        raise UnsupportedPlanError(
            "unresolved sideways predicates at plan root: "
            + "; ".join(str(p) for p in _sorted_preds(rel.free))
        )
    root = "q"
    resolve = emitter._scope(root, rel.cols)
    items = []
    for item in query.select:
        items.append(f"{_render_expr(item.expr, resolve)} AS {_q(item.alias)}")
    order = []
    for order_item in query.order_by:
        # The engine sorts None first under DESC, last under ASC
        # (``_sort_key``); SQLite defaults to the opposite, so the
        # placement is always explicit.
        direction = (
            "DESC NULLS FIRST" if order_item.descending else "ASC NULLS LAST"
        )
        order.append(f"{resolve(order_item.column)} {direction}")

    lines = [
        "-- repro sql backend",
        f"-- plan digest: {plan.digest}",
        f"-- query: {query}",
    ]
    lines += [f"-- note: {note}" for note in emitter._notes]
    body = ""
    if emitter._ctes:
        ctes = ", ".join(
            f"{name} AS ({sql})"
            for name, sql in sorted(emitter._ctes.values())
        )
        body = f"WITH {ctes} "
    body += f"SELECT {', '.join(items)} FROM ({rel.sql}) AS {root}"
    if order:
        body += " ORDER BY " + ", ".join(order)
    lines.append(body + ";")
    return "\n".join(lines) + "\n"
