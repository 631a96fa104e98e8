"""Scalar expression AST.

Expressions appear on either side of predicates and in projection lists.
They are immutable, hashable values so they can live inside the frozen sets
of the property vector (the ``COLS`` and ``PREDS`` properties of a plan,
Figure 2 of the paper).

The evaluation entry point is :meth:`Expr.evaluate`, which takes a
:class:`RowContext`.  A row context layers an *outer binding* context over
the current row: this implements the paper's "sideways information passing"
(footnote 4, after [ULLM 85]) — during a nested-loop join, columns of the
outer stream are instantiated so a join predicate becomes a single-table
predicate on the inner stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.errors import ExecutionError, QueryError


class RowContext:
    """Column values visible while evaluating an expression.

    ``values`` maps :class:`ColumnRef` to the current tuple's values.
    ``outer`` optionally chains to the enclosing context (outer tuples of a
    nested-loop join).  Lookup walks the chain from innermost to outermost.
    """

    __slots__ = ("values", "outer")

    def __init__(self, values: Mapping["ColumnRef", Any], outer: "RowContext | None" = None):
        self.values = values
        self.outer = outer

    def lookup(self, ref: "ColumnRef") -> Any:
        ctx: RowContext | None = self
        while ctx is not None:
            if ref in ctx.values:
                return ctx.values[ref]
            ctx = ctx.outer
        raise ExecutionError(f"unbound column {ref} during evaluation")

    def bound(self, ref: "ColumnRef") -> bool:
        ctx: RowContext | None = self
        while ctx is not None:
            if ref in ctx.values:
                return True
            ctx = ctx.outer
        return False

    def child(self, values: Mapping["ColumnRef", Any]) -> "RowContext":
        """A context for an inner row, with this context as outer scope."""
        return RowContext(values, outer=self)


@dataclass(frozen=True, slots=True)
class Expr:
    """Base class of all scalar expressions."""

    def columns(self) -> frozenset["ColumnRef"]:
        """All column references appearing in this expression."""
        return frozenset(self._iter_columns())

    def tables(self) -> frozenset[str]:
        """Names of all tables referenced by this expression."""
        return frozenset(ref.table for ref in self._iter_columns())

    def _iter_columns(self) -> Iterator["ColumnRef"]:
        return iter(())

    def evaluate(self, ctx: RowContext) -> Any:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class ColumnRef(Expr):
    """A reference to ``table.column``.

    ``table`` is the quantifier (correlation) name; in this reproduction we
    use the table name directly since the SQL subset has no self-joins with
    aliases exposed to the optimizer core.
    """

    table: str
    column: str

    def _iter_columns(self) -> Iterator["ColumnRef"]:
        yield self

    def evaluate(self, ctx: RowContext) -> Any:
        return ctx.lookup(self)

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True, slots=True)
class Literal(Expr):
    """A constant value (int, float, str, bool, or None)."""

    value: Any

    def evaluate(self, ctx: RowContext) -> Any:
        return self.value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


@dataclass(frozen=True, slots=True)
class Arith(Expr):
    """A binary arithmetic expression, e.g. ``EMP.SALARY * 1.1``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise QueryError(f"unknown arithmetic operator {self.op!r}")

    def _iter_columns(self) -> Iterator[ColumnRef]:
        yield from self.left._iter_columns()
        yield from self.right._iter_columns()

    def evaluate(self, ctx: RowContext) -> Any:
        left = self.left.evaluate(ctx)
        right = self.right.evaluate(ctx)
        try:
            return _ARITH_OPS[self.op](left, right)
        except (TypeError, ZeroDivisionError) as exc:
            raise ExecutionError(f"arithmetic failed: {self} ({exc})") from exc

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": abs,
    "lower": lambda s: s.lower(),
    "upper": lambda s: s.upper(),
    "length": len,
    "mod": lambda a, b: a % b,
}


@dataclass(frozen=True, slots=True)
class FuncCall(Expr):
    """A call to a builtin scalar function, e.g. ``upper(EMP.NAME)``."""

    name: str
    args: tuple[Expr, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.name not in _FUNCTIONS:
            raise QueryError(f"unknown scalar function {self.name!r}")

    def _iter_columns(self) -> Iterator[ColumnRef]:
        for arg in self.args:
            yield from arg._iter_columns()

    def evaluate(self, ctx: RowContext) -> Any:
        values = [arg.evaluate(ctx) for arg in self.args]
        try:
            return _FUNCTIONS[self.name](*values)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ExecutionError(f"function call failed: {self} ({exc})") from exc

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def scalar_functions() -> tuple[str, ...]:
    """Names of the builtin scalar functions (for the parser)."""
    return tuple(sorted(_FUNCTIONS))
