"""The STAR rule AST.

A STAR (paper section 2.2) "defines a named, parametrized object ... in
terms of one or more alternative definitions, each of which may have a
condition of applicability, and defines a plan by referencing one or more
LOLEPOPs or other STARs, specifying arguments for their parameters."

Notation mapping (paper section 4 → AST):

===============================  ==========================================
paper                            here
===============================  ==========================================
left square bracket              ``StarDef(exclusive=False)`` (inclusive)
left curly brace                 ``StarDef(exclusive=True)``
``IF <cond>``                    ``Alternative.condition``
``OTHERWISE``                    ``Alternative.otherwise = True``
``∀ s ∈ σ : ...``                ``ForAll(var, set_expr, term)``
``T1[site = s]``                 ``StarRef`` argument with ``RequiredSpec``
``where SP = ...``               ``StarDef.bindings``
===============================  ==========================================

Expressions inside rules (conditions, ``where`` bindings, arguments) are a
small functional language: parameters, constants, set literals/operators,
comparisons, boolean connectives, and calls into the function registry
(the paper's compiled "C functions", section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import RuleError

# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RuleExpr:
    """Base class of rule value expressions."""


@dataclass(frozen=True, slots=True)
class Param(RuleExpr):
    """Reference to a STAR parameter, ``where`` binding, or ∀ variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const(RuleExpr):
    """A literal: number, string, boolean, or the empty set ``{}``."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, frozenset) and not self.value:
            return "{}"
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Call(RuleExpr):
    """A call to a registry function: ``sortable_preds(P, T1, T2)``."""

    name: str
    args: tuple[RuleExpr, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class SetLiteral(RuleExpr):
    """A set display: ``{a, b, c}`` (elements are expressions)."""

    items: tuple[RuleExpr, ...] = ()

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.items) + "}"


@dataclass(frozen=True, slots=True)
class SetExpr(RuleExpr):
    """Set algebra: union ``|``, intersection ``&``, difference ``-``."""

    op: str
    left: RuleExpr
    right: RuleExpr

    def __post_init__(self) -> None:
        if self.op not in ("|", "&", "-"):
            raise RuleError(f"unknown set operator {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class Compare(RuleExpr):
    """Comparison: ``==``, ``!=``, ``in``, ``<=`` (subset), ``<``, ``>``, ``>=``."""

    op: str
    left: RuleExpr
    right: RuleExpr

    def __post_init__(self) -> None:
        if self.op not in ("==", "!=", "in", "<=", "<", ">", ">="):
            raise RuleError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class Logical(RuleExpr):
    """Boolean connective over conditions: ``and`` / ``or``."""

    op: str
    parts: tuple[RuleExpr, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise RuleError(f"unknown logical operator {self.op!r}")
        if len(self.parts) < 2:
            raise RuleError("logical expression needs two or more parts")

    def __str__(self) -> str:
        return "(" + f" {self.op} ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True, slots=True)
class Negate(RuleExpr):
    """Boolean negation: ``not <cond>``."""

    part: RuleExpr

    def __str__(self) -> str:
        return f"(not {self.part})"


# ---------------------------------------------------------------------------
# Required properties on arguments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RequiredSpec:
    """The ``[square bracket]`` annotation on a stream argument.

    Each field is an unevaluated :class:`RuleExpr` (evaluated in the
    rule's environment at expansion time) or None when not required.
    """

    order: RuleExpr | None = None
    site: RuleExpr | None = None
    temp: bool = False
    paths: RuleExpr | None = None

    def is_empty(self) -> bool:
        return (
            self.order is None
            and self.site is None
            and not self.temp
            and self.paths is None
        )

    def __str__(self) -> str:
        parts = []
        if self.order is not None:
            parts.append(f"order = {self.order}")
        if self.site is not None:
            parts.append(f"site = {self.site}")
        if self.temp:
            parts.append("temp")
        if self.paths is not None:
            parts.append(f"paths >= {self.paths}")
        return f"[{', '.join(parts)}]"


# ---------------------------------------------------------------------------
# Terms: the plan-producing side of an alternative
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Term:
    """Base class of plan-producing terms."""


@dataclass(frozen=True, slots=True)
class Argument:
    """One argument of a STAR/LOLEPOP reference: an expression or a nested
    term, optionally decorated with required properties."""

    value: "RuleExpr | Term"
    required: RequiredSpec | None = None

    def __str__(self) -> str:
        text = str(self.value)
        if self.required is not None and not self.required.is_empty():
            text += " " + str(self.required)
        return text


@dataclass(frozen=True, slots=True)
class StarRef(Term):
    """A reference to a STAR, to Glue, or to a LOLEPOP (terminals are
    "LOLEPOPs operating on constants", section 2.3 — the engine decides
    which of the three a name denotes)."""

    name: str
    args: tuple[Argument, ...] = ()
    #: LOLEPOP flavor when this reference is a flavored terminal
    #: (``JOIN(NL, ...)``); None otherwise.
    flavor: str | None = None

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        if self.flavor is not None:
            inner = f"{self.flavor}, {inner}" if inner else self.flavor
        return f"{self.name}({inner})"


@dataclass(frozen=True, slots=True)
class ForAll(Term):
    """``∀ var ∈ set : term`` — produce the union of the term's plans over
    every element of the set (section 2.2's IndexAccess example)."""

    var: str
    set_expr: RuleExpr
    term: "Term | RuleExpr"

    def __str__(self) -> str:
        return f"forall {self.var} in {self.set_expr}: {self.term}"


# ---------------------------------------------------------------------------
# STAR definitions and rule sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Alternative:
    """One alternative definition of a STAR.

    ``term`` may also be a :class:`RuleExpr` (a :class:`Call`) when the
    referenced name's nature — STAR or registry function — is unknown at
    parse time; the engine resolves it (STARs take precedence).
    """

    term: Term | RuleExpr
    condition: RuleExpr | None = None
    otherwise: bool = False

    def __post_init__(self) -> None:
        if self.otherwise and self.condition is not None:
            raise RuleError("an OTHERWISE alternative cannot also have a condition")

    def __str__(self) -> str:
        if self.otherwise:
            return f"otherwise -> {self.term}"
        if self.condition is not None:
            return f"if {self.condition} -> {self.term}"
        return f"-> {self.term}"


@dataclass(frozen=True, slots=True)
class StarDef:
    """A named, parametrized STAR with alternative definitions.

    ``exclusive=True`` is the paper's curly brace (the first alternative
    whose condition holds is taken); ``False`` is the square bracket (all
    alternatives whose conditions hold contribute plans).
    """

    name: str
    params: tuple[str, ...]
    alternatives: tuple[Alternative, ...]
    exclusive: bool = False
    bindings: tuple[tuple[str, RuleExpr], ...] = ()

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise RuleError(f"STAR {self.name} has no alternative definitions")
        if len(set(self.params)) != len(self.params):
            raise RuleError(f"STAR {self.name} has duplicate parameters")
        names = set(self.params)
        for bound, _ in self.bindings:
            if bound in names:
                raise RuleError(f"STAR {self.name}: binding {bound} shadows a name")
            names.add(bound)
        if self.exclusive:
            for alt in self.alternatives[:-1]:
                if alt.otherwise:
                    raise RuleError(
                        f"STAR {self.name}: OTHERWISE must be the last alternative"
                    )

    def __str__(self) -> str:
        mode = "exclusive" if self.exclusive else "inclusive"
        lines = [f"star {self.name}({', '.join(self.params)}) {mode} {{"]
        for name, expr in self.bindings:
            lines.append(f"  where {name} = {expr};")
        for alt in self.alternatives:
            if alt.otherwise:
                lines.append(f"  {alt};")
            else:
                lines.append(f"  alt {alt};")
        lines.append("}")
        return "\n".join(lines)


class RuleSet:
    """An ordered collection of STAR definitions.

    Supports the section-5 extension story: :meth:`extend` adds
    alternatives to an existing STAR (used to plug in the 4.5.x join
    methods as pure rule data), :meth:`add` defines new STARs.
    """

    def __init__(self, stars: tuple[StarDef, ...] = ()):
        self._stars: dict[str, StarDef] = {}
        for star in stars:
            self.add(star)

    def add(self, star: StarDef) -> None:
        if star.name in self._stars:
            raise RuleError(f"STAR {star.name} already defined")
        self._stars[star.name] = star

    def replace(self, star: StarDef) -> None:
        self._stars[star.name] = star

    def extend(self, name: str, extra: tuple[Alternative, ...],
               extra_bindings: tuple[tuple[str, RuleExpr], ...] = ()) -> None:
        """Append alternatives (and bindings) to an existing STAR."""
        star = self.get(name)
        self._stars[name] = StarDef(
            name=star.name,
            params=star.params,
            alternatives=star.alternatives + extra,
            exclusive=star.exclusive,
            bindings=star.bindings + extra_bindings,
        )

    def get(self, name: str) -> StarDef:
        try:
            return self._stars[name]
        except KeyError:
            raise RuleError(f"unknown STAR {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._stars

    def names(self) -> tuple[str, ...]:
        return tuple(self._stars)

    def __iter__(self) -> Iterator[StarDef]:
        return iter(self._stars.values())

    def __len__(self) -> int:
        return len(self._stars)

    def merged(self, other: "RuleSet") -> "RuleSet":
        """A new rule set with ``other``'s STARs added (no overlap allowed)."""
        result = RuleSet(tuple(self))
        for star in other:
            result.add(star)
        return result
