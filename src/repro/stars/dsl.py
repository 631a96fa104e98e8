"""The STAR rule DSL.

Rules are data (paper sections 1 and 5): "If the STARs are treated as
input data to a rule interpreter, then new STARs can be added to that
file without impacting the Starburst system code at all [LEE 88]."
This module parses that input data.

Syntax (paper section 4 notation → DSL)::

    // JoinRoot, 4.1 — inclusive alternatives ([ in the paper)
    star JoinRoot(T1, T2, P) {
        alt -> PermutedJoin(T1, T2, P);
        alt -> PermutedJoin(T2, T1, P);
    }

    // PermutedJoin, 4.2 — exclusive alternatives ({ in the paper),
    // a condition, an OTHERWISE, and a ∀-clause
    star PermutedJoin(T1, T2, P) exclusive {
        alt if local_query() -> SitedJoin(T1, T2, P);
        otherwise -> forall s in candidate_sites():
                         RemoteJoin(T1, T2, P, s);
    }

    // Required properties in [brackets] next to the affected argument
    star RemoteJoin(T1, T2, P, s) {
        alt -> SitedJoin(T1 [site = s], T2 [site = s], P);
    }

    // where-bindings, set algebra, LOLEPOP terminals with flavors
    star JMeth(T1, T2, P) {
        where JP = join_preds(P);
        where IP = inner_preds(P, T2);
        alt -> JOIN(NL, Glue(T1, {}), Glue(T2, JP | IP),
                    JP, P - (JP | IP));
    }

    // section 5 extensibility: add alternatives to an existing STAR
    extend JMeth {
        alt if nonempty(hashable_preds(P, T1, T2)) -> ...;
    }

Comments run from ``//`` or ``#`` to end of line.  Conditions and
computed arguments reference registry functions by name (the paper's
compiled "C functions").  ``{}`` is the empty set (the paper's φ); ``*``
means "all columns" in ACCESS references (the paper's ``*`` in 4.5.2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ParseError
from repro.plans.operators import LOLEPOPS
from repro.stars.ast import (
    Alternative,
    Argument,
    Call,
    Compare,
    Const,
    ForAll,
    Logical,
    Negate,
    Param,
    RequiredSpec,
    RuleExpr,
    RuleSet,
    SetExpr,
    SetLiteral,
    StarDef,
    StarRef,
    Term,
)

_KEYWORDS = {
    "star", "extend", "exclusive", "inclusive", "where", "alt", "otherwise",
    "if", "forall", "in", "and", "or", "not", "temp", "order", "site",
    "paths", "true", "false",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*|\#[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>->|==|!=|<=|>=|[(){}\[\],;:=<>|&*-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} in rule text",
                line,
                pos - line_start + 1,
            )
        kind = match.lastgroup or ""
        tok = match.group()
        if kind == "ws":
            newlines = tok.count("\n")
            if newlines:
                line += newlines
                line_start = pos + tok.rfind("\n") + 1
        else:
            tokens.append(_Token(kind, tok, line, pos - line_start + 1))
        pos = match.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _RuleParser:
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._pos = 0

    # -- plumbing ----------------------------------------------------------------

    def _peek(self, ahead: int = 0) -> _Token:
        index = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(
            f"{message}, got {token.text or 'end of input'!r}",
            token.line,
            token.column,
        )

    def _at(self, text: str) -> bool:
        token = self._peek()
        return token.text == text and token.kind in ("op", "ident")

    def _accept(self, text: str) -> bool:
        if self._at(text):
            self._advance()
            return True
        return False

    def _expect(self, text: str) -> None:
        if not self._accept(text):
            raise self._error(f"expected {text!r}")

    def _expect_name(self) -> str:
        token = self._peek()
        if token.kind != "ident" or token.text in _KEYWORDS:
            raise self._error("expected a name")
        self._advance()
        return token.text

    # -- top level -----------------------------------------------------------------

    def parse(self, base: RuleSet | None = None) -> RuleSet:
        rules = base if base is not None else RuleSet()
        while self._peek().kind != "eof":
            if self._accept("star"):
                rules.add(self._parse_star())
            elif self._accept("extend"):
                name = self._expect_name()
                bindings, alternatives = self._parse_body()
                rules.extend(name, tuple(alternatives), tuple(bindings))
            else:
                raise self._error("expected 'star' or 'extend'")
        return rules

    def _parse_star(self) -> StarDef:
        name = self._expect_name()
        self._expect("(")
        params: list[str] = []
        if not self._at(")"):
            params.append(self._expect_name())
            while self._accept(","):
                params.append(self._expect_name())
        self._expect(")")
        exclusive = False
        if self._accept("exclusive"):
            exclusive = True
        else:
            self._accept("inclusive")
        bindings, alternatives = self._parse_body()
        return StarDef(
            name=name,
            params=tuple(params),
            alternatives=tuple(alternatives),
            exclusive=exclusive,
            bindings=tuple(bindings),
        )

    def _parse_body(self):
        self._expect("{")
        bindings: list[tuple[str, RuleExpr]] = []
        alternatives: list[Alternative] = []
        while not self._accept("}"):
            if self._accept("where"):
                bound = self._expect_name()
                self._expect("=")
                bindings.append((bound, self._parse_expr()))
                self._expect(";")
            elif self._accept("alt"):
                condition = None
                if self._accept("if"):
                    condition = self._parse_expr()
                self._expect("->")
                term = self._parse_term()
                self._expect(";")
                alternatives.append(Alternative(term=term, condition=condition))
            elif self._accept("otherwise"):
                self._expect("->")
                term = self._parse_term()
                self._expect(";")
                alternatives.append(Alternative(term=term, otherwise=True))
            else:
                raise self._error("expected 'where', 'alt', 'otherwise' or '}'")
        return bindings, alternatives

    # -- terms ------------------------------------------------------------------------

    def _parse_term(self) -> Term | RuleExpr:
        if self._accept("forall"):
            var = self._expect_name()
            self._expect("in")
            set_expr = self._parse_expr()
            self._expect(":")
            return ForAll(var=var, set_expr=set_expr, term=self._parse_term())
        return _unwrap(self._parse_expr())

    # -- expressions (precedence: or < and < not < compare < setops < primary) ---------

    def _parse_expr(self) -> RuleExpr:
        parts = [self._parse_and()]
        while self._accept("or"):
            parts.append(self._parse_and())
        return parts[0] if len(parts) == 1 else Logical("or", tuple(parts))

    def _parse_and(self) -> RuleExpr:
        parts = [self._parse_not()]
        while self._accept("and"):
            parts.append(self._parse_not())
        return parts[0] if len(parts) == 1 else Logical("and", tuple(parts))

    def _parse_not(self) -> RuleExpr:
        if self._accept("not"):
            return Negate(self._parse_not())
        return self._parse_compare()

    def _parse_compare(self) -> RuleExpr:
        left = self._parse_setop()
        for op in ("==", "!=", "<=", ">=", "<", ">", "in"):
            if self._at(op):
                self._advance()
                return Compare(op, left, self._parse_setop())
        return left

    def _parse_setop(self) -> RuleExpr:
        left = self._parse_primary()
        while True:
            if self._at("|") or self._at("&") or self._at("-"):
                op = self._advance().text
                left = SetExpr(op, left, self._parse_primary())
            else:
                return left

    def _parse_primary(self) -> RuleExpr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return Const(value)
        if token.kind == "string":
            self._advance()
            return Const(token.text[1:-1].replace("''", "'"))
        if self._accept("*"):
            return Const("*")
        if self._accept("true"):
            return Const(True)
        if self._accept("false"):
            return Const(False)
        if self._accept("{"):
            items: list[RuleExpr] = []
            if not self._at("}"):
                items.append(self._parse_expr())
                while self._accept(","):
                    items.append(self._parse_expr())
            self._expect("}")
            if not items:
                return Const(frozenset())
            return SetLiteral(tuple(items))
        if self._accept("("):
            expr = self._parse_expr()
            self._expect(")")
            return expr
        if token.kind == "ident" and token.text not in _KEYWORDS:
            name = self._advance().text
            if self._at("("):
                return self._parse_reference(name)
            return Param(name)
        raise self._error("expected an expression")

    def _parse_reference(self, name: str) -> RuleExpr:
        """A call: LOLEPOP (with optional flavor), Glue, STAR, or registry
        function.  LOLEPOPs and Glue are recognized statically and become
        :class:`StarRef` terms; other names stay :class:`Call` expressions
        and are resolved by the engine (STARs take precedence)."""
        self._expect("(")
        flavor = None
        spec = LOLEPOPS.get(name)
        if spec is not None and spec.flavors:
            token = self._peek()
            if token.kind == "ident" and token.text in spec.flavors:
                self._advance()
                flavor = token.text
                self._accept(",")
        args: list[Argument] = []
        if not self._at(")"):
            args.append(self._parse_argument())
            while self._accept(","):
                args.append(self._parse_argument())
        self._expect(")")
        if spec is not None or name == "Glue":
            return _TermExpr(StarRef(name, tuple(args), flavor=flavor))
        plain = tuple(a.value for a in args)
        if any(a.required is not None for a in args):
            # Required properties force term treatment even for names we
            # cannot classify statically.
            return _TermExpr(StarRef(name, tuple(args), flavor=None))
        if all(isinstance(v, RuleExpr) for v in plain):
            return Call(name, plain)  # engine resolves STAR vs. function
        return _TermExpr(StarRef(name, tuple(args), flavor=None))

    def _parse_argument(self) -> Argument:
        value: Term | RuleExpr
        if self._at("forall"):
            value = self._parse_term()
        else:
            value = self._parse_expr()
        if isinstance(value, _TermExpr):
            value = value.term
        required = None
        if self._accept("["):
            required = self._parse_required()
        return Argument(value=value, required=required)

    def _parse_required(self) -> RequiredSpec:
        order = site = paths = None
        temp = False
        while True:
            if self._accept("order"):
                self._expect("=")
                order = self._strip(self._parse_expr())
            elif self._accept("site"):
                self._expect("=")
                site = self._strip(self._parse_expr())
            elif self._accept("temp"):
                temp = True
            elif self._accept("paths"):
                self._expect(">=")
                paths = self._strip(self._parse_expr())
            else:
                raise self._error("expected a required property")
            if self._accept("]"):
                return RequiredSpec(order=order, site=site, temp=temp, paths=paths)
            self._expect(",")

    def _strip(self, expr: RuleExpr) -> RuleExpr:
        if isinstance(expr, _TermExpr):
            token = self._peek()
            raise ParseError(
                "plan terms cannot appear inside required properties",
                token.line,
                token.column,
            )
        return expr


@dataclass(frozen=True, slots=True)
class _TermExpr(RuleExpr):
    """Internal wrapper letting the expression grammar carry a Term; it is
    unwrapped at argument boundaries and where a term is expected."""

    term: Term


def _unwrap(value: Term | RuleExpr) -> Term | RuleExpr:
    if isinstance(value, _TermExpr):
        return value.term
    return value


def parse_rules(text: str, base: RuleSet | None = None) -> RuleSet:
    """Parse rule text into a :class:`RuleSet` (optionally extending an
    existing one in place)."""
    parser = _RuleParser(text)
    try:
        return parser.parse(base)
    except RecursionError:
        # Deeper than the interpreter's stack lets the descent follow.
        raise parser._error("nesting too deep") from None
