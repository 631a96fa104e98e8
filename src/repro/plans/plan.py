"""Plan nodes and plan rendering.

A query evaluation plan (QEP) is a directed graph of LOLEPOPs (Figure 1).
:class:`PlanNode` is immutable and hashable; shared subplans are shared
Python objects ("alternative plans may incorporate the same plan
fragment").  Each node carries the property vector computed by its
LOLEPOP's property function at construction time — properties are changed
*only* by LOLEPOPs (section 7).

Two renderings are provided, matching the paper's two notations:

* :func:`render_functional` — the nested-function notation of section 2.1
  (``JOIN(MG, ..., SORT(ACCESS(DEPT, ...), ...), GET(...))``);
* :func:`render_tree` — an indented tree like Figure 1, with the property
  "ears" of Figure 3 optionally shown at the root.
"""

from __future__ import annotations

import copyreg
import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ReproError
from repro.plans.operators import ACCESS, GET, JOIN, SHIP, SORT, spec_for
from repro.plans.properties import PropertyVector


def _freeze_param(value: Any) -> Any:
    """Normalize parameter values to hashable, deterministic forms."""
    if isinstance(value, frozenset):
        # Its elements are hashable, so nothing inside is left to freeze.
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_param(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze_param(v) for v in value)
    return value


def _params_bytes(params: tuple[tuple[str, Any], ...]) -> bytes:
    """The bytes a parameter tuple contributes to a plan digest."""
    chunks = []
    for key, value in params:
        chunks.append(key)
        if isinstance(value, frozenset):
            chunks.append("|".join(sorted(str(v) for v in value)))
        else:
            chunks.append(str(value))
    return "".join(chunks).encode()


@dataclass(frozen=True, slots=True)
class PlanNode:
    """One LOLEPOP in a plan, with its parameters, inputs and properties.

    ``digest`` is a content hash of the plan's *structure* (operators,
    parameters, children — not cost), computed lazily on first use from
    the children's cached digests and memoized on the node.  Neither
    construction nor interning asks for it — plans that are built and
    discarded by a pruning pass (most of them, in a big search) never pay
    a SHA-256; it is computed for the nodes somebody names: a STORE's
    ``#temp(<digest>)``, memo keys, results, snapshots, the executor's
    temp cache.  ``hash()`` is a cached *structural* hash over
    ``(op, flavor, params, inputs)``; equality is identity first (all the
    optimizer ever needs of interned nodes) and digest equality for
    structurally equal twins built apart.
    """

    op: str
    flavor: str | None
    params: tuple[tuple[str, Any], ...]
    inputs: tuple["PlanNode", ...]
    props: PropertyVector = field(compare=False)
    _digest: str | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        spec = spec_for(self.op)
        if len(self.inputs) not in spec.arities:
            raise ReproError(
                f"{self.op} takes {spec.arities} input(s), got {len(self.inputs)}"
            )
        if spec.flavors and self.flavor not in spec.flavors:
            raise ReproError(f"{self.op} has no flavor {self.flavor!r}")
        for key, _ in self.params:
            if key not in spec.params:
                raise ReproError(f"{self.op} has no parameter {key!r}")

    @property
    def digest(self) -> str:
        return self._digest or self._compute_digest()

    def _compute_digest(self) -> str:
        hasher = hashlib.sha256((self.op + (self.flavor or "")).encode())
        hasher.update(_params_bytes(self.params))
        for child in self.inputs:
            hasher.update(child.digest.encode())
        digest = hasher.hexdigest()[:16]
        object.__setattr__(self, "_digest", digest)
        return digest

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.op, self.flavor, self.params, self.inputs))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PlanNode):
            return NotImplemented
        return self.digest == other.digest

    def __reduce__(self) -> tuple:
        # The digest is content and travels; the structural hash is built
        # on string hashes, salted per process (PYTHONHASHSEED), so it must
        # not.  The state is in field order, for the ``__setstate__`` a
        # frozen slots dataclass is given (``__getstate__`` cannot do this:
        # Python 3.10 replaces a hand-written one).
        state = [
            self.op, self.flavor, self.params, self.inputs, self.props,
            self._digest, None,
        ]
        return copyreg.__newobj__, (type(self),), state

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def nodes(self) -> Iterator["PlanNode"]:
        """All nodes, root first (pre-order; shared nodes visited once)."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.inputs))

    def count_nodes(self) -> int:
        return sum(1 for _ in self.nodes())

    def __str__(self) -> str:
        return render_functional(self)


def make_params(**kwargs: Any) -> tuple[tuple[str, Any], ...]:
    """Build a deterministic, hashable parameter tuple."""
    return tuple(sorted((k, _freeze_param(v)) for k, v in kwargs.items()))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_set(values) -> str:
    return "{" + ", ".join(sorted(str(v) for v in values)) + "}"


def _node_label(node: PlanNode) -> str:
    """A one-line description of the node's own operation."""
    if node.op == ACCESS:
        path = node.param("path")
        source = path.name if path is not None else node.param("table")
        return (
            f"ACCESS({node.flavor}, {source}, "
            f"{_fmt_set(node.param('columns', frozenset()))}, "
            f"{_fmt_set(node.param('preds', frozenset()))})"
        )
    if node.op == GET:
        return (
            f"GET({node.param('table')}, "
            f"{_fmt_set(node.param('columns', frozenset()))}, "
            f"{_fmt_set(node.param('preds', frozenset()))})"
        )
    if node.op == SORT:
        order = ", ".join(str(c) for c in node.param("order", ()))
        return f"SORT({order})"
    if node.op == SHIP:
        return f"SHIP(to {node.param('to_site')})"
    if node.op == JOIN:
        return (
            f"JOIN({node.flavor}, {_fmt_set(node.param('join_preds', frozenset()))}, "
            f"residual={_fmt_set(node.param('residual_preds', frozenset()))})"
        )
    if node.op == "FILTER":
        return f"FILTER({_fmt_set(node.param('preds', frozenset()))})"
    if node.op == "PROJECT":
        return f"PROJECT({_fmt_set(node.param('columns', frozenset()))})"
    if node.op == "INTERSECT":
        key = ", ".join(str(c) for c in node.param("key", ()))
        return f"INTERSECT({key})"
    if node.op == "DEDUP":
        key = ", ".join(str(c) for c in node.param("key", ()))
        return f"DEDUP({key})"
    if node.op == "BUILDIX":
        key = ", ".join(str(c) for c in node.param("key", ()))
        return f"BUILDIX({key})"
    return node.op


def render_functional(node: PlanNode) -> str:
    """The nested-function notation of section 2.1."""
    label = _node_label(node)
    if not node.inputs:
        return label
    inner = ", ".join(render_functional(child) for child in node.inputs)
    # Splice the children in before the closing parenthesis.
    if label.endswith(")"):
        return f"{label[:-1]}, {inner})"
    return f"{label}({inner})"


def render_tree(node: PlanNode, show_properties: bool = False) -> str:
    """An indented tree rendering in the style of Figure 1.

    With ``show_properties=True`` the root node gets the order/site
    "ears" of Figure 3 plus cardinality and cost.
    """
    lines: list[str] = []
    if show_properties:
        props = node.props
        order = ",".join(c.column for c in props.order) or "-"
        lines.append(f"   (order: {order} | site: {props.site} | "
                     f"card: {props.card:.1f} | cost: {props.cost})")

    def walk(current: PlanNode, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(_node_label(current))
            child_prefix = ""
        else:
            connector = "└── " if is_last else "├── "
            lines.append(prefix + connector + _node_label(current))
            child_prefix = prefix + ("    " if is_last else "│   ")
        for index, child in enumerate(current.inputs):
            walk(child, child_prefix, index == len(current.inputs) - 1, False)

    walk(node, "", True, True)
    return "\n".join(lines)


def plan_digest(node: PlanNode) -> str:
    """The plan's structural digest (ignores cost); cached per node."""
    return node.digest


def stored_object(node: PlanNode) -> PlanNode | None:
    """The stored object under ``node``, which a re-ACCESS reads instead
    of materializing again (4.5.2): the STORE / BUILDIX a temp ACCESS
    reads, or ``node`` itself when its output is one; None for a stream."""
    if node.op == ACCESS and node.flavor == "temp" and node.inputs:
        return node.inputs[0]
    if node.props.stored_as is not None and node.inputs:
        return node
    return None


def plan_sites(node: PlanNode) -> frozenset[str]:
    """The plan's *site footprint*: every site some node executes at.

    A plan survives a site outage iff the dead site is not in its
    footprint — the question :class:`ResilientExecutor` asks of each
    alternative in the SAP when failing over.
    """
    return frozenset(n.props.site for n in node.nodes())


def plan_links(node: PlanNode) -> frozenset[tuple[str, str]]:
    """Every directed link the plan ships a stream over."""
    return frozenset(
        (n.inputs[0].props.site, n.param("to_site"))
        for n in node.nodes()
        if n.op == SHIP
    )
