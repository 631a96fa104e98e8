#!/usr/bin/env python3
"""Documentation lint (run in CI as a required step).

Five checks, all cheap and purely static:

1. **Module docstrings** — every public module under ``src/repro/``
   (anything not starting with ``_``, plus ``__init__.py`` and
   ``__main__.py``) must carry a module docstring.  The docstring-first
   convention is what makes ``docs/architecture.md``'s package map
   verifiable against the code.
2. **CLI coverage** — every subcommand registered via ``add_parser``
   in ``src/repro/__main__.py`` must have a matching ``## `name```
   section in ``docs/cli.md``, and ``docs/cli.md`` must not document
   subcommands that no longer exist.  Likewise per flag: the ``--flag``
   rows of a subcommand's table (plus those of any shared section a
   ``see [...](#anchor)`` row links to) must be exactly the ``--flag``s
   its ``add_argument`` calls register, so a removed switch cannot
   linger in the docs.
3. **LOLEPOP lowering coverage** — the per-LOLEPOP table in
   ``docs/backends.md`` must have exactly one row per operator
   declared in ``src/repro/plans/operators.py`` (the ``NAME =
   "NAME"`` module constants), and every row's operator must really
   exist — both directions, so the lowering reference can neither rot
   nor invent operators.  Likewise the backend table (``| name |
   artifact | executes via |``) must list exactly the names passed to
   ``register_backend(...)`` in ``src/repro/backends/__init__.py``.
4. **Hot-path layer numbers** — every ``hot-path layer N`` in an
   ``OptimizerConfig`` field comment (``src/repro/config.py``) must
   carry the number the README "Performance" list gives that flag.
5. **Named files exist** — every ``benchmarks/*.py``, ``tests/*.py``,
   ``tools/*.py`` and root ``BENCH_*.json`` path named in ``README.md``,
   ``DESIGN.md``, ``docs/*.md`` or ``.claude/skills/*/SKILL.md`` must be
   a file in the tree, so deleting a script cannot leave a pointer to it.

Exit status 0 when clean, 1 with one ``error:`` line per problem.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
CLI_DOC = REPO / "docs" / "cli.md"
BACKENDS_DOC = REPO / "docs" / "backends.md"
MAIN = SRC / "__main__.py"
OPERATORS = SRC / "plans" / "operators.py"
BACKENDS_INIT = SRC / "backends" / "__init__.py"
CONFIG = SRC / "config.py"
README = REPO / "README.md"


def public_modules() -> list[Path]:
    """Every module that is part of the public surface: not ``_private``,
    dunders (``__init__``, ``__main__``) included."""
    modules = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.stem
        if name.startswith("_") and not name.startswith("__"):
            continue
        modules.append(path)
    return modules


def check_docstrings() -> list[str]:
    errors = []
    for path in public_modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        if not ast.get_docstring(tree):
            rel = path.relative_to(REPO)
            errors.append(f"{rel}: public module has no module docstring")
    return errors


def registered_flags() -> dict[str, set[str]]:
    """``subcommand -> {--flag, ...}`` from ``__main__.py``: each
    ``X = sub.add_parser("name")`` binds a parser variable, each
    ``X.add_argument("--flag")`` registers on it, and a helper
    ``def _group(p): p.add_argument(...)`` called as ``_group(X)``
    registers its whole group."""
    tree = ast.parse(MAIN.read_text(), filename=str(MAIN))

    def is_call(node: ast.AST, attr: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
            and isinstance(node.func.value, ast.Name)
        )

    def flags_added(call: ast.Call) -> set[str]:
        return {
            arg.value
            for arg in call.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
        }

    groups: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and len(node.args.args) == 1:
            param = node.args.args[0].arg
            added: set[str] = set()
            for call in ast.walk(node):
                if is_call(call, "add_argument") and call.func.value.id == param:
                    added |= flags_added(call)
            if added:
                groups[node.name] = added

    parsers: dict[str, str] = {}
    flags: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and is_call(node.value, "add_parser")
            and isinstance(node.targets[0], ast.Name)
        ):
            name = node.value.args[0].value
            parsers[node.targets[0].id] = name
            flags[name] = set()
    for node in ast.walk(tree):
        if is_call(node, "add_argument") and node.func.value.id in parsers:
            flags[parsers[node.func.value.id]] |= flags_added(node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in groups
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in parsers
        ):
            flags[parsers[node.args[0].id]] |= groups[node.func.id]
    return flags


def documented_flags() -> dict[str, set[str]]:
    """``subcommand -> {--flag, ...}`` from docs/cli.md: the ``| `--flag``
    rows under each ``## `name``` heading, plus the rows of every shared
    section (``## Some flags``) that a ``see [...](#some-flags)`` row of
    that subcommand's table links to."""
    rows: dict[str, set[str]] = {}
    links: dict[str, set[str]] = {}
    subcommands: dict[str, str] = {}
    anchor = None
    for line in CLI_DOC.read_text().splitlines():
        if line.startswith("## "):
            title = line[3:].strip()
            anchor = title.replace("`", "").lower().replace(" ", "-")
            rows[anchor], links[anchor] = set(), set()
            if re.fullmatch(r"`[a-z0-9-]+`", title):
                subcommands[title.strip("`")] = anchor
        elif anchor is not None and line.startswith("|"):
            flag = re.match(r"\| `(--[a-z0-9-]+)", line)
            if flag:
                rows[anchor].add(flag.group(1))
            links[anchor].update(re.findall(r"\]\(#([a-z0-9-]+)\)", line))
    return {
        name: rows[anchor].union(*(rows.get(a, set()) for a in links[anchor]))
        for name, anchor in subcommands.items()
    }


def check_cli_doc() -> list[str]:
    if not CLI_DOC.exists():
        return [f"{CLI_DOC.relative_to(REPO)}: missing"]
    registered = registered_flags()
    documented = documented_flags()
    errors = []
    for name in sorted(set(registered) - set(documented)):
        errors.append(
            f"docs/cli.md: subcommand {name!r} is registered in "
            f"src/repro/__main__.py but has no '## `{name}`' section"
        )
    for name in sorted(set(documented) - set(registered)):
        errors.append(
            f"docs/cli.md: documents subcommand {name!r} which is not "
            "registered in src/repro/__main__.py"
        )
    for name in sorted(set(registered) & set(documented)):
        for flag in sorted(registered[name] - documented[name]):
            errors.append(
                f"docs/cli.md: `{name}` registers {flag} in "
                f"src/repro/__main__.py but its table has no row for it"
            )
        for flag in sorted(documented[name] - registered[name]):
            errors.append(
                f"docs/cli.md: `{name}` documents {flag}, which "
                f"src/repro/__main__.py does not register for it"
            )
    return errors


def declared_lolepops() -> set[str]:
    """Operator names declared as ``NAME = "NAME"`` module constants in
    ``plans/operators.py`` (flavor tuples and helpers don't match)."""
    tree = ast.parse(OPERATORS.read_text(), filename=str(OPERATORS))
    names = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and node.targets[0].id == node.value.value
        ):
            names.add(node.targets[0].id)
    return names


def documented_lolepops() -> list[str]:
    """First-cell operator names from docs/backends.md's per-LOLEPOP
    lowering table: rows shaped ``| `OP` | ... |``."""
    text = BACKENDS_DOC.read_text()
    return re.findall(r"^\| `([A-Z]+)` \|", text, flags=re.MULTILINE)


def registered_backends() -> set[str]:
    """Names passed as the first argument of a ``register_backend(...)``
    call in ``backends/__init__.py``."""
    tree = ast.parse(BACKENDS_INIT.read_text(), filename=str(BACKENDS_INIT))
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "register_backend"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def documented_backends() -> set[str]:
    """First-cell names of docs/backends.md's backend table: the rows
    under the ``| name | artifact | executes via |`` header."""
    table = re.search(
        r"^\| name \| artifact \| executes via \|\n\|[-|]+\|\n((?:\|.*\n)*)",
        BACKENDS_DOC.read_text(), flags=re.MULTILINE,
    )
    rows = table.group(1) if table else ""
    return set(re.findall(r"^\| `([\w-]+)` \|", rows, flags=re.MULTILINE))


def check_backends_doc() -> list[str]:
    if not BACKENDS_DOC.exists():
        return [f"{BACKENDS_DOC.relative_to(REPO)}: missing"]
    declared = declared_lolepops()
    documented = documented_lolepops()
    errors = []
    registered, listed = registered_backends(), documented_backends()
    for name in sorted(listed - registered):
        errors.append(
            f"docs/backends.md: backend table lists {name!r}, which "
            "src/repro/backends/__init__.py does not register"
        )
    for name in sorted(registered - listed):
        errors.append(
            f"docs/backends.md: backend {name!r} is registered in "
            "src/repro/backends/__init__.py but has no backend-table row"
        )
    for name in sorted(set(documented) - declared):
        errors.append(
            f"docs/backends.md: lowering table names operator {name!r} "
            "which src/repro/plans/operators.py does not declare"
        )
    for name in sorted(declared - set(documented)):
        errors.append(
            f"docs/backends.md: operator {name!r} is declared in "
            "src/repro/plans/operators.py but has no lowering-table row"
        )
    for name in sorted({n for n in documented if documented.count(n) > 1}):
        errors.append(
            f"docs/backends.md: operator {name!r} has more than one "
            "lowering-table row"
        )
    return errors


def config_layers() -> dict[str, int]:
    """``flag -> N`` for every config field whose ``#:`` comment block
    says ``hot-path layer N``."""
    layers: dict[str, int] = {}
    comment: list[str] = []
    for line in CONFIG.read_text().splitlines():
        line = line.strip()
        if line.startswith("#:"):
            comment.append(line[2:])
            continue
        field = re.match(r"(\w+):", line)
        said = re.search(r"hot-path\s+layer (\d+)", " ".join(comment))
        if field and said:
            layers[field.group(1)] = int(said.group(1))
        comment = []
    return layers


def readme_layers() -> dict[str, int]:
    """``flag -> N`` from the README's numbered hot-path list: items
    shaped ``N. **title** (`flag`)``."""
    items = re.findall(
        r"^(\d+)\. \*\*[^*]+\*\* \(`(\w+)`\)", README.read_text(), flags=re.MULTILINE
    )
    return {flag: int(number) for number, flag in items}


def check_layer_numbers() -> list[str]:
    listed = readme_layers()
    errors = []
    for flag, number in sorted(config_layers().items()):
        if listed.get(flag) != number:
            errors.append(
                f"src/repro/config.py: {flag} is called hot-path layer "
                f"{number}, but the README Performance list has it as "
                f"{listed.get(flag, 'no numbered item')}"
            )
    return errors


#: A path the docs may name and the tree must hold: a script directly
#: under benchmarks/, tests/ or tools/, or a root BENCH_*.json (not one
#: under another directory, e.g. a result file of benchmarks/e2e/).
_NAMED_FILE = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests|tools)/\w+\.py|BENCH_\w+\.json)\b"
)


def check_named_files() -> list[str]:
    docs = [
        README, REPO / "DESIGN.md", *sorted((REPO / "docs").glob("*.md")),
        *sorted((REPO / ".claude" / "skills").glob("*/SKILL.md")),
    ]
    errors = []
    for doc in docs:
        for name in sorted(set(_NAMED_FILE.findall(doc.read_text()))):
            if not (REPO / name).is_file():
                errors.append(
                    f"{doc.relative_to(REPO)}: names {name}, which is not "
                    "in the tree"
                )
    return errors


def main() -> int:
    errors = (
        check_docstrings() + check_cli_doc() + check_backends_doc()
        + check_layer_numbers() + check_named_files()
    )
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    modules = len(public_modules())
    subcommands = len(registered_flags())
    lolepops = len(declared_lolepops())
    verdict = "PASS" if not errors else f"FAIL ({len(errors)} problem(s))"
    print(
        f"docs lint: {verdict} — {modules} module(s), "
        f"{subcommands} subcommand(s), {lolepops} LOLEPOP(s) checked"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
