#!/usr/bin/env python3
"""Documentation lint (run in CI as a required step).

Four checks, all cheap and purely static:

1. **Module docstrings** — every public module under ``src/repro/``
   (anything not starting with ``_``, plus ``__init__.py`` and
   ``__main__.py``) must carry a module docstring.  The docstring-first
   convention is what makes ``docs/architecture.md``'s package map
   verifiable against the code.
2. **CLI coverage** — every subcommand registered via ``add_parser``
   in ``src/repro/__main__.py`` must have a matching ``## `name```
   section in ``docs/cli.md``, and ``docs/cli.md`` must not document
   subcommands that no longer exist.
3. **LOLEPOP lowering coverage** — the per-LOLEPOP table in
   ``docs/backends.md`` must have exactly one row per operator
   declared in ``src/repro/plans/operators.py`` (the ``NAME =
   "NAME"`` module constants), and every row's operator must really
   exist — both directions, so the lowering reference can neither rot
   nor invent operators.
4. **Hot-path layer numbers** — every ``hot-path layer N`` in an
   ``OptimizerConfig`` field comment (``src/repro/config.py``) must
   carry the number the README "Performance" list gives that flag.

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


def registered_subcommands() -> set[str]:
    """Subcommand names passed to ``add_parser(...)`` in ``__main__.py``."""
    tree = ast.parse(MAIN.read_text(), filename=str(MAIN))
    names = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names.add(node.args[0].value)
    return names


def documented_subcommands() -> set[str]:
    """``## `name``` headings in docs/cli.md."""
    text = CLI_DOC.read_text()
    return set(re.findall(r"^## `([a-z0-9-]+)`", text, flags=re.MULTILINE))


def check_cli_doc() -> list[str]:
    if not CLI_DOC.exists():
        return [f"{CLI_DOC.relative_to(REPO)}: missing"]
    registered = registered_subcommands()
    documented = documented_subcommands()
    errors = []
    for name in sorted(registered - documented):
        errors.append(
            f"docs/cli.md: subcommand {name!r} is registered in "
            f"src/repro/__main__.py but has no '## `{name}`' section"
        )
    for name in sorted(documented - registered):
        errors.append(
            f"docs/cli.md: documents subcommand {name!r} which is not "
            "registered in src/repro/__main__.py"
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


def check_backends_doc() -> list[str]:
    if not BACKENDS_DOC.exists():
        return [f"{BACKENDS_DOC.relative_to(REPO)}: missing"]
    declared = declared_lolepops()
    documented = documented_lolepops()
    errors = []
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


def main() -> int:
    errors = (
        check_docstrings() + check_cli_doc() + check_backends_doc()
        + check_layer_numbers()
    )
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    modules = len(public_modules())
    subcommands = len(registered_subcommands())
    lolepops = len(declared_lolepops())
    verdict = "PASS" if not errors else f"FAIL ({len(errors)} problem(s))"
    print(
        f"docs lint: {verdict} — {modules} module(s), "
        f"{subcommands} subcommand(s), {lolepops} LOLEPOP(s) checked"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
