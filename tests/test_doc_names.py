"""Docs drift guard: the code names ``docs/architecture.md`` and
``docs/performance.md`` cite exist.

Every backticked name of three kinds must still be bound somewhere in
``src/``: a private name (``_charge``), a CamelCase name (``NodeStore``,
``ICPlatform``) and a dotted ``repro.`` path, which must import.  Members
written after a checked name (``NodeStore.topology``,
``ICPlatform._rank_main``) must be bound too.  "Bound" means defined,
assigned (``self.x = ...`` included) or imported by some module under
``src/``, or a Python builtin.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
DOCS = ("docs/architecture.md", "docs/performance.md")

#: A dotted chain of identifiers.
CHAIN = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def bound_names() -> set[str]:
    """Every name a module under ``src/`` defines, assigns or imports."""
    names: set[str] = set(dir(builtins))
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add((node.asname or node.name).split(".")[0])
    return names


def checked(name: str) -> bool:
    """A private or CamelCase identifier (``_x``, ``NodeStore``, not
    ``Rref``, a cost symbol of the paper's, or ``TAG_SHADOW``)."""
    if name.startswith("_"):
        return not name.endswith("__")  # dunders are Python's, not the project's
    return name[0].isupper() and any(c.isupper() for c in name[1:]) and not name.isupper()


def imports(path: str) -> bool:
    """Whether the dotted ``repro.`` path resolves to a module or an
    attribute of one."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def cited(text: str) -> list[str]:
    """The dotted chains inside inline backticks, outside fenced blocks."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    return [chain for span in re.findall(r"`([^`\n]+)`", prose) for chain in CHAIN.findall(span)]


def missing(chains: list[str], names: set[str]) -> list[str]:
    gone = []
    for chain in chains:
        if chain.startswith("repro."):
            if not imports(chain):
                gone.append(chain)
            continue
        parts = chain.split(".")
        first = next((i for i, part in enumerate(parts) if checked(part)), None)
        if first is not None and any(part not in names for part in parts[first:]):
            gone.append(chain)
    return gone


def test_architecture_names_exist():
    names = bound_names()
    for doc in DOCS:
        chains = cited((ROOT / doc).read_text())
        assert any(chain.startswith("repro.") for chain in chains)
        assert missing(chains, names) == [], f"{doc} cites names src/ no longer binds"


def test_a_deleted_name_is_caught():
    names = bound_names()
    text = "`NodeStore.topology`, `_charge`, `_GatherLRU.get`, `repro.mpi.nowhere`, `plain`"
    assert missing(cited(text), names) == ["_GatherLRU.get", "repro.mpi.nowhere"]
