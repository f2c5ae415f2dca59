"""Every name a package module imports is used in that module.

Deleting code can leave an import behind; this stands in for a linter's
unused-import rule.  `__init__.py` is skipped because its imports are the
package's re-exports, and `from __future__` imports change the compiler, so
they are exempt.
"""

import ast
from pathlib import Path

import pytest

import kappahopf

MODULES = sorted(
    p for p in Path(kappahopf.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in tree, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(ann) if ann is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used_names(ast.parse(part.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _used_names(tree)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .elements import Element, Gen\n"
        "def f(x: 'Element') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["json", "Gen"]
