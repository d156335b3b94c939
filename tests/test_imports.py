"""Every module-level import in src/, tests/ and demos/ is used.

No linter ships with the toolchain, so this reads each file's syntax tree:
a name bound by a top-level `import` or `from ... import` must occur as a
name somewhere else in the file.  The package `__init__.py` is exempt: its
imports are the re-exported public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", "") != "__future__":
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append("%s:%d %s" % (path.relative_to(ROOT), stmt.lineno, name))
    return unused


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []
