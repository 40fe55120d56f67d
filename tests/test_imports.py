"""Every import in the package's modules is used, and so is every private
module-level function and class.

Deleting a call can leave its import, or a private helper, behind; these
tests find such names with the standard library's `ast`, so no linter is
needed.  `__init__.py` re-exports names and `__future__` imports switch on
features, so both are left out of the import check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arcmaps"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_unused_imports_detects_a_dead_name():
    source = "import math\nfrom typing import Optional, Sequence\n\nx: Optional[int] = math.pi\n"
    assert unused_imports(source) == ["Sequence"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_defs(sources: dict[str, str]) -> list[str]:
    """`module.name` of each private module-level function or class that no
    module of `sources` (module name -> source) references."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and not node.name.startswith("__"):
                defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_dead_private_defs_detects_a_dead_helper():
    sources = {
        "a": "def _live():\n    pass\n\n\ndef _dead():\n    pass\n\n\nclass _Used:\n    pass\n",
        "b": "from .a import _live\nfrom . import a\n\nx = _live() or a._Used\n",
    }
    assert dead_private_defs(sources) == ["a._dead"]


def test_no_dead_private_defs():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert dead_private_defs(sources) == []
