"""Every import in the package's modules is used.

Deleting a call can leave its import behind; this test finds such names
with the standard library's `ast`, so no linter is needed.  `__init__.py`
re-exports names and `__future__` imports switch on features, so both are
left out.
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
