"""Every public name of ``activech`` is used by the package or the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "activech"

# mu_planar has no caller yet; the paper-claim checks of `converge` are to call it,
# and this exception goes once they do
NOT_YET_CALLED = {"mu_planar"}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _used_names() -> set[str]:
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += list((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    exports = _exports()
    assert NOT_YET_CALLED <= exports
    assert sorted(exports - _used_names() - NOT_YET_CALLED) == []
