import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sparsefrac"


def test_no_private_names_imported_across_modules():
    # a module's underscore names are its own; dunders such as __version__ are public
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("sparsefrac")):
                found += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_")
                          and not (alias.name.startswith("__") and alias.name.endswith("__"))]
    assert found == []
