"""Packaging guarantees of the library itself."""

import ast
import sys
from pathlib import Path

import diffrest


def test_library_imports_only_the_standard_library():
    for path in sorted(Path(diffrest.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "diffrest", (path.name, name)
