"""Module boundaries: no coopforge module imports another module's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coopforge"


def test_no_module_imports_private_names():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "coopforge":
                continue
            offenders += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []
