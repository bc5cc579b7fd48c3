"""Module boundaries: no coopforge module imports another module's private names,
and gradients travel only as ``backward``'s return value."""

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


def test_no_module_keeps_gradient_buffers():
    # backward returns the gradients it is asked for; a .grad buffer would
    # bring back the zero-then-read protocol every caller had to follow
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("grad", "zero_grad", "accumulate_grad"):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert offenders == []
