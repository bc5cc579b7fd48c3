"""Module boundaries: no coopforge module imports another module's private names,
only the trainer imports the training losses, metrics import nothing of
coopforge but its random streams, gradients travel only as ``backward``'s
return value, only ``Net.load`` rebinds a parameter, only scorers carry an
energy, and every name the benchmark imports, wraps or patches still exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coopforge"


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


def _coopforge_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of every coopforge module that ``path`` imports from."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "coopforge":
            continue
        module = (node.module or "").removeprefix("coopforge").lstrip(".")
        found += [(node.lineno, module)] if module else [(node.lineno, a.name) for a in node.names]
    return found


def test_metrics_keep_their_own_definitions():
    # a criterion's bound must not move when a training loss is rescaled
    offenders = [
        f"{path.name}:{line} {module}"
        for path in sorted(SRC.glob("*.py"))
        for line, module in _coopforge_imports(path)
        if (module == "objectives" and path.name != "trainer.py") or (path.name == "metrics.py" and module != "rng")
    ]
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


def _data_stores(node, scope=()) -> list[tuple[str, int]]:
    """(enclosing class/function path, line) of every ``<x>.data`` assignment target under ``node``."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _data_stores(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Attribute) and child.attr == "data" and isinstance(child.ctx, ast.Store):
            found.append((".".join(scope), child.lineno))
        found += _data_stores(child, scope)
    return found


def test_only_net_load_rebinds_parameters():
    # a parameter is a view of its network's vector; rebinding its data
    # anywhere but Net.load would detach it from the vector Adam steps
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _data_stores(ast.parse(path.read_text(), filename=str(path))):
            if (path.name, scope.split(".")[0]) == ("tensor.py", "Tensor") or (path.name, scope) == ("networks.py", "Net.load"):
                continue
            offenders.append(f"{path.name}:{line} {scope}")
    assert offenders == []


def test_names_the_tracer_wraps_exist():
    # perfbench/tracer.py looks these up by name; read them without importing perfbench
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "NETWORKS")
    }
    assert tables.keys() == {"FUNCTIONS", "NETWORKS"}
    networks = importlib.import_module("coopforge.networks")
    missing = [f"{module}.{attr}" for _, module, attr in tables["FUNCTIONS"] if not hasattr(importlib.import_module(module), attr)]
    missing += [f"networks.{cls}.forward" for cls in tables["NETWORKS"] if "forward" not in vars(getattr(networks, cls, object))]
    assert tables["FUNCTIONS"] and tables["NETWORKS"] and missing == []


def test_only_scorers_carry_an_energy():
    # Net is parameter bookkeeping; the energy and the score's input gradient belong to Scorer
    net = importlib.import_module("coopforge.networks").Net
    assert [name for name in dir(net) if name == "score_grad" or name.startswith("energy_")] == []


def test_names_the_benchmark_imports_exist():
    # perfbench imports these by name and patches the trainer's two iteration
    # functions; parse it without importing it
    missing = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coopforge":
                module = importlib.import_module(node.module)
                missing += [
                    f"{path.name}:{node.lineno} {node.module}.{a.name}"
                    for a in node.names
                    if not hasattr(module, a.name) and importlib.util.find_spec(f"{node.module}.{a.name}") is None
                ]
    trainer = importlib.import_module("coopforge.trainer")
    missing += [f"trainer.{name}" for name in ("train_iteration", "train_sequence_iteration") if not hasattr(trainer, name)]
    assert missing == []
