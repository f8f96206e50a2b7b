"""The benchmark imports dualmem names directly; every one of them must resolve.

``perfbench/*.py`` is parsed with ``ast``, read-only: nothing there is imported or
run. A refactor that renames or removes a name the benchmark imports from
``dualmem`` fails here instead of in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def dualmem_imports():
    """(file:line, module, name) of every ``import dualmem...`` and ``from dualmem... import name``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dualmem":
                for alias in node.names:
                    yield f"{path.name}:{node.lineno}", node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "dualmem":
                        yield f"{path.name}:{node.lineno}", alias.name, None


def test_every_dualmem_import_of_the_benchmark_resolves():
    imports = list(dualmem_imports())
    assert ("dualmem.cli", "main") in {(module, name) for _, module, name in imports}
    unresolved = []
    for where, module, name in imports:
        try:
            found = importlib.import_module(module)
        except ImportError as exc:
            unresolved.append(f"{where}: {module}: {exc}")
            continue
        if name is not None and not hasattr(found, name):
            unresolved.append(f"{where}: {module} has no {name}")
    assert unresolved == []
