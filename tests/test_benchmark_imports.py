"""Every rieszkit name the benchmark under perfbench/ imports still resolves.

The benchmark runs from its own checkout against the package's public and
private names, so renaming or deleting one breaks it without failing any
other test. This reads perfbench/ and changes nothing there.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _imported_names():
    """(module, name) for each name a ``from rieszkit... import`` in perfbench/*.py takes."""
    names = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "rieszkit":
                names += [(node.module, alias.name) for alias in node.names]
    return names


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # `from rieszkit import cli` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_imports_resolve():
    names = _imported_names()
    assert names  # the parse found the traced run's imports
    missing = [f"{module}.{name}" for module, name in names if not _resolves(module, name)]
    assert not missing, missing
