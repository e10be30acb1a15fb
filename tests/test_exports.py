"""Package surface: every declared name resolves, and the package imports
only declared names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import haarshift


def _modules():
    return [
        importlib.import_module(f"haarshift.{info.name}")
        for info in pkgutil.iter_modules(haarshift.__path__)
    ]


def test_every_declared_name_resolves():
    for module in _modules():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_package_imports_only_declared_names():
    tree = ast.parse(Path(haarshift.__file__).read_text())
    undeclared = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"haarshift.{node.module}")
            undeclared += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in module.__all__
            ]
    assert undeclared == []
