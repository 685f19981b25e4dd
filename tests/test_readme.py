"""The README's Python examples run against the package as documented."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import addisgraph

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_python_blocks_run():
    assert BLOCKS
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})


def test_readme_imports_only_public_names():
    """Top-level names the README imports are the ones ``__all__`` exports."""
    imported = {
        alias.name
        for block in BLOCKS
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "addisgraph"
        for alias in node.names
    }
    assert imported and imported <= set(addisgraph.__all__)


def test_readme_module_names_resolve():
    """Every backticked ``module.name`` the README gives for a package module
    names something that module has."""
    modules = {m.name for m in pkgutil.iter_modules(addisgraph.__path__)}
    refs = re.findall(r"`([a-z_]+)\.([A-Za-z_][A-Za-z_0-9]*)`", README.read_text())
    named = [(mod, name) for mod, name in refs if mod in modules]
    assert named
    for mod, name in named:
        module = importlib.import_module(f"addisgraph.{mod}")
        assert hasattr(module, name), f"{mod}.{name}"
