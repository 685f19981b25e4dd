"""The README's Python examples run against the package as documented."""

import ast
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
