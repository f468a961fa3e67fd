"""Only core.py, which defines the models and their private helpers, reads
or writes an underscore attribute of anything but self or cls: every other
module of lqrlab uses the models' public fields.  Imports of private
functions (from .core import _gains) are ImportFrom nodes, not attribute
reads, and stay allowed, as do dunder names such as np.__version__."""

import ast
from pathlib import Path

import lqrlab

SRC = Path(lqrlab.__file__).resolve().parent


def _private_reads(path: Path) -> list[str]:
    """path:line .name of each underscore attribute the module takes from something other than self or cls."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
            continue
        dunder = node.attr.startswith("__") and node.attr.endswith("__")
        own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
        if not (dunder or own):
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
    return found


def test_only_core_reads_private_attributes():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")
    assert len(modules) >= 8  # the package's other modules, not an empty glob
    found = [read for p in modules for read in _private_reads(p)]
    assert not found, found
