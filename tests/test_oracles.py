"""The oracles stay independent of the code they check."""

import ast
import inspect
from pathlib import Path

import rvsketch

PUBLIC = {name for name, value in vars(rvsketch).items()
          if not name.startswith("_") and not inspect.ismodule(value)}


def test_oracles_import_only_public_top_level_names():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "rvsketch", alias.name
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "rvsketch"):
            assert (node.level, node.module) == (0, "rvsketch"), node.module
            imported |= {alias.name for alias in node.names}
    assert imported   # the oracles do use the public API
    assert imported <= PUBLIC, imported - PUBLIC
