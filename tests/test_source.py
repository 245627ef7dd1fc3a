"""Checks on the package source itself."""

import ast
import os

import petersonlab

SRC = os.path.dirname(petersonlab.__file__)


def test_no_assert_statements():
    """Mathematical checks must raise explicitly: `python -O` strips
    `assert` statements."""
    found = []
    for root, _, files in os.walk(SRC):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += ["%s:%d" % (os.path.relpath(path, SRC), node.lineno)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src: " + ", ".join(found)


def test_no_unused_imports():
    """Every name a module imports is read somewhere in that module."""
    found = []
    for root, _, files in os.walk(SRC):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        found.append("%s:%d %s" % (os.path.relpath(path, SRC),
                                                   node.lineno, bound))
    assert not found, "unused imports in src: " + ", ".join(found)
