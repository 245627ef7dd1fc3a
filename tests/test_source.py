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
