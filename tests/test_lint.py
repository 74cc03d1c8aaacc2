"""Source-level rules checked by walking the library's syntax trees."""

import ast
from pathlib import Path

import membercover

SRC = Path(membercover.__file__).resolve().parent


def test_no_assert_statements():
    # self-checks must survive python -O, which strips assert statements;
    # raise RuntimeError (or AssertionError explicitly) instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
