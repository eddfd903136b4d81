"""Source-level properties of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "thetahecke"


def test_no_assert_statements():
    """python -O strips assert, so every check in the package raises explicitly."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert found == []
