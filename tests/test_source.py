"""Source-level properties of the package."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "thetahecke"


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


def test_traced_names_resolve():
    """Every (module, attribute) the bench tracer wraps exists, so no layer
    metric goes absent from a bench run."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module, attribute, _ in tracer.TARGETS:
        # as the tracer looks them up: the name must sit in its owner's own namespace
        owner, _, name = attribute.rpartition(".")
        holder = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        holder = getattr(holder, owner, None) if owner else holder
        if not callable(getattr(holder, "__dict__", {}).get(name)):
            missing.append(f"{module}.{attribute}")
    assert len(tracer.TARGETS) >= 30
    assert missing == []
