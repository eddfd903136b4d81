"""Source-level properties of the package."""

import ast
import importlib.util
import subprocess
import sys
from collections import Counter
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(fn) -> set:
    """The names a function binds: its parameters, the names it assigns and
    the functions and classes it defines; a nested function's own are its own."""
    bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def _names(node, local: frozenset = frozenset()) -> Counter:
    """References under node: names, attributes and import aliases, a name
    local to its enclosing function aside (a doctest is a string)."""
    if isinstance(node, _SCOPES):
        local = local | _locals(node)
    found = Counter()
    if isinstance(node, ast.Name):
        if node.id not in local:
            found[node.id] += 1
    elif isinstance(node, (ast.Attribute, ast.alias)):
        found[node.attr if isinstance(node, ast.Attribute) else node.name] += 1
    for child in ast.iter_child_nodes(node):
        found.update(_names(child, local))
    return found


def test_a_function_local_is_no_reference():
    """A parameter or an assigned name that shares a package function's name
    does not use that function; a call from another function does."""
    source = (
        "def half(n):\n    return n\n"
        "def digits(x, half=2):\n    return x // half\n"
        "def bits(x):\n    half = x >> 1\n    return [half for half in (half,)]\n"
    )
    assert _names(ast.parse(source))["half"] == 0
    assert _names(ast.parse(source + "def caller():\n    return half(1)\n"))["half"] == 1


def _definitions() -> tuple[dict, dict]:
    """The package's parsed modules by name, and its top-level functions and
    methods, dunders aside, keyed module.name or module.Class.name."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            owner, body = (node.name + ".", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
            for fn in body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    defs[f"{module}.{owner}{fn.name}"] = fn
    return trees, defs


def test_every_package_function_is_used():
    """Every function and method of the package, dunders aside, is named in the
    package outside its own body or is traced by the bench: a definition only
    the tests call belongs in tests/oracles.py."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    trees, defs = _definitions()
    refs = sum(map(_names, trees.values()), Counter())
    traced = {f"{module}.{attribute}" for _, module, attribute, _ in tracer.TARGETS}
    # a name used only inside its own body, as a recursion, is not used
    unused = [n for n, fn in defs.items() if refs[fn.name] == _names(fn)[fn.name] and n not in traced]
    assert len(defs) > 100
    assert unused == []


# names defined more than once in the package, each with its reason.  References
# are matched by bare name, so test_every_package_function_is_used counts a use
# of one definition as a use of every definition sharing its name
SHARED = {
    "support": "LaurentPoly and HeckeElem each list their terms in print order",
}


def test_shared_names_are_listed():
    """Every function or method name defined more than once in the package is
    in SHARED, so a new collision, which could hide an unused definition from
    test_every_package_function_is_used, fails here; a name no longer shared
    leaves SHARED."""
    counts = Counter(fn.name for fn in _definitions()[1].values())
    assert sorted(name for name, n in counts.items() if n > 1) == sorted(SHARED)


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


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Every invocation imports thetahecke.cli in a fresh interpreter, where
    dataclasses (which imports inspect) and typing took about 7 and 6 ms of
    it; -S keeps site, which may import typing itself, out of the count."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import thetahecke.cli; "
        "print(thetahecke.cli.__file__); print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    path, loaded = proc.stdout.splitlines()
    assert path == str(SRC / "cli.py")
    assert loaded == "[]"
