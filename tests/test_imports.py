"""No module of the package imports a name it never uses, and no function
has a parameter it never reads or a local it assigns and never reads.  No
linter is installed, so this walks each module's syntax tree: a name bound
by an import must be read somewhere, in code or in a string annotation,
and a function's parameters and assigned locals must be read in its body
(nested functions included).  ``self``, ``cls`` and names starting with
``_`` are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hybridpi"


def _imported(tree: ast.Module) -> dict:
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for a in filter(None, annotations):
        for sub in ast.walk(a):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_has_no_unused_imports(path):
    tree = ast.parse((SRC / path).read_text())
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path} imports names it never uses: {', '.join(unused)}"


def _unread_in(fn) -> list:
    a = fn.args
    params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
    loads, stores = set(), {}
    for stmt in fn.body if isinstance(fn.body, list) else [fn.body]:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
                else:
                    stores.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                loads.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                loads.update(node.names)
    exempt = loads | {"self", "cls"}
    name = getattr(fn, "name", "<lambda>")
    out = [f"{name}: parameter {p}" for p in params if p not in exempt and not p.startswith("_")]
    return out + [f"{name}: local {n} (line {line})" for n, line in stores.items()
                  if n not in exempt and not n.startswith("_")]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_functions_read_their_parameters_and_locals(path):
    tree = ast.parse((SRC / path).read_text())
    unread = [
        u
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for u in _unread_in(fn)
    ]
    assert not unread, f"{path} has names it never reads: {'; '.join(unread)}"
