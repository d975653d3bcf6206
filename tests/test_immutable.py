"""Term nodes are never mutated once built.  The nodes are plain
dataclasses, so nothing stops a write at run time; this walks each
module's syntax tree instead.  A term-node field (a dataclass field of a
process, prefix, expression, name or agent class, or an attribute that
such a class's ``__init__`` sets) is written only as ``self.<field>``
inside an ``__init__``, and the derived facts kept on a node are written
only by ``syntax.memo``: nothing else calls ``setattr`` or
``__setattr__``, writes through ``__dict__`` or ``vars``, or stores an
underscored attribute on an object other than ``self`` or ``cls``."""

import ast
import dataclasses
import typing
from pathlib import Path

from hybridpi import kernel, syntax

SRC = Path(__file__).resolve().parent.parent / "src" / "hybridpi"


def _node_classes() -> set:
    out = {syntax.Name}
    for union in (syntax.Process, syntax.Prefix, syntax.Expr, kernel.Agent):
        out |= set(typing.get_args(union))
    return out | {sub for c in out for sub in c.__subclasses__()}


def _trees() -> dict:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _methods(tree: ast.Module):
    """(class name or None, function) for every function in the module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for fn in ast.walk(node):
                if isinstance(fn, ast.FunctionDef):
                    yield node.name, fn
        elif isinstance(node, ast.FunctionDef):
            for fn in ast.walk(node):
                if isinstance(fn, ast.FunctionDef):
                    yield None, fn


def _self_stores(fn: ast.FunctionDef) -> set:
    return {
        t.attr
        for node in ast.walk(fn)
        for t in _store_targets(node)
        if isinstance(t.value, ast.Name) and t.value.id == "self"
    }


def _store_targets(node) -> list:
    """The attribute targets node assigns or deletes, tuples unpacked."""
    if isinstance(node, ast.Assign):
        roots = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        roots = [node.target]
    elif isinstance(node, ast.Delete):
        roots = node.targets
    else:
        return []
    return [a for r in roots for a in ast.walk(r) if isinstance(a, ast.Attribute) and not isinstance(a.ctx, ast.Load)]


def node_fields(trees: dict) -> set:
    classes = _node_classes()
    out = {f.name for c in classes if dataclasses.is_dataclass(c) for f in dataclasses.fields(c)}
    names = {c.__name__ for c in classes}
    for tree in trees.values():
        for cls, fn in _methods(tree):
            if cls in names and fn.name == "__init__":
                out |= _self_stores(fn)
    return out


def field_writes(trees: dict, fields: set) -> list:
    """Writes to a node field other than self.<field> in an __init__."""
    bad = []
    for path, tree in trees.items():
        for _cls, fn in _methods(tree):
            for node in ast.walk(fn):
                for t in _store_targets(node):
                    own = fn.name == "__init__" and isinstance(t.value, ast.Name) and t.value.id == "self"
                    if t.attr in fields and not own:
                        bad.append(f"{path}:{t.lineno} {fn.name}: {ast.unparse(t)}")
    return bad


def _is_back_door(node) -> bool:
    if isinstance(node, ast.Call):
        f = node.func
        return (isinstance(f, ast.Name) and f.id in ("setattr", "delattr")) or (
            isinstance(f, ast.Attribute) and f.attr in ("__setattr__", "__delattr__")
        )
    # x._k = v (or del x._k) on anything but self or cls: a memo stored by hand
    if any(
        t.attr.startswith("_") and not (isinstance(t.value, ast.Name) and t.value.id in ("self", "cls"))
        for t in _store_targets(node)
    ):
        return True
    # vars(x)[k] = v and x.__dict__[k] = v
    return any(
        isinstance(t, ast.Subscript)
        and (
            (isinstance(t.value, ast.Call) and isinstance(t.value.func, ast.Name) and t.value.func.id == "vars")
            or (isinstance(t.value, ast.Attribute) and t.value.attr == "__dict__")
        )
        for t in getattr(node, "targets", [getattr(node, "target", None)])
    )


def back_doors(trees: dict) -> list:
    """setattr, __setattr__, dict writes and underscored attribute stores
    on other objects, anywhere but syntax.memo."""
    bad = []
    for path, tree in trees.items():
        for _cls, fn in _methods(tree):
            if (path, fn.name) == ("syntax.py", "memo"):
                continue
            for node in ast.walk(fn):
                if _is_back_door(node):
                    bad.append(f"{path}:{node.lineno} {fn.name}: {ast.unparse(node)}")
    return bad


def test_the_node_classes_are_the_ones_this_test_guards():
    names = {c.__name__ for c in _node_classes()}
    assert {"Sum", "_Deferred", "Op", "Continuous", "Name", "Proc", "Concretion"} <= names
    fields = node_fields(_trees())
    assert {"branches", "tag", "body", "chan", "src", "sub", "args", "restricted"} <= fields


def test_no_term_node_field_is_written_outside_an_init():
    trees = _trees()
    bad = field_writes(trees, node_fields(trees))
    assert not bad, f"term-node fields written after construction: {'; '.join(bad)}"


def test_only_memo_writes_past_the_fields():
    bad = back_doors(_trees())
    assert not bad, f"attribute writes outside syntax.memo: {'; '.join(bad)}"


def test_the_checks_catch_a_write():
    tree = ast.parse(
        "def step(p):\n    p.tag = 'x'\n    object.__setattr__(p, 'body', None)\n    vars(p)['left'] = 1\n"
        "    p._trans = (0, None)\n    q, p.left._pruned = p, True\n    self._agent = cls._instance = None\n"
    )
    assert field_writes({"kernel.py": tree}, {"tag"}) == ["kernel.py:2 step: p.tag"]
    assert sorted(bad.split()[0] for bad in back_doors({"kernel.py": tree})) == ["kernel.py:3", "kernel.py:4", "kernel.py:5", "kernel.py:6"]
