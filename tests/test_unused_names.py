"""Every public top-level function and class of the package has a user, every
public method and property of a public class is read, and every defaulted
parameter of a public function has a caller that sets it.

A name counts as used when it is read as a ``Name``, an ``Attribute`` or an
import alias somewhere in ``src/sdnmanet``, in a non-test ``bench/*.py``, or
in ``tests/test_acceptance.py``; a method or property, when it is read there
as an ``Attribute``. A parameter counts as set when a call there passes it by
keyword or by position. Unit tests alone do not keep a name or a knob alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdnmanet"


def public_nodes():
    """``module.name`` of each public top-level function and class, with its node."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node


def user_trees():
    users = [*PACKAGE.glob("*.py"),
             *(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")),
             ROOT / "tests" / "test_acceptance.py"]
    return [ast.parse(path.read_text(encoding="utf-8")) for path in users]


def referenced_names():
    names = set()
    for tree in user_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    return names


def test_every_public_function_and_class_has_a_user():
    used = referenced_names()
    unused = [qualified for qualified, node in public_nodes() if node.name not in used]
    assert unused == []


def test_every_public_method_and_property_of_a_public_class_is_read():
    read = {node.attr for tree in user_trees() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [f"{qualified}.{item.name}"
              for qualified, node in public_nodes() if isinstance(node, ast.ClassDef)
              for item in node.body
              if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not item.name.startswith("_") and item.name not in read]
    assert unread == []


def sets(call, name, index):
    """Whether ``call`` passes parameter ``name``, at position ``index`` (None
    when keyword-only), by keyword, by position, or through ``*`` or ``**``."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_defaulted_parameter_of_a_public_function_is_set_by_a_caller():
    calls = [node for tree in user_trees() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    for qualified, node in public_nodes():
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
        defaulted += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        mine = [call for call in calls
                if getattr(call.func, "id", getattr(call.func, "attr", None)) == node.name]
        unset += [f"{qualified}({name})" for name, index in defaulted
                  if not any(sets(call, name, index) for call in mine)]
    assert unset == []
