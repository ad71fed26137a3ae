"""Every public top-level function and class of the package has a user.

A name counts as used when it is read as a ``Name``, an ``Attribute`` or an
import alias somewhere in ``src/sdnmanet``, in a non-test ``bench/*.py``, or
in ``tests/test_acceptance.py``. Unit tests alone do not keep a name alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdnmanet"


def public_definitions():
    """``module.name`` of each public top-level function and class, with its name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name


def referenced_names():
    users = [*PACKAGE.glob("*.py"),
             *(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")),
             ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    return names


def test_every_public_function_and_class_has_a_user():
    used = referenced_names()
    unused = [qualified for qualified, name in public_definitions() if name not in used]
    assert unused == []
