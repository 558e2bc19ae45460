"""Every top-level function and class in src/cuspidal, and every method of
those classes, is used somewhere.

A function or class counts as used when its name occurs as a name, an
attribute or an imported name anywhere in src/ or perfbench/, a method only
when its name occurs as an attribute there: a local variable of the same
name does not call it.  Dunder methods are exempt.  References from tests/
do not count: code that only a test calls belongs in the test.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _definitions(tree, module):
    """(where, name, is a method) for each definition of the module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("__")):
                    yield f"{module}.{node.name}.{member.name}", member.name, True


def test_no_unreferenced_definitions():
    names, attributes = set(), set()
    defined = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if path.is_relative_to(ROOT / "src" / "cuspidal"):
            defined.extend(_definitions(tree, path.stem))
    assert [where for where, name, method in defined
            if name not in attributes and (method or name not in names)] == []
