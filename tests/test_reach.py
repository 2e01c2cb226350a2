"""Every definition in the package is reached: no dead helpers in src/.

Each module-level function or class must be read somewhere in
``src/cartaninv`` as a ``Name`` or an ``Attribute``, and each method that is
not a dunder as an ``Attribute``, off an instance or off its class by name;
a local variable that shares a method's name does not reach it.  Either may
instead be named in ``perfbench/spans.py``, which rebinds the functions it
traces by name.  A helper that only the tests use belongs in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cartaninv"
SPANS = ROOT / "perfbench" / "spans.py"

# entry points that nothing in src/ calls by name
ALLOWED = {
    "cli.main",  # the console script
    "cli._Parser.error",  # argparse calls its override itself
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, class or None, name) for each module-level def and
    class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", None, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", node.name, item.name


def _references(trees, classes):
    """Names read as a Name, attribute names read off anything but a package
    class, and ``Class.attr`` for an attribute read off a package class by
    name, which reaches only that class's member."""
    names, attrs, qualified = set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                owner = node.value
                if isinstance(owner, ast.Name) and owner.id in classes:
                    qualified.add(f"{owner.id}.{node.attr}")
                else:
                    attrs.add(node.attr)
    return names, attrs, qualified


def _named_in_spans():
    names = set()
    for node in ast.walk(ast.parse(SPANS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_definition_is_reached():
    trees = _trees()
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    names, attrs, qualified = _references(trees, classes)
    spans = _named_in_spans()
    unreached = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for qualname, owner, name in _definitions(module, tree):
            if owner is None:
                reached = name in names or name in attrs
            else:
                reached = name in attrs or f"{owner}.{name}" in qualified
            reached = reached or name in spans
            if not reached and qualname not in ALLOWED:
                unreached.append(qualname)
    assert not unreached, f"defined in src/ but reached by nothing: {unreached}"
