"""The library keeps only what its verdicts use.

Every function, class, method and module-level constant defined in
``src/gcstar/`` must be named somewhere else in the package (outside its own
definition and ``__init__.py``) or in ``gcbench/``; a name that only tests
reach belongs in the tests or nowhere.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gcstar"

# Kept although only tests name them, each for its stated purpose.
EXEMPT = {
    "fixtures.py": "the canonical instances of the tests and the CLI fixtures",
    "generator_matrix": "the dense reference the tests compare the block images against",
    "truncation": "the dense reference the tests compare the finite sections against",
    "klein_four": "groupoid.py is the one home of the group builders",
}


def _names(node):
    """Every identifier ``node`` names: names, attributes, and string
    constants spelling a dotted name (as ``gcbench/tracer.py`` names its
    targets)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def _definitions(tree):
    """(name, defining node) of every function, class and method, and of
    every name a module-level assignment binds."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = [(node.name, node) for node in ast.walk(tree) if isinstance(node, defs)]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(sub.id, node) for target in targets
                      for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return found


def unreached_names(package=PACKAGE):
    """(module, name) of each definition in ``package`` that nothing else names."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    outside = set()
    for path in sorted((ROOT / "gcbench").glob("*.py")):
        outside.update(_names(ast.parse(path.read_text(encoding="utf-8"))))

    counts = {}
    for tree in modules.values():
        for name in _names(tree):
            counts[name] = counts.get(name, 0) + 1
    unreached = []
    for module, tree in modules.items():
        if module in EXEMPT:
            continue
        for name, node in _definitions(tree):
            if name in EXEMPT or (name.startswith("__") and name.endswith("__")):
                continue
            own = sum(1 for n in _names(node) if n == name)
            if counts.get(name, 0) == own and name not in outside:
                unreached.append((module, name))
    return unreached


def test_every_library_name_is_reached_outside_the_tests():
    assert unreached_names() == []


def test_a_module_constant_that_nothing_names_is_reported(tmp_path):
    (tmp_path / "a.py").write_text("USED = 1\nUNNAMED = 2\n\n\ndef f():\n    return USED\n")
    (tmp_path / "b.py").write_text("from a import f\n\nf()\n")
    assert unreached_names(tmp_path) == [("a.py", "UNNAMED")]


def test_every_tracer_target_resolves_in_the_package():
    """A traced name that the package no longer defines fails here, not in
    the traced benchmark run."""
    tree = ast.parse((ROOT / "gcbench" / "tracer.py").read_text(encoding="utf-8"))
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    missing = []
    for _, module, attr in ast.literal_eval(targets):
        found = importlib.import_module(module)
        for part in attr.split("."):
            found = getattr(found, part, None)
        if not callable(found):
            missing.append(f"{module}.{attr}")
    assert missing == []
