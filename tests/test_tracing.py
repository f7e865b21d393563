"""The benchmark's tracer finds the layer functions it times by name.

perfbench/tracing.py wraps `(module, name)` pairs and certificate classes
by attribute; a renamed or deleted function would make `--trace 1` fail or
time nothing.  The file is imported by path and left as it is.

The same names bound the package's public surface: every other public
function or class in src/ must have a caller in src/.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
SOURCES = sorted((ROOT / "src" / "boxicity").glob("*.py"))


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_layer_function_still_resolves():
    tracing = load_tracing()
    for layer, targets in tracing.WRAPPED.items():
        for module, name in targets:
            assert callable(getattr(module, name, None)), f"{layer}: {module.__name__}.{name}"
    for cls_name in tracing.CERTIFICATE_CLASSES:
        assert callable(getattr(tracing.certificates, cls_name).validate), cls_name


def test_every_public_name_has_a_caller_in_the_package():
    """A public module-level def or class is used somewhere in src/ (as a
    name, an attribute or an import alias; the def statement itself names
    no Name node), or the tracer wraps it."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    # the names the tracer wraps count as used
    used = {name for targets in load_tracing().WRAPPED.values() for _, name in targets}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []
