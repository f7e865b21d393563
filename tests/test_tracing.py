"""The benchmark's tracer finds the layer functions it times by name.

perfbench/tracing.py wraps `(module, name)` pairs and certificate classes
by attribute; a renamed or deleted function would make `--trace 1` fail or
time nothing.  The file is imported by path and left as it is.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_function_still_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, targets in tracing.WRAPPED.items():
        for module, name in targets:
            assert callable(getattr(module, name, None)), f"{layer}: {module.__name__}.{name}"
    for cls_name in tracing.CERTIFICATE_CLASSES:
        assert callable(getattr(tracing.certificates, cls_name).validate), cls_name
