"""The benchmark's tracer finds the layer functions it times by name.

perfbench/tracing.py wraps `(module, name)` pairs and certificate classes
by attribute; a renamed or deleted function would make `--trace 1` fail or
time nothing.  The file is imported by path and left as it is.

The same names bound the package's public surface: every public function
or class in src/ must have a caller in src/, except the few pinned ones
that only the tracer keeps.  Every *_from_dict decoder, timed by the
tracer or not, reads its document through graphs.fields.
"""

import ast
import importlib.util
import json
from pathlib import Path

from util import script_doc

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


# public functions whose only callers are the tests and the tracer, which
# times them as layers
TRACER_ONLY = ["derivation.validate_script", "exact.acyclic_chromatic_number",
               "exact.chromatic_number", "exact.find_pair_cover"]


def test_every_public_name_has_a_caller_in_the_package():
    """A public module-level def or class is used somewhere in src/ outside
    its own definition (as a name, an attribute or an import alias); a
    function that only calls itself has no caller.  The names the tracer
    alone keeps are pinned, so a new one shows here too."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    traced = {name for targets in load_tracing().WRAPPED.values() for _, name in targets}
    assert sorted(unused) == TRACER_ONLY
    assert {name.split(".")[1] for name in unused} <= traced


def test_every_decoder_reads_its_document_through_fields():
    """A module-level *_from_dict checks its document's keys only by
    calling graphs.fields, so no decoder keeps a key check of its own."""
    decoders = {}
    for path in SOURCES:
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, ast.FunctionDef) and top.name.endswith("_from_dict"):
                calls = {node.func.id for node in ast.walk(top)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
                decoders[f"{path.stem}.{top.name}"] = "fields" in calls
    assert len(decoders) >= 9  # the nine in graphs, boxes, certificates and derivation
    assert [name for name, ok in decoders.items() if not ok] == []


def test_the_tracer_sees_every_layer_the_cli_jobs_reach(tmp_path):
    """The CLI imports a layer's module inside the subcommand and calls
    through it, so the tracer, which replaces the module's attributes,
    records a span for every layer each job reaches."""
    from boxicity.certificates import PairCover
    from boxicity.derivation import RobertsStep, Sur1Step
    from boxicity.graphs import cycle, graph_to_dict, path, roberts_graph

    def write(name, doc):
        (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    p6 = write("p6.json", graph_to_dict(path(6)))
    c5 = write("c5.json", graph_to_dict(cycle(5)))
    k6 = write("k6.json", graph_to_dict(roberts_graph(3)))
    script = write("script.json", script_doc(
        Sur1Step(cover=PairCover(X=(0, 1), pairs=((0, 1),)), sub=RobertsStep())))
    rep, out, report = (str(tmp_path / name) for name in ("rep.json", "out.json", "report.json"))
    jobs = [
        ({"cmd": "construct"}, ["construct", "forest", p6, "-o", rep],
         {"graphs.load", "boxes.build", "boxes.verify", "boxes.encode"}),
        ({"cmd": "verify"}, ["verify", p6, rep],
         {"graphs.load", "boxes.decode", "boxes.verify"}),
        ({"cmd": "derive", "graph": k6, "script": script, "report": report},
         ["derive", k6, script, "-o", out, "--report", report],
         {"graphs.load", "derivation.decode", "derivation.dry_run", "derivation.assemble",
          "certificates.validate", "boxes.build", "boxes.verify", "boxes.encode"}),
        ({"cmd": "exact"}, ["exact", c5],
         {"graphs.load", "exact.refute", "exact.witness", "boxes.build", "boxes.verify"}),
        ({"cmd": "poset"}, ["poset", p6, "--check-dimension", "2"],
         {"graphs.load", "posets.dimension", "posets.realizer"}),
    ]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for spec, argv, layers in jobs:
            first = len(tracer.spans)
            code, _ = tracing.replay(spec, argv, tracer)
            assert code == 0, argv
            seen = {name for name, *_ in tracer.spans[first:]}
            assert layers <= seen, (argv[0], layers - seen)
    finally:
        tracer.uninstall()
