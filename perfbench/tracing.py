"""In-process replay of the CLI jobs, with spans around each layer.

`replay` runs one job spec through `cli.main`, the CLI's own entry point,
so one process can replay a whole pass down the same code path as the
subprocesses.  With a `Tracer` installed, every call into a layer is a span
(name, start, end, parent) kept in memory: `Tracer.install` wraps the
public functions the layers call of one another, and the CLI's own file
readers and writers, in every module that imported them.  A layer's time
is its spans' self time, their duration minus that of the spans nested in
them, so nothing is counted twice.
"""

from __future__ import annotations

import functools
import io
import json
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

from boxicity import boxes, certificates, cli, derivation, exact, figure1, graphs, posets
from boxicity.derivation import step_from_dict as _step_from_dict
from boxicity.graphs import graph_from_dict as _graph_from_dict

# layer -> (module, function) pairs whose calls are that layer's spans: the
# packages' public functions, and the CLI's helpers that read a graph and
# serialise an output file
WRAPPED = {
    "graphs.load": [(cli, "_load_graph")],
    "boxes.decode": [(boxes, "box_rep_from_dict")],
    # the CLI's canonical json.dumps of every file it writes
    "boxes.encode": [(boxes, "box_rep_to_dict"), (cli, "_dump")],
    "boxes.build": [(boxes, name) for name in (
        "forest_two_dim", "acyclic_pipeline", "girth4_pipeline", "roberts_representation",
        "sur1_compose", "sur2_compose", "sur2bis_double", "pair_gadget",
        "from_interval_reps")],
    "boxes.verify": [(boxes, "verify_representation")],
    "figure1.build": [(figure1, "figure1_gadget")],
    "figure1.check": [(figure1, "figure1_problems")],
    "certificates.validate": [(certificates, "acyclic_coloring_problems"),
                              (certificates, "validate_acyclic_coloring")],
    "derivation.decode": [(derivation, "step_from_dict")],
    "derivation.dry_run": [(derivation, "validate_script")],
    "derivation.assemble": [(derivation, "assemble")],
    "exact.refute": [(exact, "boxicity_at_most")],  # renamed per call, see _after_at_most
    "exact.finder": [(exact, name) for name in (
        "proper_coloring", "acyclic_coloring", "chromatic_number",
        "acyclic_chromatic_number", "find_forest_stable_partition", "find_pair_cover")],
    "posets.realizer": [(posets, name) for name in (
        "chi_realizer_extensions", "starred_poset", "intersect_orders",
        "is_linear_extension")],
    "posets.dimension": [(posets, "poset_dimension_at_most")],
}
CERTIFICATE_CLASSES = ("PairCover", "Separation", "CycleClassification",
                       "ForestStablePartition")
MODULES = (boxes, certificates, cli, derivation, exact, figure1, graphs, posets)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    def open(self, name) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        inner = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                inner[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - inner[i]
        return out

    # wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(index, args, result)
            return result

        return traced

    def _after_verify(self, index, args, result):
        n = args[1].n
        self.counts["boxes.verify_pairs"] += n * (n - 1) // 2

    def _after_at_most(self, index, args, result):
        """Split the oracle by outcome: a call that finds a witness is the
        witness phase; a refuted or capped d (d < answer as far as the
        search got) is refutation."""
        if result.value is not None:
            self.spans[index][0] = "exact.witness"
            self.counts["exact.witness_nodes"] += result.nodes
        else:
            self.counts["exact.refute_nodes"] += result.nodes
            if result.status == exact.STATUS_BUDGET:
                self.counts["exact.capped_calls"] += 1

    def install(self) -> None:
        after = {"boxes.verify": self._after_verify, "exact.refute": self._after_at_most}
        for layer, targets in WRAPPED.items():
            for home, attr in targets:
                orig = getattr(home, attr)
                traced = self._wrap(layer, orig, after.get(layer))
                for module in MODULES:
                    if getattr(module, attr, None) is orig:
                        setattr(module, attr, traced)
                        self._undo.append((module, attr, orig))
        for cls_name in CERTIFICATE_CLASSES:
            cls = getattr(certificates, cls_name)
            own = cls.__dict__.get("validate")
            cls.validate = self._wrap("certificates.validate", cls.validate)
            self._undo.append((cls, "validate", own))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(target, attr)
            else:
                setattr(target, attr, orig)
        self._undo.clear()


def _derive_inputs(spec: dict):
    """The graph and script of a derive job, read with the functions the
    tracer leaves alone, so reading them twice is not timed twice."""
    with open(spec["graph"]) as handle:
        G = _graph_from_dict(json.load(handle))
    with open(spec["script"]) as handle:
        return G, _step_from_dict(json.load(handle))


def replay(spec: dict, argv: list[str], tracer: Tracer | None = None) -> tuple[int, str]:
    """Runs one job through `cli.main` in this process and returns its exit
    code and what it printed, as the subprocess would.  A derive job is
    also dry-run with `validate_script`, which the CLI does not call, so
    that the dry run is timed; the report's step counts go to `tracer`."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            if spec["cmd"] == "derive":
                derivation.validate_script(*_derive_inputs(spec))
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # as an uncaught exception exits the interpreter
            code = 1
    if tracer is not None and spec["cmd"] == "derive" and code == cli.EXIT_OK:
        with open(spec["report"]) as handle:
            steps = json.load(handle)["steps"]
        tracer.counts["derivation.steps"] += len(steps)
        tracer.counts["derivation.step_vertices"] += sum(s["vertices"] for s in steps)
    return code, out.getvalue()
