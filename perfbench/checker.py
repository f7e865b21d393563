"""The benchmark's own judge of CLI outputs.

Nothing here imports the package under test: representations are checked
pair by pair with `fractions.Fraction`, realizers order by order, and
everything else against answers known in advance (roberts(n) = n, C_n = 2
for n >= 4, the boxicity of the decided G(n, 1/2) search instances, the
dimension a derivation script predicts, the planted mismatches of a
corrupted representation, the chromatic number of the poset inputs).
Checking runs after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations

_PAIR = re.compile(r"^(missing|extra): \D*\((\d+), (\d+)\)")


def load(path):
    with open(path) as handle:
        return json.load(handle)


def edge_set(graph_doc) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in graph_doc["edges"]}


def boxes_of(rep_doc, n: int) -> list[list[tuple[Fraction, Fraction]]]:
    """Per vertex 0..n-1, its d intervals as Fraction pairs."""
    d = rep_doc["d"]
    verts = rep_doc["vertices"]
    if sorted(verts, key=int) != [str(v) for v in range(n)]:
        raise ValueError("representation domain is not 0..n-1")
    out = []
    for v in range(n):
        box = verts[str(v)]
        if len(box) != d:
            raise ValueError(f"vertex {v} has {len(box)} intervals, expected {d}")
        out.append([(Fraction(*lo), Fraction(*hi)) for lo, hi in box])
    return out


def meets(a, b) -> bool:
    return all(alo <= bhi and blo <= ahi for (alo, ahi), (blo, bhi) in zip(a, b))


def mismatches(graph_doc, rep_doc, skip=frozenset()):
    """(missing, extra) pair lists, lexicographic; pairs with both ends in
    `skip` are not compared."""
    n = graph_doc["n"]
    edges = edge_set(graph_doc)
    boxes = boxes_of(rep_doc, n)
    missing, extra = [], []
    for u, v in combinations(range(n), 2):
        if u in skip and v in skip:
            continue
        adj = meets(boxes[u], boxes[v])
        if (u, v) in edges and not adj:
            missing.append((u, v))
        elif adj and (u, v) not in edges:
            extra.append((u, v))
    return missing, extra


def parse_verify_stdout(text: str):
    missing, extra = [], []
    for line in text.splitlines():
        m = _PAIR.match(line)
        if m:
            (missing if m.group(1) == "missing" else extra).append(
                (int(m.group(2)), int(m.group(3))))
    return missing, extra


def realizer_problem(graph_doc, orders) -> str | None:
    """Each order must extend the adjacency poset (u < v' per edge, with
    v' = v + n), and the orders together with the starred relation must
    cut back exactly to it."""
    n = graph_doc["n"]
    edges = edge_set(graph_doc)
    below = {(u, v + n) for u, v in edges} | {(v, u + n) for u, v in edges}
    starred = below | {(v, v + n) for v in range(n)}
    positions = []
    for L in orders:
        if sorted(L) != list(range(2 * n)):
            return "an order does not arrange the 2n elements"
        pos = {x: i for i, x in enumerate(L)}
        if any(pos[a] > pos[b] for a, b in below):
            return "an order is not a linear extension"
        positions.append(pos)
    kept = {(a, b) for a, b in starred
            if all(pos[a] < pos[b] for pos in positions)}
    if kept != below:
        return "the realizer does not cut the starred poset back"
    return None


class Checker:
    """Judges job outcomes; caches full checks of byte-identical outputs,
    since reruns of a job must reproduce the same canonical file.
    `outcomes` records each search instance's (exit code, status, value,
    lower bound, nodes), which must repeat on every rerun and every run."""

    def __init__(self):
        self._checked: dict[tuple[str, str], str | None] = {}
        self.outcomes: dict[str, tuple] = {}

    @staticmethod
    def _digest(path) -> str:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()

    def _rep_problem(self, graph_path, rep_path, d=None, skip=frozenset()):
        key = (graph_path, self._digest(rep_path))
        if key not in self._checked:
            graph_doc, rep_doc = load(graph_path), load(rep_path)
            if d is not None and rep_doc["d"] != d:
                found = f"dimension {rep_doc['d']}, expected {d}"
            else:
                try:
                    missing, extra = mismatches(graph_doc, rep_doc, skip)
                except (ValueError, KeyError, TypeError) as exc:
                    found = f"malformed representation: {exc}"
                else:
                    found = None if not missing and not extra else (
                        f"pairs differ: missing {missing[:3]} extra {extra[:3]}")
            self._checked[key] = found
        return self._checked[key]

    def problem(self, job, spec: dict, code: int, stdout: str) -> str | None:
        """None when the outcome matches the job's expectation; `spec` is
        the job's spec with this pass's file paths filled in."""
        exp = job.expect
        kind = exp["kind"]
        want_exit = exp.get("exit", 0)
        if kind == "exact":
            return self._exact_problem(job, spec, code)
        if code != want_exit:
            return f"exit {code}, expected {want_exit}"
        if kind == "rep":
            return self._rep_problem(spec["graph"], spec["out"], exp.get("d"),
                                     frozenset(exp.get("skip", ())))
        if kind == "verify_ok":
            return None if stdout.startswith("OK") else "verify did not say OK"
        if kind == "verify_bad":
            missing, extra = parse_verify_stdout(stdout)
            if missing != exp["missing"] or extra != exp["extra"]:
                return (f"listed missing {missing[:3]} extra {extra[:3]}, planted "
                        f"missing {exp['missing'][:3]} extra {exp['extra'][:3]}")
            return None
        if kind == "derive":
            report = load(spec["report"])
            if report.get("total_dimension") != exp["d"] or report.get("verified") is not True:
                return f"report total {report.get('total_dimension')}, predicted {exp['d']}"
            if len(report.get("steps", ())) != exp["steps"]:
                return f"report has {len(report.get('steps', ()))} steps, script has {exp['steps']}"
            return self._rep_problem(spec["graph"], spec["out"], exp["d"])
        if kind == "poset_dim":
            said = stdout.split(":", 1)[0].strip()
            return None if said == exp["answer"] else f"said {said!r}, expected {exp['answer']!r}"
        if kind == "realizer":
            orders = load(spec["out"])["orders"]
            if len(orders) != exp["chi"]:
                return f"{len(orders)} orders, expected chi = {exp['chi']}"
            return realizer_problem(load(spec["graph"]), orders)
        raise ValueError(f"unknown expectation {kind!r}")

    def _exact_problem(self, job, spec: dict, code: int) -> str | None:
        exp = job.expect
        doc = load(spec["out"])
        outcome = (code, doc["status"], doc["value"], doc["lower_bound"], doc["nodes"])
        seen = self.outcomes.setdefault(job.key, outcome)
        if seen != outcome:
            return f"outcome {outcome} differs from an earlier rerun {seen}"
        known = exp.get("value")
        if code == 3:
            if doc["status"] != "budget-exhausted" or doc["value"] is not None:
                return f"exit 3 with status {doc['status']}"
            if known is not None and doc["lower_bound"] > known:
                return f"lower bound {doc['lower_bound']} exceeds the known {known}"
            return None
        if code != 0:
            return f"exit {code}"
        value = doc["value"]
        if doc["status"] != "exact" or doc["lower_bound"] != value:
            return f"status {doc['status']} with lower bound {doc['lower_bound']}"
        if known is not None and value != known:
            return f"value {value}, known {known}"
        graph_doc = load(spec["graph"])
        try:
            missing, extra = mismatches(graph_doc, doc["witness"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed witness: {exc}"
        if doc["witness"]["d"] != value or missing or extra:
            return "witness does not represent the graph in `value` dimensions"
        return None
