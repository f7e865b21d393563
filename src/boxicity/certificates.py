"""Certificates consumed by the composition operations.

Each certificate knows how to validate itself against a graph.  `problems`
returns human-readable findings (empty list means valid) and `validate`
raises CertificateError on the first finding, so failures always carry a
concrete witness: the offending edge, pair, cycle or vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import CertificateError, InvalidInput
from .graphs import (
    Graph,
    bfs_distances,
    check_vertex_set,
    find_cycle,
    induced_subgraph,
    int_key,
    is_int,
)

CYCLE_CLASSES = ("S1", "S2", "S3", "S4")


class _Validated:
    def problems(self, G: Graph) -> list[str]:
        raise NotImplementedError

    def validate(self, G: Graph) -> None:
        found = self.problems(G)
        if found:
            raise CertificateError(found[0])


@dataclass(frozen=True)
class PairCover(_Validated):
    """A vertex set X with disjoint non-adjacent pairs inside it."""

    X: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    def problems(self, G: Graph) -> list[str]:
        out = []
        try:
            X = set(check_vertex_set(G, self.X))
        except InvalidInput as exc:
            return [f"pair cover: {exc}"]
        if not X:
            out.append("pair cover: X is empty")
        used: set[int] = set()
        for a, b in self.pairs:
            if a == b:
                out.append(f"pair cover: pair ({a}, {b}) repeats a vertex")
                continue
            if a not in X or b not in X:
                out.append(f"pair cover: pair ({a}, {b}) is not inside X")
                continue
            if a in used or b in used:
                out.append(f"pair cover: pair ({a}, {b}) reuses a covered vertex")
                continue
            if G.has_edge(a, b):
                out.append(f"pair cover: pair ({a}, {b}) is an edge of the graph")
                continue
            used.add(a)
            used.add(b)
        return out

    def uncovered(self) -> tuple[int, ...]:
        used = {v for p in self.pairs for v in p}
        return tuple(v for v in self.X if v not in used)


@dataclass(frozen=True)
class Separation(_Validated):
    """Partition V = V1 + V2 + X with no edge between V1 and V2."""

    V1: tuple[int, ...]
    V2: tuple[int, ...]
    X: tuple[int, ...]

    def problems(self, G: Graph) -> list[str]:
        out = []
        parts = [("V1", self.V1), ("V2", self.V2), ("X", self.X)]
        seen: dict[int, str] = {}
        for name, part in parts:
            try:
                part = check_vertex_set(G, part)
            except InvalidInput as exc:
                return [f"separation: {name}: {exc}"]
            for v in part:
                if v in seen:
                    out.append(
                        f"separation: vertex {v} is in both {seen[v]} and {name}"
                    )
                seen[v] = name
        missing = [v for v in G.vertices() if v not in seen]
        if missing:
            out.append(f"separation: vertex {missing[0]} is in no part")
        v2 = set(self.V2)
        for u in self.V1:
            for w in sorted(G.neighbors(u) & v2):
                out.append(f"separation: edge ({u}, {w}) joins V1 and V2")
        return out


@dataclass(frozen=True)
class CycleClassification(_Validated):
    """An induced cycle plus, for every outside vertex that touches it, the
    class and anchor describing its neighborhood on the cycle.

    `cycle` lists the vertices in cyclic order (length k >= 6); anchors are
    0-based positions into that list.  A vertex of class S1 at anchor i is
    adjacent on the cycle to exactly cycle[i]; S2 adds cycle[i+1]; S3 pairs
    cycle[i] with cycle[i+2]; S4 covers cycle[i..i+2] (indices mod k).
    """

    cycle: tuple[int, ...]
    assignments: dict[int, tuple[str, int]] = field(default_factory=dict)

    def __hash__(self):
        return hash((self.cycle, tuple(sorted(self.assignments.items()))))

    def expected_neighbors(self, v: int) -> set[int]:
        cls, anchor = self.assignments[v]
        k = len(self.cycle)
        offsets = {"S1": (0,), "S2": (0, 1), "S3": (0, 2), "S4": (0, 1, 2)}[cls]
        return {self.cycle[(anchor + o) % k] for o in offsets}

    def problems(self, G: Graph) -> list[str]:
        k = len(self.cycle)
        if k < 6:
            return [f"classification: cycle length {k} is below 6"]
        try:
            check_vertex_set(G, self.cycle)
        except InvalidInput as exc:
            return [f"classification: cycle: {exc}"]
        out = []
        on_cycle = set(self.cycle)
        for i, u in enumerate(self.cycle):
            for j in range(i + 1, k):
                w = self.cycle[j]
                consecutive = j - i == 1 or (i == 0 and j == k - 1)
                if consecutive and not G.has_edge(u, w):
                    out.append(f"classification: cycle edge ({u}, {w}) is missing")
                if not consecutive and G.has_edge(u, w):
                    out.append(f"classification: chord ({u}, {w}) in the cycle")
        for v, (cls, anchor) in sorted(self.assignments.items()):
            if v in on_cycle:
                out.append(f"classification: cycle vertex {v} has an assignment")
                continue
            if not (0 <= v < G.n):
                out.append(f"classification: assigned vertex {v} is not in the graph")
                continue
            if cls not in CYCLE_CLASSES:
                out.append(f"classification: vertex {v} has unknown class {cls!r}")
                continue
            if not (0 <= anchor < k):
                out.append(f"classification: vertex {v} anchor {anchor} out of range")
                continue
            actual = G.neighbors(v) & on_cycle
            expected = self.expected_neighbors(v)
            if actual != expected:
                out.append(
                    f"classification: vertex {v} declared {cls} at anchor "
                    f"{anchor} (cycle neighbors {sorted(expected)}) but has "
                    f"{sorted(actual)}"
                )
        for v in G.vertices():
            if v in on_cycle or v in self.assignments:
                continue
            touching = sorted(G.neighbors(v) & on_cycle)
            if touching:
                out.append(
                    f"classification: vertex {v} touches the cycle at "
                    f"{touching} but has no assignment"
                )
        return out


@dataclass(frozen=True)
class ForestStablePartition(_Validated):
    """Partition V = F + S where G[F] is a forest, S is stable, and the
    vertices of S are pairwise at distance at least 3."""

    F: tuple[int, ...]
    S: tuple[int, ...]

    def problems(self, G: Graph) -> list[str]:
        out = []
        try:
            F = check_vertex_set(G, self.F)
            S = check_vertex_set(G, self.S)
        except InvalidInput as exc:
            return [f"partition: {exc}"]
        overlap = set(F) & set(S)
        if overlap:
            out.append(f"partition: vertex {min(overlap)} is in both F and S")
        if len(F) + len(S) != G.n or set(F) | set(S) != set(range(G.n)):
            out.append("partition: F and S do not cover the vertex set")
        if out:
            return out
        sub, vmap = induced_subgraph(G, F)
        cyc = find_cycle(sub)
        if cyc is not None:
            out.append(
                f"partition: F contains the cycle {[vmap[v] for v in cyc]}"
            )
        for a, b in combinations(S, 2):
            if G.has_edge(a, b):
                out.append(f"partition: edge ({a}, {b}) inside S")
        for a in S:
            dist = bfs_distances(G, a)
            for b in S:
                if b > a and dist[b] is not None and dist[b] < 3:
                    out.append(
                        f"partition: vertices {a} and {b} of S are at distance {dist[b]}"
                    )
        return out


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


def check_coloring(G: Graph, colors: dict[int, int]) -> list[int]:
    """Normalize a vertex->color map to a dense list with colors 0..k-1."""
    if set(colors) != set(range(G.n)):
        raise InvalidInput("coloring must assign a color to every vertex")
    palette = sorted(set(colors.values()))
    index = {c: i for i, c in enumerate(palette)}
    return [index[colors[v]] for v in range(G.n)]


def acyclic_coloring_problems(G: Graph, colors: dict[int, int]) -> list[str]:
    """Findings against a proper coloring whose class pairs induce forests."""
    try:
        dense = check_coloring(G, colors)
    except InvalidInput as exc:
        return [f"coloring: {exc}"]
    out = []
    for u, v in sorted(G.edges):
        if dense[u] == dense[v]:
            out.append(f"coloring: edge ({u}, {v}) is monochromatic")
    if out:
        return out
    k = max(dense) + 1
    for i, j in combinations(range(k), 2):
        keep = [v for v in G.vertices() if dense[v] in (i, j)]
        sub, vmap = induced_subgraph(G, keep)
        cyc = find_cycle(sub)
        if cyc is not None:
            out.append(
                f"coloring: classes {i} and {j} contain the cycle "
                f"{[vmap[v] for v in cyc]}"
            )
    return out


def validate_acyclic_coloring(G: Graph, colors: dict[int, int]) -> list[int]:
    found = acyclic_coloring_problems(G, colors)
    if found:
        raise CertificateError(found[0])
    return check_coloring(G, colors)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def int_list(doc, where: str) -> tuple[int, ...]:
    """A JSON list of ints as a tuple; bools and floats are rejected."""
    if not isinstance(doc, list) or not all(is_int(x) for x in doc):
        raise InvalidInput(f"{where} must be a list of ints")
    return tuple(doc)


def pair_cover_to_dict(c: PairCover) -> dict:
    return {"X": list(c.X), "pairs": [list(p) for p in c.pairs]}


def pair_cover_from_dict(doc) -> PairCover:
    if not isinstance(doc, dict) or set(doc) != {"X", "pairs"}:
        raise InvalidInput("pair cover document needs exactly 'X' and 'pairs'")
    if not isinstance(doc["pairs"], list):
        raise InvalidInput("'pairs' must be a list of [a, b] pairs")
    pairs = []
    for i, p in enumerate(doc["pairs"]):
        if len(int_list(p, f"pairs[{i}]")) != 2:
            raise InvalidInput(f"pairs[{i}] must be a [a, b] pair")
        pairs.append(tuple(p))
    return PairCover(int_list(doc["X"], "X"), tuple(pairs))


def separation_to_dict(s: Separation) -> dict:
    return {"V1": list(s.V1), "V2": list(s.V2), "X": list(s.X)}


def separation_from_dict(doc) -> Separation:
    if not isinstance(doc, dict) or set(doc) != {"V1", "V2", "X"}:
        raise InvalidInput("separation document needs exactly 'V1', 'V2', 'X'")
    return Separation(
        int_list(doc["V1"], "V1"),
        int_list(doc["V2"], "V2"),
        int_list(doc["X"], "X"),
    )


def classification_to_dict(c: CycleClassification) -> dict:
    return {
        "cycle": list(c.cycle),
        "assignments": {
            str(v): [cls, anchor] for v, (cls, anchor) in sorted(c.assignments.items())
        },
    }


def classification_from_dict(doc) -> CycleClassification:
    if not isinstance(doc, dict) or set(doc) != {"cycle", "assignments"}:
        raise InvalidInput(
            "classification document needs exactly 'cycle' and 'assignments'"
        )
    if not isinstance(doc["assignments"], dict):
        raise InvalidInput("'assignments' must be an object")
    assignments = {}
    for key, val in doc["assignments"].items():
        v = int_key(key, "assignment")
        if (
            not isinstance(val, list)
            or len(val) != 2
            or not isinstance(val[0], str)
            or not is_int(val[1])
        ):
            raise InvalidInput(f"assignments[{key}] must be [class, anchor]")
        assignments[v] = (val[0], val[1])
    return CycleClassification(int_list(doc["cycle"], "cycle"), assignments)


def partition_to_dict(p: ForestStablePartition) -> dict:
    return {"F": list(p.F), "S": list(p.S)}


def partition_from_dict(doc) -> ForestStablePartition:
    if not isinstance(doc, dict) or set(doc) != {"F", "S"}:
        raise InvalidInput("partition document needs exactly 'F' and 'S'")
    return ForestStablePartition(int_list(doc["F"], "F"), int_list(doc["S"], "S"))


def coloring_to_dict(colors: dict[int, int]) -> dict:
    return {"colors": {str(v): c for v, c in sorted(colors.items())}}


def coloring_from_dict(doc) -> dict[int, int]:
    if not isinstance(doc, dict) or set(doc) != {"colors"}:
        raise InvalidInput("coloring document needs exactly 'colors'")
    if not isinstance(doc["colors"], dict):
        raise InvalidInput("'colors' must map vertex ids to ints")
    out = {}
    for key, val in doc["colors"].items():
        v = int_key(key, "color")
        if not is_int(val):
            raise InvalidInput(f"colors[{key}] must be an int")
        out[v] = val
    return out
