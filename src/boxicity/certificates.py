"""Certificates consumed by the composition operations.

Each certificate's `validate(G)` raises CertificateError at its first
finding, naming a concrete witness: the offending edge, pair, cycle or
vertex; given `ids`, it names vertex v as ids[v].  Certificates are
validated once, by the derivation rule that uses them (or by `construct
figure1`); the builders in `boxes` and `figure1` take them as valid.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .errors import CertificateError, InvalidInput, ParseError
from .graphs import (
    Graph,
    check_coloring,
    check_vertex_set,
    fields,
    find_cycle,
    induced_subgraph,
    is_int,
    vertex_map,
    within_two,
)

CYCLE_CLASSES = ("S1", "S2", "S3", "S4")


def _namer(ids):
    """How a finding names vertex v: ids[v], or v itself without ids."""
    return (lambda v: v) if ids is None else ids.__getitem__


def _vertex_set(G: Graph, S, where: str, name) -> tuple[int, ...]:
    """check_vertex_set, its finding prefixed by where."""
    try:
        return check_vertex_set(G, S, name)
    except InvalidInput as exc:
        raise CertificateError(f"{where}{exc}") from None


class PairCover(namedtuple("PairCover", "X pairs")):
    """A vertex set X with disjoint non-adjacent pairs inside it."""

    __slots__ = ()

    def validate(self, G: Graph, ids=None) -> None:
        name = _namer(ids)
        X = set(_vertex_set(G, self.X, "pair cover: ", name))
        if not X:
            raise CertificateError("pair cover: X is empty")
        used: set[int] = set()
        for a, b in self.pairs:
            if a == b:
                fault = "repeats a vertex"
            elif a not in X or b not in X:
                fault = "is not inside X"
            elif a in used or b in used:
                fault = "reuses a covered vertex"
            elif G.has_edge(a, b):
                fault = "is an edge of the graph"
            else:
                used.update((a, b))
                continue
            raise CertificateError(f"pair cover: pair ({name(a)}, {name(b)}) {fault}")

    def uncovered(self) -> tuple[int, ...]:
        used = {v for p in self.pairs for v in p}
        return tuple(v for v in self.X if v not in used)


class Separation(namedtuple("Separation", "V1 V2 X")):
    """Partition V = V1 + V2 + X with no edge between V1 and V2."""

    __slots__ = ()

    def validate(self, G: Graph, ids=None) -> None:
        name = _namer(ids)
        # every part's range comes before any overlap
        parts = {part: _vertex_set(G, getattr(self, part), f"separation: {part}: ", name)
                 for part in ("V1", "V2", "X")}
        seen: dict[int, str] = {}
        for part, vs in parts.items():
            for v in vs:
                if v in seen:
                    raise CertificateError(
                        f"separation: vertex {name(v)} is in both {seen[v]} and {part}"
                    )
                seen[v] = part
        for v in G.vertices():
            if v not in seen:
                raise CertificateError(f"separation: vertex {name(v)} is in no part")
        v2 = set(self.V2)
        for u in self.V1:
            joined = G.neighbors(u) & v2
            if joined:
                raise CertificateError(
                    f"separation: edge ({name(u)}, {name(min(joined))}) joins V1 and V2"
                )


class CycleClassification(namedtuple("CycleClassification", "cycle assignments")):
    """An induced cycle plus, for every outside vertex that touches it, the
    class and anchor describing its neighborhood on the cycle.

    `cycle` lists the vertices in cyclic order (length k >= 6); anchors are
    0-based positions into that list.  A vertex of class S1 at anchor i is
    adjacent on the cycle to exactly cycle[i]; S2 adds cycle[i+1]; S3 pairs
    cycle[i] with cycle[i+2]; S4 covers cycle[i..i+2] (indices mod k).
    `assignments` maps each such vertex to its (class, anchor).
    """

    __slots__ = ()

    def __hash__(self):
        return hash((self.cycle, tuple(sorted(self.assignments.items()))))

    def expected_neighbors(self, v: int) -> set[int]:
        cls, anchor = self.assignments[v]
        k = len(self.cycle)
        offsets = {"S1": (0,), "S2": (0, 1), "S3": (0, 2), "S4": (0, 1, 2)}[cls]
        return {self.cycle[(anchor + o) % k] for o in offsets}

    def validate(self, G: Graph, ids=None) -> None:
        name = _namer(ids)
        k = len(self.cycle)
        if k < 6:
            raise CertificateError(f"classification: cycle length {k} is below 6")
        _vertex_set(G, self.cycle, "classification: cycle: ", name)
        on_cycle = set(self.cycle)
        for i, u in enumerate(self.cycle):
            for j in range(i + 1, k):
                w = self.cycle[j]
                consecutive = j - i == 1 or (i == 0 and j == k - 1)
                if consecutive != G.has_edge(u, w):
                    fault = "cycle edge {} is missing" if consecutive else "chord {} in the cycle"
                    raise CertificateError("classification: " + fault.format((name(u), name(w))))
        for v, (cls, anchor) in sorted(self.assignments.items()):
            if v in on_cycle:
                fault = f"cycle vertex {name(v)} has an assignment"
            elif not (0 <= v < G.n):
                fault = f"assigned vertex {v} is not in the graph"
            elif cls not in CYCLE_CLASSES:
                fault = f"vertex {name(v)} has unknown class {cls!r}"
            elif not (0 <= anchor < k):
                fault = f"vertex {name(v)} anchor {anchor} out of range"
            elif G.neighbors(v) & on_cycle != self.expected_neighbors(v):
                fault = (
                    f"vertex {name(v)} declared {cls} at anchor {anchor} (cycle neighbors "
                    f"{sorted(map(name, self.expected_neighbors(v)))}) but has "
                    f"{sorted(map(name, G.neighbors(v) & on_cycle))}"
                )
            else:
                continue
            raise CertificateError(f"classification: {fault}")
        for v in G.vertices():
            touching = G.neighbors(v) & on_cycle
            if touching and v not in on_cycle and v not in self.assignments:
                raise CertificateError(
                    f"classification: vertex {name(v)} touches the cycle at "
                    f"{sorted(map(name, touching))} but has no assignment"
                )


class ForestStablePartition(namedtuple("ForestStablePartition", "F S")):
    """Partition V = F + S where G[F] is a forest, S is stable, and the
    vertices of S are pairwise at distance at least 3."""

    __slots__ = ()

    def validate(self, G: Graph, ids=None) -> None:
        name = _namer(ids)
        F = _vertex_set(G, self.F, "partition: ", name)
        S = _vertex_set(G, self.S, "partition: ", name)
        overlap = set(F) & set(S)
        if overlap:
            raise CertificateError(f"partition: vertex {name(min(overlap))} is in both F and S")
        if len(F) + len(S) != G.n:
            raise CertificateError("partition: F and S do not cover the vertex set")
        sub, vmap = induced_subgraph(G, F)
        cyc = find_cycle(sub)
        if cyc is not None:
            raise CertificateError(
                f"partition: F contains the cycle {[name(vmap[v]) for v in cyc]}"
            )
        # lowest a first, then its lowest partner b > a
        in_s = sum(1 << v for v in S)
        for near, fault in ((G.nbr_masks, "edge ({}, {}) inside S"),
                            (within_two(G), "vertices {} and {} of S are at distance 2")):
            for a in S:
                later = near[a] & (in_s >> a + 1 << a + 1)
                if later:
                    b = (later & -later).bit_length() - 1
                    raise CertificateError("partition: " + fault.format(name(a), name(b)))


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


def acyclic_coloring_problems(G: Graph, colors: dict[int, int], ids=None) -> list[str]:
    """The first finding against a proper coloring whose class pairs induce
    forests, as a one-item list; empty when the coloring is one."""
    name = _namer(ids)
    try:
        dense = check_coloring(G, colors)
    except InvalidInput as exc:
        return [f"coloring: {exc}"]
    for u, v in sorted(G.edges):
        if dense[u] == dense[v]:
            return [f"coloring: edge ({name(u)}, {name(v)}) is monochromatic"]
    for i, j in combinations(range(max(dense, default=0) + 1), 2):
        sub, vmap = induced_subgraph(G, [v for v in G.vertices() if dense[v] in (i, j)])
        cyc = find_cycle(sub)
        if cyc is not None:
            return [f"coloring: classes {i} and {j} contain the cycle "
                    f"{[name(vmap[v]) for v in cyc]}"]
    return []


def validate_acyclic_coloring(G: Graph, colors: dict[int, int], ids=None) -> list[int]:
    """check_coloring's dense list of a coloring that passes; else its
    first finding raises."""
    found = acyclic_coloring_problems(G, colors, ids)
    if found:
        raise CertificateError(found[0])
    return check_coloring(G, colors)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

# A certificate's JSON form is its _asdict() as json writes it; only readers are here.

def int_list(doc, where: str) -> tuple[int, ...]:
    """A JSON list of ints as a tuple; bools and floats are rejected."""
    if not isinstance(doc, list) or not all(is_int(x) for x in doc):
        raise ParseError(f"{where} must be a list of ints")
    return tuple(doc)


def pair_cover_from_dict(doc) -> PairCover:
    X, pairs = fields(doc, "pair cover", ("X", "pairs"))
    if not isinstance(pairs, list):
        raise ParseError("'pairs' must be a list of [a, b] pairs")
    for i, p in enumerate(pairs):
        if len(int_list(p, f"pairs[{i}]")) != 2:
            raise ParseError(f"pairs[{i}] must be a [a, b] pair")
    return PairCover(int_list(X, "X"), tuple(map(tuple, pairs)))


def separation_from_dict(doc) -> Separation:
    parts = fields(doc, "separation", Separation._fields)
    return Separation(*map(int_list, parts, Separation._fields))


def _assignment(v, val, where):
    if not (isinstance(val, list) and len(val) == 2 and isinstance(val[0], str)
            and is_int(val[1])):
        raise ParseError(f"{where} must be [class, anchor]")
    return (val[0], val[1])


def classification_from_dict(doc) -> CycleClassification:
    cycle, assignments = fields(doc, "classification", ("cycle", "assignments"))
    assignments = vertex_map(assignments, "assignments", "assignment", _assignment)
    return CycleClassification(int_list(cycle, "cycle"), assignments)


def partition_from_dict(doc) -> ForestStablePartition:
    parts = fields(doc, "partition", ForestStablePartition._fields)
    return ForestStablePartition(*map(int_list, parts, ForestStablePartition._fields))


def coloring_to_dict(colors: dict[int, int]) -> dict:
    return {"colors": {str(v): c for v, c in sorted(colors.items())}}


def _color(v, val, where):
    if not is_int(val):
        raise ParseError(f"{where} must be an int")
    return val


def coloring_from_dict(doc) -> dict[int, int]:
    (colors,) = fields(doc, "coloring", ("colors",))
    return vertex_map(colors, "colors", "color", _color)
