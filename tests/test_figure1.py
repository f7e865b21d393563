"""Cycle gadget: frozen coordinates, adjacency contract, golden files."""

import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from boxicity.boxes import BoxRepresentation
from boxicity.certificates import CycleClassification
from boxicity.cli import main
from boxicity.errors import CertificateError
from boxicity.figure1 import figure1_gadget, figure1_problems
from boxicity.graphs import cycle, graph_to_dict, make_graph
from boxicity.intervals import Interval

from util import box_adjacent, box_graph_of, box_of, gadget_instance

GOLDEN_DIR = Path(__file__).parent / "golden"

HALF = Fraction(1, 2)


def bare_cycle(k):
    cls = CycleClassification(cycle=tuple(range(k)), assignments={})
    return cycle(k), cls


def test_cycle_boxes_k6_frozen():
    G, cls = bare_cycle(6)
    B = figure1_gadget(G, cls)
    want = (
        {0: Interval(-1, 0), 1: Interval(0, 1), 2: Interval(1, 2),
         3: Interval(2, 3), 4: Interval(3, 4), 5: Interval(0, 3)},
        {0: Interval(0, 3), 1: Interval(0, 1), 2: Interval(1, 2),
         3: Interval(0, 1), 4: Interval(0, 3), 5: Interval(3, 4)},
    )
    assert B.layers == want


@pytest.mark.parametrize("k", range(6, 13))
def test_bare_cycle_is_represented(k):
    G, cls = bare_cycle(k)
    B = figure1_gadget(G, cls)
    assert box_graph_of(B).edges == G.edges
    assert figure1_problems(G, cls, B) == []


@pytest.mark.parametrize("k", range(6, 13))
def test_all_variants_contract(k):
    G, cls = gadget_instance(k)
    B = figure1_gadget(G, cls)
    assert figure1_problems(G, cls, B) == []


def test_single_neighbor_point_is_interior():
    G, cls = gadget_instance(7, classes=("S1",))
    B = figure1_gadget(G, cls)
    v = 7  # anchored at cycle position 0
    assert box_of(B, v) == (Interval(-HALF, -HALF), Interval(Fraction(3, 2), Fraction(3, 2)))
    hits = [u for u in range(7) if box_adjacent(B, v, u)]
    assert hits == [0]


def test_special_anchor_coordinates_k6():
    G, cls = gadget_instance(6)
    B = figure1_gadget(G, cls)
    by_assignment = {cls.assignments[v]: v for v in cls.assignments}

    def assigned(name, anchor):
        return box_of(B, by_assignment[(name, anchor)])

    # two-neighbor points at the wall corners
    assert assigned("S2", 4) == (Interval(3, 3), Interval(3, 3))
    assert assigned("S2", 5) == (Interval(0, 0), Interval(3, 3))
    # distance-two bridges near the end of the staircase and around the lid
    assert assigned("S3", 3) == (Interval(Fraction(5, 2), Fraction(5, 2)), Interval(1, 3))
    assert assigned("S3", 4) == (Interval(0, 3), Interval(Fraction(5, 2), Fraction(5, 2)))
    assert assigned("S3", 5) == (Interval(HALF, HALF), Interval(1, 3))
    # three-neighbor runs along the walls and the lid
    assert assigned("S4", 3) == (Interval(3, 3), Interval(1, 3))
    assert assigned("S4", 4) == (Interval(0, 3), Interval(3, 3))
    assert assigned("S4", 5) == (Interval(0, 0), Interval(1, 3))


def test_gadget_validates_the_classification(tmp_path, capsys):
    """figure1_gadget takes its classification as valid; `construct
    figure1`, which builds without assembly, validates it first."""
    G = cycle(5)
    cls = CycleClassification(cycle=(0, 1, 2, 3, 4), assignments={})
    with pytest.raises(CertificateError, match="cycle length 5 is below 6"):
        cls.validate(G)
    graph, doc, rep = tmp_path / "c5.json", tmp_path / "cls.json", tmp_path / "rep.json"
    graph.write_text(json.dumps(graph_to_dict(G)))
    doc.write_text(json.dumps(cls._asdict()))
    assert main(["construct", "figure1", str(graph), "-o", str(rep),
                 "--classification", str(doc)]) == 2
    assert capsys.readouterr().err == "error: classification: cycle length 5 is below 6\n"
    assert not rep.exists()


def test_problems_detect_a_moved_box():
    G, cls = gadget_instance(6, classes=("S2",))
    B = figure1_gadget(G, cls)
    v = 6
    x, y = map(dict, B.layers)
    x[v], y[v] = Interval(50, 51), Interval(50, 51)
    bad = BoxRepresentation((x, y))
    found = figure1_problems(G, cls, bad)
    assert found and any(f"({0}, {v})" in p for p in found)


def test_problems_reject_domain_and_dimension_mismatch():
    G, cls = bare_cycle(6)
    B = figure1_gadget(G, cls)
    shrunk = BoxRepresentation({v: layer[v] for v in range(5)} for layer in B.layers)
    assert figure1_problems(G, cls, shrunk)
    fat = BoxRepresentation(B.layers + (dict.fromkeys(B.domain(), Interval(0, 1)),))
    assert figure1_problems(G, cls, fat) == ["gadget must be 2-dimensional, got 3"]


def _scaled(B: BoxRepresentation) -> dict:
    boxes = {}
    for v in B.domain():
        entry = []
        for side in box_of(B, v):
            lo, hi = side.lo * 2, side.hi * 2
            assert lo.denominator == 1 and hi.denominator == 1
            entry.append([int(lo), int(hi)])
        boxes[str(v)] = entry
    return boxes


@pytest.mark.parametrize("k", range(6, 13))
def test_golden_coordinates(k):
    """Every coordinate, for every class and anchor, frozen at twice scale."""
    G, cls = gadget_instance(k)
    B = figure1_gadget(G, cls)
    doc = {"k": k, "scale": 2, "boxes": _scaled(B)}
    path = GOLDEN_DIR / f"figure1_k{k}.json"
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    stored = json.loads(path.read_text())
    assert doc == stored
