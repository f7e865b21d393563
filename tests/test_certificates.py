"""Certificate checks: each raises at its first finding, in a fixed order.

Every certificate below carries several faults, so the pinned message
shows which one a check reports first.
"""

import pytest

from boxicity.certificates import (
    CycleClassification,
    ForestStablePartition,
    PairCover,
    Separation,
    acyclic_coloring_problems,
    validate_acyclic_coloring,
)
from boxicity.errors import CertificateError
from boxicity.graphs import cycle, make_graph, path

# a six-cycle with a chord (0, 3) and an outside vertex 6 on 1 and 2
CHORDED = make_graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (6, 1), (6, 2)])


@pytest.mark.parametrize("G, cert, message", [
    # (1, 9) is outside X, (0, 2) an edge, (0, 3) reuses 0
    (path(4), PairCover(X=(0, 1, 2, 3), pairs=((1, 9), (1, 2), (0, 3), (0, 2))),
     "pair cover: pair (1, 9) is not inside X"),
    (path(4), PairCover(X=(), pairs=((0, 0),)), "pair cover: X is empty"),
    (path(4), PairCover(X=(2, 0, 2), pairs=((0, 0),)),
     "pair cover: vertex set [0, 2, 2] has repeated entries"),
    # 1 is in V1 and V2, but the range error in X comes first
    (path(4), Separation(V1=(0, 1), V2=(1, 2), X=(7,)),
     "separation: X: vertex 7 is not in 0..3"),
    # an overlap comes before a missing vertex and a crossing edge
    (path(4), Separation(V1=(0, 1), V2=(2, 1), X=()),
     "separation: vertex 1 is in both V1 and V2"),
    (path(5), Separation(V1=(1, 0), V2=(2,), X=(3,)), "separation: vertex 4 is in no part"),
    # the lowest V2 neighbour of the first V1 vertex, in V1's own order
    (cycle(6), Separation(V1=(3, 0), V2=(4, 5, 2), X=(1,)),
     "separation: edge (3, 2) joins V1 and V2"),
    # the chord comes before the wrong class, the unassigned vertex 6 last
    (CHORDED, CycleClassification(cycle=tuple(range(6)), assignments={6: ("S9", 0)}),
     "classification: chord (0, 3) in the cycle"),
    (cycle(5), CycleClassification(cycle=(0, 1, 2, 3, 4, 9), assignments={}),
     "classification: cycle: vertex 9 is not in 0..4"),
    (make_graph(8, [(i, (i + 1) % 6) for i in range(6)] + [(6, 0), (7, 2), (7, 3)]),
     CycleClassification(cycle=tuple(range(6)), assignments={7: ("S3", 2), 6: ("S2", 0)}),
     "classification: vertex 6 declared S2 at anchor 0 (cycle neighbors [0, 1]) but has [0]"),
    (make_graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(6, 4)]),
     CycleClassification(cycle=tuple(range(6)), assignments={}),
     "classification: vertex 6 touches the cycle at [4] but has no assignment"),
    # F holds a cycle and S an edge and a distance-2 pair: the cycle first
    (make_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]),
     ForestStablePartition(F=(0, 1, 2, 4), S=(3, 5, 6)),
     "partition: F contains the cycle [1, 0, 2]"),
    # an edge inside S comes before a distance-2 pair, even a lower one
    (path(7), ForestStablePartition(F=(1, 3, 4), S=(0, 2, 5, 6)),
     "partition: edge (5, 6) inside S"),
    (path(7), ForestStablePartition(F=(1, 3, 5), S=(0, 2, 4, 6)),
     "partition: vertices 0 and 2 of S are at distance 2"),
    (path(4), ForestStablePartition(F=(0, 1, 2), S=(2, 3, 9)),
     "partition: vertex 9 is not in 0..3"),
    (path(4), ForestStablePartition(F=(0, 1, 2), S=(2,)),
     "partition: vertex 2 is in both F and S"),
], ids=["cover-outside-x", "cover-empty-x", "cover-repeat", "separation-range-first",
        "separation-overlap", "separation-missing", "separation-edge",
        "classification-chord-first", "classification-range",
        "classification-declared", "classification-unassigned",
        "partition-cycle-first", "partition-edge-before-distance",
        "partition-distance", "partition-range", "partition-overlap"])
def test_validate_raises_the_first_finding(G, cert, message):
    with pytest.raises(CertificateError) as caught:
        cert.validate(G)
    assert str(caught.value) == message


def test_validate_names_vertices_through_ids():
    G = path(4)
    with pytest.raises(CertificateError) as caught:
        Separation(V1=(0,), V2=(1,), X=(2, 3)).validate(G, (10, 11, 12, 13))
    assert str(caught.value) == "separation: edge (10, 11) joins V1 and V2"
    with pytest.raises(CertificateError) as caught:
        PairCover(X=(3, 3), pairs=()).validate(G, (10, 11, 12, 13))
    assert str(caught.value) == "pair cover: vertex set [13, 13] has repeated entries"


def test_coloring_reports_its_first_finding_only():
    G = cycle(6)
    # two monochromatic edges, (1, 2) and (3, 4): only the first is reported
    colors = {0: 0, 1: 1, 2: 1, 3: 0, 4: 0, 5: 1}
    assert acyclic_coloring_problems(G, colors) == ["coloring: edge (1, 2) is monochromatic"]
    with pytest.raises(CertificateError, match=r"^coloring: edge \(1, 2\) is monochromatic$"):
        validate_acyclic_coloring(G, colors)
    # proper, but classes 0 and 1 hold the whole cycle
    alternating = {v: v % 2 for v in range(6)}
    assert acyclic_coloring_problems(G, alternating) == [
        "coloring: classes 0 and 1 contain the cycle [1, 0, 5, 4, 3, 2]"
    ]
    assert validate_acyclic_coloring(G, {v: 2 * (v % 3) for v in range(6)}) == [
        0, 1, 2, 0, 1, 2
    ]
