"""The exact adjacency checks against the pairwise oracle.

Every construction ends with an exact comparison of a representation with
its graph.  The first-failure messages of the composition preconditions
and the full problem list of the cycle gadget are pinned here, and the
verifier's missing and extra lists are compared with the pairwise
predicate of tests/util.py on representations where touching and point
intervals are frequent.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxicity.boxes import BoxRepresentation, sur1_compose, sur2_compose, verify_representation
from boxicity.certificates import CycleClassification, PairCover, Separation
from boxicity.errors import InvalidInput
from boxicity.figure1 import figure1_gadget, figure1_problems
from boxicity.graphs import make_graph, roberts_graph
from boxicity.intervals import Interval

from util import box_adjacent, boxes_of, gadget_instance


# ---------------------------------------------------------------------------
# pinned first failures
# ---------------------------------------------------------------------------


def test_sur1_reports_the_first_disagreeing_pair():
    G = roberts_graph(4)
    cover = PairCover(X=(0, 1, 2, 3), pairs=((0, 1), (2, 3)))
    wrong = boxes_of({4: (0, 1), 5: (2, 3), 6: (1, 2), 7: (1, 3)},
                     {4: (0, 0), 5: (0, 0), 6: (1, 1), 7: (0, 1)})
    with pytest.raises(
        InvalidInput,
        match=r"^sub-representation disagrees with the graph at pair \(4, 6\)$",
    ):
        sur1_compose(G, cover, wrong)


# X = {0, 1}, V1 = {2, 3}, V2 = {4}; side 1 induces the path 0-2-3-1
SUR2_GRAPH = make_graph(5, [(0, 2), (2, 3), (1, 3), (0, 4), (1, 4)])
SUR2_SEP = Separation(V1=(2, 3), V2=(4,), X=(0, 1))
SUR2_B1 = {0: (0, 1), 2: (1, 2), 3: (2, 3), 1: (3, 4)}
SUR2_B2 = {0: (0, 0), 1: (1, 1), 4: (0, 1)}


@pytest.mark.parametrize("b1, b2, message", [
    # (0, 1) meets inside X, which is allowed; (0, 3) meets outside X
    ({**SUR2_B1, 0: (0, 4)}, SUR2_B2, r"B1 adds the non-edge \(0, 3\) outside X"),
    ({**SUR2_B1, 3: (Fraction(5, 2), 3)}, SUR2_B2, r"B1 misses the edge \(2, 3\)"),
    (SUR2_B1, {**SUR2_B2, 4: (2, 2)}, r"B2 disagrees with the graph at pair \(0, 4\)"),
    (SUR2_B1, {**SUR2_B2, 0: (0, 1)}, r"B2 disagrees with the graph at pair \(0, 1\)"),
], ids=["b1-extra-outside-x", "b1-missing", "b2-missing", "b2-extra"])
def test_sur2_reports_the_first_failing_pair(b1, b2, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        sur2_compose(SUR2_GRAPH, SUR2_SEP, boxes_of(b1), boxes_of(b2))
    assert sur2_compose(SUR2_GRAPH, SUR2_SEP, boxes_of(SUR2_B1), boxes_of(SUR2_B2)).d == 3


def test_figure1_problems_lists_every_wrong_pair_in_cycle_order():
    G, cls = gadget_instance(6, classes=("S2", "S3"))
    # relabel so that the cycle is not listed in increasing id order
    perm = {v: (5 * v + 3) % G.n for v in range(G.n)}
    G = make_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])
    cls = CycleClassification(
        cycle=tuple(perm[v] for v in cls.cycle),
        assignments={perm[v]: a for v, a in cls.assignments.items()},
    )
    assert cls.cycle == (3, 8, 13, 0, 5, 10)
    x, y = map(dict, figure1_gadget(G, cls).layers)
    x[13], y[13] = x[5], y[5]
    x[6], y[6] = Interval(50, 51), Interval(50, 51)
    assert figure1_problems(G, cls, BoxRepresentation((x, y))) == [
        "cycle pair (8, 13) has the wrong adjacency",
        "cycle pair (13, 5) has the wrong adjacency",
        "cycle pair (13, 10) has the wrong adjacency",
        "attachment pair (13, 2) has the wrong adjacency",
        "attachment pair (13, 7) has the wrong adjacency",
        "attachment pair (13, 9) has the wrong adjacency",
        "attachment pair (13, 11) has the wrong adjacency",
        "attachment pair (13, 12) has the wrong adjacency",
        "attachment pair (13, 17) has the wrong adjacency",
        "attachment pair (0, 6) has the wrong adjacency",
        "attachment pair (10, 6) has the wrong adjacency",
    ]


# ---------------------------------------------------------------------------
# the verifier against the pairwise oracle
# ---------------------------------------------------------------------------

# endpoints in {0, 1/2, ..., 4}: touching and point intervals are frequent
_endpoint = st.integers(0, 8).map(lambda k: Fraction(k, 2))
_interval = st.tuples(_endpoint, _endpoint).map(lambda p: Interval(min(p), max(p)))


@st.composite
def represented_pairs(draw):
    """A random box representation on 0..n-1 and a random graph on the
    same vertices, drawn so that about half the pairs agree."""
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, 3))
    B = BoxRepresentation([{v: draw(_interval) for v in range(n)} for _ in range(d)])
    flips = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    edges = [
        (u, w) for u in range(n) for w in range(u + 1, n)
        if box_adjacent(B, u, w) != flips[u * n + w]
    ]
    return B, make_graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(represented_pairs())
def test_verify_representation_matches_the_pairwise_oracle(case):
    B, G = case
    pairs = [(u, w) for u in range(G.n) for w in range(u + 1, G.n)]
    missing = [p for p in pairs if G.has_edge(*p) and not box_adjacent(B, *p)]
    extra = [p for p in pairs if box_adjacent(B, *p) and not G.has_edge(*p)]
    report = verify_representation(B, G)
    assert report.missing_edges == missing
    assert report.extra_edges == extra
    assert report.equal == (not missing and not extra)
