import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from boxicity.boxes import (
    BoxRepresentation,
    acyclic_pipeline,
    box_rep_from_dict,
    box_rep_to_dict,
    forest_two_dim,
    from_interval_reps,
    girth4_pipeline,
    pair_gadget,
    relabel_box_representation,
    roberts_representation,
    singleton_gadget,
    sur1_compose,
    sur2_compose,
    sur2bis_double,
    verify_representation,
)
from boxicity.certificates import CertificateError, ForestStablePartition, PairCover, Separation
from boxicity.derivation import AcyclicStep, RobertsStep, Sur1Step, assemble
from boxicity.errors import InvalidInput
from boxicity.graphs import (
    complete,
    cycle,
    induced_subgraph,
    make_graph,
    path,
    random_forest,
    random_graph,
    roberts_graph,
)
from boxicity.intervals import Interval, representation_from_ordering

from util import (
    assert_represents,
    box_adjacent,
    box_graph_of,
    box_of,
    boxes_of,
    greedy_acyclic_coloring,
    interval_adjacent,
    interval_graph_of,
    universal_representation,
)


def iv(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


# ---------------------------------------------------------------------------
# representation basics
# ---------------------------------------------------------------------------


def test_one_dimension_reduces_to_interval_graph():
    B = boxes_of({0: (0, 1), 1: (1, 2), 2: (3, 4)})
    R = {0: iv(0, 1), 1: iv(1, 2), 2: iv(3, 4)}
    assert box_graph_of(B) == interval_graph_of(R)


def test_all_unit_boxes_make_a_complete_graph():
    B = boxes_of(*[{v: (0, 1) for v in range(4)}] * 2)
    assert box_graph_of(B) == complete(4)


def test_box_adjacency_requires_every_dimension():
    B = boxes_of({0: (0, 1), 1: (0, 1)}, {0: (0, 1), 1: (2, 3)})
    assert not box_adjacent(B, 0, 1)


def test_representation_validation():
    with pytest.raises(InvalidInput, match="^need at least one dimension$"):
        BoxRepresentation([])
    with pytest.raises(InvalidInput, match="^empty representation$"):
        BoxRepresentation([{}])
    # a vertex missing from one layer, and layers on different vertices
    with pytest.raises(InvalidInput, match="^dimension domains differ$"):
        BoxRepresentation([{0: iv(0, 1), 1: iv(0, 1)}, {0: iv(0, 1)}])
    with pytest.raises(InvalidInput, match="^dimension domains differ$"):
        BoxRepresentation([{0: iv(0, 1)}, {1: iv(0, 1)}])


def test_verify_representation_reports_witnesses():
    G = roberts_graph(2)
    B = roberts_representation(2)
    assert verify_representation(B, G).equal
    # sabotage one box: push vertex 0 away from everything in dimension 1
    x, y = map(dict, B.layers)
    x[0] = iv(10, 11)
    report = verify_representation(BoxRepresentation((x, y)), G)
    assert not report.equal
    assert report.missing_edges == [(0, 2), (0, 3)]
    assert report.extra_edges == []


def test_verify_representation_rejects_domain_mismatch():
    with pytest.raises(InvalidInput):
        verify_representation(roberts_representation(2), roberts_graph(3))


def test_stack_and_relabel():
    A = boxes_of({0: (0, 1), 1: (2, 3)})
    B = boxes_of({0: (0, 0), 1: (0, 1)})
    S = from_interval_reps(A.layers + B.layers)
    assert S.d == 2
    assert box_of(S, 1) == (iv(2, 3), iv(0, 1))
    with pytest.raises(InvalidInput):
        from_interval_reps([])
    elsewhere = boxes_of({0: (0, 1), 2: (0, 1)})
    with pytest.raises(InvalidInput):
        from_interval_reps(A.layers + elsewhere.layers)
    R = relabel_box_representation(A, {0: 5, 1: 7})
    assert R.domain() == (5, 7)
    with pytest.raises(InvalidInput):
        relabel_box_representation(A, {0: 5, 1: 5})


# ---------------------------------------------------------------------------
# gadgets
# ---------------------------------------------------------------------------


def test_pair_gadget_on_a_four_cycle():
    G = cycle(4)
    R = pair_gadget(G, 0, 2)
    assert R[0] == iv(0, 0)
    assert R[2] == iv(2, 2)
    assert R[1] == iv(0, 2)
    assert R[3] == iv(0, 2)
    # the gadget graph is K4 minus the separated pair
    H = interval_graph_of(R)
    assert H.edges == frozenset({(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)})


def test_pair_gadget_rejects_bad_pairs():
    G = cycle(4)
    with pytest.raises(InvalidInput):
        pair_gadget(G, 0, 1)  # adjacent
    with pytest.raises(InvalidInput):
        pair_gadget(G, 2, 2)
    with pytest.raises(InvalidInput):
        pair_gadget(G, 0, 7)
    with pytest.raises(InvalidInput, match="True"):
        pair_gadget(G, True, 3)  # 1 and 3 are non-adjacent, but True is no vertex


def test_gadgets_preserve_non_adjacencies_at_their_vertices():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(2, 10)
        G = random_graph(n, rng.random(), rng.randrange(10**6))
        non_edges = G.non_edges()
        if non_edges:
            u, v = non_edges[rng.randrange(len(non_edges))]
            R = pair_gadget(G, u, v)
            for a, b in combinations(range(n), 2):
                if G.has_edge(a, b):
                    # supergraph: every edge survives
                    assert interval_adjacent(R, a, b)
                elif u in (a, b) or v in (a, b):
                    assert not interval_adjacent(R, a, b)
        w = rng.randrange(n)
        R = singleton_gadget(G, w)
        for a, b in combinations(range(n), 2):
            expect = G.has_edge(a, b) if w in (a, b) else True
            assert interval_adjacent(R, a, b) == expect


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def test_sur1_compose_matched_pairs_example():
    # the 8-vertex complete-minus-matching graph from a 4-vertex one plus
    # two pair dimensions: 2 + 4 - 2 = 4
    G = roberts_graph(4)
    cover = PairCover(X=(0, 1, 2, 3), pairs=((0, 1), (2, 3)))
    B_sub = relabel_box_representation(
        roberts_representation(2), {0: 4, 1: 5, 2: 6, 3: 7}
    )
    B = sur1_compose(G, cover, B_sub)
    assert B.d == 4
    assert_represents(B, G)


def test_sur1_compose_odd_cycle_cover():
    # apex over a five-cycle; X is the cycle, covered by two pairs plus one
    # singleton: 1 + 5 - 2 = 4
    G = make_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
    cover = PairCover(X=(0, 1, 2, 3, 4), pairs=((0, 2), (1, 3)))
    B_sub = boxes_of({5: (0, 0)})
    B = sur1_compose(G, cover, B_sub)
    assert B.d == 4
    assert_represents(B, G)


def test_sur1_compose_validates_inputs():
    """sur1_compose checks the sub-representation; the cover is checked
    once, by its own validate when a derivation step uses it."""
    G = roberts_graph(4)
    B_sub = relabel_box_representation(
        roberts_representation(2), {0: 4, 1: 5, 2: 6, 3: 7}
    )
    with pytest.raises(CertificateError, match="not inside X"):
        PairCover(X=(0, 1), pairs=((0, 2),)).validate(G)
    with pytest.raises(CertificateError, match="is an edge"):
        # (0, 2) is an edge
        PairCover(X=(0, 1, 2, 3), pairs=((0, 2),)).validate(G)
    with pytest.raises(InvalidInput):
        # wrong domain
        sur1_compose(G, PairCover(X=(0, 1), pairs=()), B_sub)
    with pytest.raises(InvalidInput, match="X must leave at least one vertex"):
        # X must leave something behind
        assemble(roberts_graph(1),
                 Sur1Step(cover=PairCover(X=(0, 1), pairs=((0, 1),)), sub=RobertsStep()))
    # sub-representation that disagrees with the graph
    wrong = boxes_of({v: (0, 1) for v in range(4, 8)})
    with pytest.raises(InvalidInput):
        sur1_compose(G, PairCover(X=(0, 1, 2, 3), pairs=((0, 1), (2, 3))), wrong)


def test_sur1_random_cases():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randrange(3, 10)
        G = random_graph(n, rng.random(), rng.randrange(10**6))
        size = rng.randrange(1, n)
        X = tuple(sorted(rng.sample(range(n), size)))
        # grab a few disjoint non-adjacent pairs inside X greedily
        pairs = []
        used = set()
        for a, b in combinations(X, 2):
            if a in used or b in used or G.has_edge(a, b):
                continue
            pairs.append((a, b))
            used.update((a, b))
        cover = PairCover(X=X, pairs=tuple(pairs))
        rest = [v for v in range(n) if v not in set(X)]
        sub, vmap = induced_subgraph(G, rest)
        B_sub = relabel_box_representation(
            universal_representation(sub), {i: old for i, old in enumerate(vmap)}
        )
        B = sur1_compose(G, cover, B_sub)
        assert B.d == B_sub.d + len(X) - len(pairs)
        assert_represents(B, G)


def test_sur2_compose_two_cycles_sharing_a_vertex():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6), (3, 6)]
    G = make_graph(7, edges)
    sep = Separation(V1=(0, 1, 2), V2=(4, 5, 6), X=(3,))
    # each side induces a four-cycle; non-edges (0,2),(1,3) and (4,6),(3,5)
    B1 = relabel_box_representation(roberts_representation(2), {0: 0, 1: 2, 2: 1, 3: 3})
    B2 = relabel_box_representation(roberts_representation(2), {0: 4, 1: 6, 2: 3, 3: 5})
    B = sur2_compose(G, sep, B1, B2)
    assert B.d == 5
    assert_represents(B, G)


def test_sur2_compose_allows_added_edges_inside_x():
    G = make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    sep = Separation(V1=(0,), V2=(3,), X=(1, 2))
    # B1 represents the triangle 0-1-2, i.e. the induced side plus the
    # non-edge (1, 2) completed inside X
    B1 = boxes_of({0: (0, 1), 1: (0, 1), 2: (0, 1)})
    B2 = boxes_of({1: (0, 0), 2: (1, 1), 3: (0, 1)})
    B = sur2_compose(G, sep, B1, B2)
    assert B.d == 3
    assert_represents(B, G)


def test_sur2_compose_validates_inputs():
    """sur2_compose checks the two sides' representations; the separation
    is checked once, by its own validate when a derivation step uses it."""
    G = make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    B1 = boxes_of({0: (0, 1), 1: (0, 1), 2: (0, 1)})
    B2 = boxes_of({1: (0, 0), 2: (1, 1), 3: (0, 1)})
    with pytest.raises(CertificateError, match=r"edge \(0, 1\) joins V1 and V2"):
        # (0, 1) is an edge joining V1 and V2
        Separation(V1=(0,), V2=(1, 3), X=(2,)).validate(G)
    with pytest.raises(CertificateError, match="vertex 2 is in no part"):
        Separation(V1=(0,), V2=(3,), X=(1,)).validate(G)
    bad_b1 = boxes_of({0: (0, 0), 1: (1, 1), 2: (0, 1)})
    with pytest.raises(InvalidInput):
        # misses the edge (0, 1)
        sur2_compose(G, Separation(V1=(0,), V2=(3,), X=(1, 2)), bad_b1, B2)
    bad_b2 = boxes_of({1: (0, 1), 2: (0, 1), 3: (0, 1)})
    with pytest.raises(InvalidInput):
        # represents the non-edge (1, 2) but B2 must be exact
        sur2_compose(G, Separation(V1=(0,), V2=(3,), X=(1, 2)), B1, bad_b2)


def test_sur2_random_cases():
    rng = random.Random(101)
    for _ in range(40):
        n1 = rng.randrange(1, 4)
        n2 = rng.randrange(1, 4)
        nx = rng.randrange(1, 4)
        n = n1 + n2 + nx
        V1 = tuple(range(n1))
        V2 = tuple(range(n1, n1 + n2))
        X = tuple(range(n1 + n2, n))
        allowed = [
            (u, v)
            for u, v in combinations(range(n), 2)
            if not (u in set(V1) and v in set(V2))
            and not (v in set(V1) and u in set(V2))
        ]
        edges = [e for e in allowed if rng.random() < 0.5]
        G = make_graph(n, edges)
        side1, m1 = induced_subgraph(G, V1 + X)
        side2, m2 = induced_subgraph(G, V2 + X)
        B1 = relabel_box_representation(
            universal_representation(side1), {i: o for i, o in enumerate(m1)}
        )
        B2 = relabel_box_representation(
            universal_representation(side2), {i: o for i, o in enumerate(m2)}
        )
        B = sur2_compose(G, Separation(V1=V1, V2=V2, X=X), B1, B2)
        assert B.d == B1.d + B2.d + 1
        assert_represents(B, G)


def test_sur2bis_double_completes_a_path_into_a_triangle():
    R = representation_from_ordering(path(3), (0, 1, 2))
    B = from_interval_reps([R])
    doubled = sur2bis_double(B, (0, 2))
    assert doubled.d == 2
    assert box_graph_of(doubled) == complete(3)


def test_sur2bis_double_edge_cases():
    B = universal_representation(cycle(5))
    same = sur2bis_double(B, ())
    assert same.d == 2 * B.d
    assert box_graph_of(same) == cycle(5)
    single = sur2bis_double(B, (3,))
    assert box_graph_of(single) == cycle(5)
    with pytest.raises(InvalidInput):
        sur2bis_double(B, (9,))


def test_sur2bis_double_random_cases():
    rng = random.Random(303)
    for _ in range(40):
        n = rng.randrange(1, 9)
        H = random_graph(n, rng.random(), rng.randrange(10**6))
        K = tuple(sorted(rng.sample(range(n), rng.randrange(0, n + 1))))
        doubled = sur2bis_double(universal_representation(H), K)
        assert doubled.d == 2 * n
        expected = set(H.edges) | {
            (a, b) for a, b in combinations(K, 2)
        }
        got = box_graph_of(doubled)
        assert got.edges == frozenset(expected)


# ---------------------------------------------------------------------------
# forest, coloring and split pipelines
# ---------------------------------------------------------------------------


def test_forest_two_dim_star_coordinates():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    B = forest_two_dim(star)
    assert box_of(B, 0) == (iv(1, 8), iv(0, 2))
    assert box_of(B, 1) == (iv(2, 3), iv(2, 4))
    assert box_of(B, 2) == (iv(4, 5), iv(2, 4))
    assert box_of(B, 3) == (iv(6, 7), iv(2, 4))
    assert_represents(B, star)


def test_forest_two_dim_components_stay_apart():
    F = make_graph(6, [(0, 1), (1, 2), (3, 4)])
    B = forest_two_dim(F)
    assert_represents(B, F)
    # roots of different components share the depth band but not the window
    assert B.layers[1][0] == B.layers[1][3]
    assert not interval_adjacent(B.layers[0], 0, 3)


def test_forest_two_dim_rejects_cycles():
    with pytest.raises(InvalidInput) as err:
        forest_two_dim(cycle(4))
    assert "cycle" in str(err.value)


def test_forest_two_dim_random_forests():
    for seed in range(30):
        F = random_forest(9, seed)
        assert_represents(forest_two_dim(F), F)


def test_acyclic_pipeline_on_a_five_cycle():
    G = cycle(5)
    colors = {0: 0, 1: 1, 2: 0, 3: 1, 4: 2}
    B = acyclic_pipeline(G, colors)
    assert B.d == 6
    assert_represents(B, G)


def test_acyclic_pipeline_validates_coloring():
    """The coloring is checked once, by the acyclic rule's check, before
    acyclic_pipeline runs."""
    G = cycle(4)
    with pytest.raises(CertificateError) as err:
        assemble(G, AcyclicStep(coloring={0: 0, 1: 0, 2: 1, 3: 1}))
    assert "monochromatic" in str(err.value)
    with pytest.raises(CertificateError) as err:
        assemble(G, AcyclicStep(coloring={0: 0, 1: 1, 2: 0, 3: 1}))
    assert "cycle" in str(err.value)
    with pytest.raises(InvalidInput, match="at least 2 colors"):
        assemble(make_graph(3, []), AcyclicStep(coloring={0: 0, 1: 0, 2: 0}))


def test_acyclic_pipeline_random_cases():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randrange(2, 9)
        G = random_graph(n, rng.random() * 0.7, rng.randrange(10**6))
        colors = greedy_acyclic_coloring(G)
        k = len(set(colors.values()))
        if k < 2:
            colors[0] = max(colors.values()) + 1
            k = len(set(colors.values()))
        B = acyclic_pipeline(G, colors)
        assert B.d == k * (k - 1)
        assert_represents(B, G)


def test_girth4_pipeline_on_a_seven_cycle():
    G = cycle(7)
    part = ForestStablePartition(F=(1, 2, 3, 4, 5, 6), S=(0,))
    B = girth4_pipeline(G, part)
    assert B.d == 4
    assert_represents(B, G)


def test_girth4_pipeline_forest_with_empty_stable_side():
    F = random_forest(8, 4)
    B = girth4_pipeline(F, ForestStablePartition(F=tuple(range(8)), S=()))
    assert B.d == 4
    assert_represents(B, F)


def test_girth4_pipeline_empty_forest_side():
    G = make_graph(2, [])
    B = girth4_pipeline(G, ForestStablePartition(F=(), S=(0, 1)))
    assert B.d == 4
    assert_represents(B, G)


def test_girth4_pipeline_validates_partition():
    """The partition is checked once, by its own validate when a derivation
    step uses it, before girth4_pipeline runs."""
    with pytest.raises(CertificateError) as err:
        ForestStablePartition(F=(0, 1, 2, 3), S=()).validate(cycle(4))
    assert "cycle" in str(err.value)
    with pytest.raises(CertificateError) as err:
        ForestStablePartition(F=(1, 3), S=(0, 2)).validate(cycle(4))
    assert "distance" in str(err.value)
    with pytest.raises(CertificateError) as err:
        ForestStablePartition(F=(), S=(0, 1)).validate(path(2))
    assert "edge" in str(err.value)
    with pytest.raises(CertificateError):
        ForestStablePartition(F=(0,), S=(0, 1)).validate(path(2))


# ---------------------------------------------------------------------------
# the matching family
# ---------------------------------------------------------------------------


def test_roberts_representation_small():
    for n in range(1, 5):
        B = roberts_representation(n)
        assert B.d == n
        assert_represents(B, roberts_graph(n))
    with pytest.raises(InvalidInput):
        roberts_representation(0)


def test_roberts_representation_is_the_pair_gadgets_of_the_matching():
    for n in range(1, 5):
        G = roberts_graph(n)
        gadgets = tuple(pair_gadget(G, 2 * j, 2 * j + 1) for j in range(n))
        assert roberts_representation(n).layers == gadgets


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_box_representation_round_trip():
    B = roberts_representation(3)
    text = json.dumps(box_rep_to_dict(B))
    assert box_rep_from_dict(json.loads(text)) == B


def test_box_representation_schema_errors():
    with pytest.raises(InvalidInput):
        box_rep_from_dict({"d": 0, "vertices": {}})
    with pytest.raises(InvalidInput):
        box_rep_from_dict({"d": True, "vertices": {"0": [[[0, 1], [1, 1]]]}})
    with pytest.raises(InvalidInput, match="^empty representation$"):
        box_rep_from_dict({"d": 10**12, "vertices": {}})
    for d, row in ((1, []), (2, [[[0, 1], [1, 1]]]), (10**12, [[[0, 1], [1, 1]]])):
        with pytest.raises(InvalidInput, match=rf"^vertices\[0\] must list exactly {d} intervals$"):
            box_rep_from_dict({"d": d, "vertices": {"0": row}})
    with pytest.raises(InvalidInput):
        box_rep_from_dict({"d": 1, "vertices": {"a": [[[0, 1], [1, 1]]]}})
    with pytest.raises(InvalidInput):
        box_rep_from_dict({"vertices": {}})
    for bad in ([[True, 1], [1, 1]],  # bool numerator
                [[0, True], [1, 1]],  # bool denominator
                [[0, 0], [1, 1]],  # zero denominator
                [[1, -2], [1, 1]],  # negative denominator
                [[2, 1], [1, 1]]):  # lo > hi
        with pytest.raises(InvalidInput):
            box_rep_from_dict({"d": 1, "vertices": {"0": [bad]}})


@pytest.mark.parametrize("key", ["02", " 2", "2 ", "+2", "2_0", "-0", "", "٢"])
def test_box_representation_vertex_keys_must_be_canonical(key):
    box = [[[0, 1], [1, 1]]]
    assert box_rep_from_dict({"d": 1, "vertices": {"2": box}}).domain() == (2,)
    with pytest.raises(InvalidInput, match="vertex key"):
        box_rep_from_dict({"d": 1, "vertices": {key: box}})
