import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxicity.errors import InvalidInput, ParseError
from boxicity.graphs import (
    MAX_VERTICES,
    Graph,
    check_vertex_set,
    complete,
    cycle,
    fields,
    find_cycle,
    graph_from_dict,
    graph_to_dict,
    induced_subgraph,
    make_graph,
    path,
    random_forest,
    random_graph,
    roberts_graph,
    subdivided_complete,
    within_two,
)

from util import bfs_distances, connected_components


def test_make_graph_normalizes_orientation():
    G = make_graph(3, [(2, 0), (1, 2)])
    assert G.edges == frozenset({(0, 2), (1, 2)})
    assert G.has_edge(2, 0) and G.has_edge(0, 2)
    assert not G.has_edge(0, 1)


def test_make_graph_rejects_bad_input():
    with pytest.raises(InvalidInput):
        make_graph(3, [(0, 0)])
    with pytest.raises(InvalidInput):
        make_graph(3, [(0, 3)])
    with pytest.raises(InvalidInput):
        make_graph(3, [(-1, 2)])
    with pytest.raises(InvalidInput):
        make_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidInput):
        make_graph(-1, [])


@pytest.mark.parametrize("make", [
    lambda n: make_graph(n, []), complete, path, cycle, roberts_graph, subdivided_complete,
    lambda n: random_graph(n, 0.5, 1), lambda n: random_forest(n, 1),
], ids=["make_graph", "complete", "path", "cycle", "roberts", "subdivided", "random",
        "forest"])
def test_vertex_counts_above_the_cap_are_refused_before_any_edge(make):
    with pytest.raises(InvalidInput, match="^vertex count exceeds the cap of 1000000 vertices$"):
        make(10**30)


def test_the_vertex_cap_is_inclusive():
    assert make_graph(MAX_VERTICES, []).n == MAX_VERTICES
    with pytest.raises(InvalidInput, match="cap"):
        make_graph(MAX_VERTICES + 1, [])


def test_neighbors_and_degrees():
    G = path(4)
    assert G.neighbors(0) == {1}
    assert G.neighbors(1) == {0, 2}
    assert G.degree(3) == 1
    assert G.non_edges() == [(0, 2), (0, 3), (1, 3)]
    assert G.nbr_masks == (0b0010, 0b0101, 0b1010, 0b0100)


def test_non_edges_are_refused_above_the_pair_cap_before_any_is_listed():
    # 1415 vertices make 1,000,405 pairs, and 404 edges leave one too many
    G = make_graph(1415, [(0, v) for v in range(1, 405)])
    with pytest.raises(InvalidInput, match=r"^1415 vertices and 404 edges leave 1000001 "
                                           r"non-edges, over the cap of 1000000$"):
        G.non_edges()
    with pytest.raises(InvalidInput, match="499999500000 non-edges"):
        make_graph(MAX_VERTICES, []).non_edges()


def test_induced_subgraph_relabels_in_order():
    G = cycle(5)
    H, vmap = induced_subgraph(G, [4, 0, 1])
    assert vmap == (0, 1, 4)
    assert H.n == 3
    # edges 0-1 and 4-0 survive, relabeled through the sorted map
    assert H.edges == frozenset({(0, 1), (0, 2)})


def test_induced_subgraph_rejects_bad_sets():
    G = cycle(4)
    with pytest.raises(InvalidInput):
        induced_subgraph(G, [0, 0, 1])
    with pytest.raises(InvalidInput):
        induced_subgraph(G, [0, 9])


def test_vertex_sets_reject_bools():
    G = cycle(4)
    for S in ([True, 2], [False], [0, True]):
        with pytest.raises(InvalidInput, match="not in 0..3"):
            check_vertex_set(G, S)
    assert check_vertex_set(G, [3, 1]) == (1, 3)


def test_complement_is_involution():
    def complement(G):
        return Graph(G.n, frozenset(G.non_edges()))

    for seed in range(5):
        G = random_graph(7, 0.4, seed)
        assert complement(complement(G)) == G
    assert complete(4).non_edges() == []


def test_cycle_of_length_three_is_complete():
    assert cycle(3) == complete(3)
    with pytest.raises(InvalidInput):
        cycle(2)


def test_roberts_graph_shape():
    for n in range(1, 5):
        G = roberts_graph(n)
        assert G.n == 2 * n
        assert len(G.edges) == n * (2 * n - 1) - n
        # the complement is exactly the matching of consecutive pairs
        assert G.non_edges() == [(2 * i, 2 * i + 1) for i in range(n)]
    with pytest.raises(InvalidInput):
        roberts_graph(0)


def test_subdivided_complete_three_is_a_six_cycle():
    G = subdivided_complete(3)
    assert G.n == 6
    assert len(G.edges) == 6
    assert all(G.degree(v) == 2 for v in G.vertices())
    assert len(connected_components(G)) == 1
    assert find_cycle(G) is not None


def test_random_generators_are_seed_deterministic():
    assert random_graph(8, 0.5, 17) == random_graph(8, 0.5, 17)
    assert random_graph(8, 0.5, 17) != random_graph(8, 0.5, 18)
    assert random_forest(9, 3) == random_forest(9, 3)
    with pytest.raises(InvalidInput):
        random_graph(5, 1.5, 0)


def test_random_forest_is_a_forest():
    for seed in range(20):
        assert find_cycle(random_forest(10, seed)) is None


def test_find_cycle_returns_a_real_cycle():
    rng = random.Random(5)
    for _ in range(30):
        G = random_graph(8, rng.random(), rng.randrange(10**6))
        cyc = find_cycle(G)
        if cyc is None:
            continue
        assert len(cyc) >= 3
        assert len(set(cyc)) == len(cyc)
        for i, v in enumerate(cyc):
            assert G.has_edge(v, cyc[(i + 1) % len(cyc)])


def test_bfs_distances():
    G = path(4)
    assert bfs_distances(G, 0) == [0, 1, 2, 3]
    H = make_graph(3, [(0, 1)])
    assert bfs_distances(H, 0) == [0, 1, None]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_within_two_agrees_with_breadth_first_distances(G):
    n = G.n
    near = within_two(G)
    for v in range(n):
        dist = bfs_distances(G, v)
        assert near[v] == sum(1 << u for u, d in enumerate(dist) if d is not None and d <= 2)


def test_serialize_parse_round_trip():
    for seed in range(5):
        G = random_graph(6, 0.5, seed)
        assert graph_from_dict(json.loads(json.dumps(graph_to_dict(G)))) == G
    # canonical form sorts edges lexicographically
    assert graph_to_dict(make_graph(3, [(2, 1), (1, 0)]))["edges"] == [[0, 1], [1, 2]]


def test_parse_rejects_schema_violations():
    for doc in ({"n": 3}, {"n": 3, "edges": [[0, 1]], "extra": 1},
                {"n": 3, "edges": [[0, 1, 2]]}, {"n": 2, "edges": [[0, 5]]}, [1, 2],
                {"n": True, "edges": []}, {"n": 2, "edges": [[0, True]]},
                {"n": 2.0, "edges": []}):
        with pytest.raises(InvalidInput):
            graph_from_dict(doc)


def test_fields_reads_keys_in_order_and_names_the_first_shape_fault():
    doc = {"b": 1, "a": 2, "c": None}
    assert fields(doc, "x", ("a", "b"), ("c", "d")) == [2, 1, None, None]
    for doc, message in (([], "x must be an object"),
                         ({"z": 0}, "x is missing ['a', 'b']"),  # before the unknown key
                         ({"b": 0, "a": 0, "z": 0, "y": 0}, "x has unknown keys ['y', 'z']")):
        with pytest.raises(ParseError) as caught:
            fields(doc, "x", ("b", "a"), ("c",))
        assert str(caught.value) == message


def test_graph_is_hashable_and_comparable():
    A = make_graph(3, [(0, 1)])
    B = make_graph(3, [(1, 0)])
    assert A == B and hash(A) == hash(B)
    assert A != make_graph(4, [(0, 1)])
    assert len({A, B, Graph(3, frozenset())}) == 2
