import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxicity import intervals
from boxicity.boxes import (
    acyclic_pipeline,
    forest_two_dim,
    girth4_pipeline,
    roberts_representation,
    verify_representation,
)
from boxicity.derivation import assemble
from boxicity.errors import InvalidInput
from boxicity.exact import boxicity_at_most, find_forest_stable_partition
from boxicity.figure1 import figure1_gadget
from boxicity.graphs import (
    Graph,
    complete,
    cycle,
    make_graph,
    path,
    random_forest,
    random_graph,
    roberts_graph,
    subdivided_complete,
)
from boxicity.intervals import (
    Interval,
    canonical_extension,
    interval_from_pairs,
    interval_to_pairs,
    meet_masks,
    representation_from_ordering,
    span,
    umbrella_closure,
)

from util import (
    assert_represents,
    gadget_instance,
    greedy_acyclic_coloring,
    interval_adjacent,
    interval_graph_of,
    is_umbrella_free,
    nested_instance,
    universal_representation,
)


def iv(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


def rep(d):
    return {v: iv(lo, hi) for v, (lo, hi) in d.items()}


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def test_interval_basics():
    R = rep({0: (0, 2), 1: (2, 3), 2: (Fraction(5, 2), 4), 3: (1, 1)})
    # closed intervals: touching counts, points meet what covers them, and
    # every interval meets itself
    assert meet_masks(R) == {0: 0b1011, 1: 0b0111, 2: 0b0110, 3: 0b1001}
    with pytest.raises(InvalidInput):
        iv(1, 0)


DENOMINATORS = (1, 2, 3, 7, 10007)


@pytest.mark.parametrize("seed", range(6))
def test_meet_masks_match_the_pairwise_oracle(seed):
    rng = random.Random(seed)

    def endpoint(drawn):
        # half the time an earlier value again, as a distinct Fraction
        # object, so that equal endpoints are frequent
        if drawn and rng.random() < 0.5:
            q = rng.choice(drawn)
            return Fraction(q.numerator, q.denominator)
        d = rng.choice(DENOMINATORS)
        drawn.append(Fraction(rng.randrange(-3 * d, 3 * d + 1), d))
        return drawn[-1]

    for _ in range(40):
        # sparse ids
        ids = rng.sample(range(3 * 12), rng.randrange(1, 12))
        drawn = []
        R = {
            v: iv(min(a, b), max(a, b))
            for v in ids
            for a, b in [(endpoint(drawn), endpoint(drawn))]
        }
        masks = meet_masks(R)
        assert set(masks) == set(ids)
        for u in ids:
            assert masks[u] == sum(1 << w for w in ids if interval_adjacent(R, u, w))
        ivs = R.values()
        assert span(R) == iv(min(x.lo for x in ivs), max(x.hi for x in ivs))


def test_interval_keeps_ints_and_makes_whole_fractions_ints():
    a = Interval(0, 1)
    assert type(a.lo) is int and a.lo == 0
    b = Interval(Fraction(4, 2), 3)
    assert type(b.lo) is int and b.lo == 2
    c = Interval(Fraction(1, 2), Fraction(3, 1))
    assert type(c.lo) is Fraction and c.lo == Fraction(1, 2) and type(c.hi) is int


def assert_normal(q):
    """An endpoint is an int, or a Fraction that is not an integer; never
    a bool or a float."""
    assert type(q) is int or (type(q) is Fraction and q.denominator > 1), repr(q)


BUILDERS = {
    "forest_two_dim": lambda: forest_two_dim(random_forest(80, 2)),
    "roberts_representation": lambda: roberts_representation(5),
    "acyclic_pipeline": lambda: acyclic_pipeline(
        subdivided_complete(4), greedy_acyclic_coloring(subdivided_complete(4))),
    "girth4_pipeline": lambda: girth4_pipeline(
        subdivided_complete(4), find_forest_stable_partition(subdivided_complete(4))),
    # pair and singleton gadgets, stacked
    "gadgets": lambda: universal_representation(cycle(6)),
    # figure-1, sur2bis, acyclic, sur1 and roberts under sur2
    "compositions": lambda: assemble(*nested_instance())[0],
    **{f"figure1_gadget_{k}": lambda k=k: figure1_gadget(*gadget_instance(k))
       for k in range(6, 13)},
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_every_built_endpoint_is_normal(build):
    for layer in build().layers:
        for iv in layer.values():
            assert_normal(iv.lo)
            assert_normal(iv.hi)


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 12)), min_size=2, max_size=2))
@example([(4, 2), (3, 1)])  # decodes to the ints (2, 3)
def test_every_decoded_endpoint_is_normal(pairs):
    doc = [list(pair) for pair in sorted(pairs, key=lambda p: Fraction(*p))]
    x = interval_from_pairs(doc, "x")
    assert x == iv(Fraction(*doc[0]), Fraction(*doc[1]))
    assert_normal(x.lo)
    assert_normal(x.hi)


@pytest.mark.parametrize("lo, hi", [(0.1, 1), (0, 1.0), (True, 2), (0, True), ("0", 1), (None, 1)])
def test_interval_refuses_other_endpoint_types(lo, hi):
    with pytest.raises(InvalidInput, match="must be a Fraction or an int"):
        Interval(lo, hi)


def test_interval_graph_of_dense_relabeling():
    # a path through the shared separator interval, on sparse ids
    R = rep({1: (0, 0), 2: (1, 1), 5: (0, 1)})
    G = interval_graph_of(R)
    assert G.n == 3
    assert G.edges == frozenset({(0, 2), (1, 2)})
    assert interval_adjacent(R, 1, 5)
    assert not interval_adjacent(R, 1, 2)


def test_interval_graph_of_empty():
    assert interval_graph_of({}) == Graph(0, frozenset())


# ---------------------------------------------------------------------------
# umbrella orderings and closures
# ---------------------------------------------------------------------------


def test_is_umbrella_free_examples():
    assert is_umbrella_free(path(3), (0, 1, 2))
    assert not is_umbrella_free(cycle(4), (0, 1, 2, 3))
    # orderings of length <= 2 are vacuously umbrella-free
    assert is_umbrella_free(make_graph(2, [(0, 1)]), (1, 0))
    assert is_umbrella_free(Graph(0, frozenset()), ())
    with pytest.raises(InvalidInput):
        is_umbrella_free(path(3), (0, 1))
    with pytest.raises(InvalidInput):
        is_umbrella_free(path(3), (0, 1, 1))


def test_umbrella_closure_on_a_four_cycle():
    G = cycle(4)
    closed = umbrella_closure(G, (0, 1, 2, 3))
    assert closed.edges == G.edges | {(0, 2)}
    # the other diagonal is forced when the ordering is rotated
    closed = umbrella_closure(G, (1, 2, 3, 0))
    assert closed.edges == G.edges | {(1, 3)}


def naive_closure(G: Graph, sigma, shuffle_seed: int) -> Graph:
    """Fixpoint of the forcing rule, applied one forced edge at a time in a
    randomized order.  Independent of the production implementation."""
    rng = random.Random(shuffle_seed)
    pos = {v: i for i, v in enumerate(sigma)}
    edges = set(G.edges)

    def key(u, v):
        return (u, v) if u < v else (v, u)

    while True:
        forced = []
        for u, v in permutations(range(G.n), 2):
            if pos[u] >= pos[v]:
                continue
            if key(u, v) in edges:
                continue
            if any(
                pos[w] > pos[v] and key(u, w) in edges for w in range(G.n)
            ):
                forced.append(key(u, v))
        if not forced:
            return Graph(G.n, frozenset(edges))
        edges.add(forced[rng.randrange(len(forced))])


def test_umbrella_closure_matches_randomized_fixpoint():
    rng = random.Random(2024)
    for case in range(120):
        n = rng.randrange(1, 8)
        G = random_graph(n, rng.random(), rng.randrange(10**6))
        sigma = list(range(n))
        rng.shuffle(sigma)
        closed = umbrella_closure(G, sigma)
        # fixpoint is unique no matter the order forced edges are added in
        for shuffle_seed in (case, case + 1):
            assert naive_closure(G, sigma, shuffle_seed) == closed


def test_umbrella_closure_properties():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randrange(1, 9)
        G = random_graph(n, rng.random(), rng.randrange(10**6))
        sigma = list(range(n))
        rng.shuffle(sigma)
        closed = umbrella_closure(G, sigma)
        assert closed.edges >= G.edges
        assert is_umbrella_free(closed, sigma)
        # closure is the identity exactly on umbrella-free pairs
        assert (closed == G) == is_umbrella_free(G, sigma)


def test_representation_from_ordering_frozen_example():
    R = representation_from_ordering(path(3), (0, 1, 2))
    assert R == {0: iv(1, 2), 1: iv(2, 3), 2: iv(3, 3)}


def test_representation_from_ordering_requires_umbrella_free():
    with pytest.raises(InvalidInput):
        representation_from_ordering(cycle(4), (0, 1, 2, 3))


def test_representation_from_ordering_recovers_the_graph():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randrange(1, 9)
        G = random_graph(n, rng.random(), rng.randrange(10**6))
        sigma = list(range(n))
        rng.shuffle(sigma)
        # the reach test rejects exactly the orderings the triple loop does
        if is_umbrella_free(G, sigma):
            assert interval_graph_of(representation_from_ordering(G, sigma)) == G
        else:
            with pytest.raises(InvalidInput, match="not umbrella-free"):
                representation_from_ordering(G, sigma)
        closed = umbrella_closure(G, sigma)
        R = representation_from_ordering(closed, sigma)
        assert interval_graph_of(R) == closed


# ---------------------------------------------------------------------------
# recognition: G is an interval graph exactly when box(G) <= 1
# ---------------------------------------------------------------------------


def test_interval_recognition_positives():
    for G in (path(5), complete(6), make_graph(4, [(0, 1), (0, 2), (0, 3)])):
        res = boxicity_at_most(G, 1)
        assert res.value == 1
        assert_represents(res.witness, G)


def test_interval_recognition_negatives():
    for G in (cycle(4), cycle(5), roberts_graph(3)):
        res = boxicity_at_most(G, 1)
        assert res.status == "exact" and res.value is None


def test_interval_recognition_round_trip_from_random_representations():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 9)
        R = {
            v: iv(min(a, b), max(a, b))
            for v in range(n)
            for a, b in [(rng.randrange(10), rng.randrange(10))]
        }
        G = interval_graph_of(R)
        res = boxicity_at_most(G, 1)
        assert res.value == 1
        assert_represents(res.witness, G)


# ---------------------------------------------------------------------------
# canonical extension
# ---------------------------------------------------------------------------


def test_canonical_extension_example():
    G = path(3)
    R = rep({0: (0, 1), 1: (1, 2)})
    ext = canonical_extension([R], G)
    assert ext == [{0: iv(0, 1), 1: iv(1, 2), 2: iv(0, 2)}]


def test_canonical_extension_properties():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randrange(2, 9)
        G = random_graph(n, rng.random(), rng.randrange(10**6))
        X = [v for v in range(n) if rng.random() < 0.6] or [0]
        sub_edges = {
            (u, v) for u, v in combinations(X, 2) if G.has_edge(u, v)
        }
        # build a representation of a supergraph of G[X] from an umbrella
        # closure of the induced subgraph
        spread = {v: i for i, v in enumerate(X)}
        H = Graph(
            len(X),
            frozenset((spread[u], spread[v]) for u, v in sub_edges),
        )
        sigma = list(range(len(X)))
        rng.shuffle(sigma)
        closed = umbrella_closure(H, sigma)
        R = {X[i]: x for i, x in representation_from_ordering(closed, sigma).items()}
        [ext] = canonical_extension([R], G)
        assert set(ext) == set(range(n))
        for u, v in combinations(range(n), 2):
            if u in R and v in R:
                # pairs inside X are untouched
                assert interval_adjacent(ext, u, v) == interval_adjacent(R, u, v)
            else:
                # pairs meeting the outside are always adjacent
                assert interval_adjacent(ext, u, v)
        # in particular the result's graph is a supergraph of G
        for u, v in G.edges:
            assert interval_adjacent(ext, u, v)


@pytest.fixture
def fraction_order_comparisons(monkeypatch):
    """Counts the order comparisons of Fractions made after it is set up."""
    count = [0]

    def counting(compare):
        def wrapper(a, b):
            count[0] += 1
            return compare(a, b)
        return wrapper

    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    return count


def test_integer_endpoints_make_no_fraction_comparisons(fraction_order_comparisons):
    F = random_forest(2000, 5)
    B = forest_two_dim(F)
    G = path(400)
    R = {v: Interval(v, v + 1) for v in range(0, 400, 2)}
    fraction_order_comparisons[0] = 0
    assert verify_representation(B, F).equal
    assert canonical_extension([R], G)[0][1] == Interval(0, 399)
    assert fraction_order_comparisons[0] == 0
    # the counter does see comparisons of non-integer endpoints
    meet_masks(rep({0: (Fraction(1, 3), Fraction(1, 2)), 1: (Fraction(1, 4), 1)}))
    assert fraction_order_comparisons[0] > 0


def test_canonical_extension_checks_only_its_domain():
    G = path(3)
    with pytest.raises(InvalidInput, match="^canonical extension needs a nonempty domain$"):
        canonical_extension([{}], G)
    with pytest.raises(InvalidInput, match=r"^vertex 7 is not in 0\.\.2$"):
        canonical_extension([rep({7: (0, 1)})], G)
    # covering the edges of G[X] is the caller's duty: a layer that misses
    # the edge (0, 1) is extended as it is
    R = rep({0: (0, 0), 1: (2, 2)})
    assert canonical_extension([R], G) == [{**R, 2: iv(0, 2)}]
    with pytest.raises(InvalidInput, match="^canonical extension needs a nonempty domain$"):
        canonical_extension([], G)


def test_canonical_extension_checks_the_shared_domain_once(monkeypatch):
    """The layers of one representation share their domain, so it is
    checked once however many layers there are; each layer is lifted to
    its own span."""
    calls = []
    check = intervals.check_vertex_set

    def counted(G, S):
        calls.append(sorted(S))
        return check(G, S)

    monkeypatch.setattr(intervals, "check_vertex_set", counted)
    layers = [rep({0: (0, 1), 1: (1, 2)}), rep({0: (5, 5), 1: (3, 4)})]
    assert canonical_extension(layers, path(3)) == [
        {**layers[0], 2: iv(0, 2)}, {**layers[1], 2: iv(3, 5)}]
    assert calls == [[0, 1]]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_interval_pairs_round_trip():
    for x in (iv(0, 1), iv(Fraction(1, 2), Fraction(5, 2)), iv(-3, Fraction(-1, 3))):
        doc = json.loads(json.dumps(interval_to_pairs(x)))
        assert interval_from_pairs(doc, "x") == x
