"""Adjacency posets, realizer construction, dimension search, bounds."""

import json
import random
from fractions import Fraction

import pytest

from boxicity.errors import BudgetExhausted, InvalidInput
from boxicity.exact import SearchBudget, chromatic_number, proper_coloring
from boxicity.graphs import MAX_VERTICES, complete, cycle, make_graph, random_graph
from boxicity.posets import (
    Poset,
    adjacency_poset,
    bound_calculator,
    bound_report_to_dict,
    chi_realizer_extensions,
    intersect_orders,
    is_linear_extension,
    poset_dimension_at_most,
    starred_poset,
)

from util import all_graphs, dimension_small, intersect_orders_reference

K2 = complete(2)


def reflexive(elems):
    return {(x, x) for x in elems}


def chain(length):
    elems = tuple(range(length))
    rel = {(a, b) for a in elems for b in elems if a <= b}
    return Poset(elems, frozenset(rel))


def antichain(length):
    return Poset(tuple(range(length)), frozenset(reflexive(range(length))))


# ----------------------------------------------------------------- posets


def test_poset_accepts_a_chain():
    P = chain(3)
    assert (0, 2) in P.relation and (2, 0) not in P.relation


def test_poset_rejects_bad_relations():
    with pytest.raises(InvalidInput, match="reflexive"):
        Poset((0, 1), frozenset({(0, 0)}))
    with pytest.raises(InvalidInput, match="antisymmetry"):
        Poset((0, 1), frozenset(reflexive((0, 1)) | {(0, 1), (1, 0)}))
    with pytest.raises(InvalidInput, match="transitivity"):
        Poset((0, 1, 2), frozenset(reflexive((0, 1, 2)) | {(0, 1), (1, 2)}))
    with pytest.raises(InvalidInput, match="unknown"):
        Poset((0, 1), frozenset(reflexive((0, 1)) | {(0, 7)}))
    with pytest.raises(InvalidInput, match="distinct"):
        Poset((0, 0), frozenset({(0, 0)}))


def test_poset_keeps_its_elements_as_given():
    # no coercion to int: 1.5 is neither truncated to 1 nor merged with it
    P = Poset((0, 1.5), frozenset({(0, 0), (1.5, 1.5), (0, 1.5)}))
    assert P.elements == (0, 1.5)
    assert P.relation == frozenset({(0, 0), (1.5, 1.5), (0, 1.5)})
    assert is_linear_extension(P, (0, 1.5))
    with pytest.raises(InvalidInput, match="arrange exactly"):
        is_linear_extension(P, (0, 1))
    assert Poset((1, 1.5), frozenset({(1, 1), (1.5, 1.5)})).elements == (1, 1.5)


def test_poset_rejects_unordered_elements():
    with pytest.raises(InvalidInput, match="mutually ordered"):
        Poset((0, "a"), frozenset({(0, 0), ("a", "a")}))
    with pytest.raises(InvalidInput, match="mutually ordered"):
        Poset((None, 1), frozenset({(None, None), (1, 1)}))


def test_adjacency_poset_of_k2():
    P = adjacency_poset(K2)
    assert P.elements == (0, 1, 2, 3)
    assert P.relation == frozenset(reflexive(range(4)) | {(0, 3), (1, 2)})


def test_adjacency_poset_of_edgeless_graph_is_an_antichain():
    P = adjacency_poset(make_graph(3, []))
    assert P.relation == frozenset(reflexive(range(6)))


def test_starred_poset_adds_same_vertex_pairs():
    P = starred_poset(K2)
    extra = {(0, 2), (1, 3)}
    assert P.relation == adjacency_poset(K2).relation | extra


def test_poset_constructions_validate_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(15):
        n = rng.randint(0, 6)
        G = random_graph(n, rng.random(), seed=rng.randrange(10**6))
        adjacency_poset(G)
        starred_poset(G)


# -------------------------------------------------------------- realizers


def test_chi_realizer_orders_for_k2():
    orders = chi_realizer_extensions(K2, {0: 0, 1: 1})
    assert orders == [(1, 2, 0, 3), (0, 3, 1, 2)]


def test_chi_realizer_rejects_improper_colorings():
    with pytest.raises(InvalidInput, match="monochromatic"):
        chi_realizer_extensions(K2, {0: 0, 1: 0})


def intersection_property_holds(G):
    P = adjacency_poset(G)
    starred = starred_poset(G)
    k = chromatic_number(G)
    orders = chi_realizer_extensions(G, proper_coloring(G, k))
    assert len(orders) == k
    for L in orders:
        assert is_linear_extension(P, L)
    assert intersect_orders(orders) & starred.relation == P.relation


def test_chi_realizer_intersection_on_c5():
    intersection_property_holds(cycle(5))


def test_chi_realizer_intersection_exhaustive_small():
    for n in range(1, 5):
        for G in all_graphs(n):
            intersection_property_holds(G)


def test_chi_realizer_intersection_sampled_n5():
    rng = random.Random(31)
    for _ in range(25):
        G = random_graph(5, rng.random(), seed=rng.randrange(10**6))
        intersection_property_holds(G)


# ----------------------------------------------------- extensions, orders


def test_any_order_extends_an_antichain():
    P = antichain(3)
    assert is_linear_extension(P, (2, 0, 1))


def test_reversal_breaks_a_chain():
    assert not is_linear_extension(chain(3), (2, 1, 0))


def test_extension_requires_matching_elements():
    with pytest.raises(InvalidInput):
        is_linear_extension(chain(2), (0, 1, 2))


def test_intersecting_an_order_with_its_reverse():
    rel = intersect_orders([(0, 1, 2), (2, 1, 0)])
    assert rel == frozenset(reflexive(range(3)))
    with pytest.raises(InvalidInput):
        intersect_orders([(0, 1), (0, 2)])
    with pytest.raises(InvalidInput):
        intersect_orders([])


def test_intersect_orders_matches_the_set_intersection():
    rng = random.Random(3131)
    for _ in range(200):
        elems = rng.sample(range(100), rng.randint(1, 9))
        orders = [tuple(rng.sample(elems, len(elems))) for _ in range(rng.randint(1, 4))]
        assert intersect_orders(orders) == intersect_orders_reference(orders)


# ---------------------------------------------------------- dimension


def test_chain_has_dimension_one():
    realizer = poset_dimension_at_most(chain(4), 1)
    assert realizer == ((0, 1, 2, 3),)
    assert intersect_orders(realizer) == chain(4).relation


def test_two_element_antichain_needs_two_orders():
    P = antichain(2)
    assert poset_dimension_at_most(P, 1) is None
    realizer = poset_dimension_at_most(P, 2)
    assert realizer is not None
    assert intersect_orders(realizer) == P.relation


def test_starred_k2_has_dimension_at_most_two():
    P = starred_poset(K2)
    realizer = poset_dimension_at_most(P, 2)
    assert realizer is not None and len(realizer) == 2
    assert intersect_orders(realizer) == P.relation


def test_dimension_search_pads_by_repetition():
    realizer = poset_dimension_at_most(chain(3), 3)
    assert len(realizer) == 3
    assert intersect_orders(realizer) == chain(3).relation


def test_dimension_search_computes_the_padding_extension_once():
    P = adjacency_poset(make_graph(3, [(0, 1), (1, 2)]))
    small = poset_dimension_at_most(P, 6)
    big = poset_dimension_at_most(P, MAX_VERTICES)
    assert len(big) == MAX_VERTICES and big[:6] == small
    assert len(set(map(id, big[5:]))) == 1
    for d in (0, MAX_VERTICES + 1):
        with pytest.raises(InvalidInput, match=rf"^dimension must be in 1\.\.1000000, got {d}$"):
            poset_dimension_at_most(P, d)


def test_dimension_search_budget():
    with pytest.raises(BudgetExhausted):
        poset_dimension_at_most(antichain(8), 4, SearchBudget(max_nodes=10))


def test_dimension_search_budget_bounds_the_critical_pair_scan():
    # a chain has no critical pairs, so only the scan, one tick per
    # element, can spend the budget
    assert poset_dimension_at_most(chain(6), 1, SearchBudget(max_nodes=6)) is not None
    with pytest.raises(BudgetExhausted):
        poset_dimension_at_most(chain(6), 1, SearchBudget(max_nodes=5))


def random_poset(rng, n):
    """Transitive closure of random pairs i < j, relabeled by a shuffle."""
    p, label = rng.random(), rng.sample(range(n), n)
    below = [{i} for i in range(n)]
    for j in range(n):
        for i in range(j):
            if rng.random() < p:
                below[j] |= below[i]
    return Poset(tuple(range(n)),
                 frozenset((label[i], label[j]) for j in range(n) for i in below[j]))


def assert_dimension(P, d):
    """P is refuted at d - 1 and realized by exactly d orders at d."""
    if d > 1:
        assert poset_dimension_at_most(P, d - 1) is None
    realizer = poset_dimension_at_most(P, d)
    assert realizer is not None and len(realizer) == d
    assert intersect_orders(realizer) == P.relation


def test_standard_examples_have_dimension_n():
    # the adjacency poset of K_n is the standard example S_n
    for n in range(2, 7):
        assert_dimension(adjacency_poset(complete(n)), n)


def test_dimension_search_matches_brute_force():
    rng = random.Random(8080)
    posets = [random_poset(rng, rng.randint(0, 6)) for _ in range(300)]
    posets += [make(G) for n in range(4) for G in all_graphs(n)
               for make in (adjacency_poset, starred_poset)]
    for P in posets:
        assert_dimension(P, dimension_small(P))


def test_dimension_search_is_not_bounded_by_recursion_depth():
    # 34 elements and 1122 critical pairs, one backtracking level each
    P = adjacency_poset(make_graph(17, []))
    realizer = poset_dimension_at_most(P, 2)
    assert realizer is not None and intersect_orders(realizer) == P.relation


def smallest_realizer(P):
    for d in range(1, len(P.elements) + 2):
        realizer = poset_dimension_at_most(P, d)
        if realizer is not None:
            return realizer
    raise AssertionError("dimension of a finite poset is finite")


def test_combining_starred_realizer_with_class_orders():
    """A starred realizer of size d plus the k class orders realize the
    plain adjacency poset with d + k orders."""
    graphs = [G for n in range(1, 4) for G in all_graphs(n)]
    rng = random.Random(606)
    graphs += [random_graph(4, rng.random(), seed=rng.randrange(10**6)) for _ in range(10)]
    for G in graphs:
        P = adjacency_poset(G)
        realizer = smallest_realizer(starred_poset(G))
        k = chromatic_number(G)
        orders = chi_realizer_extensions(G, proper_coloring(G, k))
        assert intersect_orders(list(realizer) + orders) == P.relation


# ------------------------------------------------------------------ bounds


def test_bounds_for_the_torus():
    # the abstract's 7 for toroidal graphs; dim = 2 * 7 + 7 + 4
    report = bound_calculator(g=1, orientable=True)
    assert report.box_bound == 7
    assert report.dim_bound.floor == 25
    assert report.dim_bound.exact == Fraction(25)
    assert report.dim_bound.approx == 25.0
    assert report.chi_bound.floor == 7
    assert report.chi_bound.exact == Fraction(7)


def test_bounds_nonorientable_genus_one():
    report = bound_calculator(g=1, orientable=False)
    assert report.box_bound == 8
    assert report.dim_bound.floor == 26
    assert report.dim_bound.exact == Fraction(26)
    assert report.chi_bound.exact == Fraction(6)


def test_bounds_irrational_case_keeps_exact_empty():
    report = bound_calculator(g=2, orientable=True)
    assert report.box_bound == 13
    assert report.dim_bound.floor == 38
    assert report.dim_bound.exact is None
    assert report.dim_bound.approx == pytest.approx(38.424, abs=1e-3)


def test_bounds_from_box_and_chi():
    report = bound_calculator(box=3, chi=4)
    assert report.dim_from_box_chi == 14
    assert report.genus is None and report.box_bound is None
    both = bound_calculator(g=1, box=3, chi=4)
    assert both.dim_from_box_chi == 14 and both.box_bound == 7


def test_bounds_input_validation():
    with pytest.raises(InvalidInput):
        bound_calculator(g=0)
    with pytest.raises(InvalidInput):
        bound_calculator()
    with pytest.raises(InvalidInput):
        bound_calculator(box=3)
    with pytest.raises(InvalidInput):
        bound_calculator(box=0, chi=1)


def test_bound_report_serializes():
    # nonorientable genus 2 lands on a perfect square: 1 + 24*2 = 49
    doc = bound_report_to_dict(bound_calculator(g=2, orientable=False, box=3, chi=4))
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text)["dim_from_box_chi"] == 14
    assert json.loads(text)["chi_bound"]["exact"] == [7, 1]
    assert json.loads(text)["dim_bound"]["floor"] == 37
