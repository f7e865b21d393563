"""Ordering-search oracle, coloring oracles, and certificate finders."""

import random
from itertools import combinations

import pytest

from boxicity.certificates import acyclic_coloring_problems, check_coloring
from boxicity.errors import BudgetExhausted, InvalidInput
from boxicity.exact import (
    SearchBudget,
    acyclic_chromatic_number,
    acyclic_coloring,
    boxicity_at_most,
    chromatic_number,
    exact_boxicity,
    find_forest_stable_partition,
    find_pair_cover,
    proper_coloring,
)
from boxicity.graphs import (
    Graph,
    complete,
    cycle,
    induced_subgraph,
    make_graph,
    path,
    random_graph,
    roberts_graph,
)
from boxicity.intervals import recognize_interval

from reference import reference_boxicity
from util import all_graphs, assert_represents, star


# ---------------------------------------------------------------- boxicity


def test_at_most_two_suffices_for_c4():
    res = boxicity_at_most(cycle(4), 2)
    assert res.status == "exact" and res.value == 2
    assert len(res.orderings) == 2
    for sigma in res.orderings:
        assert sorted(sigma) == [0, 1, 2, 3]
    assert res.witness.d == 2
    assert_represents(res.witness, cycle(4))


def test_one_dimension_refuted_for_c4():
    res = boxicity_at_most(cycle(4), 1)
    assert res.status == "exact"
    assert res.value is None and res.witness is None
    assert res.lower_bound == 2


def test_complete_graphs_fit_in_one_dimension():
    for n in range(1, 6):
        res = boxicity_at_most(complete(n), 1)
        assert res.value == 1
        assert_represents(res.witness, complete(n))


def test_invalid_arguments():
    with pytest.raises(InvalidInput):
        boxicity_at_most(cycle(4), 0)
    with pytest.raises(InvalidInput):
        exact_boxicity(make_graph(0, []))
    for limits in ({"max_nodes": 0}, {"max_nodes": True}, {"max_nodes": 7.0},
                   {"max_nodes": "7"}, {"time_limit": float("nan")},
                   {"time_limit": float("inf")}, {"time_limit": 0}, {"time_limit": 10**400},
                   {"time_limit": True}, {"symmetry_pruning": "no"}):
        with pytest.raises(InvalidInput):
            SearchBudget(**limits)


def test_exact_known_values():
    for G, want in [
        (path(4), 1),
        (path(1), 1),
        (complete(4), 1),
        (star(3), 1),
        (cycle(4), 2),
        (cycle(5), 2),
        (cycle(6), 2),
        (roberts_graph(2), 2),
    ]:
        res = exact_boxicity(G)
        assert res.status == "exact" and res.value == want
        assert res.lower_bound == want
        assert_represents(res.witness, G)


def test_exact_roberts_three():
    res = exact_boxicity(roberts_graph(3))
    assert res.status == "exact" and res.value == 3
    assert res.witness.d == 3
    assert_represents(res.witness, roberts_graph(3))


def test_exact_roberts_four():
    res = exact_boxicity(roberts_graph(4))
    assert res.status == "exact" and res.value == 4
    assert_represents(res.witness, roberts_graph(4))


def test_budget_exhaustion_is_reported():
    tiny = SearchBudget(max_nodes=20)
    res = boxicity_at_most(roberts_graph(3), 3, tiny)
    assert res.status == "budget-exhausted"
    assert res.value is None and res.witness is None
    whole = exact_boxicity(roberts_graph(3), budget=tiny)
    assert whole.status == "budget-exhausted"
    assert whole.lower_bound >= 1


def test_lower_bound_only_when_capped():
    res = exact_boxicity(roberts_graph(3), d_max=2)
    assert res.status == "lower-bound-only"
    assert res.value is None
    assert res.lower_bound == 3


def test_symmetry_flag_does_not_change_answers():
    rng = random.Random(4040)
    for _ in range(25):
        n = rng.randint(1, 5)
        G = random_graph(n, rng.random(), seed=rng.randrange(10**6))
        fast = exact_boxicity(G)
        plain = exact_boxicity(G, budget=SearchBudget(symmetry_pruning=False))
        assert fast.value == plain.value


def test_witnesses_verify_on_random_graphs():
    rng = random.Random(515)
    for _ in range(20):
        n = rng.randint(2, 6)
        G = random_graph(n, rng.random(), seed=rng.randrange(10**6))
        res = exact_boxicity(G)
        assert res.status == "exact"
        assert res.witness.d == res.value
        assert_represents(res.witness, G)


def test_agreement_with_interval_recognition():
    for n in range(1, 5):
        for G in all_graphs(n):
            one = boxicity_at_most(G, 1)
            assert (one.value == 1) == (recognize_interval(G) is not None)
    rng = random.Random(99)
    for _ in range(60):
        G = random_graph(5, rng.random(), seed=rng.randrange(10**6))
        one = boxicity_at_most(G, 1)
        assert (one.value == 1) == (recognize_interval(G) is not None)


def test_agreement_with_definition_level_oracle():
    for n in range(1, 5):
        for G in all_graphs(n):
            assert exact_boxicity(G).value == reference_boxicity(G)


def test_monotone_under_induced_subgraphs():
    rng = random.Random(77)
    for _ in range(10):
        G = random_graph(6, 0.5, seed=rng.randrange(10**6))
        whole = exact_boxicity(G).value
        size = rng.randint(1, 5)
        S = rng.sample(range(6), size)
        H, _ = induced_subgraph(G, S)
        assert exact_boxicity(H).value <= whole


# ---------------------------------------------------------------- colorings


def test_chromatic_known_values():
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(roberts_graph(3)) == 3  # matched pairs share
    assert chromatic_number(make_graph(3, [])) == 1
    assert chromatic_number(complete(4)) == 4
    assert chromatic_number(make_graph(0, [])) == 0


def test_proper_coloring_is_proper_and_tight():
    G = cycle(5)
    assert proper_coloring(G, 2) is None
    colors = proper_coloring(G, 3)
    assert len(set(check_coloring(G, colors))) == 3
    for u, v in G.edges:
        assert colors[u] != colors[v]


def test_acyclic_known_values():
    assert acyclic_chromatic_number(path(5)) == 2
    assert acyclic_chromatic_number(make_graph(4, [])) == 1
    assert acyclic_chromatic_number(cycle(5)) == 3
    assert acyclic_chromatic_number(complete(4)) == 4


def test_acyclic_coloring_validates_and_is_minimal():
    rng = random.Random(321)
    for _ in range(12):
        n = rng.randint(1, 7)
        G = random_graph(n, rng.random(), seed=rng.randrange(10**6))
        k = acyclic_chromatic_number(G)
        colors = acyclic_coloring(G, k)
        assert acyclic_coloring_problems(G, colors) == []
        if k > 1:
            assert acyclic_coloring(G, k - 1) is None


# ------------------------------------------------------------------ finders


def brute_pair_count(G, xs):
    non_adjacent = [
        (u, v) for u, v in combinations(xs, 2) if not G.has_edge(u, v)
    ]
    best = 0
    for r in range(1, len(xs) // 2 + 1):
        for combo in combinations(non_adjacent, r):
            touched = [x for p in combo for x in p]
            if len(touched) == len(set(touched)):
                best = max(best, r)
    return best


def test_pair_cover_known_shapes():
    G = cycle(4)
    cover = find_pair_cover(G, range(4))
    cover.validate(G)
    assert len(cover.pairs) == 2

    tri = complete(3)
    assert find_pair_cover(tri, range(3)).pairs == ()

    G5 = cycle(5)
    assert len(find_pair_cover(G5, range(5)).pairs) == 2


def test_pair_cover_is_maximum():
    rng = random.Random(888)
    for _ in range(30):
        n = rng.randint(1, 6)
        G = random_graph(n, rng.random(), seed=rng.randrange(10**6))
        xs = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        cover = find_pair_cover(G, xs)
        cover.validate(G)
        assert len(cover.pairs) == brute_pair_count(G, xs)


def test_pair_cover_rejects_empty_x():
    with pytest.raises(InvalidInput):
        find_pair_cover(cycle(4), [])


def test_forest_stable_partition_on_c7():
    part = find_forest_stable_partition(cycle(7))
    assert part is not None
    part.validate(cycle(7))


def test_forest_stable_partition_trivial_on_forests():
    part = find_forest_stable_partition(path(6))
    assert part is not None and part.S == ()
    part.validate(path(6))


def test_forest_stable_partition_none_for_k4():
    assert find_forest_stable_partition(complete(4)) is None


def test_forest_stable_partition_budget():
    with pytest.raises(BudgetExhausted):
        find_forest_stable_partition(complete(4), SearchBudget(max_nodes=2))
