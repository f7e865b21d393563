"""Ordering-search oracle, coloring oracles, and certificate finders."""

import random
import time
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxicity import exact
from boxicity.certificates import acyclic_coloring_problems, check_coloring
from boxicity.errors import BudgetExhausted, InvalidInput
from boxicity.exact import (
    SearchBudget,
    acyclic_chromatic_number,
    acyclic_coloring,
    boxicity_at_most,
    chord_conflicts,
    chromatic_number,
    clique_number,
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

from reference import is_interval_small, reference_boxicity
from util import (
    all_graphs,
    assert_represents,
    boxicity_by_orderings,
    chord_conflicts_by_scan,
    find_forest_stable_partition_reference,
    interval_adjacent,
    orderings_one_tick_per_candidate,
    star,
)


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
                   {"time_limit": True}):
        with pytest.raises(InvalidInput):
            SearchBudget(**limits)


@pytest.mark.parametrize("d", [1.5, 2.5, True, 2.0, "2"])
def test_a_dimension_must_be_an_int(d):
    with pytest.raises(InvalidInput, match="dimension must be an int of at least 1"):
        boxicity_at_most(cycle(5), d)
    with pytest.raises(InvalidInput, match="d_max must be an int of at least 1"):
        exact_boxicity(cycle(5), d_max=d)


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


# The first witness in DFS order, for graphs every version of the search
# decides: pruning that only cuts subtrees without a success cannot move it.
PINNED_ORDERINGS = [
    (cycle(5), ((0, 1, 3, 4, 2), (0, 1, 2, 4, 3))),
    (cycle(6), ((0, 1, 3, 4, 5, 2), (0, 1, 2, 5, 4, 3))),
    (cycle(7), ((0, 1, 3, 4, 5, 6, 2), (0, 1, 2, 6, 4, 5, 3))),
    (cycle(8), ((0, 1, 3, 4, 5, 6, 7, 2), (0, 1, 2, 7, 4, 5, 6, 3))),
    (cycle(9), ((0, 1, 3, 4, 5, 6, 7, 8, 2), (0, 1, 2, 8, 4, 5, 6, 7, 3))),
    (roberts_graph(3), ((0, 2, 3, 4, 5, 1), (0, 1, 2, 4, 5, 3), (0, 1, 2, 3, 4, 5))),
    (roberts_graph(4), ((0, 2, 3, 4, 5, 6, 7, 1), (0, 1, 2, 4, 5, 6, 7, 3),
                        (0, 1, 2, 3, 4, 6, 7, 5), (0, 1, 2, 3, 4, 5, 6, 7))),
    (random_graph(7, 0.5, 1), ((0, 1, 2, 3, 4, 6, 5), (0, 1, 4, 5, 6, 2, 3))),
    (random_graph(8, 0.5, 1), ((0, 1, 2, 4, 5, 6, 7, 3), (0, 3, 5, 6, 7, 4, 1, 2))),
    (random_graph(8, 0.5, 3), ((0, 1, 2, 3, 4, 6, 7, 5), (1, 4, 5, 7, 0, 6, 3, 2))),
    (random_graph(9, 0.5, 1), ((0, 1, 2, 3, 5, 7, 8, 4, 6), (0, 1, 4, 5, 6, 7, 8, 2, 3))),
    (random_graph(10, 0.5, 3), ((0, 1, 2, 4, 5, 6, 8, 3, 7, 9),
                                (1, 2, 7, 0, 6, 9, 3, 4, 8, 5))),
]


@pytest.mark.parametrize("G, orderings", PINNED_ORDERINGS)
def test_exact_value_and_orderings_are_pinned(G, orderings):
    res = exact_boxicity(G)
    assert res.status == "exact"
    assert res.value == len(orderings) and res.orderings == orderings
    assert_represents(res.witness, G)


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
            assert (one.value == 1) == is_interval_small(G)
    rng = random.Random(99)
    for _ in range(60):
        G = random_graph(5, rng.random(), seed=rng.randrange(10**6))
        one = boxicity_at_most(G, 1)
        assert (one.value == 1) == is_interval_small(G)


def test_agreement_with_definition_level_oracle():
    for n in range(1, 5):
        for G in all_graphs(n):
            assert exact_boxicity(G).value == reference_boxicity(G)


def test_agreement_with_brute_force_over_orderings():
    def check(G, want):
        assert exact_boxicity(G).value == want, G.edges
        two = boxicity_at_most(G, 2)
        assert two.status == "exact" and (two.value == 2) == (want <= 2), G.edges

    rng = random.Random(606)
    graphs = [random_graph(6, rng.uniform(0.4, 0.9), seed=rng.randrange(10**6))
              for _ in range(80)]
    for G in graphs + [roberts_graph(3)]:
        check(G, boxicity_by_orderings(G))
    # The walk follows the labels, so each relabelling makes other prefixes
    # meet on one placed set.  On this graph, a C5 plus a vertex joined to
    # four of its vertices, some labellings lose the witness if a failed
    # state is remembered without its surviving non-edges.
    base = sorted(cycle(5).edges) + [(v, 5) for v in range(4)]
    want = boxicity_by_orderings(make_graph(6, base))
    assert want == 2
    for p in permutations(range(6)):
        check(make_graph(6, [(p[u], p[v]) for u, v in base]), want)


# G(n, 1/2) instances where dead prefixes recur: without the memo of failed
# (placed, surviving) states they take 914k and 341k nodes.
@pytest.mark.parametrize("n, seed, value", [(10, 7, 3), (12, 4, 2)])
def test_recurring_dead_prefixes_are_cut(n, seed, value):
    res = exact_boxicity(random_graph(n, 0.5, seed))
    assert res.status == "exact" and res.value == value
    assert res.nodes < 10_000


def outcome(res):
    return res.status, res.value, res.lower_bound, res.nodes, res.orderings


@st.composite
def capped_graphs(draw):
    n = draw(st.integers(1, 9))
    flips = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    edges = [e for e, keep in zip(combinations(range(n), 2), flips) if keep]
    # most of these searches take under a hundred nodes, so small caps are
    # drawn as often as any
    cap = draw(st.integers(1, 100) | st.integers(1, 5000))
    return make_graph(n, edges), SearchBudget(max_nodes=cap)


def assert_matches_the_reference(G, budget):
    def calls():
        return [outcome(exact_boxicity(G, budget=budget))] + [
            outcome(boxicity_at_most(G, d, budget)) for d in (1, 2, 3)]

    walked = calls()
    with mock.patch.object(exact._ClosureSearch, "_orderings",
                           orderings_one_tick_per_candidate):
        assert walked == calls()


@settings(max_examples=200, deadline=None)
@given(capped_graphs())
def test_the_walk_matches_the_one_tick_per_candidate_reference(case):
    """The bit-mask walk counts a state's nodes in batches, and these graphs
    decide their last dimension over the subset lattice, but the search
    walks the same tree: the same outcomes, orderings and node counts,
    capped or not."""
    assert_matches_the_reference(*case)


@settings(max_examples=200, deadline=None)
@given(capped_graphs())
def test_the_walk_alone_matches_the_one_tick_per_candidate_reference(case):
    """With the lattice cap at 0 every last dimension is walked."""
    with mock.patch.object(exact, "LATTICE_MAX_VERTICES", 0):
        assert_matches_the_reference(*case)


def test_a_graph_above_the_lattice_cap_keeps_its_walk():
    """G(13, 0.4) seed 2 walks its last dimension, and the lattice, allowed
    to 13 vertices, gives the same outcome, orderings and nodes."""
    G = random_graph(13, 0.4, 2)
    budget = SearchBudget(max_nodes=250_000)
    walked = outcome(exact_boxicity(G, budget=budget))
    assert walked[:4] == ("exact", 2, 2, 26_916)
    assert walked[4] == ((0, 1, 3, 6, 9, 10, 11, 2, 4, 8, 7, 5, 12),
                         (1, 2, 9, 11, 12, 7, 8, 10, 5, 3, 4, 0, 6))
    with mock.patch.object(exact, "LATTICE_MAX_VERTICES", 13):
        assert outcome(exact_boxicity(G, budget=budget)) == walked


@pytest.mark.parametrize("n, seed, status, value, nodes", [
    (11, 3, "exact", 2, 48_409),
    (12, 1, "exact", 3, 33_351),
    (12, 2, "budget-exhausted", None, 250_001),
])
def test_search_workload_graphs_keep_their_node_counts(n, seed, status, value, nodes):
    res = exact_boxicity(random_graph(n, 0.5, seed), budget=SearchBudget(max_nodes=250_000))
    assert (res.status, res.value, res.nodes) == (status, value, nodes)


def test_monotone_under_induced_subgraphs():
    rng = random.Random(77)
    for _ in range(10):
        G = random_graph(6, 0.5, seed=rng.randrange(10**6))
        whole = exact_boxicity(G).value
        size = rng.randint(1, 5)
        S = rng.sample(range(6), size)
        H, _ = induced_subgraph(G, S)
        assert exact_boxicity(H).value <= whole


# ----------------------------------------------------------- chord conflicts


def conflicts_of(G):
    return chord_conflicts(G, G.non_edges())


def conflict_clique(G):
    return clique_number(conflicts_of(G), SearchBudget().meter())


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_chord_conflicts_match_the_scan(p):
    rng = random.Random(f"chords {p}")
    for _ in range(6):
        G = random_graph(rng.randint(1, 40), p, seed=rng.randrange(10**6))
        assert conflicts_of(G) == chord_conflicts_by_scan(G, G.non_edges())
    # a non_edges list in another order indexes the masks by that order
    order = G.non_edges()
    rng.shuffle(order)
    assert chord_conflicts(G, order) == chord_conflicts_by_scan(G, order)


def test_roberts_conflict_clique_is_m():
    for m in range(2, 7):
        assert conflict_clique(roberts_graph(m)) == m


def test_chordless_shapes_have_no_conflicts():
    for G in (path(6), star(5), complete(5), cycle(5), make_graph(4, [])):
        assert not any(conflicts_of(G))


def test_c4_has_one_conflicting_pair_and_c5_is_refuted_by_search():
    assert conflicts_of(cycle(4)) == [0b10, 0b01]  # chords (0, 2) and (1, 3)
    assert conflict_clique(cycle(4)) == 2
    assert conflict_clique(cycle(5)) == 1
    meter = SearchBudget().meter()
    clique_number(conflicts_of(cycle(5)), meter)
    whole = exact_boxicity(cycle(5))
    one, two = boxicity_at_most(cycle(5), 1), boxicity_at_most(cycle(5), 2)
    assert one.value is None and one.nodes > 0 and two.value == 2
    assert whole.value == 2
    assert whole.nodes == meter.nodes + one.nodes + two.nodes


class StepClock:
    """Stands in for the time module: monotonic() reads 0, 1, 2, ..."""

    def __init__(self):
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return self.reads - 1


def run_ticks(monkeypatch, budget, ks):
    """The meter's node count, the clock reads and the error after
    tick(k) for each k in ks, on a StepClock."""
    clock = StepClock()
    monkeypatch.setattr(exact, "time", clock)
    meter = budget.meter()  # reads 0
    try:
        for k in ks:
            meter.tick(k)
    except BudgetExhausted as exc:
        return meter.nodes, clock.reads, str(exc)
    return meter.nodes, clock.reads, None


@pytest.mark.parametrize("max_nodes, time_limit, ks, want", [
    # 256 reads 1; the batch of 600 crosses 512, reading 2, and 768, reading 3:
    # past the deadline
    (10_000, 2.5, [255, 2, 600], (768, 4, "time limit of 2.5s exceeded")),
    # 256 reads the clock, then the cap falls inside the same batch
    (300, 10.0, [250, 100], (301, 2, "node budget of 300 exceeded")),
    # both inside one batch, the deadline passed at 256: the deadline raises first
    (300, 0.5, [400], (256, 2, "time limit of 0.5s exceeded")),
    # a cap on a multiple of 256 reads the clock there before raising
    (256, 10.0, [1000], (257, 2, "node budget of 256 exceeded")),
    (1000, 10.0, [100, 0, 156, 1], (257, 2, None)),
])
def test_a_batch_of_ticks_counts_as_single_ticks_do(monkeypatch, max_nodes, time_limit,
                                                    ks, want):
    budget = SearchBudget(max_nodes, time_limit)
    assert run_ticks(monkeypatch, budget, ks) == want
    assert run_ticks(monkeypatch, budget, [1] * sum(ks)) == want


def test_chord_conflict_table_checks_the_deadline_once_per_row(monkeypatch):
    clock = StepClock()
    monkeypatch.setattr(exact, "time", clock)
    meter = SearchBudget(time_limit=3.5).meter()  # reads 0
    with pytest.raises(BudgetExhausted):
        chord_conflicts(cycle(7), cycle(7).non_edges(), meter)
    # non-edges 0, 1 and 2 read 1, 2 and 3; non-edge 3 reads 4, past the deadline
    assert clock.reads == 5 and meter.nodes == 0


def test_chord_conflict_masks_check_the_deadline_once_per_non_edge(monkeypatch):
    clock = StepClock()
    monkeypatch.setattr(exact, "time", clock)
    meter = SearchBudget(time_limit=16.5).meter()  # reads 0
    with pytest.raises(BudgetExhausted):
        chord_conflicts(cycle(7), cycle(7).non_edges(), meter)
    # the 14 non-edges read 1..14 and rows 0 and 1 read 15 and 16; row 2
    # reads 17, past the deadline
    assert clock.reads == 18 and meter.nodes == 0


def test_exact_time_limit_stops_the_conflict_masks_of_a_sparse_graph():
    """Building the masks of 499,500 non-edges one bit at a time is itself
    quadratic: about 4 s on a 2-core x86-64 VM without the deadline."""
    start = time.monotonic()
    res = exact_boxicity(make_graph(1000, []), budget=SearchBudget(time_limit=0.01))
    assert time.monotonic() - start < 2.0
    assert (res.status, res.lower_bound, res.nodes) == ("budget-exhausted", 1, 0)


def test_exact_time_limit_covers_the_chord_conflict_table(monkeypatch):
    monkeypatch.setattr(exact, "time", StepClock())
    res = exact_boxicity(cycle(7), budget=SearchBudget(time_limit=0.5))
    assert (res.status, res.lower_bound, res.nodes) == ("budget-exhausted", 1, 0)
    monkeypatch.setattr(exact, "time", StepClock())
    res = boxicity_at_most(cycle(7), 2, SearchBudget(time_limit=0.5))
    assert (res.status, res.nodes) == ("budget-exhausted", 0)


def test_conflict_bound_and_witness_dimensions_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 8)
        G = random_graph(n, rng.random(), seed=rng.randrange(10**6))
        non_edges = G.non_edges()
        conflicts = chord_conflicts(G, non_edges)
        res = exact_boxicity(G)
        assert res.status == "exact"
        assert clique_number(conflicts, SearchBudget().meter()) <= res.value
        for i, R in enumerate(res.witness.layers):
            excluded = sum(1 << j for j, (u, v) in enumerate(non_edges)
                           if not interval_adjacent(R, u, v))
            assert not any(excluded >> j & 1 and conflicts[j] & excluded
                           for j in range(len(non_edges))), (G.edges, i)


def test_budget_caps_the_whole_call():
    rng = random.Random(31)
    graphs = [roberts_graph(4), roberts_graph(5), random_graph(10, 0.5, 7)]
    graphs += [random_graph(9, 0.5, seed=rng.randrange(10**6)) for _ in range(5)]
    for cap in (1, 2, 3, 5, 20, 100, 1000, 20_000):
        for G in graphs:
            res = exact_boxicity(G, budget=SearchBudget(max_nodes=cap))
            # a search stops on the tick past the cap
            assert res.nodes == cap + 1 if res.status == "budget-exhausted" else res.nodes <= cap


@pytest.mark.parametrize("G, value, nodes", [
    (cycle(9), 2, 203), (roberts_graph(5), 5, 75), (random_graph(10, 0.5, 7), 3, 3843),
    (random_graph(11, 0.5, 3), 2, 48_409)])
def test_one_chord_conflict_table_per_call(monkeypatch, G, value, nodes):
    """The clique bound and every d share one closure search, so the
    chord-conflict table and the lattice tables are each built once per
    call however many d and last dimensions are tried (G(11, 1/2) seed 3
    decides 41 last dimensions)."""
    builds = []

    def counted(build):
        def run(*args):
            builds.append(build.__name__)
            return build(*args)
        return run

    for build in (chord_conflicts, exact.subset_families):
        monkeypatch.setattr(exact, build.__name__, counted(build))
    res = exact_boxicity(G)
    assert (res.status, res.value, res.nodes) == ("exact", value, nodes)
    assert sorted(builds) == ["chord_conflicts", "subset_families"]


def test_a_capped_lattice_call_reads_the_clock_as_the_walk_does(monkeypatch):
    """G(11, 1/2) seed 3 crosses a cap of 5000 inside a last dimension.
    The lattice ticks its nodes in one batch and the walk state by state,
    but both read the clock once for the meter, once per non-edge and
    chord-conflict row (33 each) and once per 256 nodes, and stop on the
    tick past the cap."""
    G = random_graph(11, 0.5, 3)

    def run(cap):
        clock = StepClock()
        monkeypatch.setattr(exact, "time", clock)
        monkeypatch.setattr(exact, "LATTICE_MAX_VERTICES", cap)
        res = exact_boxicity(G, budget=SearchBudget(max_nodes=5000, time_limit=10**6))
        return res.status, res.nodes, clock.reads

    assert run(12) == run(0) == ("budget-exhausted", 5001, 1 + 33 + 33 + 5000 // 256)


def test_a_call_capped_between_two_d_counts_the_tick_past_the_cap():
    """C5's clique bound and its refuted d = 1 take exactly 44 nodes; d = 2
    goes on with the same search and stops on its first tick, so the call
    reports max_nodes + 1 nodes like every other capped call."""
    res = exact_boxicity(cycle(5), budget=SearchBudget(max_nodes=44))
    assert (res.status, res.lower_bound, res.nodes) == ("budget-exhausted", 2, 45)
    res = exact_boxicity(cycle(5), budget=SearchBudget(max_nodes=45))
    assert (res.status, res.lower_bound, res.nodes) == ("budget-exhausted", 2, 46)


def test_conflict_bound_above_d_max_is_reported_without_search():
    res = exact_boxicity(roberts_graph(5), d_max=3)
    assert res.status == "lower-bound-only" and res.value is None
    assert res.lower_bound == 5
    assert res.nodes == 5  # one tick per clique branch, no ordering search


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


def test_coloring_is_not_bounded_by_recursion_depth():
    G = path(1500)
    colors = proper_coloring(G, 2)
    assert [colors[v] for v in range(4)] == [0, 1, 0, 1]
    assert all(colors[u] != colors[v] for u, v in G.edges)


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


@pytest.mark.parametrize("number, coloring", [(chromatic_number, proper_coloring),
                                              (acyclic_chromatic_number, acyclic_coloring)])
def test_coloring_number_searches_share_one_budget_across_k(number, coloring):
    """One tick per color tried, counted over every k the search asks."""
    G = random_graph(9, 0.5, 3)
    meter = SearchBudget().meter()
    k = number(G, meter)
    per_k = SearchBudget().meter()
    for j in range(k + 1):
        coloring(G, j, per_k)
    assert per_k.nodes == meter.nodes > k
    assert number(G, SearchBudget(max_nodes=meter.nodes)) == k
    with pytest.raises(BudgetExhausted, match=f"node budget of {meter.nodes - 1} exceeded"):
        number(G, SearchBudget(max_nodes=meter.nodes - 1))


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


def test_forest_stable_partition_matches_the_reference_finder():
    rng = random.Random(1414)
    found = 0
    for _ in range(320):
        n = rng.randint(1, 14)
        G = random_graph(n, rng.uniform(0.1, 0.6), seed=rng.randrange(10**6))
        part = find_forest_stable_partition(G)
        assert part == find_forest_stable_partition_reference(G)
        if part is not None:
            part.validate(G)
            found += 1
    assert 0 < found < 320  # both outcomes occur


def test_forest_stable_partition_budget():
    with pytest.raises(BudgetExhausted):
        find_forest_stable_partition(complete(4), SearchBudget(max_nodes=2))
