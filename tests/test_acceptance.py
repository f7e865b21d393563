"""Gate suite: one test per release criterion, each with a wall-clock cap.

Every test emits a single machine-greppable verdict:

    [acceptance] criterion N: PASS

The lines are printed where they happen and replayed after the run by
conftest.pytest_terminal_summary, so they survive output capture.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import conftest

from boxicity.boxes import (
    acyclic_pipeline,
    forest_two_dim,
    girth4_pipeline,
    relabel_box_representation,
    roberts_representation,
    sur1_compose,
    sur2_compose,
    sur2bis_double,
    verify_representation,
)
from boxicity.certificates import ForestStablePartition, PairCover, Separation
from boxicity.derivation import BaseOracleStep, Girth4Step, Sur1Step, assemble
from boxicity.exact import (
    acyclic_chromatic_number,
    acyclic_coloring,
    chromatic_number,
    exact_boxicity,
    find_forest_stable_partition,
    find_pair_cover,
    proper_coloring,
)
from boxicity.figure1 import figure1_gadget, figure1_problems
from boxicity.graphs import (
    cycle,
    induced_subgraph,
    make_graph,
    random_forest,
    random_graph,
    roberts_graph,
)
from boxicity.posets import (
    adjacency_poset,
    bound_calculator,
    chi_realizer_extensions,
    intersect_orders,
    is_linear_extension,
    starred_poset,
)
from reference import reference_boxicity
from util import (
    all_graphs,
    box_adjacent,
    box_of,
    connected_components,
    gadget_instance,
    universal_representation,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _verdict(number: int, word: str) -> None:
    line = f"[acceptance] criterion {number}: {word}"
    print(line, flush=True)
    conftest.acceptance_lines.append(line)


@contextmanager
def criterion(number: int, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if elapsed >= limit_seconds:
            raise AssertionError(
                f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s"
            )
    except BaseException:
        _verdict(number, "FAIL")
        raise
    _verdict(number, "PASS")


def subset_universal(G, S):
    """Exact representation of G[S], keyed by the original vertex ids."""
    H, vmap = induced_subgraph(G, S)
    return relabel_box_representation(universal_representation(H),
                                      dict(enumerate(vmap)))


def test_criterion_1_exact_matched_complement_values():
    with criterion(1, 185.0):
        for n in (1, 2, 3):
            start = time.monotonic()
            result = exact_boxicity(roberts_graph(n))
            assert time.monotonic() - start < 60.0
            assert result.value == n and result.status == "exact"
            assert verify_representation(result.witness, roberts_graph(n)).equal


def test_criterion_2_matched_complement_family():
    with criterion(2, 1.0):
        for n in range(1, 7):
            B = roberts_representation(n)
            assert B.d == n
            assert verify_representation(B, roberts_graph(n)).equal


def test_criterion_3_cycle_gadget_contract_and_goldens():
    with criterion(3, 1.0):
        for k in range(6, 13):
            G, cls = gadget_instance(k)
            B = figure1_gadget(G, cls)
            assert figure1_problems(G, cls, B) == []
            for i in range(k):
                for j in range(i + 1, k):
                    on_cycle = (j - i == 1) or (i == 0 and j == k - 1)
                    assert box_adjacent(B, i, j) == on_cycle
            for v in cls.assignments:
                got = {u for u in range(k) if box_adjacent(B, v, u)}
                assert got == cls.expected_neighbors(v)
            boxes = {}
            for v in B.domain():
                entry = []
                for side in box_of(B, v):
                    lo, hi = side.lo * 2, side.hi * 2
                    assert lo.denominator == 1 and hi.denominator == 1
                    entry.append([int(lo), int(hi)])
                boxes[str(v)] = entry
            doc = {"k": k, "scale": 2, "boxes": boxes}
            text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
            assert text == (GOLDEN_DIR / f"figure1_k{k}.json").read_text()


def test_criterion_4_composition_property_suites():
    with criterion(4, 300.0):
        rng = random.Random(20260814)

        done = 0
        while done < 200:
            n = rng.randint(3, 10)
            G = random_graph(n, rng.uniform(0.2, 0.8), rng.randrange(2 ** 30))
            X = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
            cover = find_pair_cover(G, X)
            rest = [v for v in range(n) if v not in set(X)]
            if not rest:
                continue
            B_sub = subset_universal(G, rest)
            B = sur1_compose(G, cover, B_sub)
            assert B.d == B_sub.d + len(X) - len(cover.pairs)
            assert verify_representation(B, G).equal
            done += 1

        done = 0
        while done < 200:
            n = rng.randint(4, 10)
            G = random_graph(n, rng.uniform(0.05, 0.45), rng.randrange(2 ** 30))
            X = sorted(rng.sample(range(n), rng.randint(0, n - 2)))
            rest = [v for v in range(n) if v not in set(X)]
            H, vmap = induced_subgraph(G, rest)
            comps = connected_components(H)
            if len(comps) < 2:
                continue
            V1 = sorted(vmap[v] for v in comps[0])
            V2 = sorted(set(rest) - set(V1))
            sep = Separation(V1=tuple(V1), V2=tuple(V2), X=tuple(X))
            B1 = subset_universal(G, V1 + X)
            B2 = subset_universal(G, V2 + X)
            B = sur2_compose(G, sep, B1, B2)
            assert B.d == B1.d + B2.d + 1
            assert verify_representation(B, G).equal
            done += 1

        for _ in range(200):
            n = rng.randint(2, 10)
            G = random_graph(n, rng.uniform(0.1, 0.7), rng.randrange(2 ** 30))
            K = sorted(rng.sample(range(n), rng.randint(0, min(n, 4))))
            inside = {(u, v) for i, u in enumerate(K) for v in K[i + 1:]}
            kept = [e for e in sorted(G.edges) if tuple(e) not in inside]
            H = make_graph(n, kept)
            target = make_graph(n, H.edges | inside)
            B = sur2bis_double(universal_representation(H), K)
            assert B.d == 2 * n
            assert verify_representation(B, target).equal

        for _ in range(200):
            F = random_forest(rng.randint(1, 10), rng.randrange(2 ** 30))
            B = forest_two_dim(F)
            assert B.d == 2
            assert verify_representation(B, F).equal

        done = 0
        while done < 200:
            n = rng.randint(2, 10)
            G = random_graph(n, rng.uniform(0.2, 0.7), rng.randrange(2 ** 30))
            if not G.edges:
                continue
            k = acyclic_chromatic_number(G)
            if k < 2:
                continue
            colors = acyclic_coloring(G, k)
            B = acyclic_pipeline(G, colors)
            assert B.d == k * (k - 1)
            assert verify_representation(B, G).equal
            done += 1

        done = 0
        while done < 200:
            n = rng.randint(1, 10)
            G = random_graph(n, rng.uniform(0.05, 0.3), rng.randrange(2 ** 30))
            part = find_forest_stable_partition(G)
            if part is None:
                continue
            B = girth4_pipeline(G, part)
            assert B.d == 4
            assert verify_representation(B, G).equal
            done += 1


def test_criterion_5_script_on_k8_minus_matching():
    with criterion(5, 30.0):
        G = roberts_graph(4)
        script = Sur1Step(
            cover=PairCover(X=(0, 1, 2, 3), pairs=((0, 1), (2, 3))),
            sub=BaseOracleStep(),
        )
        B, report = assemble(G, script)
        assert B.d == 4 and report.verified
        assert verify_representation(B, G).equal
        assert exact_boxicity(G).value == 4


def test_criterion_6_coloring_pipeline_bound():
    with criterion(6, 300.0):
        rng = random.Random(1411)
        done = 0
        while done < 20:
            n = rng.randint(2, 8)
            G = random_graph(n, rng.uniform(0.2, 0.8), rng.randrange(2 ** 30))
            if not G.edges:
                continue
            k = acyclic_chromatic_number(G)
            colors = acyclic_coloring(G, k)
            B = acyclic_pipeline(G, colors)
            assert B.d == k * (k - 1)
            assert verify_representation(B, G).equal
            done += 1


def test_criterion_7_oracle_cross_validation():
    with criterion(7, 600.0):
        for n in range(1, 5):
            for G in all_graphs(n):
                assert exact_boxicity(G).value == reference_boxicity(G)
        rng = random.Random(5050)
        for _ in range(50):
            G = random_graph(5, rng.uniform(0.1, 0.9), rng.randrange(2 ** 30))
            assert exact_boxicity(G).value == reference_boxicity(G)


def test_criterion_8_poset_suite():
    with criterion(8, 60.0):
        for n in range(1, 5):
            for G in all_graphs(n):
                colors = proper_coloring(G, chromatic_number(G))
                orders = chi_realizer_extensions(G, colors)
                P, star = adjacency_poset(G), starred_poset(G)
                assert all(is_linear_extension(P, L) for L in orders)
                assert intersect_orders(orders) & star.relation == P.relation
        # the torus: 2 * 7 + 7 + 4, from the abstract's boxicity bound of 7
        report = bound_calculator(g=1, orientable=True)
        assert report.dim_bound.floor == 25
        assert report.dim_bound.exact == 25


def test_criterion_9_girth_pipeline_on_c7():
    with criterion(9, 1.0):
        G = cycle(7)
        part = ForestStablePartition(F=(1, 2, 3, 4, 5, 6), S=(0,))
        B, report = assemble(G, Girth4Step(part=part))
        assert B.d == 4 and report.verified
        assert verify_representation(B, G).equal
