"""Definition-level boxicity oracle for cross-validation, n <= 5 only.

Enumerates interval supergraphs directly and solves the resulting covering
problem over excluded non-edges by brute force.  On at most five vertices
a graph is interval exactly when it has no induced four- or five-cycle,
which keeps the intervalness test elementary.  Deliberately shares no code
path with the package's ordering search.
"""

from itertools import combinations

from boxicity.graphs import Graph, induced_subgraph, make_graph

from util import connected_components


def is_interval_small(G: Graph) -> bool:
    assert G.n <= 5
    for size in (4, 5):
        for sub in combinations(range(G.n), size):
            H, _ = induced_subgraph(G, sub)
            degrees = [H.degree(v) for v in range(size)]
            if degrees == [2] * size and len(connected_components(H)) == 1:
                return False
    return True


def reference_boxicity(G: Graph) -> int:
    assert 1 <= G.n <= 5
    non_edges = sorted(G.non_edges())
    if not non_edges:
        return 1
    everything = frozenset(non_edges)
    coverages: set[frozenset] = set()
    for r in range(len(non_edges) + 1):
        for added in combinations(non_edges, r):
            H = make_graph(G.n, sorted(G.edges | set(added)))
            if is_interval_small(H):
                coverages.add(everything - frozenset(added))
    maximal: list[frozenset] = []
    for c in sorted(coverages, key=len, reverse=True):
        if not any(c <= m for m in maximal):
            maximal.append(c)
    for k in range(1, len(non_edges) + 1):
        for combo in combinations(maximal, k):
            if frozenset().union(*combo) == everything:
                return k
    raise AssertionError("some family of interval supergraphs always covers")
