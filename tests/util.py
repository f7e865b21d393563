"""Helpers shared across test modules."""

import json
from collections import deque
from fractions import Fraction
from itertools import combinations, count, permutations

from boxicity.boxes import (
    BoxRepresentation,
    box_rep_to_dict,
    from_interval_reps,
    singleton_gadget,
    verify_representation,
)
from boxicity.certificates import (
    CycleClassification,
    ForestStablePartition,
    PairCover,
    Separation,
    acyclic_coloring_problems,
    coloring_to_dict,
)
from boxicity.derivation import (
    RULES,
    AcyclicStep,
    Figure1Step,
    RobertsStep,
    Sur1Step,
    Sur2Step,
    Sur2bisStep,
)
from boxicity.exact import SearchBudget
from boxicity.graphs import Graph, make_graph, roberts_graph
from boxicity.intervals import Interval, check_ordering


def all_graphs(n):
    """Every labeled graph on n vertices, in edge-mask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield make_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def connected_components(G: Graph) -> list[list[int]]:
    """Vertex lists of the components, in order of their least vertex,
    each in breadth-first order from it."""
    seen = [False] * G.n
    comps = []
    for root in range(G.n):
        if seen[root]:
            continue
        comp = []
        queue = deque([root])
        seen[root] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in sorted(G.neighbors(v)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(comp)
    return comps


def bfs_distances(G: Graph, source: int) -> list[int | None]:
    """Hop distances from source; None for unreachable vertices."""
    dist: list[int | None] = [None] * G.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in G.neighbors(v):
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def find_forest_stable_partition_reference(
    G: Graph, budget: SearchBudget | None = None
) -> ForestStablePartition | None:
    """The same search as exact.find_forest_stable_partition, written from
    breadth-first distances and a union-find over all of G's edges per
    vertex tried, with no bitmasks."""
    meter = (budget or SearchBudget()).meter()
    near: list[set[int]] = []
    for v in range(G.n):
        dist = bfs_distances(G, v)
        near.append({u for u, d in enumerate(dist) if d is not None and 0 < d <= 2})

    forest: list[int] = []
    stable: set[int] = set()

    def forest_stays_acyclic(v: int) -> bool:
        parent = {u: u for u in forest}
        parent[v] = v

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        members = set(forest) | {v}
        for u, w in G.edges:
            if u in members and w in members:
                ru, rw = find(u), find(w)
                if ru == rw:
                    return False
                parent[ru] = rw
        return True

    side = [0]
    while side:
        v = len(side) - 1
        if v == G.n:
            return ForestStablePartition(F=tuple(sorted(forest)), S=tuple(sorted(stable)))
        if side[v] == 0:
            meter.tick()
            side[v] = 1
            if forest_stays_acyclic(v):
                forest.append(v)
                side.append(0)
                continue
        if side[v] == 1:
            side[v] = 2
            if not (near[v] & stable):
                stable.add(v)
                side.append(0)
                continue
        side.pop()
        if side:
            if side[-1] == 1:
                forest.pop()
            else:
                stable.remove(v - 1)
    return None


def intersect_orders_reference(orders) -> frozenset:
    """Pairs (a, b) with a at or before b in every order, as the
    intersection of every order's full set of pairs."""
    out = None
    for L in orders:
        pos = {x: i for i, x in enumerate(L)}
        pairs = {(a, b) for a in L for b in L if pos[a] <= pos[b]}
        out = pairs if out is None else out & pairs
    return frozenset(out)


def is_umbrella_free(G: Graph, sigma) -> bool:
    """Definition-level check over all position triples: p(u) < p(v) < p(w)
    with uw an edge forces uv to be an edge."""
    sigma = check_ordering(G, sigma)
    for a in range(G.n):
        u = sigma[a]
        for c in range(a + 2, G.n):
            if not G.has_edge(u, sigma[c]):
                continue
            for b in range(a + 1, c):
                if not G.has_edge(u, sigma[b]):
                    return False
    return True


def meets(a: Interval, b: Interval) -> bool:
    """Closed intervals meet: touching endpoints count."""
    return a.lo <= b.hi and b.lo <= a.hi


def interval_adjacent(layer: dict[int, Interval], u: int, v: int) -> bool:
    """Pairwise oracle for one layer (an interval representation)."""
    return meets(layer[u], layer[v])


def boxes_of(*layers) -> BoxRepresentation:
    """The representation whose layers map each v to (lo, hi)."""
    return BoxRepresentation(
        {v: Interval(Fraction(lo), Fraction(hi)) for v, (lo, hi) in layer.items()}
        for layer in layers
    )


def box_of(B: BoxRepresentation, v: int) -> tuple[Interval, ...]:
    """The box of v: its interval in each layer."""
    return tuple(layer[v] for layer in B.layers)


def box_adjacent(B: BoxRepresentation, u: int, v: int) -> bool:
    """Pairwise oracle: boxes meet when they meet in every layer."""
    return all(interval_adjacent(layer, u, v) for layer in B.layers)


def _dense_graph(dom, adjacent) -> Graph:
    index = {v: i for i, v in enumerate(dom)}
    return Graph(len(dom), frozenset(
        (index[u], index[v]) for u, v in combinations(dom, 2) if adjacent(u, v)
    ))


def box_graph_of(B: BoxRepresentation) -> Graph:
    """The represented graph, relabeled densely through the sorted domain."""
    return _dense_graph(B.domain(), lambda u, v: box_adjacent(B, u, v))


def interval_graph_of(layer: dict[int, Interval]) -> Graph:
    """The intersection graph, relabeled densely through the sorted domain."""
    return _dense_graph(sorted(layer), lambda u, v: interval_adjacent(layer, u, v))


def chord_conflicts_by_scan(G: Graph, non_edges) -> list[int]:
    """exact.chord_conflicts by its definition: row (a, c) scans every
    non-edge (b, d) for b and d both common neighbours of a and c."""
    out = []
    for a, c in non_edges:
        common = G.nbr_masks[a] & G.nbr_masks[c]
        out.append(sum(1 << j for j, (b, d) in enumerate(non_edges)
                       if common >> b & 1 and common >> d & 1))
    return out


def dimension_small(P) -> int:
    """Poset dimension by brute force over every permutation (at most six
    elements): the fewest linear extensions that between them put b before
    a for every incomparable ordered pair (a, b)."""
    elems = sorted(P.elements)
    assert len(elems) <= 6, "brute force is for tiny posets"
    incomparable = frozenset((a, b) for a in elems for b in elems
                             if (a, b) not in P.relation and (b, a) not in P.relation)
    reversed_sets = set()
    for L in permutations(elems):
        pos = {x: i for i, x in enumerate(L)}
        if all(pos[a] <= pos[b] for a, b in P.relation):
            reversed_sets.add(frozenset((a, b) for a, b in incomparable if pos[b] < pos[a]))
    for d in count(1):
        if any(frozenset().union(*sets) == incomparable
               for sets in combinations(reversed_sets, d)):
            return d


def boxicity_by_orderings(G: Graph) -> int:
    """Boxicity by brute force over every vertex ordering (at most six
    vertices): the fewest orderings whose interval closures between them
    exclude every non-edge.

    With u before v in an ordering, the closure adds the non-edge uv
    exactly when some neighbor of u comes after v.  Added edges never reach
    past u's last neighbor, so that one forcing step is already closed.
    Shares no code with the package's closure or ordering search.
    """
    assert 1 <= G.n <= 6, "brute force is for tiny graphs"
    non_edges = frozenset(G.non_edges())
    if not non_edges:
        return 1
    excluded_sets = set()
    for sigma in permutations(range(G.n)):
        pos = {v: i for i, v in enumerate(sigma)}
        excluded_sets.add(frozenset(
            (u, v) for u, v in non_edges
            if not any(pos[w] > max(pos[u], pos[v])
                       for w in G.neighbors(min((u, v), key=pos.get)))
        ))
    maximal = [s for s in excluded_sets if not any(s < t for t in excluded_sets)]
    for d in count(1):
        if any(frozenset().union(*sets) == non_edges
               for sets in combinations(maximal, d)):
            return d


def star(leaves):
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

CLASS_OFFSETS = {"S1": (0,), "S2": (0, 1), "S3": (0, 2), "S4": (0, 1, 2)}


def gadget_instance(
    k: int, classes=("S1", "S2", "S3", "S4")
) -> tuple[Graph, CycleClassification]:
    """Cycle 0..k-1 plus one attachment vertex per (class, anchor) pair.

    Attachment vertices carry exactly the neighborhood their class
    declares and no edges among themselves, so every anchor position of
    every requested class is exercised at once.
    """
    edges = [(i, (i + 1) % k) for i in range(k)]
    assignments: dict[int, tuple[str, int]] = {}
    nxt = k
    for name in classes:
        for anchor in range(k):
            assignments[nxt] = (name, anchor)
            for off in CLASS_OFFSETS[name]:
                edges.append((nxt, (anchor + off) % k))
            nxt += 1
    G = make_graph(nxt, edges)
    cls = CycleClassification(cycle=tuple(range(k)), assignments=assignments)
    return G, cls


def nested_instance():
    """A figure-1 block over sur2bis over an acyclic leaf, beside a sur1
    over a roberts leaf, joined by sur2: 26 vertices, 13 dimensions.
    Returns the graph and the script."""
    base, cls = gadget_instance(6, classes=("S2", "S3"))
    edges = sorted(base.edges) + [(6, 18), (18, 19), (6, 19)]
    edges += [(u + 20, v + 20) for u, v in roberts_graph(3).edges]
    script = Sur2Step(
        sep=Separation(V1=tuple(range(20)), V2=tuple(range(20, 26)), X=()),
        sub1=Figure1Step(cls=cls, sub=Sur2bisStep(
            K=(6, 18, 19), sub=AcyclicStep(coloring={v: v % 2 for v in range(6, 20)}))),
        sub2=Sur1Step(cover=PairCover(X=(20, 21), pairs=((20, 21),)), sub=RobertsStep()),
    )
    return make_graph(26, edges), script


def universal_representation(G: Graph) -> BoxRepresentation:
    """Exact n-dimensional representation: one singleton gadget per vertex.

    Every edge survives in every gadget and the non-adjacencies at v are
    broken in v's own dimension, so the intersection is exactly G.  Handy
    as a valid-but-unoptimized input for composition tests.
    """
    if G.n == 0:
        raise ValueError("need at least one vertex")
    return from_interval_reps([singleton_gadget(G, v) for v in G.vertices()])


def assert_represents(B: BoxRepresentation, G: Graph) -> None:
    report = verify_representation(B, G)
    assert report.equal, (
        f"missing={report.missing_edges} extra={report.extra_edges}"
    )


def greedy_acyclic_coloring(G: Graph) -> dict[int, int]:
    """First-fit coloring kept proper and acyclic on every class pair.

    Not optimal, but always valid: a fresh color can never be rejected.
    """
    colors: dict[int, int] = {}
    for v in range(G.n):
        for c in range(G.n + 1):
            trial = dict(colors)
            trial[v] = c
            # validate on the colored prefix only
            sub_vertices = sorted(trial)
            from boxicity.graphs import induced_subgraph

            sub, vmap = induced_subgraph(G, sub_vertices)
            dense = {i: trial[old] for i, old in enumerate(vmap)}
            if not acyclic_coloring_problems(sub, dense):
                colors[v] = c
                break
        else:
            raise AssertionError("greedy coloring failed to place a vertex")
    return colors


def script_doc(step) -> dict:
    """A derivation step as the JSON script document step_from_dict reads:
    the oracle that writes the tests' scripts.  A certificate is its
    _asdict(), whose tuples json writes as lists and int keys as strings."""
    return json.loads(json.dumps(_step_fields(step)))


def _step_fields(step) -> dict:
    rule = next(rule for rule in RULES if type(step) is rule.step)
    doc = {"rule": rule.name}
    for key, value in step._asdict().items():
        if key in rule.slots:
            value = _step_fields(value)
        elif key == "coloring":
            value = coloring_to_dict(value)
        elif key == "rep":
            value = box_rep_to_dict(value)
        elif hasattr(value, "_asdict"):
            value = value._asdict()
        if value is not None:
            doc[key] = value
    return doc
