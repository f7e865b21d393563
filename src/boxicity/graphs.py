"""Simple undirected graphs on vertices 0..n-1, family generators and JSON I/O.

Vertex sets are passed around as plain iterables of ints and normalized to
sorted tuples; there is no wrapper class for them.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cached_property
from itertools import combinations

from .errors import InvalidInput, ParseError

# The most vertices a graph may have, as many as a one-dimensional derivation
# step can build on under derivation.MAX_PREDICTED_INTERVALS.  make_graph
# checks it before reading any edge, and the families pass their edges
# lazily, so that a huge n fails at once.
MAX_VERTICES = 10**6
# The most vertex pairs a family generator may walk, or Graph.non_edges list;
# each checks it before the first pair, so that a large n fails at once.
MAX_PAIRS = 10**6


class Graph(namedtuple("Graph", "n edges")):
    """Finite simple graph on 0..n-1; edges is a frozenset of (u, v) pairs
    with u < v.  Instances keep a __dict__ for the cached adjacency."""

    @cached_property
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def nbr_masks(self) -> tuple[int, ...]:
        """Per vertex v, the bitmask of its neighbours (bit w for vertex w)."""
        return tuple(sum(1 << w for w in nbrs) for nbrs in self._adjacency)

    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges if u < v else (v, u) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def non_edges(self) -> list[tuple[int, int]]:
        """All unordered non-adjacent pairs, lexicographically sorted."""
        count = self.n * (self.n - 1) // 2 - len(self.edges)
        if count > MAX_PAIRS:
            raise InvalidInput(f"{self.n} vertices and {len(self.edges)} edges leave "
                               f"{count} non-edges, over the cap of {MAX_PAIRS}")
        return [
            (u, v)
            for u, v in combinations(range(self.n), 2)
            if (u, v) not in self.edges
        ]


def is_int(x) -> bool:
    """An int that is not a bool: JSON true and false are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _bits(mask: int):
    """The indices of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def fields(doc, what: str, keys, optional=()) -> list:
    """The values of a JSON object's keys, in the order given, an absent
    optional key as None.  Every decoder, in any module, reads its document
    through here: anything but an object with all of keys, and no key
    outside keys and optional, raises ParseError naming what."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be an object")
    try:
        values = [doc[key] for key in keys]
    except KeyError:
        raise ParseError(f"{what} is missing {sorted(set(keys) - doc.keys())}") from None
    # with every key of keys present, only a longer doc can hold another
    if len(doc) > len(keys):
        unknown = (doc.keys() - keys).difference(optional)
        if unknown:
            raise ParseError(f"{what} has unknown keys {sorted(unknown)}")
    return values + [doc.get(key) for key in optional]


def vertex_map(doc, where: str, noun: str, decode) -> dict:
    """A JSON object keyed by vertex ids as a dict from each id v to
    decode(v, value, f"{where}[{key}]").  A key is read only as the
    canonical decimal text of an int, so that no two keys name one vertex;
    any other raises ParseError naming noun."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be an object")
    out = {}
    for key, value in doc.items():
        try:
            v = int(key)
        except ValueError:
            v = None
        if v is None or key != str(v):
            raise ParseError(f"{noun} key {key!r} is not a canonical integer")
        out[v] = decode(v, value, f"{where}[{key}]")
    return out


def make_graph(n: int, edges) -> Graph:
    """Build a Graph from an edge iterable, validating and normalizing.

    Rejects negative n, n above MAX_VERTICES, loops, endpoints outside
    0..n-1, and duplicate edges (after orienting each pair as (min, max)).
    """
    if not is_int(n) or n < 0:
        raise InvalidInput(f"vertex count must be a non-negative int, got {n!r}")
    if n > MAX_VERTICES:
        raise InvalidInput(f"vertex count exceeds the cap of {MAX_VERTICES} vertices")
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = e
        if not is_int(u) or not is_int(v):
            raise InvalidInput(f"edge endpoints must be ints, got {e!r}")
        if u == v:
            raise InvalidInput(f"loop at vertex {u} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInput(f"edge {e!r} has an endpoint outside 0..{n - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InvalidInput(f"duplicate edge {key}")
        seen.add(key)
    return Graph(n, frozenset(seen))


def check_vertex_set(G: Graph, S, name=None) -> tuple[int, ...]:
    """Normalize S to a sorted tuple; reject out-of-range ids and repeats,
    a repeat reported with every vertex v written as name(v), if given."""
    out = tuple(sorted(S))
    for v in out:
        if not is_int(v) or not (0 <= v < G.n):
            raise InvalidInput(f"vertex {v!r} is not in 0..{G.n - 1}")
    if len(set(out)) != len(out):
        raise InvalidInput(f"vertex set {list(map(name, out)) if name else list(out)} "
                           "has repeated entries")
    return out


def check_coloring(G: Graph, colors: dict[int, int]) -> list[int]:
    """Normalize a vertex->color map to a dense list with colors 0..k-1."""
    if set(colors) != set(range(G.n)):
        raise InvalidInput("coloring must assign a color to every vertex")
    palette = sorted(set(colors.values()))
    index = {c: i for i, c in enumerate(palette)}
    return [index[colors[v]] for v in range(G.n)]


def induced_subgraph(G: Graph, S) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on S, relabeled to 0..|S|-1.

    Returns (H, vertex_map) where vertex_map[i] is the original id of new
    vertex i; the map is sorted, so relabeling is order-preserving.
    """
    vmap = check_vertex_set(G, S)
    index = {old: new for new, old in enumerate(vmap)}
    edges = [
        (index[u], index[v]) for u, v in G.edges if u in index and v in index
    ]
    return Graph(len(vmap), frozenset(edges)), vmap


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def _pairs(n: int):
    """The pairs u < v of 0..n-1 in lexicographic order, refused above
    MAX_PAIRS; combinations copies its pool when called, so this defers it
    to make_graph's first read, after the vertex cap."""
    pairs = n * (n - 1) // 2
    if pairs > MAX_PAIRS:
        raise InvalidInput(f"{n} vertices make {pairs} pairs, over the cap of {MAX_PAIRS}")
    yield from combinations(range(n), 2)


def complete(n: int) -> Graph:
    return make_graph(n, _pairs(n))


def path(n: int) -> Graph:
    return make_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidInput(f"cycle needs at least 3 vertices, got {n}")
    return make_graph(n, ((i, (i + 1) % n) for i in range(n)))


def roberts_graph(n: int) -> Graph:
    """Complete graph on 2n vertices minus the perfect matching {2i, 2i+1}."""
    if n < 1:
        raise InvalidInput(f"roberts_graph needs n >= 1, got {n}")
    edges = (
        (u, v)
        for u, v in _pairs(2 * n)
        if not (u // 2 == v // 2)
    )
    return make_graph(2 * n, edges)


def subdivided_complete(n: int) -> Graph:
    """Complete graph on n vertices with every edge subdivided once.

    Branch vertices keep ids 0..n-1; the subdivision vertex of edge (u, v)
    gets id n + r where r is the rank of (u, v) among the lexicographically
    sorted edges of the complete graph.
    """
    if n < 1:
        raise InvalidInput(f"subdivided_complete needs n >= 1, got {n}")
    edges = (
        (end, n + r)
        for r, pair in enumerate(_pairs(n))
        for end in pair
    )
    return make_graph(n + n * (n - 1) // 2, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph; deterministic for a fixed seed."""
    if not (0.0 <= p <= 1.0):
        raise InvalidInput(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = (e for e in _pairs(n) if rng.random() < p)
    return make_graph(n, edges)


def random_forest(n: int, seed: int) -> Graph:
    """Random forest: each vertex i > 0 attaches to an earlier vertex with
    probability 0.8, otherwise starts a new component."""
    rng = random.Random(seed)
    edges = ((rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8)
    return make_graph(n, edges)


# ---------------------------------------------------------------------------
# structure probes used by certificate validation and constructions
# ---------------------------------------------------------------------------


def find_cycle(G: Graph) -> list[int] | None:
    """Some cycle of G as a vertex list, or None if G is a forest."""
    parent: dict[int, int | None] = {}
    for root in range(G.n):
        if root in parent:
            continue
        parent[root] = None
        stack = [(root, -1)]
        while stack:
            v, prev = stack.pop()
            for w in sorted(G.neighbors(v)):
                if w == prev:
                    continue
                if w in parent:
                    # walk both endpoints up to the root; the cycle closes at
                    # the first common ancestor
                    path_v = [v]
                    x = v
                    while parent[x] is not None:
                        x = parent[x]
                        path_v.append(x)
                    ancestors = {u: i for i, u in enumerate(path_v)}
                    path_w = [w]
                    x = w
                    while x not in ancestors:
                        x = parent[x]
                        path_w.append(x)
                    return path_w + path_v[: ancestors[path_w[-1]]][::-1]
                parent[w] = v
                stack.append((w, v))
    return None


def within_two(G: Graph) -> list[int]:
    """Per vertex v, the bitmask of the vertices at distance at most 2 from
    v, v included: its neighbours' neighbour masks ORed together."""
    nbr = G.nbr_masks
    out = []
    for v, mask in enumerate(nbr):
        for w in G.neighbors(v):
            mask |= nbr[w]
        out.append(mask | 1 << v)
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def graph_to_dict(G: Graph) -> dict:
    return {"n": G.n, "edges": [list(e) for e in sorted(G.edges)]}


def graph_from_dict(doc) -> Graph:
    n, edges = fields(doc, "graph", ("n", "edges"))
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of [u, v] pairs")
    pairs = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2):
            raise ParseError(f"edges[{i}] must be a [u, v] pair, got {e!r}")
        pairs.append((e[0], e[1]))
    return make_graph(n, pairs)
