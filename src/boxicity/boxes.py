"""Axis-parallel box representations and the composition operations.

A d-dimensional box representation is stored as its d layers: layer i is
an interval representation (see `intervals`), and the box of a vertex v is
the product of the intervals layer[v].  Two vertices are adjacent exactly
when their boxes meet, i.e. when their intervals meet in every layer, so the
represented graph is the intersection of the d interval graphs.  Every
operation here reads and writes whole layers; only the JSON format lists
each vertex's box as a row of d intervals.

The composition operations each consume a certificate and produce a
representation whose dimension is an exact function of the inputs.  They
take the certificate as valid: the derivation rule that calls them has
already validated it (see `certificates`).  What they still check is what
the certificate does not cover, the child representations: their domains,
and their agreement with the graph, so that each child is checked once, by
the composition that takes it; canonical_extension then lifts its layers
unchecked, since a child that agrees with the graph covers every edge in
each layer.  sur2bis_double takes its child as it is, and the pipelines
lift exact forest_two_dim layouts: what consumes these results checks them
(derivation.assemble at the root).  Doubling keeps every pair outside K,
so a wrong child still fails that check.  The dimensions:

  pair/singleton gadgets      1 dimension, breaks all non-adjacencies at the
                              chosen vertices
  sur1_compose                d(sub) + |X| - #pairs
  sur2_compose                d(B1) + d(B2) + 1
  sur2bis_double              2 d(B)
  forest_two_dim              2
  acyclic_pipeline            k(k-1) for a k-class coloring
  girth4_pipeline             4
  roberts_representation(n)   n, and n is optimal for that graph
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import combinations

from .certificates import ForestStablePartition, PairCover, Separation, check_coloring
from .errors import InvalidInput, ParseError
from .graphs import (
    Graph,
    check_vertex_set,
    fields,
    find_cycle,
    induced_subgraph,
    is_int,
    vertex_map,
)
from .intervals import (
    Interval,
    canonical_extension,
    _disagreeing_pairs,
    interval_from_pairs,
    interval_to_pairs,
    meet_masks,
    span,
)


class BoxRepresentation(namedtuple("BoxRepresentation", "layers")):
    """Its layers are d >= 1 dicts from vertex ids to Intervals, all on one
    nonempty key set, the domain.

    Like a single layer, the ids are arbitrary ints so that a
    representation can live on a subset of an ambient graph's vertices.
    """

    __slots__ = ()

    def __new__(cls, layers):
        layers = tuple(layers)
        if not layers:
            raise InvalidInput("need at least one dimension")
        if not layers[0]:
            raise InvalidInput("empty representation")
        if any(layer.keys() != layers[0].keys() for layer in layers[1:]):
            raise InvalidInput("dimension domains differ")
        return super().__new__(cls, layers)

    @property
    def d(self) -> int:
        return len(self.layers)

    def domain(self) -> tuple[int, ...]:
        return tuple(sorted(self.layers[0]))

    def meet_masks(self) -> dict[int, int]:
        """Per vertex, the bitmask of the vertices whose boxes meet its box:
        the AND of every layer's meet_masks, taken one at a time."""
        dims = map(meet_masks, self.layers)
        return reduce(lambda acc, dim: {v: m & dim[v] for v, m in acc.items()}, dims)


def from_interval_reps(layers) -> BoxRepresentation:
    """Stack layers into a representation, one dimension each."""
    return BoxRepresentation(layers)


def relabel_box_representation(
    B: BoxRepresentation, mapping: dict[int, int]
) -> BoxRepresentation:
    for v in B.layers[0]:
        if v not in mapping:
            raise InvalidInput(f"relabeling misses vertex {v}")
    if len(set(map(mapping.__getitem__, B.layers[0]))) != len(B.layers[0]):
        raise InvalidInput("relabeling is not injective")
    return BoxRepresentation(
        {mapping[v]: iv for v, iv in layer.items()} for layer in B.layers
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


# missing_edges are in the graph, not in the boxes; extra_edges the reverse
VerificationReport = namedtuple("VerificationReport", "equal missing_edges extra_edges")


def verify_representation(B: BoxRepresentation, G: Graph) -> VerificationReport:
    """Compare the represented graph against G, listing the disagreeing
    pairs in lexicographic order.

    The domain must be exactly V(G); a wrong domain is an input error, not a
    verification failure.
    """
    if set(B.domain()) != set(range(G.n)):
        raise InvalidInput(
            f"domain {list(B.domain())} does not match vertex set 0..{G.n - 1}"
        )
    missing = []
    extra = []
    for u, v in _disagreeing_pairs(B.meet_masks(), G.nbr_masks):
        (missing if G.has_edge(u, v) else extra).append((u, v))
    return VerificationReport(not missing and not extra, missing, extra)


def _check_agrees(B: BoxRepresentation, G: Graph, what: str) -> None:
    """Require the represented graph to equal G induced on B's domain."""
    bad = next(_disagreeing_pairs(B.meet_masks(), G.nbr_masks), None)
    if bad is not None:
        raise InvalidInput(f"{what} disagrees with the graph at pair {bad}")


# ---------------------------------------------------------------------------
# one-dimensional gadgets
# ---------------------------------------------------------------------------


def pair_gadget(G: Graph, u: int, v: int) -> dict[int, Interval]:
    """One dimension that separates the non-adjacent pair u, v.

    u sits at 0 and v at 2; common neighbors span [0, 2], private neighbors
    get the matching half, everything else sits at 1.  The result is a
    supergraph of G in which u and v keep all their non-adjacencies.
    """
    check_vertex_set(G, [u, v])
    if u == v:
        raise InvalidInput("pair gadget needs two distinct vertices")
    if G.has_edge(u, v):
        raise InvalidInput(f"pair gadget needs a non-adjacent pair, got edge ({u}, {v})")
    out = {u: Interval(0, 0), v: Interval(2, 2)}
    for w in G.vertices():
        if w in (u, v):
            continue
        near_u = G.has_edge(w, u)
        near_v = G.has_edge(w, v)
        if near_u and near_v:
            out[w] = Interval(0, 2)
        elif near_u:
            out[w] = Interval(0, 1)
        elif near_v:
            out[w] = Interval(1, 2)
        else:
            out[w] = Interval(1, 1)
    return out


def singleton_gadget(G: Graph, v: int) -> dict[int, Interval]:
    """One dimension that separates v from all its non-neighbors."""
    check_vertex_set(G, [v])
    out = {v: Interval(0, 0)}
    for w in G.vertices():
        if w == v:
            continue
        out[w] = Interval(0, 1) if G.has_edge(w, v) else Interval(1, 1)
    return out


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def sur1_compose(
    G: Graph, cover: PairCover, B_sub: BoxRepresentation
) -> BoxRepresentation:
    """Splice a representation of G minus X back into G, for a valid pair
    cover that leaves a vertex outside X.

    Each layer of B_sub is canonically extended to V(G); every cover
    pair contributes one pair-gadget dimension and every uncovered vertex of
    X one singleton dimension.  Total: d(B_sub) + |X| - #pairs.
    """
    xs = set(cover.X)
    rest = tuple(v for v in G.vertices() if v not in xs)
    if B_sub.domain() != rest:
        raise InvalidInput(
            f"sub-representation domain {list(B_sub.domain())} is not "
            f"V minus X = {list(rest)}"
        )
    _check_agrees(B_sub, G, "sub-representation")
    dims = canonical_extension(B_sub.layers, G)
    for a, b in cover.pairs:
        dims.append(pair_gadget(G, a, b))
    for v in cover.uncovered():
        dims.append(singleton_gadget(G, v))
    return from_interval_reps(dims)


def sur2_compose(
    G: Graph,
    sep: Separation,
    B1: BoxRepresentation,
    B2: BoxRepresentation,
) -> BoxRepresentation:
    """Glue representations of the two sides of a valid separation.

    B1 must represent, on V1 + X, a supergraph of the induced subgraph that
    agrees with G on every pair except possibly pairs inside X; B2 must
    represent G induced on V2 + X exactly.  Both checks are performed here,
    pair by pair.  One extra dimension places V1 at 0, V2 at 1 and X across
    [0, 1].  Total: d(B1) + d(B2) + 1.
    """
    side1 = tuple(sorted(set(sep.V1) | set(sep.X)))
    side2 = tuple(sorted(set(sep.V2) | set(sep.X)))
    if B1.domain() != side1:
        raise InvalidInput(
            f"B1 domain {list(B1.domain())} is not V1 + X = {list(side1)}"
        )
    if B2.domain() != side2:
        raise InvalidInput(
            f"B2 domain {list(B2.domain())} is not V2 + X = {list(side2)}"
        )
    # B1 may add non-edges inside X: those pairs are not compared
    in_x = set(sep.X)
    x_mask = sum(1 << v for v in in_x)
    nbr = G.nbr_masks
    bad = next(_disagreeing_pairs(
        B1.meet_masks(), nbr, lambda u: ~x_mask | nbr[u] if u in in_x else -1
    ), None)
    if bad is not None:
        if G.has_edge(*bad):
            raise InvalidInput(f"B1 misses the edge {bad}")
        raise InvalidInput(f"B1 adds the non-edge {bad} outside X")
    _check_agrees(B2, G, "B2")
    dims = canonical_extension(B1.layers, G) + canonical_extension(B2.layers, G)
    split = {}
    for v in sep.V1:
        split[v] = Interval(0, 0)
    for v in sep.V2:
        split[v] = Interval(1, 1)
    for v in sep.X:
        split[v] = Interval(0, 1)
    dims.append(split)
    return from_interval_reps(dims)


def sur2bis_double(B: BoxRepresentation, K) -> BoxRepresentation:
    """Double every dimension to complete K into a clique.

    Dimension i splits into a left copy, where each K-box is stretched to
    the dimension's minimum, and a right copy stretched to the maximum.  Any
    pair inside K then meets everywhere; every other pair keeps its original
    adjacency, because a disjointness [_, hi(u)] < [lo(w), _] survives in the
    left copy and the mirrored one in the right copy.  Total: 2 d(B).
    """
    K = tuple(sorted(set(K)))
    dom = set(B.domain())
    for v in K:
        if v not in dom:
            raise InvalidInput(f"clique vertex {v} is outside the domain")
    dims = []
    for layer in B.layers:
        lo, hi = span(layer)
        left = dict(layer)
        right = dict(layer)
        for v in K:
            left[v] = Interval(lo, layer[v].hi)
            right[v] = Interval(layer[v].lo, hi)
        dims += (left, right)
    return from_interval_reps(dims)


def forest_two_dim(F: Graph) -> BoxRepresentation:
    """Two-dimensional representation of a forest.

    Dimension 1 is the [entry, exit] window of a depth-first traversal
    (boxes nest along root-to-leaf paths and are disjoint across branches);
    dimension 2 is the depth band [2 depth, 2 depth + 2], which two boxes
    share exactly when their depths differ by at most one.  Boxes then meet
    exactly for parent-child pairs.  Components are traversed one after the
    other from their smallest vertex, so their windows are disjoint.
    """
    cyc = find_cycle(F)
    if cyc is not None:
        raise InvalidInput(f"not a forest: contains the cycle {cyc}")
    entry = [0] * F.n
    exit_ = [0] * F.n
    depth = [0] * F.n
    clock = 0
    for root in range(F.n):
        if entry[root]:
            continue
        clock += 1
        entry[root] = clock
        stack = [(root, iter(sorted(F.neighbors(root))))]
        while stack:
            v, children = stack[-1]
            clock += 1
            for w in children:
                if not entry[w]:  # in a forest, only the parent was entered before
                    entry[w] = clock
                    depth[w] = depth[v] + 1
                    stack.append((w, iter(sorted(F.neighbors(w)))))
                    break
            else:
                exit_[v] = clock
                stack.pop()
    return BoxRepresentation((
        {v: Interval(entry[v], exit_[v]) for v in F.vertices()},
        {v: Interval(2 * depth[v], 2 * depth[v] + 2) for v in F.vertices()},
    ))


def acyclic_pipeline(G: Graph, colors: dict[int, int]) -> BoxRepresentation:
    """Representation of G from an acyclic coloring (proper, every two
    classes inducing a forest) with at least two classes.

    For every pair of color classes the induced forest gets its two
    dimensions, canonically extended to V(G); the extension leaves pairs
    colored within the class pair alone and joins everything else, so the
    intersection over all pairs restores G exactly.  Total: k(k-1).
    """
    dense = check_coloring(G, colors)
    k = max(dense) + 1
    dims = []
    for i, j in combinations(range(k), 2):
        keep = [v for v in G.vertices() if dense[v] in (i, j)]
        sub, vmap = induced_subgraph(G, keep)
        two = forest_two_dim(sub)
        lifted = relabel_box_representation(
            two, {new: old for new, old in enumerate(vmap)}
        )
        dims += canonical_extension(lifted.layers, G)
    return from_interval_reps(dims)


def girth4_pipeline(G: Graph, part: ForestStablePartition) -> BoxRepresentation:
    """Four-dimensional representation from a valid forest/stable split.

    Dimensions 1-2 represent the forest G[F] and are canonically extended,
    which joins every pair touching S.  Dimensions 3-4 encode the stable
    side: each s_t sits at the point t in both; a forest vertex attached to
    s_t (it has at most one such neighbor, since S-vertices are 3 apart)
    spans [t, p+1] in one and [0, t] in the other, while unattached forest
    vertices sit at p+1 and 0.  Forest pairs meet in both (at p+1 and 0),
    distinct S-vertices never meet, and an S-F pair meets exactly when the
    attachment matches.  The intersection of the four dimensions is G.
    """
    F = part.F
    S = part.S
    p = len(S)
    pos = {s: t + 1 for t, s in enumerate(S)}
    if F:
        sub, vmap = induced_subgraph(G, F)
        two = relabel_box_representation(
            forest_two_dim(sub), {new: old for new, old in enumerate(vmap)}
        )
        dims = canonical_extension(two.layers, G)
    else:
        # no forest side: the stable dimensions already separate everything
        dims = [dict.fromkeys(G.vertices(), Interval(0, 1))] * 2
    attach = {f: pos[s] for f in F for s in G.neighbors(f) if s in pos}
    dim_a = {}
    dim_b = {}
    for s, t in pos.items():
        dim_a[s] = Interval(t, t)
        dim_b[s] = Interval(t, t)
    for f in F:
        if f in attach:
            t = attach[f]
            dim_a[f] = Interval(t, p + 1)
            dim_b[f] = Interval(0, t)
        else:
            dim_a[f] = Interval(p + 1, p + 1)
            dim_b[f] = Interval(0, 0)
    dims += (dim_a, dim_b)
    return from_interval_reps(dims)


def roberts_representation(n: int) -> BoxRepresentation:
    """The n-dimensional representation of the complete graph on 2n vertices
    minus the matching {2j, 2j+1}.  Dimension j is the pair gadget of
    (2j, 2j+1): the pair sits at 0 and 2, and everyone else, adjacent to
    both, spans [0, 2]."""
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    layers = []
    for j in range(n):
        layer = dict.fromkeys(range(2 * n), Interval(0, 2))
        layer[2 * j], layer[2 * j + 1] = Interval(0, 0), Interval(2, 2)
        layers.append(layer)
    return BoxRepresentation(layers)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def box_rep_to_dict(B: BoxRepresentation) -> dict:
    return {
        "d": B.d,
        "vertices": {
            str(v): [interval_to_pairs(layer[v]) for layer in B.layers]
            for v in B.domain()
        },
    }


def box_rep_from_dict(doc) -> BoxRepresentation:
    d, rows = fields(doc, "box representation", ("d", "vertices"))
    if not is_int(d) or d < 1:
        raise ParseError(f"'d' must be a positive int, got {d!r}")
    layers = []  # made at the first row, once its length has matched d

    def fill(v, row, where):
        """Row v's d intervals, each put straight into its layer."""
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{where} must list exactly {d} intervals")
        if not layers:
            layers.extend({} for _ in row)
        for i, (layer, iv) in enumerate(zip(layers, row)):
            layer[v] = interval_from_pairs(iv, f"{where}[{i}]")

    vertex_map(rows, "vertices", "vertex", fill)
    # no rows: one empty layer, which the constructor refuses as empty
    return BoxRepresentation(layers or [{}])
