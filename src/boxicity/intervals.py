"""Closed intervals with exact rational endpoints, and their layers.

A layer (an interval representation) is a plain dict from vertex ids to
Intervals; the ids are arbitrary non-negative ints, so a layer may live on
a subset of some ambient graph's vertices (compositions rely on that).

A vertex ordering sigma is *umbrella-free* for a graph G when for all
positions p(u) < p(v) < p(w), uw in E(G) implies uv in E(G).  These orderings
are exactly the left-endpoint orders of interval supergraphs, which makes
them the search space for everything in this package: a graph is the
intersection of d interval graphs iff there are d orderings whose umbrella
closures intersect to the graph itself.

Correctness basis for closure_layer.  Define reach(u) as the largest
position among u's neighbors placed after u (or u's own position if there is
none), and C := { (u, v) : p(u) < p(v) <= reach(u) }.  Then:

  * C contains G: an edge uv with p(u) < p(v) has p(v) <= reach(u).
  * C is umbrella-free: if p(u) < p(v) < p(w) and uw in C then
    p(w) <= reach(u), so p(v) < reach(u) and uv in C.
  * C is least: let H be any umbrella-free supergraph of G.  For (u, v) in C
    there is a G-edge uw with p(v) <= p(w); either v = w (a G-edge, so in H)
    or p(u) < p(v) < p(w) forces uv in H by umbrella-freeness.

So C is the unique least umbrella-free supergraph, i.e. the fixpoint of
repeatedly adding the forced edge uv whenever p(u) < p(v) < p(w) and uw is
present: the umbrella closure of sigma.  Giving u the interval
[p(u) + 1, reach(u) + 1] makes u and a later v meet exactly when
p(v) <= reach(u), so that layer's graph is C, read off G's reaches without
building C.  The test suite re-derives the fixpoint naively with randomized
rule application and compares.

Orderings are plain tuples of vertex ids.  An interval endpoint is an int,
or a Fraction when it is not an integer: a Fraction with denominator 1
becomes its numerator, and bools and floats are refused, so all
comparisons are exact.  fractions is imported only where a non-integer is
made (figure1, or a JSON denominator that does not divide its numerator),
and no type check imports it: nothing can be a Fraction before fractions
is loaded.  The adjacency kernel meet_masks ranks each layer's distinct
endpoint values once and then works on integer ranks and bitmasks.  An
all-integer layer sorts natively; a layer with a Fraction sorts by
_order_key, which compares integers and floors as plain ints, so it never
scales to a common denominator, which grows with the product of distinct
denominators.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cache
from itertools import accumulate

from .errors import InvalidInput, ParseError
from .graphs import Graph, check_vertex_set, is_int


@cache
def _fraction_class():
    """fractions.Fraction, imported by the first call only."""
    from fractions import Fraction

    return Fraction


def _endpoint(x, name: str):
    """x as an endpoint: an int, or a Fraction that is not an integer."""
    if is_int(x):
        return int(x)
    if "fractions" in sys.modules and isinstance(x, _fraction_class()):
        return x.numerator if x.denominator == 1 else x
    raise InvalidInput(f"interval {name} must be a Fraction or an int, got {x!r}")


def _order_key(q):
    """Exact sort key of an endpoint: (q,) for an int q, and (floor, q)
    for a Fraction.  Integers and floors compare as plain ints, so a
    Fraction is compared only with another Fraction of the same floor.
    """
    return (q,) if type(q) is int else (q.numerator // q.denominator, q)


class Interval(namedtuple("Interval", "lo hi")):
    """Closed interval [lo, hi]; an endpoint is an int, or a Fraction that
    is not an integer (a whole Fraction becomes an int), and anything
    else (bool, float) is refused."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        if type(lo) is not int or type(hi) is not int:
            lo, hi = _endpoint(lo, "lo"), _endpoint(hi, "hi")
        if lo > hi:
            raise InvalidInput(f"interval has lo > hi: [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))


def span(layer: dict[int, Interval]) -> Interval:
    """Smallest interval containing every interval of the layer."""
    if not layer:
        raise InvalidInput("span of an empty representation")
    return Interval(min(iv.lo for iv in layer.values()), max(iv.hi for iv in layer.values()))


# ---------------------------------------------------------------------------
# exact adjacency
# ---------------------------------------------------------------------------


def meet_masks(layer: dict[int, Interval]) -> dict[int, int]:
    """Per vertex id v, the bitmask of the ids whose closed intervals meet
    v's interval (bit w for vertex w; v's own bit is set).

    The endpoints are ranked: the distinct values are sorted once,
    natively in an all-integer layer and by _order_key otherwise, which is
    the only comparison of endpoints.  OR-ing the vertex bits by the rank
    of their left endpoints, from the bottom, gives at rank r the w with
    lo_w <= value r; OR-ing by right endpoints from the top gives the w
    with hi_w >= value r.  Their AND at the ranks of hi_v and lo_v is the
    set meeting v, touching intervals included.
    """
    values = {q for iv in layer.values() for q in iv}
    # no value can be a Fraction before fractions is loaded
    ints = "fractions" not in sys.modules or all(type(q) is int for q in values)
    ranked = sorted(values, key=None if ints else _order_key)
    rank = dict(zip(ranked, range(len(ranked))))
    lo_prefix = [0] * len(ranked)
    hi_suffix = [0] * len(ranked)
    for v, (lo, hi) in layer.items():
        lo_prefix[rank[lo]] |= 1 << v
        hi_suffix[rank[hi]] |= 1 << v
    lo_prefix[:] = accumulate(lo_prefix, _or_unless_empty)
    hi_suffix[::-1] = accumulate(reversed(hi_suffix), _or_unless_empty)
    return {v: lo_prefix[rank[hi]] & hi_suffix[rank[lo]] for v, (lo, hi) in layer.items()}


def _or_unless_empty(acc: int, bits: int) -> int:
    """acc | bits, or acc itself for an empty bucket: a rank that holds no
    endpoint of the kind shares its neighbour's mask instead of a copy,
    which halves the kernel's peak memory when endpoints are distinct."""
    return acc | bits if bits else acc


def _disagreeing_pairs(meet: dict[int, int], nbr, keep=lambda u: -1):
    """Pairs (u, w), u < w, both in meet's domain, where bit w of meet[u]
    differs from bit w of nbr[u] and is set in keep(u); in lexicographic
    order, each u's partners lowest bit first.  nbr is indexed by vertex id
    (Graph.nbr_masks); its bits outside meet's domain are ignored.
    """
    domain = sum(1 << v for v in meet)
    for u in sorted(meet):
        diff = ((meet[u] ^ nbr[u]) & domain & keep(u)) >> (u + 1)
        while diff:
            low = diff & -diff
            yield u, u + low.bit_length()
            diff ^= low


# ---------------------------------------------------------------------------
# the layer of an ordering's closure
# ---------------------------------------------------------------------------


def closure_layer(G: Graph, sigma) -> dict[int, Interval]:
    """The layer of sigma's umbrella closure, sigma a permutation of V(G):
    the vertex at position i gets [i + 1, reach + 1], reach being the last
    position of it or a neighbour (module docstring)."""
    pos = {v: i for i, v in enumerate(sigma)}
    return {v: Interval(i + 1, max([i, *map(pos.__getitem__, G.neighbors(v))]) + 1)
            for v, i in pos.items()}


# ---------------------------------------------------------------------------
# canonical extension
# ---------------------------------------------------------------------------


def canonical_extension(layers, G: Graph) -> list[dict[int, Interval]]:
    """Extend the layers of one representation, on X subset of V(G), to V(G).

    Vertices outside X are mapped to the layer's full span, so they meet
    everything, and pairs inside X keep the layer's adjacency.  The shared
    domain is checked once, to be nonempty and inside V(G).  That a layer
    covers every edge of G[X], which makes the result's graph a supergraph
    of G, is the caller's duty: the compositions check the whole child first.
    """
    if not layers or not check_vertex_set(G, layers[0]):
        raise InvalidInput("canonical extension needs a nonempty domain")
    return [{v: layer.get(v, full) for v in G.vertices()}
            for layer, full in zip(layers, map(span, layers))]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _rational_from_pair(doc):
    """The rational [n, d], checked once (d > 0), as the int n / d when d
    divides n and as a Fraction otherwise."""
    if not isinstance(doc, list) or len(doc) != 2 or not (is_int(doc[0]) and is_int(doc[1])):
        raise ParseError("rational must be [numerator, denominator]")
    n, d = doc
    if d <= 0:
        raise ParseError(f"denominator must be positive, got {d}")
    return n // d if n % d == 0 else _fraction_class()(n, d)


def interval_to_pairs(iv: Interval) -> list[list[int]]:
    return [list(iv.lo.as_integer_ratio()), list(iv.hi.as_integer_ratio())]


def interval_from_pairs(doc) -> Interval:
    """Each endpoint is checked and built once, and so is their order, so
    the tuple is made without Interval's own second check.  A fault's
    message does not say where the interval sits: the caller, which knows,
    puts that in front."""
    if not isinstance(doc, list) or len(doc) != 2:
        raise ParseError("interval must be [[n, d], [n, d]]")
    lo, hi = _rational_from_pair(doc[0]), _rational_from_pair(doc[1])
    if lo > hi:
        raise ParseError("interval has lo > hi")
    return tuple.__new__(Interval, (lo, hi))
