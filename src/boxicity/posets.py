"""Adjacency posets, coloring-driven realizers, and bound arithmetic.

The adjacency poset of a graph puts its vertex set on a bottom layer and a
primed copy on a top layer, with u below w' exactly for edges uw; the
starred variant also puts each vertex below its own copy.  A proper
coloring with k classes yields k linear extensions, one per class i,
stacked as: vertices of other classes, then primed copies of class i, then
class i itself, then the remaining primed copies.  Their intersection cuts
the starred relation back down to the plain adjacency poset.

P has dimension at most d exactly when its critical pairs can be colored
with d colors so that one linear extension reverses each class (Trotter,
Dimension Theory, 1992); the search for that coloring is exponential in
the worst case.  The rest is closed-form bound evaluation, which does
not load exact: only the dimension search imports it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from math import isqrt

from .errors import InvalidInput
from .graphs import MAX_VERTICES, Graph, _bits, check_coloring

LinearOrder = tuple[int, ...]


class Poset(namedtuple("Poset", "elements relation")):
    """Finite poset given by its full order relation: a tuple of elements
    and a frozenset of pairs (a, b) with a <= b.

    Construction validates reflexivity, antisymmetry, and transitivity and
    reports the first offending pair or triple.
    """

    __slots__ = ()

    def __new__(cls, elements, relation):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise InvalidInput("poset elements must be distinct")
        try:
            sorted(elems)
        except TypeError as exc:
            raise InvalidInput(f"poset elements must be mutually ordered: {exc}") from None
        rel = frozenset((a, b) for a, b in relation)
        members = set(elems)
        for a, b in rel:
            if a not in members or b not in members:
                raise InvalidInput(f"relation pair ({a}, {b}) uses unknown elements")
        for x in elems:
            if (x, x) not in rel:
                raise InvalidInput(f"relation is not reflexive: missing ({x}, {x})")
        above: dict[int, set[int]] = {x: set() for x in elems}
        for a, b in rel:
            if a != b and (b, a) in rel:
                raise InvalidInput(f"antisymmetry violated on ({a}, {b})")
            above[a].add(b)
        for a in elems:
            for b in above[a]:
                missing = above[b] - above[a]
                if missing:
                    c = min(missing)
                    raise InvalidInput(
                        f"transitivity violated: {a} <= {b} <= {c} without {a} <= {c}"
                    )
        return super().__new__(cls, elems, rel)


def adjacency_poset(G: Graph) -> Poset:
    """Two-layer poset: v and its copy v+n, with u below w+n iff uw is an
    edge."""
    n = G.n
    rel = {(x, x) for x in range(2 * n)}
    for u, v in G.edges:
        rel.add((u, v + n))
        rel.add((v, u + n))
    return Poset(tuple(range(2 * n)), frozenset(rel))


def starred_poset(G: Graph) -> Poset:
    """The adjacency poset plus v below its own copy, for every v."""
    base = adjacency_poset(G)
    rel = set(base.relation)
    rel.update((v, v + G.n) for v in range(G.n))
    return Poset(base.elements, frozenset(rel))


def chi_realizer_extensions(G: Graph, colors: dict[int, int]) -> list[LinearOrder]:
    """One linear extension per color class of a proper coloring.

    Class i's order runs: other-class vertices, copies of class i, class i,
    remaining copies, each block ascending.  Every output extends the
    adjacency poset, and intersecting all of them with the starred relation
    gives back exactly the adjacency poset; both facts are the point of the
    construction and are enforced by the test suite.
    """
    dense = check_coloring(G, colors)
    for u, v in sorted(G.edges):
        if dense[u] == dense[v]:
            raise InvalidInput(f"edge ({u}, {v}) is monochromatic")
    n = G.n
    k = max(dense) + 1 if n else 0
    orders = []
    for i in range(k):
        others = [v for v in range(n) if dense[v] != i]
        mine = [v for v in range(n) if dense[v] == i]
        orders.append(
            tuple(others + [v + n for v in mine] + mine + [v + n for v in others])
        )
    return orders


def _check_arrangement(elements, L) -> tuple[int, ...]:
    order = tuple(L)
    if sorted(order) != sorted(elements):
        raise InvalidInput("order must arrange exactly the poset elements")
    return order


def is_linear_extension(P: Poset, L) -> bool:
    order = _check_arrangement(P.elements, L)
    pos = {x: i for i, x in enumerate(order)}
    return all(pos[a] <= pos[b] for a, b in P.relation)


def intersect_orders(orders) -> frozenset[tuple[int, int]]:
    """Pairs (a, b) with a at or before b in every given total order: per
    element, its suffix mask in each order, ANDed, one pass per order."""
    if not orders:
        raise InvalidInput("need at least one order")
    first = tuple(orders[0])
    index = {x: i for i, x in enumerate(first)}
    after = [-1] * len(first)
    for L in orders:
        suffix = 0
        for x in reversed(_check_arrangement(first, L)):
            suffix |= 1 << index[x]
            after[index[x]] &= suffix
    return frozenset((a, first[j]) for a, mask in zip(first, after) for j in _bits(mask))


def poset_dimension_at_most(
    P: Poset, d: int, budget: SearchBudget | None = None
) -> tuple[LinearOrder, ...] | None:
    """d linear extensions intersecting to P, or None after an exhaustive
    refusal.

    Colors the critical pairs with d colors, no class holding an alternating
    cycle (pairs (a_i, b_i) with a_i <= b_(i+1) all around), one budget tick
    per element scanned for critical pairs and per color tried; an
    exhausted budget raises.  Class c's extension is the
    smallest-first topological sort of P plus b before a for its pairs (a, b).
    """
    from .exact import SearchBudget, _backtrack_coloring

    if not 1 <= d <= MAX_VERTICES:  # the realizer holds d orders
        raise InvalidInput(f"dimension must be in 1..{MAX_VERTICES}, got {d}")
    meter = (budget or SearchBudget()).meter()
    elems = sorted(P.elements)
    n = len(elems)
    index = {x: i for i, x in enumerate(elems)}
    below, above = [0] * n, [0] * n  # masks: below[y] has every x <= y
    for x, y in P.relation:
        below[index[y]] |= 1 << index[x]
        above[index[x]] |= 1 << index[y]
    # a, b incomparable, everything below a below b, everything above b above a;
    # one tick per row, so that the budget bounds the scan too
    critical = []
    for a in range(n):
        meter.tick()
        critical += [(a, b) for b in range(n)
                     if not (below[a] | above[a]) >> b & 1
                     and below[a] & ~below[b] == 1 << a and above[b] & ~above[a] == 1 << b]

    def allowed(colors, i, c):
        """Class c has no alternating cycle, so a new one runs through
        (a, b) = critical[i]: from a, step to the a2 of every class pair
        (a2, b2) above a reached element, and fail on reaching below b."""
        a, b = critical[i]
        pairs = [critical[j] for j, cj in colors.items() if cj == c]
        reached, grown = 1 << a, True
        while grown:
            if reached & below[b]:
                return False
            grown = False
            for a2, b2 in pairs:
                if below[b2] & reached and not reached >> a2 & 1:
                    reached |= 1 << a2
                    grown = True
        return True

    colors = _backtrack_coloring(len(critical), d, allowed, meter)
    if colors is None:
        return None
    # the classes past the used colors are empty and share one extension
    realizer = []
    for c in range(min(d, len(set(colors.values())) + 1)):
        preds = [below[x] ^ 1 << x for x in range(n)]
        for j, cj in colors.items():
            if cj == c:
                preds[critical[j][0]] |= 1 << critical[j][1]
        done, order = 0, []
        while len(order) < n:
            x = min(x for x in range(n) if not (done >> x & 1 or preds[x] & ~done))
            done |= 1 << x
            order.append(elems[x])
        realizer.append(tuple(order))
    if intersect_orders(realizer) != P.relation:
        raise RuntimeError("critical-pair coloring gave no realizer")
    return tuple(realizer + realizer[-1:] * (d - len(realizer)))


# A closed-form bound: its floor, a float reading, and the exact value, an
# int (None unless the radical collapses).
BoundValue = namedtuple("BoundValue", "floor approx exact")
BoundReport = namedtuple(
    "BoundReport", "genus orientable box_bound chi_bound dim_bound dim_from_box_chi"
)


def _half_plus(base: int, radicand: int, offset: int) -> BoundValue:
    """offset + (base + sqrt(radicand)) / 2, floored without rounding
    error: floor((base + sqrt(D)) / 2) == (base + isqrt(D)) // 2.  base and
    radicand are odd at every call, so a square radicand has an odd root,
    base + root is even and the exact value is the floor, an int."""
    root = isqrt(radicand)
    floor = offset + (base + root) // 2
    approx = offset + (base + math.sqrt(radicand)) / 2
    return BoundValue(floor, approx, floor if root * root == radicand else None)


def bound_calculator(
    g: int | None = None,
    orientable: bool = True,
    box: int | None = None,
    chi: int | None = None,
) -> BoundReport:
    """Evaluate the surface bounds (genus at least 1) and, when a boxicity
    and chromatic number are supplied, the direct 2*box + chi + 4 bound.

    g is the orientable genus, or the crosscaps when not orientable.
    box_bound is 7 on the torus, as the paper's abstract states, else 5g + 3;
    whether the paper states 5g + 3 for Euler genus is unverified here."""
    if g is None and (box is None or chi is None):
        raise InvalidInput("need a genus, or both box and chi")
    box_bound = chi_bound = dim_bound = None
    if g is not None:
        if g < 1:
            raise InvalidInput("surface bounds require genus at least 1")
        factor = 48 if orientable else 24
        radicand = 1 + factor * g
        if radicand > sys.float_info.max:  # math.sqrt would overflow
            raise InvalidInput(f"{'genus' if orientable else 'crosscap count'} {g} is too "
                               f"large: 1 + {factor}g does not fit a float")
        box_bound = 7 if g == 1 and orientable else 5 * g + 3
        chi_bound = _half_plus(7, radicand, 0)
        # 2 box_bound + 4 + (7 + sqrt(radicand)) / 2
        dim_bound = _half_plus(27, radicand, 2 * box_bound - 6)
    direct = None
    if box is not None and chi is not None:
        if box < 1 or chi < 1:
            raise InvalidInput("box and chi must be at least 1")
        direct = 2 * box + chi + 4
    return BoundReport(
        genus=g,
        orientable=orientable if g is not None else None,
        box_bound=box_bound,
        chi_bound=chi_bound,
        dim_bound=dim_bound,
        dim_from_box_chi=direct,
    )


def _bound_value_to_obj(b: BoundValue | None):
    if b is None:
        return None
    exact = None if b.exact is None else [b.exact, 1]
    return {"floor": b.floor, "approx": b.approx, "exact": exact}


def bound_report_to_dict(report: BoundReport) -> dict:
    return {
        "genus": report.genus,
        "orientable": report.orientable,
        "box_bound": report.box_bound,
        "chi_bound": _bound_value_to_obj(report.chi_bound),
        "dim_bound": _bound_value_to_obj(report.dim_bound),
        "dim_from_box_chi": report.dim_from_box_chi,
    }
