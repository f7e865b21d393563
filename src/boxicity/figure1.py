"""Two-dimensional gadget for an induced cycle and its attachment vertices.

The k cycle vertices (k >= 6) are laid out as a staircase of unit boxes
running left to right, alternating between the bands y in [0, 1] and
y in [1, 2], flanked by two tall boxes and closed by a lid:

    position 1:      [-1, 0] x [0, 3]      (tall left wall)
    position i,      [i-2, i-1] x [i mod 2, 1 + i mod 2]
      2 <= i <= k-2                        (staircase)
    position k-1:    [k-3, k-2] x [0, 3]   (tall right wall)
    position k:      [0, k-3] x [3, 4]     (lid joining the walls)

Consecutive boxes share exactly a corner or an edge segment and everything
else is kept apart, so the cycle vertices induce the cycle exactly.

Each vertex outside the cycle that touches it is placed as a point or an
axis-parallel segment that meets precisely the boxes of its declared
neighbors: a class S1 vertex (one neighbor) sits at the center of that
neighbor's box, S2 (two consecutive neighbors) at a shared corner, S3 (two
neighbors one apart) as a segment bridging the gap over or under the box in
between, and S4 (three consecutive neighbors) as a segment crossing all
three.  Positions of vertices outside the cycle may overlap, so their
mutual adjacencies are arbitrary; callers complete them into a clique
before composing (the represented graph then differs from the input only
inside that set).

All coordinates are exact rationals; denominators never exceed 2.
"""

from __future__ import annotations

from fractions import Fraction

from .boxes import BoxRepresentation, relabel_box_representation
from .certificates import CycleClassification
from .graphs import Graph
from .intervals import Interval, _disagreeing_pairs

HALF = Fraction(1, 2)


def _box(x_lo, x_hi, y_lo, y_hi) -> tuple[Interval, Interval]:
    return (Interval(x_lo, x_hi), Interval(y_lo, y_hi))


def _cycle_box(i: int, k: int) -> tuple[Interval, Interval]:
    """Box of the cycle vertex at 1-based position i."""
    if i == 1:
        return _box(-1, 0, 0, 3)
    if i == k - 1:
        return _box(k - 3, k - 2, 0, 3)
    if i == k:
        return _box(0, k - 3, 3, 4)
    par = i % 2
    return _box(i - 2, i - 1, par, 1 + par)


def _s1_box(i: int, k: int) -> tuple[Interval, Interval]:
    """Point at the center of the anchor's box: interior, so it meets
    nothing else."""
    x, y = _cycle_box(i, k)
    cx = Fraction(x.lo + x.hi, 2)
    cy = Fraction(y.lo + y.hi, 2)
    return _box(cx, cx, cy, cy)


def _s2_box(i: int, k: int) -> tuple[Interval, Interval]:
    """Point on the shared boundary of positions i and i+1."""
    if i <= k - 2:
        return _box(i - 1, i - 1, 1, 1)
    if i == k - 1:  # walls k-1 and k meet at the top right
        return _box(k - 3, k - 3, 3, 3)
    # i == k: lid and left wall meet at the top left
    return _box(0, 0, 3, 3)


def _s3_box(i: int, k: int) -> tuple[Interval, Interval]:
    """Segment joining positions i and i+2 while dodging i+1."""
    if i <= k - 3:
        # i and i+2 share a parity band; run along its middle height,
        # between the right edge of box i and the left edge of box i+2,
        # above or below the opposite-parity box in between
        y = HALF + (i % 2)
        return _box(i - 1, i, y, y)
    if i == k - 2:  # staircase end up to the lid, right of the right wall's gap
        return _box(k - Fraction(7, 2), k - Fraction(7, 2), 1 + (k % 2), 3)
    if i == k - 1:  # right wall to left wall, over the whole staircase
        return _box(0, k - 3, Fraction(5, 2), Fraction(5, 2))
    # i == k: lid down to the second staircase box, right of the left wall
    return _box(HALF, HALF, 1, 3)


def _s4_box(i: int, k: int) -> tuple[Interval, Interval]:
    """Segment crossing positions i, i+1 and i+2."""
    if i <= k - 3:
        # height 1 lies in both bands; only the three spanned boxes share
        # the x-range
        return _box(i - 1, i, 1, 1)
    if i == k - 2:  # staircase end, right wall and lid
        return _box(k - 3, k - 3, 1, 3)
    if i == k - 1:  # right wall, lid and left wall: along the lid's bottom
        return _box(0, k - 3, 3, 3)
    # i == k: lid, left wall and first staircase box
    return _box(0, 0, 1, 3)


_CLASS_BOXES = {"S1": _s1_box, "S2": _s2_box, "S3": _s3_box, "S4": _s4_box}


def figure1_gadget(G: Graph, cls: CycleClassification) -> BoxRepresentation:
    """Two-dimensional representation of the cycle and its attachments.

    Emits the coordinates above for a classification the caller has
    validated: the figure1 derivation rule, or `construct figure1`.  The
    domain is the cycle plus the assigned vertices; restricted to the cycle
    the represented graph is exactly the cycle, and each assigned vertex
    meets exactly the cycle boxes of its declared neighbors.
    """
    k = len(cls.cycle)
    x: dict[int, Interval] = {}
    y: dict[int, Interval] = {}
    for pos, v in enumerate(cls.cycle):
        x[v], y[v] = _cycle_box(pos + 1, k)
    for v, (name, anchor) in cls.assignments.items():
        x[v], y[v] = _CLASS_BOXES[name](anchor + 1, k)
    return BoxRepresentation((x, y))


def figure1_problems(
    G: Graph, cls: CycleClassification, B: BoxRepresentation
) -> list[str]:
    """Check a gadget output against its contract.

    The represented graph must agree with G on every pair involving a cycle
    vertex; pairs between assigned vertices are unconstrained.
    """
    if set(B.domain()) != set(cls.cycle) | set(cls.assignments):
        return ["gadget domain does not match the classification"]
    if B.d != 2:
        return [f"gadget must be 2-dimensional, got {B.d}"]
    # positions: the cycle in its order, then the assigned vertices sorted,
    # so that the pairs come out cycle pairs first, each in cycle order
    order = list(cls.cycle) + sorted(cls.assignments)
    pos = {v: i for i, v in enumerate(order)}
    meet = relabel_box_representation(B, pos).meet_masks()
    nbr = [sum(1 << pos[w] for w in G.neighbors(v) if w in pos) for v in order]
    k = len(cls.cycle)
    cycle_mask = (1 << k) - 1

    def wrong(kind: str, partners: int) -> list[str]:
        pairs = _disagreeing_pairs(meet, nbr, lambda i: partners if i < k else 0)
        return [f"{kind} pair ({order[i]}, {order[j]}) has the wrong adjacency"
                for i, j in pairs]

    return wrong("cycle", cycle_mask) + wrong("attachment", ~cycle_mask)
