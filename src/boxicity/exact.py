"""Exhaustive oracles for desk-scale graphs.

Boxicity is computed by searching over tuples of vertex orderings: the
umbrella closure of an ordering is the least interval supergraph whose
left-endpoint order is that ordering, and a graph is the intersection of d
interval graphs exactly when d orderings exist whose closures jointly
exclude every non-edge.  The search walks one ordering at a time and
tracks the set of non-edges no closure has excluded yet.

Four facts keep the search small.  Placing a vertex decides every
non-edge whose other endpoint is already placed (the pair stays excluded
unless the earlier endpoint has run out of unplaced neighbors), so
constraint violations surface at placement time.  Dimensions are
interchangeable, so each dimension but the last is required to exclude
one designated hardest non-edge (the last must exclude them all).  And
interval graphs are chordal: if a-b-c-d-a is an induced C4, no single
dimension excludes both chords ac and bd.  Joining such chords makes a conflict graph
on the non-edges whose clique number bounds boxicity from below (Roberts'
bound for K_2k minus a matching is the case of k pairwise conflicts), so
exact_boxicity starts there; and with two dimensions left, the non-edges
the current ordering lets survive must be pairwise free of conflicts,
since the last dimension has to exclude them all.  Finally, within one
ordering walk whether a prefix can be completed depends only on which
vertices it places and which non-edges survive it: the open vertices and
the undecided pairs follow from the placed set, and the later dimensions
see only the survivors.  So the walk remembers every (placed, surviving)
state it failed to complete and skips it when another prefix reaches it
again; the memo lives for one walk, since the tracked set, the dimensions
left and the target differ between walks.  It holds at most one entry per
node: at the default cap of 2,000,000 nodes on G(16, 1/2) seed 1 it
measured +16 MB of peak RSS under Python 3.11, and +1.5 MB at 250,000
nodes.  Up to LATTICE_MAX_VERTICES vertices the last dimension, where
nearly all nodes go, keeps no memo: its state is its placed set alone, so
it is decided over all placed sets at once, by bit operations on families
of 2^n bits, with the walk's ordering and node count.  Colorings
(proper, acyclic, and the critical-pair colorings behind poset dimension)
share one backtracker.

Everything here is exponential in the worst case and intended for small
inputs; budgets cap nodes and wall time rather than letting a search run
away.  A node of the boxicity search is one unplaced vertex tried at a
state of an ordering walk, counted in a batch when the walk expands a
vertex or leaves the state, or in one batch per last dimension decided on
the lattice; the clique bound counts one per branch and the colorings one
per color tried.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple

from .boxes import (
    BoxRepresentation,
    box_rep_to_dict,
    from_interval_reps,
    verify_representation,
)
from .certificates import ForestStablePartition, PairCover
from .errors import BudgetExhausted, InvalidInput
from .graphs import Graph, _bits, check_vertex_set, is_int, within_two
from .intervals import closure_layer

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower-bound-only"
STATUS_BUDGET = "budget-exhausted"

# The last dimension is decided over the lattice of placed sets, one bit
# per set, up to this many vertices; above it the walk visits them in turn.
LATTICE_MAX_VERTICES = 12


class SearchBudget(namedtuple("SearchBudget", "max_nodes time_limit")):
    """Caps on a single oracle call."""

    __slots__ = ()

    def __new__(cls, max_nodes=2_000_000, time_limit=60.0):
        if not is_int(max_nodes) or max_nodes < 1:
            raise InvalidInput(
                f"budget max_nodes must be an int of at least 1, got {max_nodes!r}"
            )
        # the comparisons also reject NaN, infinity and ints too large for a float
        if not (is_int(time_limit) or isinstance(time_limit, float)) or not (
            0 < time_limit <= sys.float_info.max
        ):
            raise InvalidInput(
                f"budget time_limit must be finite seconds above 0, got {time_limit!r}"
            )
        return super().__new__(cls, max_nodes, time_limit)

    def meter(self) -> BudgetMeter:
        """A fresh node counter and deadline for one search."""
        return BudgetMeter(self)


class BudgetMeter:
    """Counts a search's nodes; tick() raises BudgetExhausted once the node
    cap is passed or, checked every 256 nodes, the deadline."""

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.nodes = 0
        self.deadline = time.monotonic() + budget.time_limit

    def meter(self) -> BudgetMeter:
        """This meter: a search given it in place of a budget continues its
        node count and deadline."""
        return self

    def tick(self, k: int = 1) -> None:
        """Count k nodes as k single ticks would: read the clock at each
        multiple of 256 up to the cap, then raise past the cap."""
        start, cap = self.nodes, self.budget.max_nodes
        self.nodes = end = start + k
        if end > cap or end >> 8 != start >> 8:
            for self.nodes in range(start // 256 * 256 + 256, min(end, cap) + 1, 256):
                self.check_deadline()
            self.nodes = min(end, cap + 1)
            if end > cap:
                raise BudgetExhausted(f"node budget of {cap} exceeded")

    def check_deadline(self) -> None:
        """Raise BudgetExhausted if the deadline has passed; counts no node."""
        if time.monotonic() > self.deadline:
            raise BudgetExhausted(f"time limit of {self.budget.time_limit}s exceeded")


class BoxicityResult(namedtuple(
    "BoxicityResult", "value witness status orderings lower_bound nodes", defaults=(None, 1, 0)
)):
    """Outcome of a boxicity search.

    value and witness are set together: a witness is returned only when the
    exact value was determined and verified.  lower_bound is always sound,
    even when the status reports an interrupted or capped search.
    """

    __slots__ = ()


def chord_conflicts(
    G: Graph, non_edges, budget: SearchBudget | BudgetMeter | None = None
) -> list[int]:
    """For each non-edge (a, c), the bitmask over non_edges of the (b, d)
    for which all four pairs between {a, c} and {b, d} are edges.

    a-b-c-d-a is then an induced C4 with chords ac and bd, and an interval
    graph is chordal, so no one dimension excludes both.

    With ends[x] the mask of the non_edges that have x as an end, row
    (a, c) is the OR of ends over the common neighbours of a and c, minus
    the OR over every other vertex: the non-edges with both ends common.
    Both the ends masks and the table are quadratic in the non-edges, so
    each non-edge and each row checks the deadline, counting no node.
    """
    check_deadline = (budget or SearchBudget()).meter().check_deadline
    nbr = G.nbr_masks
    ends = [0] * G.n
    for j, (b, d) in enumerate(non_edges):
        check_deadline()
        ends[b] |= 1 << j
        ends[d] |= 1 << j
    out = []
    for a, c in non_edges:
        check_deadline()
        common = nbr[a] & nbr[c]
        inside = outside = 0
        for x, mask in enumerate(ends):
            if common >> x & 1:
                inside |= mask
            else:
                outside |= mask
        out.append(inside & ~outside)
    return out


def clique_number(adj: list[int], meter: BudgetMeter) -> int:
    """Size of a largest clique of the graph in which vertex i has neighbor
    mask adj[i]; branch on the lowest candidate, cut when even taking every
    candidate left would not beat the best, one tick per branch."""
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        best = max(best, size)
        while cand and size + cand.bit_count() > best:
            meter.tick()
            low = cand & -cand
            cand ^= low
            grow(size + 1, cand & adj[low.bit_length() - 1])

    grow(0, (1 << len(adj)) - 1)
    return best


def subset_families(G: Graph) -> tuple[list[int], list[int]]:
    """has[x] and open_[y] for each vertex: families of placed sets, bit P
    of a family set when it holds the vertex mask P.  has[x] holds the sets
    that contain x, open_[y] those in which y is placed and still has an
    unplaced neighbour."""
    size = 1 << G.n
    has = []
    for x in range(G.n):
        # in each block of 2 << x sets, the upper half contains x
        width = 2 << x
        family = (1 << width) - (1 << (width >> 1))
        while width < size:
            family |= family << width
            width <<= 1
        has.append(family)
    open_ = []
    for y, nbrs in enumerate(G.nbr_masks):
        covered = -1
        for z in _bits(nbrs):
            covered &= has[z]
        open_.append(has[y] & ~covered)
    return has, open_


class _ClosureSearch:
    """Sets of non-edges are int masks over the indices of self.non_edges,
    sets of vertices int masks over the vertices.  Nothing depends on d."""

    def __init__(self, G: Graph, meter: BudgetMeter):
        self.G = G
        self.meter = meter
        self.non_edges = G.non_edges()
        self.conflicts = chord_conflicts(G, self.non_edges, meter)
        # index[u][v]: the index of non-edge (u, v), in either order
        self.index = [[-1] * G.n for _ in range(G.n)]
        for i, (u, v) in enumerate(self.non_edges):
            self.index[u][v] = self.index[v][u] = i
        # closed[x]: x and its neighbors
        self.closed = [m | 1 << x for x, m in enumerate(G.nbr_masks)]
        # survivors[x][partners]: _survivors(x, partners), filled as met
        self.survivors: list[dict[int, tuple[int, int]]] = [{} for _ in range(G.n)]
        # subset_families(G), built at the first last-dimension call
        self.lattice: tuple[list[int], list[int]] | None = None

    def _survivors(self, x: int, partners: int) -> tuple[int, int]:
        """The non-edges from x to the vertex mask partners, and the union of
        their chord conflicts."""
        add = clash = 0
        for u in _bits(partners):
            i = self.index[x][u]
            add |= 1 << i
            clash |= self.conflicts[i]
        return add, clash

    def _pick_target(self, remaining: int) -> int:
        """Hardest pair first: excluding (u, v) forces all of one endpoint's
        neighbors before the other endpoint, so high degrees prune most."""
        best = -1
        best_score = -1
        for i in _bits(remaining):
            u, v = self.non_edges[i]
            score = self.G.degree(u) + self.G.degree(v)
            if score > best_score:
                best, best_score = i, score
        return best

    def _orderings(self, remaining: int, dims_left: int, target: int | None, complete):
        """Walk the admissible orderings in DFS order and return the first
        non-None complete(ordering, mask of still-surviving non-edges).

        A tracked non-edge is decided the moment its later endpoint is
        placed.  The closure adds the pair (the non-edge survives,
        unexcluded) iff the earlier endpoint is open, that is, still has an
        unplaced neighbor at that moment; otherwise this dimension excludes
        it for good.  With two dimensions left, the survivors must be
        pairwise free of chord conflicts.  With one, nothing may survive:
        a state is its placed set alone, and every vertex with a tracked
        partner among the open ones is cut at once.  Up to
        LATTICE_MAX_VERTICES vertices, _last_on_lattice decides that last
        walk instead, with the same outcome and nodes.

        A node is one unplaced vertex tried at a state, cut or expanded.
        The walk counts them when it expands a vertex and when a state's
        loop ends: the unplaced vertices passed since the last count.  A
        cut vertex does nothing but fill the survivor memo, so a cap
        crossed among cut vertices stops the search with the same outcome
        and the same max_nodes + 1 nodes as counting each one.
        """
        n = self.G.n
        nbr, closed = self.G.nbr_masks, self.closed
        memo = self.survivors
        tick = self.meter.tick
        full = (1 << n) - 1
        pairwise = dims_left == 2
        # rem_nbr[x]: the vertices that share a tracked non-edge with x
        rem_nbr = [0] * n
        for i in _bits(remaining):
            u, v = self.non_edges[i]
            rem_nbr[u] |= 1 << v
            rem_nbr[v] |= 1 << u
        # every tracked pair is decided once all these ends are placed
        ends = sum(1 << x for x, partners in enumerate(rem_nbr) if partners)
        if dims_left == 1 and n <= LATTICE_MAX_VERTICES:
            return self._last_on_lattice(rem_nbr, ends, complete)
        # guard[x]: placing x lets the target survive if this vertex is open
        guard = [0] * n
        if target is not None:
            u, v = self.non_edges[target]
            guard[u], guard[v] = 1 << v, 1 << u
        order: list[int] = []
        # states already extended without success: surviving << n | placed
        dead: set[int] = set()

        def opened(x: int, now: int, open_: int) -> int:
            # the open vertices once x is placed: only x and its neighbors
            # can have lost their last unplaced neighbor
            still_open = open_ | 1 << x
            check = still_open & closed[x]
            while check:
                low = check & -check
                if not nbr[low.bit_length() - 1] & ~now:
                    still_open ^= low
                check ^= low
            return still_open

        def last(placed: int, open_: int):
            uncounted = cand = full & ~placed
            if not cand & ends:
                return complete(tuple(order) + tuple(_bits(cand)), 0)
            check = open_
            while check:
                low = check & -check
                cand &= ~rem_nbr[low.bit_length() - 1]
                check ^= low
            while cand:
                low = cand & -cand
                cand ^= low
                now = placed | low
                if now in dead:
                    continue
                tick((uncounted & (low << 1) - 1).bit_count())
                uncounted &= -(low << 1)
                x = low.bit_length() - 1
                order.append(x)
                found = last(now, opened(x, now, open_))
                order.pop()
                if found is not None:
                    return found
                dead.add(now)
            if uncounted:
                tick(uncounted.bit_count())
            return None

        def extend(placed: int, open_: int, surviving: int):
            uncounted = full & ~placed
            if not uncounted & ends:
                # every tracked pair is decided; one completion suffices,
                # any other gives the same surviving set
                return complete(tuple(order) + tuple(_bits(uncounted)), surviving)
            for x in _bits(uncounted):
                # the closure reaches past x from every open partner (open
                # vertices are placed)
                newly = rem_nbr[x] & open_
                after = surviving
                if newly:
                    if newly & guard[x]:
                        continue
                    hit = memo[x].get(newly)
                    if hit is None:
                        hit = memo[x][newly] = self._survivors(x, newly)
                    add, clash = hit
                    after |= add
                    if pairwise and clash & after:
                        continue  # two survivors are the chords of one C4
                now = placed | 1 << x
                key = after << n | now
                if key in dead:
                    continue
                tick((uncounted & (2 << x) - 1).bit_count())
                uncounted &= -2 << x
                order.append(x)
                found = extend(now, opened(x, now, open_), after)
                order.pop()
                if found is not None:
                    return found
                dead.add(key)
            tick(uncounted.bit_count())
            return None

        return last(0, 0) if dims_left == 1 else extend(0, 0, 0)

    def _last_on_lattice(self, rem_nbr: list[int], ends: int, complete):
        """The last dimension's walk, decided over all placed sets at once.

        allowed[x] is the family of placed sets at which the walk may place
        x, and the walk's states are the family reached from the empty set.
        A state that fails tries each unplaced vertex once, as a node.  The
        first ordering takes at each state the lowest allowed vertex from
        which a state placing every end is reached; the allowed vertices
        below it start subtrees that fail whole, and a state on the path
        counts its unplaced vertices up to the one it places.  One batch
        tick counts and reads the clock as the walk's ticks would.
        """
        if self.lattice is None:
            self.lattice = subset_families(self.G)
        has, open_ = self.lattice
        vertices = (1 << self.G.n) - 1
        full = (1 << (1 << self.G.n)) - 1
        allowed = []
        for x, partners in enumerate(rem_nbr):
            cut = has[x]
            for y in _bits(partners):
                cut |= open_[y]
            allowed.append(full & ~cut)
        done = full  # the states that place every end
        for z in _bits(ends):
            done &= has[z]

        def forward(family: int) -> int:
            while True:
                before = family
                for x, step in enumerate(allowed):
                    family |= (family & step) << (1 << x)
                if family == before:
                    return family

        def nodes(family: int) -> int:
            return sum((family & ~h).bit_count() for h in has)

        reach = forward(1)
        if not reach & done:
            self.meter.tick(nodes(reach))
            return None
        # the reached states from which a state in done is reached
        good = reach & done
        while True:
            before = good
            for x, step in enumerate(allowed):
                good |= reach & step & good >> (1 << x)
            if good == before:
                break
        order = []
        placed = failed = count = 0
        while not done >> placed & 1:
            unplaced = vertices & ~placed
            for x in _bits(unplaced):
                now = placed | 1 << x
                if allowed[x] >> placed & 1:
                    if good >> now & 1:
                        break
                    failed |= 1 << now
            count += (unplaced & (2 << x) - 1).bit_count()
            order.append(x)
            placed = now
        self.meter.tick(count + nodes(forward(failed)))
        return complete(tuple(order) + tuple(_bits(vertices & ~placed)), 0)

    def search(self, dims_left: int, remaining: int):
        """At most dims_left orderings excluding the mask remaining, or None."""
        if not remaining:
            return ()
        target = self._pick_target(remaining) if dims_left > 1 else None

        def complete(sigma, surviving):
            rest = self.search(dims_left - 1, surviving)
            return None if rest is None else (sigma,) + rest

        return self._orderings(remaining, dims_left, target, complete)


def _stacked_witness(G: Graph, orderings) -> BoxRepresentation:
    """The orderings' closure layers, stacked and verified against G."""
    B = from_interval_reps(closure_layer(G, s) for s in orderings)
    report = verify_representation(B, G)
    if not report.equal:
        raise RuntimeError("search produced an unsound witness")
    return B


def boxicity_at_most(
    G: Graph, d: int, budget: SearchBudget | BudgetMeter | None = None
) -> BoxicityResult:
    """Decide whether d interval graphs suffice.

    On success the result carries the d orderings and the stacked, verified
    representation.  On exhaustive failure the status stays "exact" with no
    value; an interrupted search reports "budget-exhausted" instead, never
    a silent no.  Given a running meter, the search continues its count;
    given exact_boxicity's running search of G, it also reuses that
    search's chord-conflict table and survivor memo.  The result's nodes
    are this call's.
    """
    if not is_int(d) or d < 1:
        raise InvalidInput(f"dimension must be an int of at least 1, got {d!r}")
    if G.n == 0:
        raise InvalidInput("boxicity needs at least one vertex")
    search = budget if isinstance(budget, _ClosureSearch) else None
    meter = search.meter if search else (budget or SearchBudget()).meter()
    start = meter.nodes
    try:
        search = search or _ClosureSearch(G, meter)
        found = search.search(d, (1 << len(search.non_edges)) - 1)
    except BudgetExhausted:
        return BoxicityResult(None, None, STATUS_BUDGET, nodes=meter.nodes - start)
    nodes = meter.nodes - start
    if found is None:
        return BoxicityResult(None, None, STATUS_EXACT, lower_bound=d + 1, nodes=nodes)
    identity = tuple(range(G.n))
    orderings = found + (identity,) * (d - len(found))
    return BoxicityResult(
        d,
        _stacked_witness(G, orderings),
        STATUS_EXACT,
        orderings=orderings,
        lower_bound=1,
        nodes=nodes,
    )


def exact_boxicity(
    G: Graph, d_max: int | None = None, budget: SearchBudget | None = None
) -> BoxicityResult:
    """Smallest d with a witness, refuting every smaller d exhaustively.

    The search starts at the clique number of the chord-conflict graph,
    which bounds box(G) from below.  d_max defaults to floor(n/2) (n >= 2),
    which always suffices, so the default search cannot end undetermined
    except by budget.  One search, built once, serves the clique bound and
    every d, so the budget caps the whole call with one node count and one
    deadline; a call the node cap stops reports max_nodes + 1 nodes.
    """
    if G.n == 0:
        raise InvalidInput("boxicity needs at least one vertex")
    if d_max is None:
        d_max = max(1, G.n // 2)
    if not is_int(d_max) or d_max < 1:
        raise InvalidInput(f"d_max must be an int of at least 1, got {d_max!r}")
    meter = (budget or SearchBudget()).meter()
    try:
        search = _ClosureSearch(G, meter)
        bound = clique_number(search.conflicts, meter)
    except BudgetExhausted:
        return BoxicityResult(None, None, STATUS_BUDGET, nodes=meter.nodes)
    for d in range(max(1, bound), d_max + 1):
        step = boxicity_at_most(G, d, search)
        if step.status == STATUS_BUDGET or step.value is not None:
            return step._replace(lower_bound=d, nodes=meter.nodes)
    # no d up to d_max was tried (the bound passes it) or none sufficed
    return BoxicityResult(
        None, None, STATUS_LOWER_BOUND, lower_bound=max(bound, d_max + 1), nodes=meter.nodes
    )


def _backtrack_coloring(n: int, k: int, allowed, meter) -> dict[int, int] | None:
    """Color items 0, 1, ..., n - 1 in turn with at most k colors, each color
    c of item i passing allowed(colors so far, i, c); every color tried is
    one tick of meter, so an exhausted budget raises.

    Colors are canonical: item 0 gets color 0 and each new color is the
    smallest unused one, which collapses the k! palette symmetries.  The
    depth-first walk keeps its own stack, so n is not bounded by recursion.
    """
    if k < 0:
        raise InvalidInput("k must be nonnegative")
    colors: dict[int, int] = {}
    # per colored prefix 0..i-1: the next color to try at i, and the number
    # of colors the prefix uses
    start, used = [0], [0]
    while start:
        i = len(start) - 1
        if i == n:
            return colors
        for c in range(start[i], min(k, used[i] + 1)):
            meter.tick()
            if allowed(colors, i, c):
                colors[i] = c
                start[i] = c + 1
                start.append(0)
                used.append(max(used[i], c + 1))
                break
        else:
            start.pop()
            used.pop()
            colors.pop(i - 1, None)
    return None


def proper_coloring(
    G: Graph, k: int, budget: SearchBudget | BudgetMeter | None = None
) -> dict[int, int] | None:
    """A proper coloring with at most k colors, or None; an exhausted
    budget raises."""
    return _backtrack_coloring(
        G.n, k, lambda colors, v, c: all(colors.get(w) != c for w in G.neighbors(v)),
        (budget or SearchBudget()).meter(),
    )


def least_coloring(
    find, G: Graph, budget: SearchBudget | BudgetMeter | None = None
) -> dict[int, int]:
    """find(G, k, meter)'s coloring at the least k that has one, which uses
    exactly k colors; the budget covers every k."""
    meter = (budget or SearchBudget()).meter()
    return next(c for k in range(G.n + 1) if (c := find(G, k, meter)) is not None)


def chromatic_number(G: Graph, budget: SearchBudget | BudgetMeter | None = None) -> int:
    """The least k with a proper k-coloring; the budget covers every k."""
    return len(set(least_coloring(proper_coloring, G, budget).values()))


def _joins_two(G: Graph, anchors: int, inside: int) -> bool:
    """Whether two of the vertices in the mask anchors are connected in G
    induced on the vertex mask inside."""
    if not anchors & anchors - 1:
        return False  # fewer than two anchors
    nbr = G.nbr_masks
    seen = 0
    for a in _bits(anchors):
        if seen >> a & 1:
            return True
        frontier = 1 << a
        while frontier:
            seen |= frontier
            reach = 0
            for x in _bits(frontier):
                reach |= nbr[x]
            frontier = reach & inside & ~seen
    return False


def _acyclic_ok(G: Graph, colors: dict[int, int], v: int, c: int) -> bool:
    """Can v take color c without an improper edge or a two-colored cycle?

    A new cycle through v inside the classes {c, other} needs two of v's
    other-colored neighbors already connected there, so it is enough to
    check connectivity among those anchors in the colored prefix.
    """
    anchors_by_color: dict[int, int] = {}
    for w in G.neighbors(v):
        cw = colors.get(w)
        if cw == c:
            return False
        if cw is not None:
            anchors_by_color[cw] = anchors_by_color.get(cw, 0) | 1 << w
    for other, anchors in anchors_by_color.items():
        if not anchors & anchors - 1:
            continue  # one anchor closes no cycle
        inside = sum(1 << w for w, cw in colors.items() if cw in (c, other))
        if _joins_two(G, anchors, inside):
            return False
    return True


def acyclic_coloring(
    G: Graph, k: int, budget: SearchBudget | BudgetMeter | None = None
) -> dict[int, int] | None:
    """A proper coloring with every two classes inducing a forest, or None;
    an exhausted budget raises."""
    return _backtrack_coloring(
        G.n, k, lambda colors, v, c: _acyclic_ok(G, colors, v, c),
        (budget or SearchBudget()).meter(),
    )


def acyclic_chromatic_number(
    G: Graph, budget: SearchBudget | BudgetMeter | None = None
) -> int:
    """The least k with an acyclic k-coloring; the budget covers every k."""
    return len(set(least_coloring(acyclic_coloring, G, budget).values()))


def find_pair_cover(G: Graph, X) -> PairCover:
    """Maximum set of disjoint non-adjacent pairs inside X.

    Plain branch-and-memo maximum matching on the non-adjacency relation;
    exact, intended for small X.
    """
    xs = check_vertex_set(G, X)
    if not xs:
        raise InvalidInput("X must be nonempty")
    memo: dict[frozenset[int], tuple[tuple[int, int], ...]] = {}

    def best(avail: frozenset[int]) -> tuple[tuple[int, int], ...]:
        if len(avail) < 2:
            return ()
        cached = memo.get(avail)
        if cached is not None:
            return cached
        rest = sorted(avail)
        u = rest[0]
        out = best(avail - {u})
        for v in rest[1:]:
            if not G.has_edge(u, v):
                cand = ((u, v),) + best(avail - {u, v})
                if len(cand) > len(out):
                    out = cand
        memo[avail] = out
        return out

    return PairCover(X=xs, pairs=best(frozenset(xs)))


def find_forest_stable_partition(
    G: Graph, budget: SearchBudget | None = None
) -> ForestStablePartition | None:
    """Split V into an induced forest and a stable set with pairwise
    distance at least 3, if such a split exists.

    Returns None only after exhausting the search space; running out of
    budget raises instead, so "none exists" is never conflated with "gave
    up".
    """
    meter = (budget or SearchBudget()).meter()
    near = within_two(G)
    # vertex masks; v keeps the forest acyclic unless two of its forest
    # neighbours are already connected in it
    forest = stable = 0
    # Vertices are placed in turn, the forest tried before the stable set.
    # side[v] for the placed prefix and the vertex being placed: the next
    # side to try for v, 0 the forest, 1 the stable set, 2 neither.  The
    # depth-first walk keeps its own stack, so n is not bounded by recursion.
    side = [0]
    while side:
        v = len(side) - 1
        if v == G.n:
            return ForestStablePartition(F=tuple(_bits(forest)), S=tuple(_bits(stable)))
        if side[v] == 0:
            meter.tick()
            side[v] = 1
            if not _joins_two(G, G.nbr_masks[v] & forest, forest):
                forest |= 1 << v
                side.append(0)
                continue
        if side[v] == 1:
            side[v] = 2
            if not near[v] & stable:
                stable |= 1 << v
                side.append(0)
                continue
        side.pop()
        if side:
            # v - 1 leaves the side it sat on; its next side is tried next
            forest &= ~(1 << v - 1)
            stable &= ~(1 << v - 1)
    return None


def boxicity_result_to_dict(result: BoxicityResult) -> dict:
    """JSON-friendly view of a search outcome; the witness uses the box
    representation schema."""
    return {
        "value": result.value,
        "status": result.status,
        "lower_bound": result.lower_bound,
        "nodes": result.nodes,
        "orderings": (None if result.orderings is None
                      else [list(order) for order in result.orderings]),
        "witness": (None if result.witness is None
                    else box_rep_to_dict(result.witness)),
    }
