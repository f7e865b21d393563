"""Exhaustive oracles for desk-scale graphs.

Boxicity is computed by searching over tuples of vertex orderings: the
umbrella closure of an ordering is the least interval supergraph whose
left-endpoint order is that ordering, and a graph is the intersection of d
interval graphs exactly when d orderings exist whose closures jointly
exclude every non-edge.  The search walks one ordering at a time and
tracks the set of non-edges no closure has excluded yet.

Two facts keep the search small.  Placing a vertex decides every non-edge
whose other endpoint is already placed (the pair stays excluded unless the
earlier endpoint has run out of unplaced neighbors), so constraint
violations surface at placement time.  And dimensions are interchangeable,
so with symmetry pruning on, each dimension is required to exclude one
designated hardest non-edge; turning the flag off keeps only the weaker
rule that a dimension must exclude something new.  Failed (remaining set,
dimensions left) pairs are memoized.

Everything here is exponential in the worst case and intended for small
inputs; budgets cap nodes and wall time rather than letting a search run
away.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .boxes import (
    BoxRepresentation,
    box_rep_to_dict,
    from_interval_reps,
    verify_representation,
)
from .certificates import ForestStablePartition, PairCover
from .errors import BudgetExhausted, InvalidInput
from .graphs import Graph, bfs_distances, check_vertex_set, is_int
from .intervals import representation_from_ordering, umbrella_closure

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower-bound-only"
STATUS_BUDGET = "budget-exhausted"


@dataclass(frozen=True)
class SearchBudget:
    """Caps on a single oracle call."""

    max_nodes: int = 2_000_000
    time_limit: float = 60.0
    symmetry_pruning: bool = True

    def __post_init__(self):
        if not is_int(self.max_nodes) or self.max_nodes < 1:
            raise InvalidInput(
                f"budget max_nodes must be an int of at least 1, got {self.max_nodes!r}"
            )
        limit = self.time_limit
        # the comparisons also reject NaN, infinity and ints too large for a float
        if not (is_int(limit) or isinstance(limit, float)) or not (
            0 < limit <= sys.float_info.max
        ):
            raise InvalidInput(
                f"budget time_limit must be finite seconds above 0, got {limit!r}"
            )
        if not isinstance(self.symmetry_pruning, bool):
            raise InvalidInput(
                f"budget symmetry_pruning must be true or false, got {self.symmetry_pruning!r}"
            )

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

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise BudgetExhausted(f"node budget of {self.budget.max_nodes} exceeded")
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise BudgetExhausted(f"time limit of {self.budget.time_limit}s exceeded")


@dataclass(frozen=True)
class BoxicityResult:
    """Outcome of a boxicity search.

    value and witness are set together: a witness is returned only when the
    exact value was determined and verified.  lower_bound is always sound,
    even when the status reports an interrupted or capped search.
    """

    value: int | None
    witness: BoxRepresentation | None
    status: str
    orderings: tuple[tuple[int, ...], ...] | None = None
    lower_bound: int = 1
    nodes: int = 0


class _ClosureSearch:
    def __init__(self, G: Graph, budget: SearchBudget):
        self.G = G
        self.n = G.n
        self.budget = budget
        self.meter = budget.meter()
        self.non_edges = sorted(G.non_edges())
        # for each vertex, the non-edges it belongs to
        self.partners: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.non_edges):
            self.partners[u].append((v, i))
            self.partners[v].append((u, i))
        self.failed: set[tuple[int, frozenset[int]]] = set()

    def _pick_target(self, remaining: frozenset[int]) -> int:
        """Hardest pair first: excluding (u, v) forces all of one endpoint's
        neighbors before the other endpoint, so high degrees prune most."""
        best = -1
        best_score = -1
        for i in sorted(remaining):
            u, v = self.non_edges[i]
            score = self.G.degree(u) + self.G.degree(v)
            if score > best_score:
                best, best_score = i, score
        return best

    def _orderings(self, remaining, must_break_all, target):
        """Yield (ordering, still-surviving subset) for admissible orderings.

        A tracked non-edge is decided the moment its later endpoint is
        placed.  The closure adds the pair (the non-edge survives,
        unexcluded) iff the earlier endpoint still has an unplaced
        neighbor at that moment; otherwise this dimension excludes it for
        good.
        """
        n = self.n
        placed: list[int] = []
        placed_mask = 0
        surviving: set[int] = set()
        undecided = [len(remaining)]
        nbr_masks = self.G.nbr_masks

        def extend():
            nonlocal placed_mask
            if len(placed) == n:
                yield tuple(placed), frozenset(surviving)
                return
            if undecided[0] == 0:
                # every tracked pair is decided; one completion suffices,
                # any other yields the same surviving set
                rest = tuple(x for x in range(n) if not placed_mask >> x & 1)
                yield tuple(placed) + rest, frozenset(surviving)
                return
            for x in range(n):
                if placed_mask >> x & 1:
                    continue
                self.meter.tick()
                newly: list[int] = []
                decided_now = 0
                ok = True
                for u, i in self.partners[x]:
                    if i in remaining and placed_mask >> u & 1:
                        decided_now += 1
                        if nbr_masks[u] & ~placed_mask == 0:
                            # u's neighbors all sit before x, so the
                            # closure stops short of x: pair excluded
                            continue
                        # the closure reaches past x and adds the pair
                        if must_break_all or i == target:
                            ok = False
                            break
                        newly.append(i)
                if not ok:
                    continue
                placed.append(x)
                placed_mask |= 1 << x
                surviving.update(newly)
                undecided[0] -= decided_now
                yield from extend()
                placed.pop()
                placed_mask &= ~(1 << x)
                surviving.difference_update(newly)
                undecided[0] += decided_now

        yield from extend()

    def search(self, dims: int):
        return self._dims(dims, frozenset(range(len(self.non_edges))))

    def _dims(self, dims_left, remaining):
        if not remaining:
            return ()
        if dims_left == 0:
            return None
        key = (dims_left, remaining)
        if key in self.failed:
            return None
        symmetry = self.budget.symmetry_pruning
        must_all = dims_left == 1
        target = self._pick_target(remaining) if symmetry and not must_all else None
        for sigma, surviving in self._orderings(remaining, must_all, target):
            if not must_all and not symmetry and len(surviving) == len(remaining):
                continue  # this dimension excluded nothing new
            rest = self._dims(dims_left - 1, surviving)
            if rest is not None:
                return (sigma,) + rest
        self.failed.add(key)
        return None


def _stacked_witness(G: Graph, orderings) -> BoxRepresentation:
    reps = [representation_from_ordering(umbrella_closure(G, s), s) for s in orderings]
    B = from_interval_reps(reps)
    report = verify_representation(B, G)
    if not report.equal:
        raise RuntimeError("search produced an unsound witness")
    return B


def boxicity_at_most(
    G: Graph, d: int, budget: SearchBudget | None = None
) -> BoxicityResult:
    """Decide whether d interval graphs suffice.

    On success the result carries the d orderings and the stacked, verified
    representation.  On exhaustive failure the status stays "exact" with no
    value; an interrupted search reports "budget-exhausted" instead, never
    a silent no.
    """
    if d < 1:
        raise InvalidInput("dimension must be at least 1")
    if G.n == 0:
        raise InvalidInput("boxicity needs at least one vertex")
    budget = budget or SearchBudget()
    engine = _ClosureSearch(G, budget)
    try:
        found = engine.search(d)
    except BudgetExhausted:
        return BoxicityResult(None, None, STATUS_BUDGET, nodes=engine.meter.nodes)
    if found is None:
        return BoxicityResult(
            None, None, STATUS_EXACT, lower_bound=d + 1, nodes=engine.meter.nodes
        )
    identity = tuple(range(G.n))
    orderings = found + (identity,) * (d - len(found))
    return BoxicityResult(
        d,
        _stacked_witness(G, orderings),
        STATUS_EXACT,
        orderings=orderings,
        lower_bound=1,
        nodes=engine.meter.nodes,
    )


def exact_boxicity(
    G: Graph, d_max: int | None = None, budget: SearchBudget | None = None
) -> BoxicityResult:
    """Smallest d with a witness, refuting every smaller d exhaustively.

    d_max defaults to floor(n/2) (n >= 2), which always suffices, so the
    default search cannot end undetermined except by budget.
    """
    if G.n == 0:
        raise InvalidInput("boxicity needs at least one vertex")
    if d_max is None:
        d_max = max(1, G.n // 2)
    if d_max < 1:
        raise InvalidInput("d_max must be at least 1")
    total = 0
    for d in range(1, d_max + 1):
        step = boxicity_at_most(G, d, budget)
        total += step.nodes
        if step.status == STATUS_BUDGET:
            return BoxicityResult(None, None, STATUS_BUDGET, lower_bound=d, nodes=total)
        if step.value is not None:
            return BoxicityResult(
                d, step.witness, STATUS_EXACT,
                orderings=step.orderings, lower_bound=d, nodes=total,
            )
    return BoxicityResult(
        None, None, STATUS_LOWER_BOUND, lower_bound=d_max + 1, nodes=total
    )


def _backtrack_coloring(G: Graph, k: int, allowed) -> dict[int, int] | None:
    """Color vertices 0, 1, ... in turn with at most k colors, each color c
    of v passing allowed(colors so far, v, c).

    Colors are canonical: vertex 0 gets color 0 and each new color is the
    smallest unused one, which collapses the k! palette symmetries.
    """
    if k < 0:
        raise InvalidInput("k must be nonnegative")
    colors: dict[int, int] = {}

    def place(v: int) -> bool:
        if v == G.n:
            return True
        ceiling = min(k, max(colors.values(), default=-1) + 2)
        for c in range(ceiling):
            if allowed(colors, v, c):
                colors[v] = c
                if place(v + 1):
                    return True
                del colors[v]
        return False

    return dict(colors) if place(0) else None


def proper_coloring(G: Graph, k: int) -> dict[int, int] | None:
    """A proper coloring with at most k colors, or None."""
    return _backtrack_coloring(
        G, k, lambda colors, v, c: all(colors.get(w) != c for w in G.neighbors(v))
    )


def chromatic_number(G: Graph) -> int:
    if G.n == 0:
        return 0
    for k in range(1, G.n + 1):
        if proper_coloring(G, k) is not None:
            return k
    raise AssertionError("n colors always suffice")


def _acyclic_ok(G: Graph, colors: dict[int, int], v: int, c: int) -> bool:
    """Can v take color c without an improper edge or a two-colored cycle?

    A new cycle through v inside the classes {c, other} needs two of v's
    other-colored neighbors already connected there, so it is enough to
    check connectivity among those anchors in the colored prefix.
    """
    anchors_by_color: dict[int, list[int]] = {}
    for w in G.neighbors(v):
        cw = colors.get(w)
        if cw == c:
            return False
        if cw is not None:
            anchors_by_color.setdefault(cw, []).append(w)
    for other, anchors in anchors_by_color.items():
        if len(anchors) < 2:
            continue
        allowed = {w for w, cw in colors.items() if cw in (c, other)}
        seen: set[int] = set()
        for a in anchors:
            if a in seen:
                return False
            queue = [a]
            seen.add(a)
            while queue:
                x = queue.pop()
                for y in G.neighbors(x):
                    if y in allowed and y not in seen:
                        seen.add(y)
                        queue.append(y)
    return True


def acyclic_coloring(G: Graph, k: int) -> dict[int, int] | None:
    """A proper coloring with every two classes inducing a forest, or None."""
    return _backtrack_coloring(
        G, k, lambda colors, v, c: _acyclic_ok(G, colors, v, c)
    )


def acyclic_chromatic_number(G: Graph) -> int:
    if G.n == 0:
        return 0
    for k in range(1, G.n + 1):
        if acyclic_coloring(G, k) is not None:
            return k
    raise AssertionError("n colors always suffice")


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

    def place(v: int) -> bool:
        if v == G.n:
            return True
        meter.tick()
        if forest_stays_acyclic(v):
            forest.append(v)
            if place(v + 1):
                return True
            forest.pop()
        if not (near[v] & stable):
            stable.add(v)
            if place(v + 1):
                return True
            stable.remove(v)
        return False

    if place(0):
        return ForestStablePartition(F=tuple(sorted(forest)), S=tuple(sorted(stable)))
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
