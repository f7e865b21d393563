"""Seeded inputs for the three workloads.

Every generator draws from the `random.Random` it is given, so one seed
gives the same files.  Sizes are fixed per family; the seed moves only the
structure (which tree, which labels, which corruption), so the work in a
pass barely depends on the seed.  The derive scripts' shapes are fixed and
the seed relabels their vertices.  Search instances are fixed graphs: their
node counts must repeat exactly from run to run, and the seed only shuffles
the order they run in.

A job's `spec` names a CLI command and its files.  Input files are written
once in set-up; a value starting with "@" names an output file in the
directory of the current pass, so every pass keeps its own outputs for the
checker.  `expect` is what the checker holds the outcome to, computed here
without the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from checker import meets, boxes_of

# Every search-style job gets a node cap and a time limit far above its
# expected run time, so caps (which repeat exactly) decide every outcome.
MAX_NODES = 250_000
TIME_LIMIT = 1000


@dataclass
class Job:
    key: str
    spec: dict
    expect: dict


@dataclass
class Workload:
    units: list[list[Job]] = field(default_factory=list)  # a unit runs in order
    # The percentile `job_tail_s` reports.  It is fixed per workload, so
    # that it does not move with the number of job runs, which falls on a
    # slow host: at least 10 of a run's job runs lie beyond it at the pace
    # of the VM the benchmark was tuned on.
    tail_percentile: int = 85

    def jobs(self):
        return [job for unit in self.units for job in unit]


# --------------------------------------------------------------------------
# graphs as (n, edge set) on local ids


def _key(u, v):
    return (u, v) if u < v else (v, u)


def forest_edges(ids, rng, attach=0.85):
    edges = set()
    for i in range(1, len(ids)):
        if rng.random() < attach:
            edges.add(_key(ids[rng.randrange(i)], ids[i]))
    return edges


def forest_layout(n, edges):
    """Two boxes per tree: x is the depth-first [entry, exit] window (nested
    along root paths, disjoint across branches), y the band [2 depth,
    2 depth + 2]; boxes meet exactly for parent and child."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    entry, leave, depth = [0] * n, [0] * n, [0] * n
    seen = [False] * n
    clock = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(sorted(nbrs[root])))]
        entry[root] = clock = clock + 1
        while stack:
            v, it = stack[-1]
            w = next((w for w in it if not seen[w]), None)
            if w is None:
                leave[v] = clock = clock + 1
                stack.pop()
                continue
            seen[w] = True
            depth[w] = depth[v] + 1
            entry[w] = clock = clock + 1
            stack.append((w, iter(sorted(nbrs[w]))))
    return {"d": 2, "vertices": {
        str(v): [[[entry[v], 1], [leave[v], 1]], [[2 * depth[v], 1], [2 * depth[v] + 2, 1]]]
        for v in range(n)}}


def girth4_graph(n, rng):
    """A forest F plus a stable set S whose members each grab 1-3 private
    forest vertices, so S-vertices are pairwise at distance >= 3."""
    ids = list(range(n))
    rng.shuffle(ids)
    s_count = max(1, n // 10)
    F, S = ids[s_count:], ids[:s_count]
    edges = forest_edges(F, rng)
    free = list(F)
    rng.shuffle(free)
    for s in S:
        for _ in range(rng.randint(1, 3)):
            edges.add(_key(s, free.pop()))
    return edges, {"F": sorted(F), "S": sorted(S)}


def acyclic_graph(n, k, rng):
    """Random colour classes; every pair of classes gets its own random
    forest of cross edges, so the colouring is proper and acyclic."""
    colors = [v % k for v in range(n)]
    rng.shuffle(colors)
    classes = [[v for v in range(n) if colors[v] == c] for c in range(k)]
    edges = set()
    for i, j in combinations(range(k), 2):
        parent = {v: v for v in classes[i] + classes[j]}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for _ in range(len(parent) * 2 // 3):
            u, v = rng.choice(classes[i]), rng.choice(classes[j])
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                edges.add(_key(u, v))
    return edges, {"colors": {str(v): colors[v] for v in range(n)}}


def roberts_graph(m, rng=None):
    """Complete graph on 2m vertices minus a perfect matching; with `rng`
    the matching pairs are scattered over the labels."""
    labels = list(range(2 * m))
    if rng is not None:
        rng.shuffle(labels)
    mate = {}
    for i in range(m):
        a, b = labels[2 * i], labels[2 * i + 1]
        mate[a], mate[b] = b, a
    return {_key(u, v) for u, v in combinations(range(2 * m), 2) if mate[u] != v}


def cycle_graph(n):
    return {_key(i, (i + 1) % n) for i in range(n)}


def path_graph(n):
    return {(i, i + 1) for i in range(n - 1)}


def random_graph(n, p, seed):
    r = random.Random(seed)
    return {e for e in combinations(range(n), 2) if r.random() < p}


_OFFSETS = {"S1": (0,), "S2": (0, 1), "S3": (0, 2), "S4": (0, 1, 2)}


def attach_cycle(edges, n, attached, k, rng):
    """Add an induced k-cycle on new ids n..n+k-1 and give each attached
    vertex a random class and anchor; returns the classification."""
    cycle = list(range(n, n + k))
    edges |= {_key(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    assignments = {}
    for v in attached:
        cls, anchor = rng.choice(sorted(_OFFSETS)), rng.randrange(k)
        assignments[str(v)] = [cls, anchor]
        edges |= {_key(v, cycle[(anchor + o) % k]) for o in _OFFSETS[cls]}
    return {"cycle": cycle, "assignments": assignments}


def graph_doc(n, edges):
    return {"n": n, "edges": [list(e) for e in sorted(edges)]}


# --------------------------------------------------------------------------
# derivation scripts, built bottom-up on local ids


@dataclass
class Piece:
    """A graph on 0..n-1 with a script for it, the dimension the script's
    rules predict, and its number of steps."""

    n: int
    edges: set
    script: dict
    d: int
    steps: int = 1


def _shift(script, f):
    """The script with every vertex id mapped through f."""
    out = dict(script)
    ids = lambda xs: [f(v) for v in xs]
    if "cover" in out:
        out["cover"] = {"X": ids(out["cover"]["X"]),
                        "pairs": [ids(p) for p in out["cover"]["pairs"]]}
    if "sep" in out:
        out["sep"] = {k: ids(vs) for k, vs in out["sep"].items()}
    if "K" in out:
        out["K"] = ids(out["K"])
    if "cls" in out:
        out["cls"] = {"cycle": ids(out["cls"]["cycle"]),
                      "assignments": {str(f(int(v))): a
                                      for v, a in out["cls"]["assignments"].items()}}
    if "coloring" in out:
        out["coloring"] = {"colors": {str(f(int(v))): c
                                      for v, c in out["coloring"]["colors"].items()}}
    if "part" in out:
        out["part"] = {k: ids(vs) for k, vs in out["part"].items()}
    if "rep" in out:
        out["rep"] = {"d": out["rep"]["d"],
                      "vertices": {str(f(int(v))): b for v, b in out["rep"]["vertices"].items()}}
    for slot in ("sub", "sub1", "sub2"):
        if slot in out:
            out[slot] = _shift(out[slot], f)
    return out


def leaf_girth4(n, rng):
    edges, part = girth4_graph(n, rng)
    return Piece(n, edges, {"rule": "girth4", "part": part}, 4)


def leaf_acyclic(n, k, rng):
    edges, coloring = acyclic_graph(n, k, rng)
    return Piece(n, edges, {"rule": "acyclic", "coloring": coloring}, k * (k - 1))


def leaf_roberts(m, rng):
    return Piece(2 * m, roberts_graph(m, rng), {"rule": "roberts"}, m)


def leaf_explicit(n, rng):
    edges = forest_edges(list(range(n)), rng)
    return Piece(n, edges, {"rule": "base_explicit", "rep": forest_layout(n, edges)}, 2)


# desk-size oracle leaves with known boxicity: C_n = 2, roberts(3) = 3
_ORACLE_LEAVES = [(4, cycle_graph(4), 2), (5, cycle_graph(5), 2),
                  (6, cycle_graph(6), 2), (6, roberts_graph(3), 3)]


def leaf_oracle(rng):
    n, edges, d = rng.choice(_ORACLE_LEAVES)
    return Piece(n, set(edges), {"rule": "base_oracle"}, d)


def _nonadjacent_pairs(xs, edges, rng):
    xs = list(xs)
    rng.shuffle(xs)
    pairs, used = [], set()
    for a, b in combinations(xs, 2):
        if a not in used and b not in used and _key(a, b) not in edges:
            pairs.append(sorted((a, b)))
            used |= {a, b}
    return pairs


def sur1(child, x, rng, p=0.3):
    X = list(range(child.n, child.n + x))
    edges = set(child.edges)
    edges |= {_key(a, v) for a in X for v in range(child.n + x) if v != a and rng.random() < p}
    pairs = _nonadjacent_pairs(X, edges, rng)
    script = {"rule": "sur1", "cover": {"X": X, "pairs": pairs}, "sub": child.script}
    return Piece(child.n + x, edges, script, child.d + x - len(pairs), child.steps + 1)


def sur2(c1, c2, x, rng, p=0.2):
    """c1 keeps its vertices and lends x of them as the separator X; c2 is
    shifted after c1 and reached from X through a sur1 step on X."""
    X = sorted(rng.sample(range(c1.n), x))
    V1 = [v for v in range(c1.n) if v not in set(X)]
    V2 = list(range(c1.n, c1.n + c2.n))
    edges = set(c1.edges) | {_key(u + c1.n, v + c1.n) for u, v in c2.edges}
    edges |= {_key(a, v) for a in X for v in V2 if rng.random() < p}
    pairs = _nonadjacent_pairs(X, edges, rng)
    side2 = {"rule": "sur1", "cover": {"X": X, "pairs": pairs},
             "sub": _shift(c2.script, lambda v: v + c1.n)}
    script = {"rule": "sur2", "sep": {"V1": V1, "V2": V2, "X": X},
              "sub1": c1.script, "sub2": side2}
    d = c1.d + (c2.d + x - len(pairs)) + 1
    return Piece(c1.n + c2.n, edges, script, d, c1.steps + c2.steps + 2)


def sur2bis(child, size, rng):
    """Complete a stable set K of the child into a clique."""
    order = list(range(child.n))
    rng.shuffle(order)
    K = []
    for v in order:
        if len(K) < size and all(_key(v, w) not in child.edges for w in K):
            K.append(v)
    edges = set(child.edges) | {_key(a, b) for a, b in combinations(K, 2)}
    script = {"rule": "sur2bis", "K": sorted(K), "sub": child.script}
    return Piece(child.n, edges, script, 2 * child.d, child.steps + 1)


def figure1(child, k, attached, rng):
    edges = set(child.edges)
    cls = attach_cycle(edges, child.n, rng.sample(range(child.n), attached), k, rng)
    script = {"rule": "figure1", "cls": cls, "sub": child.script}
    return Piece(child.n + k, edges, script, child.d + 5, child.steps + 1)


def relabeled(piece, rng):
    perm = list(range(piece.n))
    rng.shuffle(perm)
    edges = {_key(perm[u], perm[v]) for u, v in piece.edges}
    return Piece(piece.n, edges, _shift(piece.script, perm.__getitem__), piece.d, piece.steps)


# The derive workload's script shapes: every composite rule, every leaf
# kind, nesting up to three levels.  `z` scales the large leaves; at full
# size the graphs have 50-250 vertices.
DERIVE_SHAPES = {
    "sur1_girth4": lambda r, z: sur1(leaf_girth4(z(240), r), 5, r),
    "sur2_acyclic_girth4": lambda r, z: sur2(
        leaf_acyclic(z(90), 3, r), leaf_girth4(z(150), r), 4, r),
    "figure1_girth4": lambda r, z: figure1(leaf_girth4(z(200), r), 10, 8, r),
    "sur2bis_sur1_roberts": lambda r, z: sur2bis(sur1(leaf_roberts(z(25), r), 4, r), 6, r),
    "sur2bis_girth4": lambda r, z: sur2bis(leaf_girth4(z(180), r), 8, r),
    "sur2_figure1_explicit_sur1_oracle": lambda r, z: sur2(
        figure1(leaf_explicit(z(100), r), 8, 6, r), sur1(leaf_oracle(r), 3, r), 3, r),
    "sur1_sur2_girth4_roberts": lambda r, z: sur1(
        sur2(leaf_girth4(z(170), r), leaf_roberts(5, r), 3, r), 4, r),
    "figure1_sur1_acyclic": lambda r, z: figure1(
        sur1(leaf_acyclic(z(130), 2, r), 4, r), 12, 10, r),
}

# Boxicity of the search workload's G(n, 1/2) instances that the exact
# search decides within 500,000 nodes, as the first version of the oracle
# found them (each with a witness in 2 dimensions and a refutation of
# d = 1); (10, 1) and (10, 2) need more than MAX_NODES.  The others hit
# that cap too; their values are not known.
GNP_BOXICITY = {(9, 1): 2, (10, 1): 2, (10, 2): 2, (10, 3): 2, (10, 6): 2, (10, 10): 2}

K8_SCRIPT = {"rule": "sur1", "cover": {"X": [0, 1, 2, 3], "pairs": [[0, 1], [2, 3]]},
             "sub": {"rule": "base_oracle"}}


# --------------------------------------------------------------------------
# job builders


class Builder:
    """Writes input files into `root` and collects the workload's units."""

    def __init__(self, root: Path, rng: random.Random, scale: float):
        self.w = Workload()
        self.root = root
        self.rng = rng
        self.scale = scale

    def size(self, n, least=8):
        return max(least, int(n * self.scale))

    def write(self, name, doc) -> str:
        path = self.root / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return str(path)

    def graph(self, name, n, edges) -> str:
        return self.write(f"{name}.graph.json", graph_doc(n, edges))

    def unit(self, *jobs):
        self.w.units.append(list(jobs))

    # one helper per CLI call shape ------------------------------------

    def construct(self, name, kind, g, cert=None, d=None, skip=(), finder=False):
        spec = {"cmd": "construct", "kind": kind, "graph": g, "out": f"@{name}.rep.json"}
        if cert is not None:
            spec["cert"] = cert
        if finder:
            spec["max_nodes"] = MAX_NODES
        expect = {"kind": "rep", "d": d, "skip": sorted(skip)}
        return Job(f"{name}.construct", spec, expect)

    def verify(self, name, g, rep, expect=None):
        spec = {"cmd": "verify", "graph": g, "rep": rep}
        return Job(f"{name}.verify", spec, expect or {"kind": "verify_ok"})

    def derive(self, name, g, script, d, steps):
        spec = {"cmd": "derive", "graph": g, "script": script,
                "out": f"@{name}.rep.json", "report": f"@{name}.report.json"}
        return Job(f"{name}.derive", spec, {"kind": "derive", "d": d, "steps": steps})

    def exact(self, name, g, value=None):
        spec = {"cmd": "exact", "graph": g, "out": f"@{name}.result.json",
                "max_nodes": MAX_NODES}
        return Job(f"{name}.exact", spec, {"kind": "exact", "value": value})

    def poset_dim(self, name, g, d, answer):
        spec = {"cmd": "poset", "graph": g, "check": d, "max_nodes": MAX_NODES}
        return Job(f"{name}.poset{d}", spec, {"kind": "poset_dim", "answer": answer})

    def realizer(self, name, g, chi):
        spec = {"cmd": "poset", "graph": g, "out": f"@{name}.realizer.json"}
        return Job(f"{name}.realizer", spec, {"kind": "realizer", "chi": chi})

    # families ------------------------------------------------------------

    def forest_pair(self, name, n):
        edges = forest_edges(list(range(n)), self.rng)
        g = self.graph(name, n, edges)
        self.unit(self.construct(name, "forest", g, d=2),
                  self.verify(name, g, f"@{name}.rep.json"))

    def girth4_pair(self, name, n):
        edges, part = girth4_graph(n, self.rng)
        g = self.graph(name, n, edges)
        cert = self.write(f"{name}.part.json", part)
        self.unit(self.construct(name, "girth4", g, cert, d=4),
                  self.verify(name, g, f"@{name}.rep.json"))

    def acyclic_pair(self, name, n, k):
        edges, coloring = acyclic_graph(n, k, self.rng)
        g = self.graph(name, n, edges)
        cert = self.write(f"{name}.coloring.json", coloring)
        self.unit(self.construct(name, "acyclic", g, cert, d=k * (k - 1)),
                  self.verify(name, g, f"@{name}.rep.json"))

    def roberts_pair(self, name, m):
        g = self.graph(name, 2 * m, roberts_graph(m, self.rng))
        self.unit(self.construct(name, "roberts", g, d=m),
                  self.verify(name, g, f"@{name}.rep.json"))

    def figure1_job(self, name, k, attached):
        edges = set()
        for u, v in combinations(range(attached), 2):
            if self.rng.random() < 0.3:
                edges.add((u, v))
        cls = attach_cycle(edges, attached, range(attached), k, self.rng)
        g = self.graph(name, attached + k, edges)
        cert = self.write(f"{name}.cls.json", cls)
        self.unit(self.construct(name, "figure1", g, cert, d=2, skip=range(attached)))

    def corrupt_verify(self, name, n, count):
        """A forest layout with `count` boxes swapped for copies of other
        vertices' boxes; the planted missing/extra pairs are the pairs
        through a changed vertex whose adjacency flipped."""
        while True:
            edges = forest_edges(list(range(n)), self.rng)
            rep = forest_layout(n, edges)
            changed = self.rng.sample(range(n), count)
            for v in changed:
                rep["vertices"][str(v)] = rep["vertices"][str(self.rng.randrange(n))]
            boxes = boxes_of(rep, n)
            missing, extra = [], []
            for u, v in sorted({_key(c, w) for c in changed for w in range(n) if w != c}):
                adj = meets(boxes[u], boxes[v])
                if (u, v) in edges and not adj:
                    missing.append((u, v))
                elif adj and (u, v) not in edges:
                    extra.append((u, v))
            if missing and extra:
                break
        g = self.graph(name, n, edges)
        r = self.write(f"{name}.corrupt.json", rep)
        self.unit(self.verify(name, g, r, {"kind": "verify_bad", "exit": 1,
                                           "missing": missing, "extra": extra}))

    def derive_job(self, name, piece):
        piece = relabeled(piece, self.rng)
        g = self.graph(name, piece.n, piece.edges)
        s = self.write(f"{name}.script.json", piece.script)
        self.unit(self.derive(name, g, s, piece.d, piece.steps))

    def exact_job(self, name, n, edges, value=None):
        self.unit(self.exact(name, self.graph(name, n, edges), value))

    def light(self, *kinds):
        """Small jobs for the layers a workload does not reach by itself,
        so every layer is timed in every workload while staying a small
        share outside its own."""
        if "derive" in kinds:
            g = self.graph("k8", 8, roberts_graph(4))
            s = self.write("k8.script.json", K8_SCRIPT)
            self.unit(self.derive("k8", g, s, 4, 2))
        if "figure1" in kinds:
            self.figure1_job("light_gadget8", 8, 6)
        if "verify" in kinds:
            self.roberts_pair("light_roberts3", 3)
        if "posets" in kinds:
            self.unit(self.realizer("light_c5", self.graph("light_c5", 5, cycle_graph(5)), 3))
            self.unit(self.poset_dim("light_p3", self.graph("light_p3", 3, path_graph(3)),
                                     1, "no"))


def build(name: str, root: Path, seed: int, scale: float = 1.0) -> Workload:
    """The workload's units, with every input written under `root`; a
    `scale` below 1 shrinks the instances for the self-check."""
    # search runs the same graphs for every seed, so that its node counts
    # repeat exactly; there the seed only sets the order jobs run in
    b = Builder(root, random.Random(name if name == "search" else f"{name}:{seed}"), scale)
    tiny = scale < 1.0
    if name == "construct_verify":
        b.w.tail_percentile = 75
        # The pairwise verifier does most of the work: every unit but the
        # gadgets is a construct (which verifies its result) and a verify.
        # Job costs come in tiers, and each reported percentile falls well
        # inside one, never at the edge between two, where it would jump
        # with the noise: of the 26 jobs of a pass, 5 start-up-bound ones,
        # 4 of n = 200, 7 of n = 400-500 around the median, and 10 of
        # forest800 and roberts60 around the tail percentile.
        b.forest_pair("forest500", b.size(500))
        for i in range(4):
            b.forest_pair(f"forest800_{i}", b.size(800))
        for i in range(2):
            b.acyclic_pair(f"acyclic200_{i}", b.size(200), 3)
        b.girth4_pair("girth4_400", b.size(400))
        b.roberts_pair("roberts60", b.size(60, 3))
        b.figure1_job("gadget20", 20, b.size(40))
        b.figure1_job("gadget30", 30, b.size(60))
        for i, count in enumerate((1, 2, 3)):
            b.corrupt_verify(f"corrupt500_{i}", b.size(500), count)
        b.light("derive", "posets")
    elif name == "derive":
        # Each run includes the k8 matched-complement script.
        b.light("derive", "figure1", "posets")
        # every shape at three sizes: the median lands among the middle
        # ones and the tail percentile among the largest.  The shapes are
        # drawn from a fixed rng, since their random edges and covers set
        # the dimensions and so the work; the seed relabels the vertices.
        shapes = random.Random("derive-shapes")
        for size in (0.4, 0.7, 1.0):
            for shape, make in DERIVE_SHAPES.items():
                piece = make(shapes, lambda n: b.size(n * size))
                b.derive_job(f"{shape}_{int(size * 100)}", piece)
    elif name == "search":
        # Fixed graphs, so node counts repeat exactly: refutation-heavy
        # (roberts(4)), witness-early (cycles, sparse G(n, 1/2)), and capped
        # known-slow ones (roberts(5), most G(10..12, 1/2)).
        # Most jobs search for long enough that the median and the tail
        # percentile fall among searches, not among start-up-bound jobs.
        for m, value in ((3, 3), (4, 4), (5, 5))[:1 if tiny else 3]:
            b.exact_job(f"roberts{m}", 2 * m, roberts_graph(m), value)
        for n in range(5, 10):
            b.exact_job(f"c{n}", n, cycle_graph(n), 2)
        gnp = ((9, (1,)), (10, (1, 2, 3, 5, 6, 7, 8, 9, 10, 12)), (11, (1, 2, 3, 4, 5, 6)),
               (12, (1, 2, 3, 4)))
        for n, seeds in gnp[:1] if tiny else gnp:
            for s in seeds:
                b.exact_job(f"gnp{n}_{s}", n, random_graph(n, 0.5, s),
                            GNP_BOXICITY.get((n, s)))
        # adjacency posets: dimension 1 is refuted (v and v' are
        # incomparable), dimension < chi is refuted, and n = |P|/2 always
        # suffices (Hiraguchi)
        posets_ = (("k3", 3, cycle_graph(3), 2, "no"), ("p4", 4, path_graph(4), 1, "no"),
                   ("c4", 4, cycle_graph(4), 4, "yes"))
        for gname, n, edges, d, answer in posets_[:1] if tiny else posets_:
            b.unit(b.poset_dim(gname, b.graph(gname, n, edges), d, answer))
        b.unit(b.realizer("c7", b.graph("c7", 7, cycle_graph(7)), 3))
        edges, _ = girth4_graph(20, b.rng)
        b.unit(b.construct("girth4_find", "girth4", b.graph("girth4_find", 20, edges),
                           d=4, finder=True))
        edges, _ = acyclic_graph(14, 3, b.rng)
        b.unit(b.construct("acyclic_find", "acyclic", b.graph("acyclic_find", 14, edges),
                           finder=True))
        b.light("derive", "figure1", "verify")
    else:
        raise ValueError(f"unknown workload {name!r}")
    return b.w


WORKLOADS = ("construct_verify", "derive", "search")
