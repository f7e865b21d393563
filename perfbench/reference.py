"""Fixed reference work, run as a child process between timed jobs.

    python3 perfbench/reference.py

It never imports the package under test, so its run time moves with the
host's speed and not with the code: `run.py` divides the timed jobs' wall
times by it (see README.md, "How steady the numbers are").  The work
mirrors the workloads' kinds of work in pure Python: pairwise `Fraction`
box checks after a JSON round trip, set and dict graph work, and a
backtracking search.  It prints a checksum.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def boxes_work(rng: random.Random, n: int = 170) -> int:
    boxes = []
    for _ in range(n):
        box = []
        for _ in range(2):
            lo = Fraction(rng.randrange(400), rng.randrange(1, 7))
            box.append([lo, lo + Fraction(rng.randrange(1, 400), rng.randrange(1, 7))])
        boxes.append(box)
    doc = json.dumps([[[[x.numerator, x.denominator] for x in iv] for iv in b] for b in boxes])
    boxes = [[[Fraction(*x) for x in iv] for iv in b] for b in json.loads(doc)]
    meets = 0
    for u in range(n):
        for v in range(u + 1, n):
            meets += all(a[0] <= b[1] and b[0] <= a[1] for a, b in zip(boxes[u], boxes[v]))
    return meets


def graph_work(rng: random.Random, n: int = 800) -> int:
    nbrs = {v: set() for v in range(n)}
    for _ in range(4 * n):
        u, v = rng.sample(range(n), 2)
        nbrs[u].add(v)
        nbrs[v].add(u)
    total = 0
    for root in range(0, n, 30):  # breadth-first depths from a few roots
        depth, frontier = {root: 0}, [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in nbrs[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(depth.values())
    sub = {v: nbrs[v] & set(range(0, n, 2)) for v in range(0, n, 2)}  # induced subgraph
    return total + sum(map(len, sub.values()))


def search_work(n: int = 9) -> int:
    """Nodes of the backtracking search for every n-queens placement."""
    nodes = 0

    def place(row, cols, up, down):
        nonlocal nodes
        nodes += 1
        for c in range(n):
            if row < n and c not in cols and row + c not in up and row - c not in down:
                place(row + 1, cols | {c}, up | {row + c}, down | {row - c})

    place(0, frozenset(), frozenset(), frozenset())
    return nodes


if __name__ == "__main__":
    rng = random.Random(20111)
    print(boxes_work(rng) + graph_work(rng) + search_work())
