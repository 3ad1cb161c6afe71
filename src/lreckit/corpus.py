"""Deterministic instance generators for the test and CLI sweeps.

Random rooted DAGs are drawn by fixing a random topological order,
keeping order-respecting edges with a per-instance probability, and
pruning to the part reachable from the first vertex in the order.
Cardinality conditions are admissible by construction: each vertex gets a
subset of [0, out-degree].
"""

from __future__ import annotations

import itertools
import random

from .errors import SizeExceeded
from .structures import DiGraph, reachable_closure
from .xfix import CardinalityCondition

MAX_N = 12


def random_rooted_dag(rng: random.Random, n: int) -> DiGraph:
    """One rooted DAG on at most n vertices (pruning may drop some)."""
    perm = list(range(n))
    rng.shuffle(perm)
    rank = {v: i for i, v in enumerate(perm)}
    p = rng.uniform(0.25, 0.7)
    edges = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if rank[u] < rank[v] and rng.random() < p
    }
    root = perm[0]
    keep = sorted(reachable_closure(DiGraph(n, frozenset(edges)), root))
    pos = {v: i for i, v in enumerate(keep)}
    kept_edges = frozenset(
        (pos[u], pos[v]) for u, v in edges if u in pos and v in pos
    )
    return DiGraph(len(keep), kept_edges, root=pos[root])


def random_condition(rng: random.Random, g: DiGraph) -> CardinalityCondition:
    mapping = {
        v: {c for c in range(g.out_degree(v) + 1) if rng.random() < 0.5}
        for v in range(g.n)
    }
    return CardinalityCondition.from_dict(g, mapping)


def generate_corpus(seed: int, n_max: int,
                    count: int) -> list[tuple[DiGraph, CardinalityCondition]]:
    """`count` seeded (graph, condition) instances with at most n_max
    vertices each; identical seeds give identical corpora."""
    if n_max > MAX_N:
        raise SizeExceeded(f"n_max {n_max} exceeds {MAX_N}")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        g = random_rooted_dag(rng, n)
        out.append((g, random_condition(rng, g)))
    return out


def _rooted_iso(g: DiGraph, h: DiGraph) -> bool:
    if g.n != h.n or len(g.edges) != len(h.edges) or \
            (g.root is None) != (h.root is None):
        return False
    for perm in itertools.permutations(range(g.n)):
        if g.root is not None and perm[g.root] != h.root:
            continue
        if {(perm[u], perm[v]) for u, v in g.edges} == set(h.edges):
            return True
    return False


def enumerate_rooted_dags(n_max: int) -> list[DiGraph]:
    """All rooted DAGs on 1..n_max vertices, up to root-preserving
    isomorphism. Exhaustive; meant for n_max <= 4."""
    if n_max > 4:
        raise SizeExceeded("exhaustive enumeration is for n_max <= 4")
    found: list[DiGraph] = []
    for n in range(1, n_max + 1):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in itertools.product((False, True), repeat=len(pairs)):
            edges = frozenset(p for p, b in zip(pairs, bits) if b)
            g = DiGraph(n, edges)
            if not g.is_acyclic():
                continue
            for root in range(n):
                if len(reachable_closure(g, root)) != n:
                    continue
                rooted = DiGraph(n, edges, root=root)
                if not any(_rooted_iso(rooted, h) for h in found if h.n == n):
                    found.append(rooted)
    return found


def all_conditions(g: DiGraph):
    """Every admissible cardinality condition for g (exponential; use on
    tiny graphs only)."""
    per_vertex = []
    for v in range(g.n):
        counts = range(g.out_degree(v) + 1)
        per_vertex.append([
            set(sub)
            for size in range(len(list(counts)) + 1)
            for sub in itertools.combinations(range(g.out_degree(v) + 1), size)
        ])
    for combo in itertools.product(*per_vertex):
        yield CardinalityCondition.from_dict(
            g, {v: s for v, s in enumerate(combo)}
        )
