"""Interval-graph machinery: maxcliques, recognition, possible ends, the
anchored precedence relation on maxcliques, and module extraction.

A graph is interval iff its maximal cliques admit a linear order in which
the cliques containing any fixed vertex are consecutive. Anchoring such
an order at a possible end M induces a precedence relation among the
maxcliques; sets of pairwise incomparable maxcliques give rise to modules
of the graph. An independent recognition oracle (chordal and asteroidal-
triple-free) referees the main algorithm in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotAMaxclique, NotInterval, SizeExceeded
from .structures import Graph

MAX_VERTICES = 32
MAX_CLIQUES = 12


def maxcliques(g: Graph) -> tuple[frozenset[int], ...]:
    """All maximal cliques (Bron-Kerbosch with pivoting), sorted."""
    if g.n > MAX_VERTICES:
        raise SizeExceeded(f"graph order {g.n} exceeds {MAX_VERTICES}")
    out: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(g.adj[v] & p))
        for v in sorted(p - g.adj[pivot]):
            expand(r | {v}, p & g.adj[v], x & g.adj[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(range(g.n)), set())
    return tuple(sorted(out, key=sorted))


def _consecutive_search(g: Graph, cliques, first=None) -> bool:
    """Backtracking over clique orders; a vertex's cliques must form one
    contiguous block. True iff some valid order exists, opening with
    `first` if given."""
    if len(cliques) > MAX_CLIQUES:
        raise SizeExceeded(f"{len(cliques)} maxcliques exceed {MAX_CLIQUES}")
    seen: set[int] = set() if first is None else set(first)

    def place(remaining: list[frozenset[int]]) -> bool:
        if not remaining:
            return True
        for idx, c in enumerate(remaining):
            rest = remaining[:idx] + remaining[idx + 1:]
            # a vertex that c leaves behind may not come back later, so a
            # branch dies as soon as a remaining clique holds one
            left = seen - c
            if any(d & left for d in rest):
                continue
            newly_seen = c - seen
            seen.update(newly_seen)
            if place(rest):
                return True
            seen.difference_update(newly_seen)
        return False

    return place([c for c in cliques if c != first])


def is_interval(g: Graph) -> bool:
    return _consecutive_search(g, maxcliques(g))


def possible_ends(g: Graph) -> set[frozenset[int]]:
    """Maxcliques that can open some consecutive ordering: one early-exit
    search per maxclique, with that clique placed first."""
    cliques = maxcliques(g)
    ends = {m for m in cliques if _consecutive_search(g, cliques, first=m)}
    if not ends:
        raise NotInterval("graph has no consecutive maxclique ordering")
    return ends


@dataclass
class PrecRelation:
    anchor: frozenset[int]
    cliques: tuple[frozenset[int], ...]
    pairs: frozenset[tuple[frozenset[int], frozenset[int]]]

    def incomparable(self, c: frozenset[int], d: frozenset[int]) -> bool:
        return c != d and (c, d) not in self.pairs and (d, c) not in self.pairs

    @property
    def is_irreflexive(self) -> bool:
        return all(c != d for c, d in self.pairs)

    @property
    def is_transitive(self) -> bool:
        for (a, b) in self.pairs:
            for (c, d) in self.pairs:
                if b == c and (a, d) not in self.pairs:
                    return False
        return True

    @property
    def is_strict_weak_order(self) -> bool:
        if not (self.is_irreflexive and self.is_transitive):
            return False
        # incomparability must be transitive as well
        for a, b, c in itertools.permutations(self.cliques, 3):
            if self.incomparable(a, b) and self.incomparable(b, c) \
                    and not self.incomparable(a, c) and a != c:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "anchor": sorted(self.anchor),
            "pairs": sorted(
                [sorted(c), sorted(d)] for c, d in self.pairs
            ),
            "is_irreflexive": self.is_irreflexive,
            "is_transitive": self.is_transitive,
            "is_strict_weak_order": self.is_strict_weak_order,
        }


def prec_order(g: Graph, m: frozenset[int]) -> PrecRelation:
    """Least fixpoint of the anchored precedence rules:
    M comes before every other maxclique; C before D whenever some X
    already before D meets C outside D, or some X already after C meets D
    outside C."""
    m = frozenset(m)
    cliques = maxcliques(g)
    if m not in cliques:
        raise NotAMaxclique(f"{sorted(m)} is not a maximal clique")
    pairs: set[tuple[frozenset[int], frozenset[int]]] = {
        (m, c) for c in cliques if c != m
    }
    changed = True
    while changed:
        changed = False
        for c in cliques:
            for d in cliques:
                if c == d or (c, d) in pairs:
                    continue
                derived = any(
                    ((x, d) in pairs and (x & c) - d)
                    or ((c, x) in pairs and (x & d) - c)
                    for x in cliques
                )
                if derived:
                    pairs.add((c, d))
                    changed = True
    return PrecRelation(m, cliques, frozenset(pairs))


def is_module(g: Graph, s: set[int] | frozenset[int]) -> bool:
    """Every vertex outside s is adjacent to all of s or to none of it."""
    s = set(s)
    if not s:
        return False
    for v in range(g.n):
        if v in s:
            continue
        links = len(g.adj[v] & s)
        if links not in (0, len(s)):
            return False
    return True


def extract_modules(g: Graph, m: frozenset[int]) -> list[frozenset[int]]:
    """For each maximal set of >= 2 pairwise incomparable maxcliques
    (w.r.t. the precedence anchored at m), the union of the set minus the
    union of the remaining maxcliques — kept only when it actually is a
    module of g."""
    rel = prec_order(g, m)
    cliques = rel.cliques

    # maximal pairwise-incomparable sets = maximal cliques of the
    # incomparability graph on the maxcliques
    idx = {c: i for i, c in enumerate(cliques)}
    inc = Graph(len(cliques), frozenset(
        (idx[c], idx[d])
        for c, d in itertools.combinations(cliques, 2)
        if rel.incomparable(c, d)
    ))
    out = []
    for group in maxcliques(inc):
        if len(group) < 2:
            continue
        chosen = [cliques[i] for i in sorted(group)]
        rest = [c for c in cliques if c not in chosen]
        s = frozenset(set().union(*chosen)
                      - (set().union(*rest) if rest else set()))
        if s and is_module(g, s):
            out.append(s)
    return sorted(set(out), key=sorted)


def induced(g: Graph, keep) -> Graph:
    keep = sorted(set(keep))
    pos = {v: i for i, v in enumerate(keep)}
    return Graph(len(keep), frozenset(
        (pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos
    ))


# --- independent recognition oracle ----------------------------------------

def is_chordal(g: Graph) -> bool:
    """No chordless cycle of length >= 4 (brute-force subset scan)."""
    for size in range(4, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            sub = induced(g, subset)
            if all(len(sub.adj[v]) == 2 for v in range(sub.n)) \
                    and _connected(sub):
                return False
    return True


def _connected(g: Graph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _path_avoiding(g: Graph, a: int, b: int, banned: set[int]) -> bool:
    seen = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        if u == b:
            return True
        for w in g.adj[u]:
            if w not in seen and w not in banned:
                seen.add(w)
                stack.append(w)
    return False


def is_at_free(g: Graph) -> bool:
    """No asteroidal triple: three pairwise non-adjacent vertices, each
    pair connected by a path avoiding the closed neighbourhood of the
    third."""
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
            continue
        if (_path_avoiding(g, a, b, g.adj[c] | {c})
                and _path_avoiding(g, a, c, g.adj[b] | {b})
                and _path_avoiding(g, b, c, g.adj[a] | {a})):
            return False
    return True


def is_interval_oracle(g: Graph) -> bool:
    """Classical characterization used strictly as a test referee."""
    return is_chordal(g) and is_at_free(g)
