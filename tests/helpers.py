"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import itertools
import warnings

from lreckit.cformula import CFormula, Evaluator, Interner, mk_not, mk_or
from lreckit.structures import DiGraph, Graph, RelStructure
from lreckit.wl import rounds
from lreckit.xfix import CardinalityCondition


def mk_implies(a: CFormula, b: CFormula, interner: Interner) -> CFormula:
    return mk_or([mk_not(a, interner), b], interner)


class CountingInterner(Interner):
    """An interner that counts its intern calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def intern(self, node):
        self.calls += 1
        return super().intern(node)


def distinguishes(g: RelStructure, h: RelStructure, f: CFormula) -> bool:
    """True iff the sentence f evaluates differently on g and h."""
    return Evaluator(g).eval(f) != Evaluator(h).eval(f)


def class_counts(g: Graph, k: int) -> list[int]:
    """The number of WL color classes of g after each round, through the
    first round that repeats the count."""
    return [len(set(colors)) for (colors,) in rounds([g], k)]


def quiet_condition(g: DiGraph, mapping: dict[int, set[int]]) -> CardinalityCondition:
    """Build a cardinality condition, suppressing the unattainable-count
    warning (harmless for the fixtures that trip it)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return CardinalityCondition.from_dict(g, mapping)


def fig1_instance() -> tuple[DiGraph, CardinalityCondition]:
    """The worked quotient-graph instance: vertices a=0, b=1, d=2; five
    edges; per-vertex admissible child-counts. Known memberships:
    (b,2), (a,1), (a,3) in X; (d,1), (d,3) not in X."""
    g = DiGraph(3, frozenset({(0, 1), (0, 0), (0, 2), (2, 2), (2, 0)}), root=0)
    c = quiet_condition(g, {0: {0, 2, 3}, 1: {0, 1}, 2: {3}})
    return g, c


FIG1_IN_X = [(1, 2), (0, 1), (0, 3)]
FIG1_NOT_IN_X = [(2, 1), (2, 3)]


def h8() -> Graph:
    """Interval-graph fixture on vertices a..h = 0..7 whose maxcliques are
    {a,b,c,d}, {a,b,d,e,g}, {a,b,d,e,h}, {a,b,e,f}."""
    edges = set()
    for clique in ({0, 1, 2, 3}, {0, 1, 3, 4, 6}, {0, 1, 3, 4, 7}, {0, 1, 4, 5}):
        for a, b in itertools.combinations(sorted(clique), 2):
            edges.add((a, b))
    return Graph(8, frozenset(edges))


H8_MAXCLIQUES = [
    [0, 1, 2, 3],
    [0, 1, 3, 4, 6],
    [0, 1, 3, 4, 7],
    [0, 1, 4, 5],
]

DIAMOND = DiGraph(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}), root=0)


def band(n: int) -> DiGraph:
    """The rooted DAG u -> u+1, u+2 on n vertices: few distinct
    decomposition nodes, exponentially many once expanded into a tree."""
    return DiGraph(n, frozenset((u, w) for u in range(n)
                                for w in (u + 1, u + 2) if w < n), root=0)


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, frozenset({(i, (i + 1) % n) for i in range(n)}))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = {(u + g.n, v + g.n) for u, v in h.edges}
    return Graph(g.n + h.n, frozenset(set(g.edges) | shifted))


def all_root_paths(g: DiGraph) -> list[tuple[int, ...]]:
    """Every path starting at the root (including the trivial one), by
    exhaustive extension; the brute-force mirror of the weight table."""
    assert g.root is not None
    paths = [(g.root,)]
    frontier = [(g.root,)]
    while frontier:
        nxt = []
        for p in frontier:
            for w in g.out_neighbours[p[-1]]:
                q = p + (w,)
                paths.append(q)
                nxt.append(q)
        frontier = nxt
    return paths
