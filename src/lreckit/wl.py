"""k-dimensional Weisfeiler-Leman refinement with round counting.

Dimension 1 is classic color refinement (neighbor color multisets); for
k >= 2, tuples are initially colored by atomic type and refined by the
multiset, over all vertices w, of the vector of colors of the k tuples
obtained by substituting w at each position. Color ids are canonical:
signatures are sorted and numbered in that order, so runs are
reproducible and graphs refined jointly share one id space. A coloring
lists the colors of g's k-tuples in lexicographic order.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .errors import SizeExceeded, SizeMismatch, UnsupportedDimension
from .structures import Graph

MAX_DIMENSION = 3
# n ** (k + 1) bounds one round's work: n^k tuples, n substitutions each
MAX_WORK = 2 ** 20


def _signature(g: Graph, k: int, t: tuple[int, ...],
               colors: list[int] | None) -> tuple:
    """The atomic type of the k-tuple t (equalities and edges among its
    entries) when colors is None, else its refined signature."""
    if colors is None:
        pairs = list(itertools.combinations(t, 2))
        return (tuple(u == v for u, v in pairs),
                tuple(g.has_edge(u, v) for u, v in pairs))
    if k == 1:
        return (colors[t[0]], tuple(sorted(colors[w] for w in g.adj[t[0]])))
    # substituting w at position i moves the index by (w - t_i) n^(k-1-i),
    # so each position's n substitutions are one strided slice
    n = g.n
    strides = [n ** (k - 1 - i) for i in range(k)]
    index = sum(v * p for v, p in zip(t, strides))
    columns = [colors[index - v * p:index + (n - v) * p:p]
               for v, p in zip(t, strides)]
    return (colors[index], tuple(sorted(zip(*columns))))


def rounds(graphs: list[Graph], k: int) -> Iterator[list[list[int]]]:
    """Refine the graphs jointly and yield each round's colorings, one per
    graph, from round 0 (atomic types) through the first round whose joint
    class count equals the previous one.

    Each refined signature starts with the old color, so a round can only
    split classes: the partition is unchanged exactly when the class count
    is, and then it is final. Stabilizes within n^k rounds."""
    if k not in range(1, MAX_DIMENSION + 1):
        raise UnsupportedDimension(f"dimension {k} not in [1, {MAX_DIMENSION}]")
    n = max((g.n for g in graphs), default=0)
    if n ** (k + 1) > MAX_WORK:
        raise SizeExceeded(f"{n} ** {k + 1} > {MAX_WORK}: too large to refine")
    colorings: list = [None] * len(graphs)
    classes = None
    while True:
        sigs = [[_signature(g, k, t, colors)
                 for t in itertools.product(range(g.n), repeat=k)]
                for g, colors in zip(graphs, colorings)]
        ids = {s: i for i, s in enumerate(sorted(set().union(*sigs)))}
        colorings = [[ids[s] for s in gsigs] for gsigs in sigs]
        yield colorings
        if len(ids) == classes:
            return
        classes = len(ids)


def distinguish(g: Graph, h: Graph, k: int, max_rounds: int) -> int | None:
    """Least round r <= max_rounds at which some color has different
    multiplicity in g and h (round 0 = atomic types, always compared), or
    None. No round after max_rounds is computed."""
    for r, (cg, ch) in enumerate(rounds([g, h], k)):
        # checked once round 0 has validated k, so a bad k is named first
        if g.n != h.n:
            raise SizeMismatch(f"orders differ: {g.n} vs {h.n}")
        if sorted(cg) != sorted(ch):
            return r
        if r >= max_rounds:
            return None
    return None
