"""k-dimensional Weisfeiler-Leman refinement with round counting.

Dimension 1 is classic color refinement (neighbor color multisets); for
k >= 2, tuples are initially colored by atomic type and refined by the
multiset, over all vertices w, of the vector of colors of the k tuples
obtained by substituting w at each position. Color ids are canonical:
signatures are sorted and numbered in that order, so runs are
reproducible and graphs refined jointly share one id space. A coloring
lists the colors of g's k-tuples in lexicographic order.

Signatures are coded as ints. An atomic type is the binary number whose
digits, from the high one down, are the equalities and then the edges
over the position pairs. A color vector is the base-b number whose digits
are its colors, where b is the previous round's class count, so every
color is a digit. Both codes order exactly as the tuples of bools and of
colors they stand for, so the sorted signatures, and with them the ids,
are those of the tuples. The n tuples that differ only at position i
share the column of their n substitution colors there: a round builds
each position's columns once, scaled by its digit's weight, and a
tuple's vector codes are the elementwise sum of its k columns.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import partial, reduce
from operator import add

from .errors import SizeExceeded, SizeMismatch, UnsupportedDimension
from .structures import Graph

MAX_DIMENSION = 3
# n ** (k + 1) bounds one round's work: n^k tuples, n substitutions each
MAX_WORK = 2 ** 20

# the elementwise sum of two columns
_add_columns = partial(map, add)


def _atomic(g: Graph, k: int) -> list[int]:
    """The atomic type of every k-tuple of g, coded as an int."""
    n, adj = g.n, g.adj
    pairs = list(itertools.combinations(range(k), 2))
    equal = [u == v for u in range(n) for v in range(n)]
    edge = [v in adj[u] for u in range(n) for v in range(n)]
    # the entry at position i of every tuple, in lexicographic order
    entries = [sorted(list(range(n)) * n ** (k - 1 - i)) * n ** i
               for i in range(k)]
    types = [0] * n ** k
    for j, (a, b) in enumerate(pairs):
        eq_bit = 1 << (2 * len(pairs) - 1 - j)
        edge_bit = 1 << (len(pairs) - 1 - j)
        # pair j's bits, at u * n + v when positions a and b hold u and v
        bits = [eq_bit * e + edge_bit * d for e, d in zip(equal, edge)]
        at = map(add, map(n.__mul__, entries[a]), entries[b])
        types = list(map(add, types, map(bits.__getitem__, at)))
    return types


def _refined(g: Graph, k: int, colors: list[int], base: int) -> list[tuple]:
    """The refined signature of every k-tuple of g, from the colors of the
    last round, all below base."""
    if k == 1:
        return [(c, tuple(sorted(map(colors.__getitem__, nbrs))))
                for c, nbrs in zip(colors, g.adj)]
    n = g.n
    # per position, every tuple's column: substituting w at position i
    # moves the index by (w - t_i) n^(k-1-i), so a column is one strided
    # slice, shared by the n tuples with the same entries elsewhere
    columns = []
    for i in range(k):
        stride, scale = n ** (k - 1 - i), base ** (k - 1 - i)
        span = n * stride
        per_tuple = []
        for top in range(0, n ** k, span):
            shared = [[c * scale for c in colors[s:s + span:stride]]
                      for s in range(top, top + stride)]
            per_tuple += shared * n
        columns.append(per_tuple)
    return [(c, tuple(sorted(reduce(_add_columns, cols))))
            for c, cols in zip(colors, zip(*columns))]


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
    sigs = [_atomic(g, k) for g in graphs]
    classes = None
    while True:
        ids = {s: i for i, s in enumerate(sorted(set().union(*sigs)))}
        colorings = [list(map(ids.__getitem__, gsigs)) for gsigs in sigs]
        yield colorings
        if len(ids) == classes:
            return
        classes = len(ids)
        sigs = [_refined(g, k, colors, classes)
                for g, colors in zip(graphs, colorings)]


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
