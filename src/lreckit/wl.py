"""k-dimensional Weisfeiler-Leman refinement with round counting.

Dimension 1 is classic color refinement (neighbor color multisets); for
k >= 2, tuples are initially colored by atomic type and refined by the
multiset, over all vertices w, of the vector of colors of the k tuples
obtained by substituting w at each position. Color ids are canonical:
signatures are sorted and numbered by first occurrence in that order, so
runs are reproducible and two graphs refined jointly share one id space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import SizeMismatch, UnsupportedDimension
from .structures import Graph

MAX_DIMENSION = 3


@dataclass
class Coloring:
    k: int
    round: int
    colors: dict[tuple[int, ...], int]
    history: list[int] = field(default_factory=list)  # class counts per round

    def num_classes(self) -> int:
        return len(set(self.colors.values()))


def _check_k(k: int) -> None:
    if k not in range(1, MAX_DIMENSION + 1):
        raise UnsupportedDimension(f"dimension {k} not in [1, {MAX_DIMENSION}]")


def _atomic_signature(g: Graph, t: tuple[int, ...]) -> tuple:
    eq = tuple(t[i] == t[j] for i in range(len(t)) for j in range(i + 1, len(t)))
    adj = tuple(g.has_edge(t[i], t[j])
                for i in range(len(t)) for j in range(i + 1, len(t)))
    return (eq, adj)


def _dense_ids(signature_lists: list[dict[tuple, tuple]]) -> list[dict[tuple, int]]:
    """Map signatures to dense ids, shared across all given graphs,
    numbering distinct signatures in sorted order."""
    all_sigs = sorted({s for sigs in signature_lists for s in sigs.values()})
    sid = {s: i for i, s in enumerate(all_sigs)}
    return [{t: sid[s] for t, s in sigs.items()} for sigs in signature_lists]


def _initial_signatures(g: Graph, k: int) -> dict[tuple, tuple]:
    return {
        t: _atomic_signature(g, t)
        for t in itertools.product(range(g.n), repeat=k)
    }


def _refined_signatures(g: Graph, k: int,
                        colors: dict[tuple, int]) -> dict[tuple, tuple]:
    sigs = {}
    if k == 1:
        for v in range(g.n):
            nbrs = tuple(sorted(colors[(w,)] for w in g.adj[v]))
            sigs[(v,)] = (colors[(v,)], nbrs)
    else:
        verts = range(g.n)
        for t in itertools.product(verts, repeat=k):
            vectors = []
            for w in verts:
                vectors.append(tuple(
                    colors[t[:i] + (w,) + t[i + 1:]] for i in range(k)
                ))
            sigs[t] = (colors[t], tuple(sorted(vectors)))
    return sigs


def initial_coloring(g: Graph, k: int) -> Coloring:
    """Color all k-tuples by atomic type (equality + adjacency pattern)."""
    _check_k(k)
    (colors,) = _dense_ids([_initial_signatures(g, k)])
    coloring = Coloring(k, 0, colors)
    coloring.history.append(coloring.num_classes())
    return coloring


def refine_to_stable(g: Graph, k: int) -> tuple[Coloring, int]:
    """Refine until the partition stops changing; the confirming round is
    counted. Stabilizes within n^k rounds.

    Each refined signature starts with the old color, so a round can only
    split classes: the partition is unchanged exactly when the class count
    is."""
    _check_k(k)
    coloring = initial_coloring(g, k)
    rounds = 0
    while True:
        (new_colors,) = _dense_ids([_refined_signatures(g, k, coloring.colors)])
        rounds += 1
        coloring = Coloring(k, rounds, new_colors, coloring.history)
        coloring.history.append(coloring.num_classes())
        if coloring.history[-1] == coloring.history[-2]:
            return coloring, rounds


def _multiset(colors: dict[tuple, int]) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for c in colors.values():
        counts[c] = counts.get(c, 0) + 1
    return tuple(sorted(counts.items()))


def distinguish(g: Graph, h: Graph, k: int, max_rounds: int) -> int | None:
    """Least round r <= max_rounds at which some color has different
    multiplicity in g and h (round 0 = atomic types), or None.

    The two graphs are refined jointly so color ids are comparable. A round
    only splits classes, so once the joint class count stops changing the
    partition is final, and so are both multisets: the answer is None.
    """
    _check_k(k)
    if g.n != h.n:
        raise SizeMismatch(f"orders differ: {g.n} vs {h.n}")
    cg, ch = _dense_ids([_initial_signatures(g, k), _initial_signatures(h, k)])
    if _multiset(cg) != _multiset(ch):
        return 0
    classes = len(set(cg.values()) | set(ch.values()))
    for r in range(1, max_rounds + 1):
        cg, ch = _dense_ids([
            _refined_signatures(g, k, cg),
            _refined_signatures(h, k, ch),
        ])
        if _multiset(cg) != _multiset(ch):
            return r
        joint = len(set(cg.values()) | set(ch.values()))
        if joint == classes:
            return None
        classes = joint
    return None
