"""Tree-unfolding statistics of rooted DAGs.

wt(v) counts root-to-v paths; mul(v) is the maximum product of in-degrees
along such a path. Their vertex sums awt/amul bound the size of the tree
unfolding. Restricted subgraphs, the units split by the balancer, are vertex
sets of the host graph: the vertices reachable from v while avoiding a
waypoint set W (except as endpoint). Waypoints are their sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import IdOutOfRange, NotAcyclic, NotRooted, PreconditionViolated
from .structures import DiGraph, _kahn, _reach


@dataclass(frozen=True)
class WeightTable:
    wt: tuple[int, ...]
    mul: tuple[int, ...]
    awt: int
    amul: int

    def to_dict(self) -> dict:
        return {
            "wt": list(self.wt),
            "mul": list(self.mul),
            "awt": self.awt,
            "amul": self.amul,
        }


def restricted(g: DiGraph, v: int, w_set: Iterable[int]) -> frozenset[int]:
    """Vertices reachable from v by paths that avoid w_set except possibly
    at the endpoint. Every waypoint must be reachable from v."""
    if not 0 <= v < g.n:
        raise IdOutOfRange(f"id {v} not in [0, {g.n - 1}]")
    w_set = frozenset(w_set)
    keep = _reach(g.out_neighbours, v, w_set)
    unreached = w_set - keep
    if unreached:
        unreached -= _reach(g.out_neighbours, v)
        if unreached:
            raise PreconditionViolated(f"{min(unreached)} is not reachable from {v}")
    return frozenset(keep)


def _walk(g: DiGraph, v: int, w_set: Iterable[int]) -> list[tuple[int, list[int]]]:
    """The restriction (v, w_set) in topological order, each vertex paired
    with its predecessors inside the restriction.

    Waypoints are sinks: paths may end at a waypoint but never continue
    through one, so its outgoing edges are dropped. Keeping them would
    count paths through waypoints and break the weight-splitting
    inequality the balancer relies on.
    """
    w_set = frozenset(w_set)
    order = _kahn(g, restricted(g, v, w_set), w_set)
    if order is None:
        raise NotAcyclic("graph has a cycle")
    return order


def weights(g: DiGraph) -> WeightTable:
    """Weight and multiplicity of every vertex, plus their aggregates.

    Weights can be exponential in |g|; Python ints keep them exact.
    """
    if g.root is None:
        raise NotRooted("graph carries no root")
    wt = [1] * g.n
    mul = [1] * g.n
    for u, preds in _walk(g, g.root, ()):
        if preds:
            wt[u] = sum(wt[p] for p in preds)
            mul[u] = len(preds) * max(mul[p] for p in preds)
    return WeightTable(tuple(wt), tuple(mul), sum(wt), sum(mul))


def awt_restricted(g: DiGraph, v: int, w_set: Iterable[int]) -> int:
    """awt of the restriction (v, w_set), rooted at v."""
    wt: dict[int, int] = {}
    for u, preds in _walk(g, v, w_set):
        wt[u] = sum(wt[p] for p in preds) if preds else 1
    return sum(wt.values())
