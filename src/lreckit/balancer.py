"""Balanced decomposition of rooted DAGs into trees of logarithmic height.

A decomposition node carries a start vertex v and a waypoint set W of at
most one vertex; it stands for the restricted subgraph reachable from v
while avoiding W before the endpoint. Splitters are chosen so that the
aggregate weight at least halves every two levels, which caps the tree
height at 2*log2(awt).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .dagstats import awt_restricted, restricted, weights
from .errors import InternalLemmaViolation, IsLeaf
from .structures import DiGraph


@dataclass
class DecompNode:
    v: int
    w_set: frozenset[int]
    node_type: int  # 0: no waypoint, 1: one waypoint
    children: list["DecompNode"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "W": sorted(self.w_set),
            "type": self.node_type,
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class DecompTree:
    """A decomposition tree. build_tree shares one node object among all
    parents with the same (v, W, limit), so the tree is stored as a DAG
    that can be exponentially smaller than the tree it expands to."""

    root: DecompNode
    graph: DiGraph

    def _fold(self, combine: Callable[[list[int]], int]) -> int:
        """combine(the children's values), computed once per distinct node."""
        memo: dict[int, int] = {}

        def go(node: DecompNode) -> int:
            key = id(node)
            if key not in memo:
                memo[key] = combine([go(c) for c in node.children])
            return memo[key]

        return go(self.root)

    def height(self) -> int:
        return self._fold(lambda heights: 1 + max(heights) if heights else 0)

    def tree_size(self) -> int:
        """len(self.nodes()), counted without expanding the tree."""
        return self._fold(lambda sizes: 1 + sum(sizes))

    def nodes(self) -> list[DecompNode]:
        """Every node of the expanded tree, shared nodes once per parent."""
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return out

    def distinct_nodes(self) -> list[DecompNode]:
        """Each distinct node once, in the order nodes() first lists it."""
        out = []
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                out.append(node)
                stack.extend(node.children)
        return out


class _AwtCache:
    """awt of restricted subgraphs, memoized per (v, W)."""

    def __init__(self, g: DiGraph):
        self.g = g
        self._memo: dict[tuple[int, frozenset[int]], int] = {}
        self._reach: dict[int, frozenset[int]] = {}

    def awt(self, v: int, w_set: frozenset[int]) -> int:
        key = (v, w_set)
        cached = self._memo.get(key)
        if cached is None:
            cached = awt_restricted(self.g, v, w_set)
            self._memo[key] = cached
        return cached

    def reach(self, v: int) -> frozenset[int]:
        cached = self._reach.get(v)
        if cached is None:
            cached = restricted(self.g, v, ())
            self._reach[v] = cached
        return cached


def split_type0(g: DiGraph, v: int, cache: _AwtCache | None = None) -> int:
    """Splitter for an unrestricted subgraph: a vertex a reachable from v
    with awt(G_v^a) <= awt(G_v)/2 and awt(G_b) <= ceil(awt(G_v)/2) for
    every successor b of a.

    Found by a descending walk from v; all bounds are re-validated, exact
    integer arithmetic throughout.
    """
    cache = cache or _AwtCache(g)
    if g.out_degree(v) == 0:
        raise IsLeaf(f"vertex {v} has no successors")
    m = cache.awt(v, frozenset())
    a = v
    while True:
        step = None
        for b in g.out_neighbours[a]:  # sorted: smallest-id tie-break
            if 2 * cache.awt(v, frozenset((b,))) <= m:
                step = b
                break
        if step is None:
            break
        a = step
    if 2 * cache.awt(v, frozenset((a,))) > m:
        raise InternalLemmaViolation(f"splitter {a} violates the half bound")
    for b in g.out_neighbours[a]:
        if 2 * cache.awt(b, frozenset()) > m + 1:
            raise InternalLemmaViolation(
                f"successor {b} of splitter {a} violates the ceil bound"
            )
    return a


def _split_parts(g: DiGraph, v: int, w: int | None, a: int,
                 cache: _AwtCache) -> list[tuple[int, frozenset[int]]]:
    """The child (start, waypoints) pairs induced by splitting (v, {w}?)
    at a: the upper part (v, {a}) plus one part per successor of a."""
    parts = [(v, frozenset((a,)))]
    for b in g.out_neighbours[a]:
        if w is not None and w in cache.reach(b):
            parts.append((b, frozenset((w,))))
        else:
            parts.append((b, frozenset()))
    return parts


def _candidates(g: DiGraph, v: int, w: int | None,
                cache: _AwtCache) -> list[tuple[int, int]]:
    """Admissible splitters for the node (v, {w}?) with the weight of
    their heaviest induced child, sorted lightest-first (then by id).
    Type 0 (w None): any vertex reachable from v. Type 1: any vertex
    strictly before w on a v-to-w path (v itself always qualifies)."""
    out = []
    for u in sorted(cache.reach(v)):
        if w is not None and (u == w or w not in cache.reach(u)):
            continue
        worst = max(
            cache.awt(pv, pw) for pv, pw in _split_parts(g, v, w, u, cache)
        )
        out.append((worst, u))
    out.sort()
    return out


def build_tree(g: DiGraph) -> DecompTree:
    """Decomposition tree per the two splitter cases.

    A node (v, W) is a leaf when v has no successors or W = {v}. A type-0
    node (v, {}) splits at a = split_type0 into (v, {a}) plus (b, {}) for
    each successor b of a. A type-1 node (v, {w}) splits at some a with
    v <= a < w into (v, {a}), then (b, {w}) for successors b of a that
    reach w and (b, {}) for the rest.

    Type-0 splits are deterministic (the splitter bounds every child
    weight by half, so grandchildren always halve). Type-1 splits pick
    among the admissible candidates, lightest worst-child first, and
    backtrack when a choice leaves some grandchild heavier than half its
    grandparent.
    """
    weights(g)  # raises NotRooted or NotAcyclic
    cache = _AwtCache(g)
    # (v, W, limit) -> node or None; children of the node must weigh at
    # most limit/2 (the grandparent constraint), None = unconstrained
    memo: dict[tuple[int, frozenset[int], int | None], DecompNode | None] = {}

    def make(v: int, w_set: frozenset[int],
             limit: int | None) -> DecompNode | None:
        key = (v, w_set, limit)
        if key in memo:
            return memo[key]
        node = DecompNode(v, w_set, 0 if not w_set else 1)
        if g.out_degree(v) == 0 or w_set == frozenset((v,)):
            memo[key] = node
            return node
        own = cache.awt(v, w_set)
        w = next(iter(w_set)) if w_set else None
        candidates = _candidates(g, v, w, cache)
        if w is None:
            # the walk splitter provably bounds every child by half the
            # node weight; try it first
            walk = split_type0(g, v, cache)
            candidates = [(0, walk)] + [c for c in candidates if c[1] != walk]
        for _, a in candidates:
            parts = _split_parts(g, v, w, a, cache)
            if limit is not None and any(
                2 * cache.awt(pv, pw) > limit for pv, pw in parts
            ):
                continue
            children = []
            for pv, pw in parts:
                child = make(pv, pw, own)
                if child is None:
                    break
                children.append(child)
            else:
                node.children = children
                memo[key] = node
                return node
        memo[key] = None
        return None

    root = make(g.root, frozenset(), None)
    if root is None:
        raise InternalLemmaViolation(
            "no split sequence satisfies the grandchild halving bound"
        )
    return DecompTree(root, g)


@dataclass
class CheckReport:
    items: dict[str, bool]
    witnesses: dict[str, str]

    def all_pass(self) -> bool:
        return all(self.items.values())

    def to_dict(self) -> dict:
        return {"items": self.items, "witnesses": self.witnesses}


def check_tree(g: DiGraph, tree: DecompTree) -> CheckReport:
    """Verify the five decomposition-tree conditions plus the grandchild
    halving observation; exact integer inequalities only."""
    items = {
        "waypoint_at_most_one": True,
        "leaf_characterization": True,
        "nonleaf_waypoint_below": True,
        "cover": True,
        "height_bound": True,
        "grandchild_halving": True,
    }
    witnesses: dict[str, str] = {}

    def fail(item: str, msg: str) -> None:
        if items[item]:
            items[item] = False
            witnesses[item] = msg

    cache = _AwtCache(g)

    def area(node: DecompNode) -> int:
        return cache.awt(node.v, node.w_set)

    # every condition is local to a node, so each distinct node is checked
    # once
    for node in tree.distinct_nodes():
        if len(node.w_set) > 1:
            fail("waypoint_at_most_one", f"node ({node.v}, {sorted(node.w_set)})")
        should_be_leaf = (
            g.out_degree(node.v) == 0 or node.w_set == frozenset((node.v,))
        )
        if node.is_leaf() != should_be_leaf:
            fail("leaf_characterization", f"node ({node.v}, {sorted(node.w_set)})")
        if not node.is_leaf() and node.w_set:
            (w,) = node.w_set
            if node.v == w or w not in cache.reach(node.v):
                fail("nonleaf_waypoint_below", f"node ({node.v}, {w})")
        if not node.is_leaf():
            covered: set[int] = set()
            for child in node.children:
                covered |= restricted(g, child.v, child.w_set)
            target = restricted(g, node.v, node.w_set) - {node.v}
            uncovered = target - covered
            if uncovered:
                fail("cover", f"node ({node.v}, {sorted(node.w_set)}) "
                              f"misses {sorted(uncovered)}")
            for child in node.children:
                for grandchild in child.children:
                    if 2 * area(grandchild) > area(node):
                        fail("grandchild_halving",
                             f"A({grandchild.v},{sorted(grandchild.w_set)})="
                             f"{area(grandchild)} vs A={area(node)}")

    awt_g = weights(g).awt
    # height <= 2*log2(awt)  <=>  2^height <= awt^2
    if 2 ** tree.height() > awt_g * awt_g:
        fail("height_bound", f"height {tree.height()} with awt {awt_g}")
    return CheckReport(items, witnesses)
