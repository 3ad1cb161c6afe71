"""Finite relational structures and directed/undirected graphs.

Element ids are dense integers 0..n-1. The number sort of the two-sorted
view (values 0..n with order, successor, min, max) is never materialized;
evaluators derive it from n on demand.
"""

from __future__ import annotations

import json
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ArityMismatch, IdOutOfRange, MalformedInput


@dataclass(frozen=True)
class Vocabulary:
    """Relation symbols with fixed arities; names unique, arity >= 1."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise MalformedInput(f"duplicate relation names in {names}")
        for name, arity in self.symbols:
            if arity < 1:
                raise MalformedInput(f"arity of {name!r} must be >= 1, got {arity}")

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)


GRAPH_VOCABULARY = Vocabulary((("E", 2),))


@dataclass(frozen=True)
class RelStructure:
    """A finite structure: domain 0..n-1 plus a relation per symbol."""

    vocabulary: Vocabulary
    n: int
    relations: dict[str, frozenset[tuple[int, ...]]]

    def __post_init__(self):
        if self.n < 1:
            raise MalformedInput(f"domain size must be >= 1, got {self.n}")
        for name, _ in self.vocabulary.symbols:
            if name not in self.relations:
                object.__setattr__(
                    self, "relations", {**self.relations, name: frozenset()}
                )
        for name, tuples in self.relations.items():
            if name not in self.vocabulary:
                raise MalformedInput(f"relation {name!r} not in vocabulary")
            arity = self.vocabulary.arity(name)
            for tup in tuples:
                if len(tup) != arity:
                    raise ArityMismatch(
                        f"{name!r} expects arity {arity}, got tuple {tup}"
                    )
                for v in tup:
                    if not (0 <= v < self.n):
                        raise IdOutOfRange(f"id {v} not in [0, {self.n - 1}]")

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        if name not in self.vocabulary:
            raise KeyError(name)
        return self.relations.get(name, frozenset())

    def to_json(self) -> str:
        rels = {
            name: sorted(list(t) for t in tuples)
            for name, tuples in sorted(self.relations.items())
        }
        return json.dumps({"n": self.n, "rels": rels})


@dataclass(frozen=True)
class DiGraph:
    """Directed graph on ids 0..n-1; optionally flagged rooted at `root`."""

    n: int
    edges: frozenset[tuple[int, int]]
    root: int | None = None

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IdOutOfRange(f"edge ({u}, {v}) outside [0, {self.n - 1}]")
        if self.root is not None:
            if not (0 <= self.root < self.n):
                raise IdOutOfRange(f"root {self.root} outside [0, {self.n - 1}]")
            # walk the edges alone: out_neighbours is O(n), and n may be
            # far larger than the part reachable from the root
            out: defaultdict[int, list[int]] = defaultdict(list)
            for u, v in self.edges:
                out[u].append(v)
            seen = _reach(out, self.root)
            if len(seen) < self.n:
                # one of the len(seen) + 1 least ids is unreached
                least = next(v for v in range(len(seen) + 1) if v not in seen)
                raise MalformedInput(
                    f"{self.n - len(seen)} vertices unreachable from root"
                    f" {self.root}, the least {least}"
                )

    @cached_property
    def out_neighbours(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
        return tuple(tuple(sorted(vs)) for vs in out)

    @cached_property
    def in_neighbours(self) -> tuple[tuple[int, ...], ...]:
        inn: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            inn[v].append(u)
        return tuple(tuple(sorted(us)) for us in inn)

    def out_degree(self, v: int) -> int:
        self._check_id(v)
        return len(self.out_neighbours[v])

    def in_degree(self, v: int) -> int:
        self._check_id(v)
        return len(self.in_neighbours[v])

    def _check_id(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IdOutOfRange(f"id {v} not in [0, {self.n - 1}]")

    def is_acyclic(self) -> bool:
        return topological_order(self) is not None

    def to_json(self) -> str:
        doc: dict = {"n": self.n, "rels": {"E": sorted(list(e) for e in self.edges)}}
        if self.root is not None:
            doc["root"] = self.root
        return json.dumps(doc)


@dataclass(frozen=True)
class Graph:
    """Undirected graph: symmetric irreflexive edges stored as sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise MalformedInput(f"self-loop at {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IdOutOfRange(f"edge ({u}, {v}) outside [0, {self.n - 1}]")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def as_structure(self) -> RelStructure:
        sym = frozenset((u, v) for u, v in self.edges) | frozenset(
            (v, u) for u, v in self.edges
        )
        return RelStructure(GRAPH_VOCABULARY, self.n, {"E": sym})


def _reach(succ, v: int, sinks: frozenset[int] = frozenset()) -> set[int]:
    """The vertices reachable from v along the successor table succ by
    paths that may end at a vertex of sinks but never leave one."""
    seen = {v}
    stack = [] if v in sinks else [v]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                if w not in sinks:
                    stack.append(w)
    return seen


def _kahn(g: DiGraph, keep, sinks: frozenset[int] = frozenset()
          ) -> list[tuple[int, list[int]]] | None:
    """The vertices of keep in a topological order of the subgraph they
    span without the outgoing edges of sinks, each paired with its
    predecessors there; None if that subgraph has a cycle. keep must hold
    every successor of its vertices that are not sinks."""
    preds = {u: [p for p in g.in_neighbours[u] if p in keep and p not in sinks]
             for u in keep}
    left = {u: len(ps) for u, ps in preds.items()}
    ready = [u for u, k in left.items() if k == 0]
    order = []
    while ready:
        u = ready.pop()
        order.append((u, preds[u]))
        if u not in sinks:
            for x in g.out_neighbours[u]:
                left[x] -= 1
                if left[x] == 0:
                    ready.append(x)
    return order if len(order) == len(preds) else None


def reachable_closure(g: DiGraph, root: int) -> set[int]:
    """All vertices reachable from root, including root itself."""
    if not (0 <= root < g.n):
        raise IdOutOfRange(f"id {root} not in [0, {g.n - 1}]")
    return _reach(g.out_neighbours, root)


def topological_order(g: DiGraph) -> list[int] | None:
    """A topological order of g, or None if g has a cycle."""
    order = _kahn(g, range(g.n))
    return None if order is None else [u for u, _ in order]


def _parse_tuples(name, raw, n):
    if not isinstance(raw, list):
        raise MalformedInput(f"relation {name!r} is not a list of tuples")
    tuples = []
    for tup in raw:
        if not isinstance(tup, list) or not all(type(x) is int for x in tup):
            raise MalformedInput(f"tuple {tup!r} in {name!r} is not a list of ints")
        for x in tup:
            if not (0 <= x < n):
                raise IdOutOfRange(f"id {x} in {name!r} not in [0, {n - 1}]")
        tuples.append(tuple(tup))
    dedup = frozenset(tuples)
    if len(dedup) != len(tuples):
        warnings.warn(f"duplicate tuples in relation {name!r} were deduplicated")
    return dedup


def parse_structure(text: str, vocabulary: Vocabulary | None = None) -> RelStructure:
    """Parse the JSON structure format {"n": int, "rels": {name: [[ids...]...]}}
    (plus "root", read by parse_digraph; any other key is refused).

    Without an explicit vocabulary, arities are inferred from the tuples
    (a relation with no tuples defaults to arity 1, or 2 for "E").
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc:
        raise MalformedInput("expected an object with an 'n' field")
    # the keys to_json writes; a misspelt "rels" would otherwise read as a
    # structure with no tuples
    unknown = sorted(set(doc) - {"n", "rels", "root"})
    if unknown:
        raise MalformedInput(
            f"unknown keys {unknown}: a structure has only 'n', 'rels' and"
            " 'root'")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise MalformedInput(f"'n' must be a positive integer, got {n!r}")
    rels_raw = doc.get("rels", {})
    if not isinstance(rels_raw, dict):
        raise MalformedInput("'rels' must be an object")

    relations = {
        name: _parse_tuples(name, raw, n) for name, raw in rels_raw.items()
    }
    if vocabulary is None:
        symbols = []
        for name in sorted(relations):
            tuples = relations[name]
            if tuples:
                arities = {len(t) for t in tuples}
                if len(arities) > 1:
                    raise ArityMismatch(f"mixed arities in relation {name!r}")
                arity = arities.pop()
            else:
                arity = 2 if name == "E" else 1
            symbols.append((name, arity))
        vocabulary = Vocabulary(tuple(symbols)) if symbols else GRAPH_VOCABULARY
    return RelStructure(vocabulary, n, relations)


def parse_digraph(text: str) -> DiGraph:
    """Parse a directed graph (single binary relation "E", optional root)."""
    s = parse_structure(text, GRAPH_VOCABULARY)
    doc = json.loads(text)
    root = doc.get("root") if isinstance(doc, dict) else None
    if root is not None and type(root) is not int:
        raise MalformedInput(f"'root' must be an integer, got {root!r}")
    return DiGraph(s.n, frozenset((u, v) for u, v in s.rel("E")), root)


def parse_graph(text: str) -> Graph:
    """Parse an undirected graph; input edges may list either orientation."""
    s = parse_structure(text, GRAPH_VOCABULARY)
    return Graph(s.n, frozenset((u, v) for u, v in s.rel("E")))
