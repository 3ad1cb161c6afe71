"""Cardinality conditions, the recursion relation X, and unfolded DAGs.

X pairs a graph vertex with an integer resource. A pair (v, i) belongs to
X when i >= 1 and the number of out-neighbours w whose recursive pair
(w, floor((i-1)/in_degree(w))) already belongs to X is an admissible
child-count for v. The resource strictly decreases along every recursive
step (in_degree(w) >= 1), so a stack decides each pair after those it reads.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

from .errors import (
    IdOutOfRange,
    MalformedInput,
    NonPositiveResource,
    SizeExceeded,
)
from .structures import DiGraph, RelStructure, Vocabulary


@dataclass(frozen=True)
class CardinalityCondition:
    """Per vertex, the set of admissible counts of in-X children."""

    sets: tuple[frozenset[int], ...]

    @classmethod
    def from_dict(cls, g: DiGraph, mapping: dict[int, set[int]]) -> "CardinalityCondition":
        sets = []
        for v in range(g.n):
            allowed = frozenset(mapping.get(v, ()))
            bad = [c for c in allowed if c < 0]
            if bad:
                raise MalformedInput(f"negative counts {bad} for vertex {v}")
            # Entries above the out-degree can never equal a child-count;
            # they are kept (they may still label encoded structures) but
            # flagged, since strictly admissible conditions stay within
            # [0, out-degree].
            high = [c for c in allowed if c > g.out_degree(v)]
            if high:
                warnings.warn(
                    f"counts {high} for vertex {v} exceed its out-degree "
                    f"{g.out_degree(v)} and are unattainable"
                )
            sets.append(allowed)
        return cls(tuple(sets))

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.sets[v]

    def to_json(self) -> str:
        return json.dumps(
            {"C": {str(v): sorted(s) for v, s in enumerate(self.sets)}}
        )


def parse_cardinality(text: str, g: DiGraph) -> CardinalityCondition:
    """Parse the JSON sidecar {"C": {"<vertex>": [ints...]}}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "C" not in doc or not isinstance(doc["C"], dict):
        raise MalformedInput("expected an object with a 'C' mapping")
    mapping: dict[int, set[int]] = {}
    for key, values in doc["C"].items():
        try:
            v = int(key)
            if str(v) != key:  # "1_0", " 1", "+1" and "01" are no ids
                raise ValueError
        except ValueError:
            raise MalformedInput(f"vertex key {key!r} is not an integer") from None
        if not (0 <= v < g.n):
            raise IdOutOfRange(f"vertex {v} not in [0, {g.n - 1}]")
        if not isinstance(values, list) or not all(type(c) is int for c in values):
            raise MalformedInput(f"counts for vertex {v} must be a list of ints")
        mapping[v] = set(values)
    return CardinalityCondition.from_dict(g, mapping)


@dataclass
class XInstance:
    """A graph plus cardinality condition with a memo for X membership."""

    g: DiGraph
    c: CardinalityCondition
    _memo: dict[tuple[int, int], bool] = field(default_factory=dict)


def _read(g: DiGraph, w: int, i: int) -> tuple[int, int]:
    """The pair (w, (i-1) // in_degree(w)) read by (v, i) at v -> w."""
    return w, (i - 1) // len(g.in_neighbours[w])


def compute_X(inst: XInstance, v: int, i: int) -> bool:
    """Decide (v, i) in X(G, C); total, memoized, resource-decreasing."""
    if not (0 <= v < inst.g.n):
        raise IdOutOfRange(f"vertex {v} not in [0, {inst.g.n - 1}]")
    if i <= 0:
        return False
    memo, g, sets = inst._memo, inst.g, inst.c.sets
    if (v, i) in memo:
        return memo[(v, i)]
    stack = [(v, i)]
    while stack:
        u, res = stack[-1]
        count, top = 0, len(stack)
        for w in g.out_neighbours[u]:
            p = _read(g, w, res)
            if p[1] >= 1:
                if (x := memo.get(p)) is None:
                    stack.append(p)
                else:
                    count += x
        if len(stack) == top:
            memo[stack.pop()] = count in sets[u]
    return memo[(v, i)]


def compute_X_bottom_up(g: DiGraph, c: CardinalityCondition,
                        max_resource: int) -> set[tuple[int, int]]:
    """Independent oracle for compute_X: one ascending pass over the
    resource. Membership at resource i depends only on resources strictly
    below i (the recurrence divides through an in-degree >= 1), so each
    stratum is fully determined before it is read."""
    x: set[tuple[int, int]] = set()
    for i in range(1, max_resource + 1):
        for v in range(g.n):
            count = sum(
                1
                for w in g.out_neighbours[v]
                if (w, (i - 1) // g.in_degree(w)) in x
            )
            if count in c[v]:
                x.add((v, i))
    return x


def encode_tau_n(g: DiGraph, c: CardinalityCondition, n: int) -> RelStructure:
    """Encode (G, C) as a structure with binary E and unary P_0..P_n,
    where P_i holds at v iff i is an admissible child-count for v."""
    if g.n > n:
        raise SizeExceeded(f"graph order {g.n} exceeds bound {n}")
    symbols = [("E", 2)] + [(f"P{i}", 1) for i in range(n + 1)]
    relations: dict[str, frozenset] = {"E": frozenset(g.edges)}
    for i in range(n + 1):
        relations[f"P{i}"] = frozenset((v,) for v in range(g.n) if i in c[v])
    return RelStructure(Vocabulary(tuple(symbols)), g.n, relations)


@dataclass(frozen=True)
class HDag:
    """The unfolded recursion DAG: ids index `labels`, a sorted list of
    (vertex, resource) pairs; the root is the queried pair."""

    graph: DiGraph
    labels: tuple[tuple[int, int], ...]

    @property
    def root(self) -> int:
        return self.graph.root


def build_H(g: DiGraph, v: int, i: int) -> HDag:
    """Unfold the resource recursion from (v, i) into a rooted DAG.

    Vertices are (vertex, resource) pairs with positive resource; shared
    pairs are merged (a DAG, not a tree).
    """
    if not (0 <= v < g.n):
        raise IdOutOfRange(f"vertex {v} not in [0, {g.n - 1}]")
    if i < 1:
        raise NonPositiveResource(f"resource {i} must be >= 1")
    pairs = {(v, i)}
    edges = set()
    stack = [(v, i)]
    while stack:
        u, res = stack.pop()
        for w in g.out_neighbours[u]:
            p = _read(g, w, res)
            if p[1] >= 1:
                edges.add(((u, res), p))
                if p not in pairs:
                    pairs.add(p)
                    stack.append(p)
    labels = tuple(sorted(pairs))
    index = {p: k for k, p in enumerate(labels)}
    dag = DiGraph(
        len(labels),
        frozenset((index[a], index[b]) for a, b in edges),
        root=index[(v, i)],
    )
    return HDag(dag, labels)
