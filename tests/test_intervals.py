import itertools

import pytest

from helpers import H8_MAXCLIQUES, cycle_graph, disjoint_union, h8, path_graph
from lreckit import intervals
from lreckit.errors import NotAMaxclique, NotInterval, SizeExceeded
from lreckit.intervals import (
    PrecRelation,
    extract_modules,
    is_at_free,
    is_chordal,
    is_interval,
    is_interval_oracle,
    is_module,
    maxcliques,
    possible_ends,
    prec_order,
)
from lreckit.structures import Graph


def complete_graph(n):
    return Graph(n, frozenset(itertools.combinations(range(n), 2)))


def test_maxcliques_triangle_and_path():
    assert list(maxcliques(complete_graph(3))) == [frozenset({0, 1, 2})]
    assert sorted(maxcliques(path_graph(3)), key=sorted) == [
        frozenset({0, 1}),
        frozenset({1, 2}),
    ]


def test_maxcliques_h8_exact():
    assert sorted(sorted(c) for c in maxcliques(h8())) == H8_MAXCLIQUES


def test_maxcliques_size_cap():
    with pytest.raises(SizeExceeded):
        maxcliques(Graph(33, frozenset()))


def test_is_interval_basics():
    assert is_interval(h8())
    assert not is_interval(cycle_graph(4))
    assert is_interval(complete_graph(4))


def test_oracle_components():
    assert not is_chordal(cycle_graph(4))
    assert is_chordal(h8())
    assert is_at_free(h8())
    # the star of three paths of length 2 has an asteroidal triple
    t = Graph(
        7,
        frozenset({(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)}),
    )
    assert is_chordal(t) and not is_at_free(t)
    assert not is_interval_oracle(t)


def connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((False, True), repeat=len(pairs)):
        edges = frozenset(p for p, b in zip(pairs, bits) if b)
        g = Graph(n, edges)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            yield g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recognition_agrees_with_oracle_small(n):
    for g in connected_graphs(n):
        assert is_interval(g) == is_interval_oracle(g)


def test_the_oracle_asks_only_about_nonempty_graphs_and_open_ends(
        monkeypatch):
    # is_chordal tests subsets of 4 or more vertices, and is_at_free asks
    # for a path between two vertices outside the closed neighbourhood it
    # avoids, so neither helper needs a case for the other inputs
    asked = []
    connected, path_avoiding = intervals._connected, intervals._path_avoiding

    def connected_asked(g):
        asked.append(g.n >= 1)
        return connected(g)

    def path_avoiding_asked(g, a, b, banned):
        asked.append(a not in banned and b not in banned)
        return path_avoiding(g, a, b, banned)

    monkeypatch.setattr(intervals, "_connected", connected_asked)
    monkeypatch.setattr(intervals, "_path_avoiding", path_avoiding_asked)
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in itertools.product((False, True), repeat=len(pairs)):
            is_interval_oracle(
                Graph(n, frozenset(p for p, b in zip(pairs, bits) if b)))
    assert asked and all(asked)


def test_relation_properties_on_hand_built_relations():
    a, b, c = frozenset({0}), frozenset({1}), frozenset({2})

    def relation(*pairs):
        return PrecRelation(a, (a, b, c), frozenset(pairs))

    # a before b before c, but not a before c
    chain = relation((a, b), (b, c))
    assert chain.is_irreflexive and not chain.is_transitive
    assert not chain.is_strict_weak_order
    # a before c alone: b is incomparable to both, a and c are not
    lone = relation((a, c))
    assert lone.is_irreflexive and lone.is_transitive
    assert not lone.is_strict_weak_order
    loop = relation((a, a))
    assert not loop.is_irreflexive and loop.is_transitive
    assert not loop.is_strict_weak_order


def test_possible_ends():
    assert len(possible_ends(path_graph(3))) == 2
    ends = {tuple(sorted(c)) for c in possible_ends(h8())}
    assert (0, 1, 2, 3) in ends and (0, 1, 4, 5) in ends
    with pytest.raises(NotInterval):
        possible_ends(cycle_graph(4))
    # 12 maxcliques each: the end cliques of every path, and nothing else
    p7s = disjoint_union(path_graph(7), path_graph(7))
    assert sorted(map(sorted, possible_ends(p7s))) == [
        [0, 1], [5, 6], [7, 8], [12, 13]]
    p3s = path_graph(3)
    for _ in range(5):
        p3s = disjoint_union(p3s, path_graph(3))
    assert possible_ends(p3s) == set(maxcliques(p3s))


def consecutive_orders(g):
    """Referee: every permutation of the maxcliques in which each vertex's
    cliques form one contiguous block."""
    def contiguous(order, v):
        at = [i for i, c in enumerate(order) if v in c]
        return at[-1] - at[0] + 1 == len(at)

    return [order for order in itertools.permutations(maxcliques(g))
            if all(contiguous(order, v) for v in range(g.n))]


def test_possible_ends_are_the_first_cliques_of_brute_force_orders():
    star = Graph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    graphs = [h8(), star]
    for n in range(1, 6):
        graphs.extend(connected_graphs(n))
    for g in graphs:
        orders = consecutive_orders(g)
        assert is_interval(g) == bool(orders)
        if orders:
            assert possible_ends(g) == {order[0] for order in orders}
        else:
            with pytest.raises(NotInterval):
                possible_ends(g)


def test_consecutive_orderings_path_and_c4():
    p3 = path_graph(3)
    assert len(consecutive_orders(p3)) == 2
    assert is_interval(p3)
    assert possible_ends(p3) == set(maxcliques(p3))
    c4 = cycle_graph(4)
    assert consecutive_orders(c4) == []
    assert not is_interval(c4)
    star = Graph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    assert consecutive_orders(star)
    assert is_interval(star)


def test_ordering_reversal_and_first_element():
    g = h8()
    orders = consecutive_orders(g)
    ends = set(possible_ends(g))
    for order in orders:
        assert tuple(reversed(order)) in set(orders)
        assert order[0] in ends


def test_prec_order_h8_incomparable_pair():
    g = h8()
    anchor = frozenset({0, 1, 2, 3})
    rel = prec_order(g, anchor)
    cg = frozenset({0, 1, 3, 4, 6})
    ch = frozenset({0, 1, 3, 4, 7})
    cf = frozenset({0, 1, 4, 5})
    assert (cg, ch) not in rel.pairs and (ch, cg) not in rel.pairs
    assert (cg, cf) in rel.pairs and (ch, cf) in rel.pairs
    assert all((anchor, c) in rel.pairs for c in (cg, ch, cf))
    with pytest.raises(NotAMaxclique):
        prec_order(g, frozenset({0, 1}))


def test_prec_order_linear_on_path():
    g = path_graph(4)
    cliques = sorted(maxcliques(g), key=sorted)
    rel = prec_order(g, cliques[0])
    # a caterpillar of maxcliques is totally ordered from an end
    for a, b in itertools.combinations(cliques, 2):
        assert ((a, b) in rel.pairs) != ((b, a) in rel.pairs)


def test_extract_modules_h8():
    g = h8()
    mods = extract_modules(g, frozenset({0, 1, 2, 3}))
    assert frozenset({6, 7}) in mods
    for m in mods:
        assert is_module(g, m)


def test_module_check_brute_force():
    g = h8()
    assert is_module(g, frozenset({2, 3, 4, 5, 6, 7}))
    assert is_module(g, frozenset({6, 7}))
    assert not is_module(g, frozenset({2, 4}))
    assert not is_module(g, set())


def test_linear_prec_gives_no_modules():
    g = path_graph(4)
    cliques = sorted(maxcliques(g), key=sorted)
    assert extract_modules(g, cliques[0]) == []

