import json

import pytest
from hypothesis import given, strategies as st

from lreckit.errors import ArityMismatch, IdOutOfRange, MalformedInput
from lreckit.structures import (
    DiGraph,
    Graph,
    RelStructure,
    Vocabulary,
    parse_digraph,
    parse_graph,
    parse_structure,
    reachable_closure,
    topological_order,
)


def small_digraphs():
    # rootless: a DiGraph with a root insists every vertex is reachable
    return st.integers(1, 5).flatmap(
        lambda n: st.builds(
            lambda edges: DiGraph(n, frozenset(edges)),
            st.frozensets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=n * n,
            ),
        )
    )


def test_digraph_adjacency_and_degrees():
    g = DiGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}), root=0)
    assert g.out_neighbours[0] == (1, 2)
    assert g.in_neighbours[2] == (0, 1)
    assert g.out_degree(0) == 2
    assert g.in_degree(2) == 2
    assert g.is_acyclic()


def test_topological_order_none_on_cycle():
    g = DiGraph(2, frozenset({(0, 1), (1, 0)}))
    assert topological_order(g) is None
    assert not g.is_acyclic()


def test_topological_order_respects_edges():
    g = DiGraph(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}), root=0)
    order = topological_order(g)
    assert sorted(order) == [0, 1, 2, 3]
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in g.edges)


def test_reachable_closure():
    g = DiGraph(4, frozenset({(0, 1), (1, 2), (3, 3)}))
    assert reachable_closure(g, 0) == {0, 1, 2}
    assert reachable_closure(g, 3) == {3}


@pytest.mark.parametrize("n, edges, message", [
    (4, {(0, 2), (2, 2)}, "2 vertices unreachable from root 0, the least 1"),
    (5, {(0, 1), (1, 2), (2, 0)},
     "2 vertices unreachable from root 0, the least 3"),
    (3, {(2, 0), (0, 1)}, "1 vertices unreachable from root 0, the least 2"),
])
def test_root_check_names_the_least_unreachable_vertex(n, edges, message):
    with pytest.raises(MalformedInput) as info:
        DiGraph(n, frozenset(edges), root=0)
    assert str(info.value) == message


@given(small_digraphs())
def test_digraph_json_round_trip(g):
    assert parse_digraph(g.to_json()) == g


def test_parse_structure_infers_arities():
    s = parse_structure('{"n": 3, "rels": {"E": [[0,1]], "P": [[2]]}}')
    assert s.rel("E") == frozenset({(0, 1)})
    assert s.rel("P") == frozenset({(2,)})


def test_parse_structure_rejects_bad_input():
    with pytest.raises(MalformedInput):
        parse_structure("not json")
    with pytest.raises(MalformedInput):
        parse_structure('{"rels": {}}')
    with pytest.raises(MalformedInput):
        parse_structure('{"n": 0}')
    with pytest.raises(IdOutOfRange):
        parse_structure('{"n": 2, "rels": {"E": [[0, 5]]}}')
    with pytest.raises(ArityMismatch):
        parse_structure('{"n": 2, "rels": {"R": [[0], [0, 1]]}}')


def test_parse_structure_refuses_unknown_keys():
    # "edges" is not "rels": read as the edgeless graph, it would be a
    # wrong answer with no warning
    with pytest.raises(MalformedInput) as info:
        parse_structure('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    assert str(info.value) == (
        "unknown keys ['edges']: a structure has only 'n', 'rels' and 'root'")
    for parse in (parse_structure, parse_graph, parse_digraph):
        with pytest.raises(MalformedInput):
            parse('{"n": 2, "rels": {}, "root": 0, "Rels": {}}')
    assert parse_structure('{"n": 1, "rels": {}, "root": 0}').n == 1


def test_parse_graph_symmetrizes():
    g = parse_graph('{"n": 3, "rels": {"E": [[1, 0], [1, 2]]}}')
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert set(g.adj[1]) == {0, 2}
    assert not g.has_edge(0, 2)


def test_graph_as_structure_is_symmetric():
    g = Graph(3, frozenset({(0, 1)}))
    s = g.as_structure()
    assert (0, 1) in s.rel("E") and (1, 0) in s.rel("E")


def test_structure_json_round_trip():
    voc = Vocabulary((("E", 2), ("P", 1)))
    s = RelStructure(voc, 2, {"E": frozenset({(0, 1)}), "P": frozenset({(0,)})})
    again = parse_structure(s.to_json())
    assert again.n == s.n and again.rel("E") == s.rel("E")
    assert json.loads(s.to_json())["n"] == 2


def test_relstructure_validates_tuples():
    voc = Vocabulary((("E", 2),))
    with pytest.raises(ArityMismatch):
        RelStructure(voc, 2, {"E": frozenset({(0,)})})
    with pytest.raises(IdOutOfRange):
        RelStructure(voc, 2, {"E": frozenset({(0, 2)})})


@pytest.mark.parametrize("build, error", [
    (lambda: Vocabulary((("E", 2), ("E", 1))), MalformedInput),
    (lambda: Vocabulary((("P", 0),)), MalformedInput),
    (lambda: RelStructure(Vocabulary(()), 0, {}), MalformedInput),
    (lambda: DiGraph(2, frozenset({(0, 2)})), IdOutOfRange),
    (lambda: Graph(2, frozenset({(2, 0)})), IdOutOfRange),
    (lambda: DiGraph(2, frozenset()).out_degree(-1), IdOutOfRange),
    (lambda: reachable_closure(DiGraph(2, frozenset()), 2), IdOutOfRange),
], ids=["duplicate-name", "arity-0", "empty-domain", "digraph-edge",
        "graph-edge", "degree-id", "closure-root"])
def test_constructors_and_lookups_refuse_bad_arguments(build, error):
    with pytest.raises(error):
        build()
