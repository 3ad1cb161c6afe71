import pytest

from helpers import FIG1_IN_X, FIG1_NOT_IN_X, fig1_instance, quiet_condition
from lreckit.corpus import all_conditions, enumerate_rooted_dags, generate_corpus
from lreckit.errors import (
    IdOutOfRange,
    MalformedInput,
    NonPositiveResource,
    SizeExceeded,
)
from lreckit.structures import DiGraph
from lreckit.xfix import (
    CardinalityCondition,
    XInstance,
    build_H,
    compute_X,
    compute_X_bottom_up,
    encode_tau_n,
    parse_cardinality,
)


def test_worked_example_memberships():
    g, c = fig1_instance()
    inst = XInstance(g, c)
    for v, i in FIG1_IN_X:
        assert compute_X(inst, v, i), (v, i)
    for v, i in FIG1_NOT_IN_X:
        assert not compute_X(inst, v, i), (v, i)


def test_nonpositive_resource_is_outside_X():
    g, c = fig1_instance()
    inst = XInstance(g, c)
    assert not compute_X(inst, 0, 0)
    assert not compute_X(inst, 0, -3)


def test_vertex_range_checked():
    g, c = fig1_instance()
    with pytest.raises(IdOutOfRange):
        compute_X(XInstance(g, c), 5, 1)


def test_condition_warns_on_unattainable_counts():
    g = DiGraph(2, frozenset({(0, 1)}), root=0)
    with pytest.warns(UserWarning, match="exceed its out-degree"):
        CardinalityCondition.from_dict(g, {1: {2}})


def test_condition_rejects_negative_counts():
    g = DiGraph(1, frozenset(), root=0)
    with pytest.raises(MalformedInput):
        CardinalityCondition.from_dict(g, {0: {-1}})


def test_parse_cardinality_round_trip_and_errors():
    g, c = fig1_instance()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        again = parse_cardinality(c.to_json(), g)
    assert again == c
    with pytest.raises(MalformedInput):
        parse_cardinality("nope", g)
    with pytest.raises(MalformedInput):
        parse_cardinality('{"D": {}}', g)
    with pytest.raises(MalformedInput):
        parse_cardinality('{"C": {"zero": [1]}}', g)
    with pytest.raises(IdOutOfRange):
        parse_cardinality('{"C": {"9": [1]}}', g)
    with pytest.raises(MalformedInput):
        parse_cardinality('{"C": {"0": ["x"]}}', g)


def _agree(g, c, max_i):
    inst = XInstance(g, c)
    bottom = compute_X_bottom_up(g, c, max_i)
    for v in range(g.n):
        for i in range(1, max_i + 1):
            assert compute_X(inst, v, i) == ((v, i) in bottom), (v, i)


def test_bottom_up_oracle_agrees_exhaustively():
    for g in enumerate_rooted_dags(3):
        for c in all_conditions(g):
            _agree(g, c, 8)


def test_bottom_up_oracle_agrees_on_random_instances():
    for g, c in generate_corpus(11, 6, 60):
        _agree(g, c, 14)


@pytest.mark.parametrize("counts", [{0}, {1}, {0, 1}])
def test_long_self_loop_chain_agrees_with_bottom_up(counts):
    # (0, i) reads (0, i - 1): a chain of 5,000 pairs from the first query
    g = DiGraph(1, frozenset({(0, 0)}))
    c = CardinalityCondition((frozenset(counts),))
    inst = XInstance(g, c)
    got = {(0, i) for i in range(5000, 0, -1) if compute_X(inst, 0, i)}
    assert got == compute_X_bottom_up(g, c, 5000)


def test_encode_tau_n_layout():
    g, c = fig1_instance()
    s = encode_tau_n(g, c, 3)
    assert s.n == 3
    assert s.rel("E") == frozenset(g.edges)
    assert s.rel("P0") == frozenset({(0,), (1,)})
    assert s.rel("P1") == frozenset({(1,)})
    assert s.rel("P2") == frozenset({(0,)})
    assert s.rel("P3") == frozenset({(0,), (2,)})


def test_encode_tau_n_size_bound():
    g, c = fig1_instance()
    with pytest.raises(SizeExceeded):
        encode_tau_n(g, c, 2)


def test_build_H_structure():
    g, _ = fig1_instance()
    h = build_H(g, 0, 3)
    assert h.labels[h.root] == (0, 3)
    # all labels have positive resource and edges follow the recurrence
    assert all(i >= 1 for _, i in h.labels)
    for a, b in h.graph.edges:
        (u, i), (w, j) = h.labels[a], h.labels[b]
        assert (u, w) in g.edges
        assert j == (i - 1) // g.in_degree(w)
    assert h.graph.is_acyclic()


def test_build_H_rejects_bad_queries():
    g, _ = fig1_instance()
    with pytest.raises(NonPositiveResource):
        build_H(g, 0, 0)
    with pytest.raises(IdOutOfRange):
        build_H(g, 7, 1)
