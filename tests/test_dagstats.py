from collections import Counter

import pytest

from helpers import DIAMOND, all_root_paths
from lreckit.corpus import generate_corpus
from lreckit.dagstats import (
    awt_restricted,
    restricted,
    weights,
)
from lreckit.errors import (
    IdOutOfRange,
    NotAcyclic,
    NotRooted,
    PreconditionViolated,
)
from lreckit.structures import DiGraph, reachable_closure


def test_diamond_weight_table():
    t = weights(DIAMOND)
    assert t.wt == (1, 1, 1, 2)
    assert t.mul == (1, 1, 1, 2)
    assert t.awt == 5
    assert t.amul == 5


def test_single_vertex():
    t = weights(DiGraph(1, frozenset(), root=0))
    assert t.wt == (1,) and t.mul == (1,) and t.awt == 1


def test_weights_require_rooted_dag():
    with pytest.raises(NotRooted):
        weights(DiGraph(2, frozenset({(0, 1)})))
    with pytest.raises(NotAcyclic):
        weights(DiGraph(2, frozenset({(0, 1), (1, 0)}), root=0))


def test_wt_matches_path_enumeration_on_corpus():
    for g, _ in generate_corpus(5, 7, 120):
        t = weights(g)
        ends = Counter(p[-1] for p in all_root_paths(g))
        assert tuple(ends[v] for v in range(g.n)) == t.wt
        assert t.awt == len(all_root_paths(g))


def test_mul_matches_path_enumeration_on_corpus():
    for g, _ in generate_corpus(6, 6, 60):
        t = weights(g)
        best = [0] * g.n
        for p in all_root_paths(g):
            prod = 1
            for w in p[1:]:
                prod *= g.in_degree(w)
            best[p[-1]] = max(best[p[-1]], prod)
        assert tuple(best) == t.mul


def test_wt_le_mul_everywhere():
    for g, _ in generate_corpus(7, 12, 300):
        t = weights(g)
        assert all(w <= m for w, m in zip(t.wt, t.mul))


def test_m_path_property_bounds_awt():
    for g, _ in generate_corpus(8, 10, 200):
        t = weights(g)
        m = max(t.mul)
        assert t.awt <= t.amul <= m * g.n


def restriction(g: DiGraph, v: int, w_set) -> tuple[frozenset[int], DiGraph]:
    """Referee: the restriction (v, w_set) from the definition, as its
    kept host vertices and as its own rooted DiGraph. Kept are the vertices
    that a path from v reaches without leaving a waypoint; the graph is
    induced on them, minus the waypoints' out-edges, relabelled in host
    order."""
    w_set = frozenset(w_set)
    open_edges = frozenset((a, b) for a, b in g.edges if a not in w_set)
    kept = sorted(reachable_closure(DiGraph(g.n, open_edges), v))
    index = {u: k for k, u in enumerate(kept)}
    edges = frozenset(
        (index[a], index[b]) for a, b in open_edges if a in index and b in index
    )
    return frozenset(kept), DiGraph(len(kept), edges, root=index[v])


def test_restricted_drops_waypoint_out_edges():
    assert restricted(DIAMOND, 0, {1}) == frozenset({0, 1, 2, 3})
    # paths may end at the waypoint 1 but not continue through it
    _, sub = restriction(DIAMOND, 0, {1})
    assert sub.edges == frozenset({(0, 1), (0, 2), (2, 3)})
    assert sub.root == 0
    assert awt_restricted(DIAMOND, 0, {1}) == 4  # 0, 01, 02, 023


def test_restricted_waypoint_equal_start():
    assert restricted(DIAMOND, 0, {0}) == frozenset({0})
    assert restriction(DIAMOND, 0, {0})[1].edges == frozenset()
    assert awt_restricted(DIAMOND, 0, {0}) == 1


def test_restricted_unreachable_waypoint_rejected():
    with pytest.raises(PreconditionViolated):
        restricted(DIAMOND, 1, {2})
    with pytest.raises(PreconditionViolated):
        awt_restricted(DIAMOND, 1, {2})


def test_restricted_start_out_of_range_rejected():
    for v in (-1, -4, 4, 7):
        with pytest.raises(IdOutOfRange):
            restricted(DIAMOND, v, ())
        with pytest.raises(IdOutOfRange):
            awt_restricted(DIAMOND, v, ())


def test_awt_restricted_matches_direct_weights():
    # every start with W empty or one waypoint, the sets the balancer uses
    for g, _ in generate_corpus(9, 8, 80):
        for v in sorted(reachable_closure(g, g.root)):
            for w_set in [()] + [(w,) for w in sorted(reachable_closure(g, v))]:
                kept, sub = restriction(g, v, w_set)
                assert restricted(g, v, w_set) == kept
                assert awt_restricted(g, v, w_set) == weights(sub).awt


def test_restriction_with_a_cycle_is_not_acyclic():
    g = DiGraph(3, frozenset({(0, 1), (1, 2), (2, 1)}), root=0)
    assert restricted(g, 0, ()) == frozenset({0, 1, 2})
    with pytest.raises(NotAcyclic):
        awt_restricted(g, 0, ())
    with pytest.raises(NotAcyclic):
        awt_restricted(g, 1, ())


def test_acyclic_restriction_of_a_cyclic_host():
    g = DiGraph(3, frozenset({(0, 1), (1, 2), (2, 1)}), root=0)
    # the waypoint 1 is a sink, so the cycle 1 -> 2 -> 1 is cut
    assert awt_restricted(g, 0, {1}) == 2
    assert awt_restricted(g, 2, {1}) == 2
    back = DiGraph(3, frozenset({(0, 1), (1, 0), (1, 2)}), root=0)
    assert awt_restricted(back, 0, {1}) == 2
    assert awt_restricted(back, 1, {0}) == 3


def test_weight_splitting_inequality():
    # awt(part below v) + awt(part avoiding v) <= awt(G) + 1
    for g, _ in generate_corpus(10, 12, 300):
        total = weights(g).awt
        for v in range(g.n):
            if v == g.root or v not in reachable_closure(g, g.root):
                continue
            below = awt_restricted(g, v, ())
            above = awt_restricted(g, g.root, (v,))
            assert below + above <= total + 1, (v, below, above, total)
