import time

import pytest

from helpers import DIAMOND, band
from lreckit.balancer import (
    DecompNode,
    DecompTree,
    _AwtCache,
    _candidates,
    build_tree,
    check_tree,
    split_type0,
)
from lreckit.corpus import generate_corpus
from lreckit.dagstats import awt_restricted
from lreckit.errors import IsLeaf, NotAcyclic, NotRooted
from lreckit.structures import DiGraph, reachable_closure


def test_build_tree_requires_rooted_dag():
    with pytest.raises(NotRooted):
        build_tree(DiGraph(2, frozenset({(0, 1)})))
    with pytest.raises(NotAcyclic):
        build_tree(DiGraph(2, frozenset({(0, 1), (1, 0)}), root=0))


def test_single_vertex_is_a_leaf_tree():
    tree = build_tree(DiGraph(1, frozenset(), root=0))
    assert tree.root.is_leaf()
    assert tree.height() == 0
    assert check_tree(tree.graph, tree).all_pass()


def test_split_type0_bounds():
    for g, _ in generate_corpus(21, 9, 120):
        if g.out_degree(g.root) == 0:
            with pytest.raises(IsLeaf):
                split_type0(g, g.root)
            continue
        a = split_type0(g, g.root)
        m = awt_restricted(g, g.root, ())
        assert 2 * awt_restricted(g, g.root, (a,)) <= m
        for b in g.out_neighbours[a]:
            assert 2 * awt_restricted(g, b, ()) <= m + 1


def test_type1_candidates_are_intermediate_vertices():
    for g, _ in generate_corpus(22, 8, 80):
        cache = _AwtCache(g)
        for w in sorted(reachable_closure(g, g.root)):
            if w == g.root:
                continue
            candidates = [u for _, u in _candidates(g, g.root, w, cache)]
            assert g.root in candidates
            for u in candidates:
                assert u != w
                assert u in reachable_closure(g, g.root)
                assert w in reachable_closure(g, u)


def test_build_and_check_on_corpus():
    for g, _ in generate_corpus(23, 10, 250):
        tree = build_tree(g)
        report = check_tree(g, tree)
        assert report.all_pass(), report.witnesses


def test_diamond_tree_shape():
    tree = build_tree(DIAMOND)
    report = check_tree(DIAMOND, tree)
    assert report.all_pass()
    # heights stay within 2*log2(awt): awt = 5 -> height <= 4
    assert 2 ** tree.height() <= 25
    assert tree.root.w_set == frozenset()
    assert tree.root.node_type == 0


def test_shared_nodes_are_checked_once():
    # build_tree shares nodes: the 40-vertex band has 117 distinct nodes
    # and 191,916,275 in the expanded tree
    g = band(40)
    started = time.perf_counter()
    tree = build_tree(g)
    report = check_tree(g, tree)
    assert report.all_pass(), report.witnesses
    assert tree.tree_size() == 191_916_275
    assert len(tree.distinct_nodes()) == 117
    assert time.perf_counter() - started < 2.0
    small = build_tree(band(12))
    assert small.tree_size() == len(small.nodes())
    assert small.height() == max(_depths(small.root))


def _depths(node, depth=0):
    yield depth
    for child in node.children:
        yield from _depths(child, depth + 1)


def test_checker_flags_oversized_waypoint_set():
    tree = build_tree(DIAMOND)
    tree.root.children[0].w_set = frozenset({0, 1})
    report = check_tree(DIAMOND, tree)
    assert not report.items["waypoint_at_most_one"]


def test_checker_flags_missing_children():
    tree = build_tree(DIAMOND)
    tree.root.children = []
    report = check_tree(DIAMOND, tree)
    assert not report.items["leaf_characterization"]


def test_checker_flags_an_uncovered_vertex():
    tree = build_tree(DIAMOND)
    tree.root.children.pop()
    report = check_tree(DIAMOND, tree)
    assert report.items == {**dict.fromkeys(report.items, True),
                            "cover": False}
    assert report.witnesses == {"cover": "node (0, []) misses [2]"}


def test_checker_flags_bogus_deep_chain():
    # a degenerate chain that never halves: every node repeats the root
    g = DiGraph(2, frozenset({(0, 1)}), root=0)
    chain = DecompNode(0, frozenset(), 0)
    node = chain
    for _ in range(12):
        child = DecompNode(0, frozenset(), 0)
        nxt = DecompNode(0, frozenset({0}), 1)
        node.children = [child, DecompNode(1, frozenset(), 0)]
        child.children = [nxt, DecompNode(1, frozenset(), 0)]
        node = nxt
    report = check_tree(g, DecompTree(chain, g))
    assert not report.all_pass()


def test_to_dict_round_structure():
    tree = build_tree(DIAMOND)
    doc = tree.root.to_dict()
    assert set(doc) == {"v", "W", "type", "children"}
    assert doc["v"] == 0 and doc["type"] == 0
