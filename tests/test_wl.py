import hashlib
import itertools
import json
import math
import random
import time

import pytest

from helpers import (
    class_counts,
    cycle_graph,
    disjoint_union,
    distinguishes,
    path_graph,
)
from lreckit import wl
from lreckit.cformula import Interner, mk_and, mk_atom, mk_count
from lreckit.errors import SizeMismatch, UnsupportedDimension
from lreckit.structures import Graph
from lreckit.wl import distinguish, rounds


def star(n):
    return Graph(n, frozenset((0, i) for i in range(1, n)))


def test_path_vs_star_one_dimensional():
    assert distinguish(path_graph(4), star(4), 1, 10) <= 2


def test_six_cycle_vs_two_triangles():
    c6 = cycle_graph(6)
    cc3 = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert distinguish(c6, cc3, 1, 25) is None
    assert distinguish(c6, cc3, 2, 25) is not None


def test_isomorphic_graphs_never_distinguished():
    g = path_graph(5)
    relabel = {0: 4, 1: 3, 2: 2, 3: 1, 4: 0}
    h = Graph(5, frozenset((relabel[u], relabel[v]) for u, v in g.edges))
    for k in (1, 2):
        assert distinguish(g, h, k, 10) is None


def test_size_mismatch_rejected():
    with pytest.raises(SizeMismatch):
        distinguish(path_graph(3), path_graph(4), 1, 5)


def test_dimension_capped():
    with pytest.raises(UnsupportedDimension):
        distinguish(path_graph(3), path_graph(3), 9, 5)
    # a bad dimension is named before a size mismatch
    with pytest.raises(UnsupportedDimension):
        distinguish(path_graph(3), path_graph(4), 9, 5)


def test_refinement_is_monotone_and_stabilizes():
    g = disjoint_union(path_graph(4), cycle_graph(4))
    sizes = class_counts(g, 1)
    refinements = len(sizes) - 1
    assert sizes == sorted(sizes)
    assert refinements <= g.n
    # one extra round would not split further
    assert sizes[-1] == sizes[-2] if len(sizes) >= 2 else True


def test_initial_coloring_classes():
    g = path_graph(3)
    (col1,) = next(rounds([g], 1))
    assert len(set(col1)) == 1
    (col2,) = next(rounds([g], 2))
    # atomic types: equal pair, edge pair, non-edge pair
    assert len(set(col2)) == 3


def test_joint_rounds_keep_each_graphs_class_counts():
    # a graph's partition does not depend on the graphs refined with it, so
    # its counts in a joint run, up to their own first repeat, are its own
    rng = random.Random(11)
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.choice((1, 2, 3))
        g, h = random_graph(rng, n), random_graph(rng, rng.randint(1, 6))
        joint = list(rounds([g, h], k))
        for i, graph in enumerate((g, h)):
            counts = [len(set(colorings[i])) for colorings in joint]
            repeat = next(r for r in range(1, len(counts))
                          if counts[r] == counts[r - 1])
            assert counts[:repeat + 1] == class_counts(graph, k)


def test_no_round_past_max_rounds(monkeypatch):
    # 1-dimensional refinement tells P4 + P5 from P3 + P6 at round 2 only
    g = disjoint_union(path_graph(4), path_graph(5))
    h = disjoint_union(path_graph(3), path_graph(6))
    computed = []

    def counted(graphs, k):
        for r, colorings in enumerate(rounds(graphs, k)):
            computed.append(r)
            yield colorings

    monkeypatch.setattr(wl, "rounds", counted)
    for max_rounds, want in ((-1, None), (0, None), (1, None), (2, 2)):
        computed.clear()
        assert distinguish(g, h, 1, max_rounds) == want
        assert computed == list(range(max(max_rounds, 0) + 1))


def test_path_unions_separate_in_logarithmically_many_rounds():
    # P_a + P_(a+1) against P_(a-1) + P_(a+2), a = 4, 8, 16 (up to 33
    # vertices): interval graphs with the same degree sequence. Colour
    # refinement sees the ends of a path one step further each round, so
    # it needs a/2 rounds; 2-dimensional refinement composes the distances
    # it has seen, doubling them each round
    for a in (4, 8, 16):
        g = disjoint_union(path_graph(a), path_graph(a + 1))
        h = disjoint_union(path_graph(a - 1), path_graph(a + 2))
        assert distinguish(g, h, 1, a) == a // 2
        separated = distinguish(g, h, 2, a)
        assert separated is not None
        assert separated <= math.ceil(math.log2(a))


def degree_sentence(c, d, itn):
    """At least c vertices with at least d neighbours: depth 2, 2 vars."""
    return mk_count(">=", c, "x", mk_count(
        ">=", d, "y", mk_atom("E", ("x", "y"), itn), itn), itn)


def neighbour_degree_sentence(c, d, e, itn):
    """Depth-3 refinement: c vertices with >= d neighbours that each have
    >= e neighbours; still two variables, reusing x inside."""
    inner = mk_and(
        [
            mk_atom("E", ("x", "y"), itn),
            mk_count(">=", e, "x", mk_atom("E", ("y", "x"), itn), itn),
        ],
        itn,
    )
    return mk_count(">=", c, "x", mk_count(">=", d, "y", inner, itn), itn)


def two_variable_library(n):
    itn = Interner()
    for c in range(1, n + 1):
        for d in range(1, n):
            yield 2, degree_sentence(c, d, itn)
    for c in range(1, n + 1):
        for d in range(1, 4):
            for e in range(1, 4):
                yield 3, neighbour_degree_sentence(c, d, e, itn)


def random_graph(rng, n):
    edges = frozenset(
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < rng.choice((0.3, 0.5, 0.7))
    )
    return Graph(n, edges)


def sample_distinguished_pairs(seed, wanted):
    """Same-order graph pairs with an explicit two-variable counting
    sentence telling them apart, plus that sentence's depth."""
    rng = random.Random(seed)
    found = []
    while len(found) < wanted:
        n = rng.randint(3, 6)
        g, h = random_graph(rng, n), random_graph(rng, n)
        sg, sh = g.as_structure(), h.as_structure()
        for depth, sentence in two_variable_library(n):
            if distinguishes(sg, sh, sentence):
                found.append((g, h, depth))
                break
    return found


def test_logic_to_refinement_transfer():
    # a depth-r two-variable counting sentence distinguishing the pair
    # forces one-dimensional refinement to split them within r rounds
    for g, h, depth in sample_distinguished_pairs(97, 55):
        rounds = distinguish(g, h, 1, depth)
        assert rounds is not None and rounds <= depth


def test_rounds_beyond_stabilisation_change_nothing():
    # the answer depends on max_rounds only up to the round where the joint
    # partition stops splitting; n ** k + 1 rounds always reach it
    rng = random.Random(5)
    for _ in range(40):
        n, k = rng.randint(2, 6), rng.choice((1, 2))
        g, h = random_graph(rng, n), random_graph(rng, n)
        settled = distinguish(g, h, k, n ** k + 1)
        for max_rounds in range(0, n ** k + 2):
            want = settled if settled is not None and settled <= max_rounds \
                else None
            assert distinguish(g, h, k, max_rounds) == want
    # an isomorphic 12-vertex pair: a million allowed rounds cost what the
    # few until stabilisation cost
    g = path_graph(12)
    h = Graph(12, frozenset((11 - u, 11 - v) for u, v in g.edges))
    started = time.perf_counter()
    assert distinguish(g, h, 2, 10 ** 6) is None
    assert time.perf_counter() - started < 2.0


def test_canonical_color_ids_are_pinned():
    # the class counts alone would not see a renumbering: hash every
    # round's colorings of seeded random pairs
    rng = random.Random(27)
    runs = []
    for _ in range(60):
        k = rng.choice((1, 2, 3))
        g, h = random_graph(rng, rng.randint(1, 7)), \
            random_graph(rng, rng.randint(1, 7))
        runs.append(list(rounds([g, h], k)))
    digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
    assert digest == (
        "399cee5a24ab96aa171b5146c7039d530115dc7d0165565bcd33814772d8e957")
