"""Acceptance suite: one criterion per test, one printed PASS/FAIL line.

Each test prints `ACCEPTANCE <k> <name>: PASS|FAIL (<detail>)` so the
suite output doubles as the acceptance report.
"""

import itertools
import math
import time

import pytest

from helpers import (
    FIG1_IN_X,
    FIG1_NOT_IN_X,
    H8_MAXCLIQUES,
    cycle_graph,
    disjoint_union,
    fig1_instance,
    h8,
)
from lrec_battery import BATTERY, run_battery
from lreckit.balancer import build_tree, check_tree
from lreckit.cformula import dag_size, nvars, qdepth
from lreckit.compile import (
    CompileParams,
    FormulaCache,
    check_against_oracle,
    compile_x_formula,
    translate_lrec_once,
)
from lreckit.corpus import all_conditions, enumerate_rooted_dags, generate_corpus
from lreckit.dagstats import awt_restricted, weights
from lreckit.intervals import (
    _connected,
    is_interval,
    is_interval_oracle,
    is_module,
    maxcliques,
    prec_order,
)
from lreckit.structures import Graph, reachable_closure
from lreckit.wl import distinguish
from lreckit.xfix import XInstance, build_H, compute_X

import test_wl as wl_helpers


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_worked_example_exact():
    t0 = time.time()
    g, c = fig1_instance()
    inst = XInstance(g, c)
    ok = all(compute_X(inst, v, i) for v, i in FIG1_IN_X) and not any(
        compute_X(inst, v, i) for v, i in FIG1_NOT_IN_X
    )
    elapsed = time.time() - t0
    report(1, "worked example exact", ok and elapsed < 1.0,
           f"5 memberships, {elapsed:.3f}s")


def test_criterion_2_compiler_oracle_equivalence():
    t0 = time.time()
    cache = FormulaCache()
    mismatches = []
    checked = instances = 0
    corpora = [
        (CompileParams(3, 1), [(g, c) for g in enumerate_rooted_dags(3)
                               for c in all_conditions(g)]),
        (CompileParams(4, 1), generate_corpus(1201, 4, 140)),
        (CompileParams(5, 1), generate_corpus(1202, 5, 60)),
    ]
    for params, corpus in corpora:
        instances += len(corpus)
        count, found = check_against_oracle(params, corpus, cache)
        checked += count
        mismatches += found
    elapsed = time.time() - t0
    report(2, "compiler-oracle equivalence",
           not mismatches and elapsed < 600,
           f"{instances} instances, {checked} checks, "
           f"{len(mismatches)} mismatches, {elapsed:.1f}s")


CORPUS_SEED = 1300
CORPUS = generate_corpus(CORPUS_SEED, 12, 1000)


def test_criterion_3_weight_invariants():
    t0 = time.time()
    violations = 0
    for g, _ in CORPUS:
        t = weights(g)
        if any(w > m for w, m in zip(t.wt, t.mul)):
            violations += 1
        m = max(t.mul)
        if not (t.awt <= t.amul <= m * g.n):
            violations += 1
        for v in range(g.n):
            if v == g.root:
                continue
            below = awt_restricted(g, v, ())
            above = awt_restricted(g, g.root, (v,))
            if below + above > t.awt + 1:
                violations += 1
    elapsed = time.time() - t0
    report(3, "weight and splitting invariants",
           violations == 0 and elapsed < 120,
           f"{len(CORPUS)} DAGs, {violations} violations, {elapsed:.1f}s")


def test_criterion_4_decomposition_checker():
    t0 = time.time()
    failures = []
    for idx, (g, _) in enumerate(CORPUS):
        tree = build_tree(g)
        rep = check_tree(g, tree)
        if not rep.all_pass():
            failures.append((idx, rep.witnesses))
    elapsed = time.time() - t0
    report(4, "balanced decomposition checker",
           not failures and elapsed < 300,
           f"{len(CORPUS)} trees, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_5_unfolded_recursion_dags():
    t0 = time.time()
    checked = violations = 0
    for r in (1, 2):
        for g, _ in generate_corpus(1400 + r, 8, 25):
            n = g.n
            cap = (n + 1) ** r
            resources = sorted({1, 2, 3, cap // 2, cap} - {0})
            for v in range(n):
                for i in resources:
                    hdag = build_H(g, v, i)
                    checked += 1
                    if max(weights(hdag.graph).mul) > i:
                        violations += 1
                    tree = build_tree(hdag.graph)
                    # height <= (4r+2) * log2(n+1)
                    if (2 ** tree.height()) > (n + 1) ** (4 * r + 2):
                        violations += 1
    elapsed = time.time() - t0
    report(5, "resource-path property and tree height",
           violations == 0,
           f"{checked} unfolded DAGs, {violations} violations, {elapsed:.1f}s")


def test_criterion_6_scaling():
    t0 = time.time()
    cache = FormulaCache()
    max_nvars = {}
    ratios = {}
    sizes = {}
    for n in range(2, 7):
        params = CompileParams(n, 1)
        fs = [compile_x_formula(params, i, cache=cache)
              for i in range(1, n + 2)]
        max_nvars[n] = max(nvars(f) for f in fs)
        ratios[n] = max(qdepth(f) for f in fs) / math.log2(n + 1)
        sizes[n] = max(dag_size(f) for f in fs)
    constant_vars = len(set(max_nvars.values())) == 1
    ratio_bound = max(ratios.values())
    # least-squares slope of log(size) against log(n+1)
    xs = [math.log(n + 1) for n in sizes]
    ys = [math.log(s) for s in sizes.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    elapsed = time.time() - t0
    report(6, "constant variables, logarithmic depth",
           constant_vars and ratio_bound < 20 and elapsed < 300,
           f"nvars={set(max_nvars.values())}, "
           f"max qd/log2(n+1)={ratio_bound:.2f}, "
           f"size exponent~{slope:.2f}, {elapsed:.1f}s")


def test_translated_formulas_keep_logarithmic_depth():
    # criterion 6's bounds, for the counting-logic formulas that the lrec
    # translation makes of battery formulas at resource n
    cache = FormulaCache()
    for idx in (0, 2, 8, 18):
        f = BATTERY[idx][4]
        shapes = {}
        for n in range(2, 7):
            cf = translate_lrec_once(f, n, (n,), cache)
            shapes[n] = (qdepth(cf), nvars(cf))
            assert qdepth(cf) / math.log2(n + 1) <= 20, (idx, shapes)
        assert shapes[6][1] == shapes[5][1], (idx, shapes)


def test_criterion_7_single_level_translation():
    t0 = time.time()
    checked, mismatches = run_battery()
    elapsed = time.time() - t0
    report(7, "single-level recursion translation",
           len(BATTERY) >= 20 and not mismatches,
           f"{len(BATTERY)} formulas, {checked} checks, "
           f"{len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_8_refinement_suite():
    t0 = time.time()
    p4 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    k13 = Graph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    c6 = cycle_graph(6)
    cc3 = disjoint_union(cycle_graph(3), cycle_graph(3))
    fixed = (
        distinguish(p4, k13, 1, 10) <= 2
        and distinguish(c6, cc3, 1, 30) is None
        and distinguish(c6, cc3, 2, 30) is not None
    )
    pairs = wl_helpers.sample_distinguished_pairs(801, 50)
    transfer_ok = all(
        (r := distinguish(g, h, 1, depth)) is not None and r <= depth
        for g, h, depth in pairs
    )
    elapsed = time.time() - t0
    report(8, "refinement suite", fixed and transfer_ok,
           f"fixed cases ok={fixed}, {len(pairs)} sampled pairs, "
           f"{elapsed:.1f}s")


def test_criterion_9_interval_suite():
    t0 = time.time()
    g = h8()
    cliques_ok = sorted(sorted(c) for c in maxcliques(g)) == H8_MAXCLIQUES
    module_ok = is_module(g, frozenset({2, 3, 4, 5, 6, 7}))
    rel = prec_order(g, frozenset({0, 1, 2, 3}))
    a, b = frozenset({0, 1, 3, 4, 6}), frozenset({0, 1, 3, 4, 7})
    incomparable_ok = (a, b) not in rel.pairs and (b, a) not in rel.pairs
    agree = disagreements = 0
    for n in range(1, 7):
        for graph in _connected_graphs(n):
            agree += 1
            if is_interval(graph) != is_interval_oracle(graph):
                disagreements += 1
    elapsed = time.time() - t0
    report(9, "interval suite",
           cliques_ok and module_ok and incomparable_ok
           and disagreements == 0 and elapsed < 600,
           f"cliques={cliques_ok}, module={module_ok}, "
           f"incomparable={incomparable_ok}, {agree} graphs, "
           f"{disagreements} disagreements, {elapsed:.1f}s")


def _connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((False, True), repeat=len(pairs)):
        g = Graph(n, frozenset(p for p, keep in zip(pairs, bits) if keep))
        if _connected(g):
            yield g
