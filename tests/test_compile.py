import hashlib

import pytest

from helpers import (
    FIG1_IN_X,
    FIG1_NOT_IN_X,
    CountingInterner,
    fig1_instance,
    quiet_condition,
)
from lreckit import compile as compiler
from lreckit.cformula import (
    ATOM,
    BOOL,
    COUNT,
    LE,
    CFormula,
    Interner,
    TableEvaluator,
    dag_size,
    nodes,
    nvars,
    qdepth,
)
from lreckit.compile import (
    CompileParams,
    FormulaCache,
    check_against_oracle,
    compile_x_formula,
    formula_stats,
    psi_t0,
)
from lreckit.corpus import generate_corpus
from lreckit.errors import MalformedInput, RangeViolation
from lreckit.structures import DiGraph
from lreckit.xfix import XInstance, compute_X, encode_tau_n


class CountingCache(FormulaCache):
    """A formula cache that counts its family lookups."""

    def __init__(self, interner: Interner | None = None):
        super().__init__(interner)
        self.lookups = 0

    def get(self, key: tuple):
        self.lookups += 1
        return super().get(key)


def dag_digest(roots: list[CFormula]) -> str:
    """A SHA-256 of the nodes reachable from roots, in nid order, each as
    its kind, its fields and its children's positions in that order, and
    of the roots' positions: equal exactly when two builds reach the same
    nodes, interned in the same relative order, whatever their
    process-wide nids."""
    found: dict[int, CFormula] = {}
    for root in roots:
        for node in nodes(root, found):
            found[node.nid] = node
    pos = {nid: k for k, nid in enumerate(sorted(found))}
    rows = [(f.kind, f.value, f.vars, f.symbol,
             tuple([pos[c.nid] for c in f.children]),
             f.mode, f.threshold, f.bound_var)
            for f in (found[nid] for nid in sorted(found))]
    text = repr((rows, [pos[f.nid] for f in roots]))
    return hashlib.sha256(text.encode()).hexdigest()


def test_params_validation():
    with pytest.raises(MalformedInput):
        CompileParams(0, 1)
    with pytest.raises(RangeViolation):
        CompileParams(3, 3)
    p = CompileParams(3, 1)
    # smallest H with 2^H >= (n+1)^(4r+2)
    assert 2 ** p.H >= 4 ** 6 > 2 ** (p.H - 1)


def test_worked_example_compiles_correctly():
    g, c = fig1_instance()
    s = encode_tau_n(g, c, 3)
    ev = TableEvaluator(s)
    params = CompileParams(3, 1)
    cache = FormulaCache()
    for v, i in FIG1_IN_X:
        assert ev.eval(compile_x_formula(params, i, cache=cache), {"x": v}), (v, i)
    for v, i in FIG1_NOT_IN_X:
        assert not ev.eval(compile_x_formula(params, i, cache=cache), {"x": v}), (v, i)


def test_full_sweep_on_worked_example():
    g, c = fig1_instance()
    s = encode_tau_n(g, c, 3)
    ev = TableEvaluator(s)
    inst = XInstance(g, c)
    params = CompileParams(3, 1)
    cache = FormulaCache()
    for i in range(1, 5):
        f = compile_x_formula(params, i, cache=cache)
        for v in range(3):
            assert ev.eval(f, {"x": v}) == compute_X(inst, v, i), (v, i)


def test_random_instances_agree_with_oracle():
    checked, mismatches = check_against_oracle(
        CompileParams(4, 1), generate_corpus(31, 4, 12), FormulaCache())
    assert checked > 0 and mismatches == []


def test_a_witness_needs_five_recursion_levels():
    # criterion 2 passes with the budget cut to 4 levels; here 4 levels
    # say (2, 5) lies in X, and it does not: a compiler whose budget fell
    # below 5 fails this test. compile_x_formula has H = 14 at n = 4
    g = DiGraph(4, frozenset({(1, 3), (2, 0), (2, 1), (3, 0)}), root=2)
    c = quiet_condition(g, {0: {0, 3, 4}, 1: {0, 2, 4}, 2: {0, 2, 4}, 3: {1}})
    ev = TableEvaluator(encode_tau_n(g, c, 4))
    cache = FormulaCache()
    params = CompileParams(4, 1)
    assert params.H == 14
    want = compute_X(XInstance(g, c), 2, 5)
    assert want is False
    assert ev.eval(psi_t0(4, 4, 5, "x", cache=cache), {"x": 2}) != want
    for f in (psi_t0(4, 5, 5, "x", cache=cache),
              compile_x_formula(params, 5, cache=cache)):
        assert ev.eval(f, {"x": 2}) == want


def needed_levels(n: int, instance, v: int, i: int) -> int:
    """The least h such that psi_t0 at every level from h up to the
    compiler's budget H (r = 1) agrees with compute_X at (v, i); H + 1 when
    the budget itself disagrees. A lower level can answer right by chance,
    so the scan runs down from H."""
    g, c = instance
    ev = TableEvaluator(encode_tau_n(g, c, n))
    want = compute_X(XInstance(g, c), v, i)
    cache = FormulaCache()
    h = CompileParams(n, 1).H
    while h >= 0 and ev.eval(psi_t0(n, h, i, "x", cache=cache),
                             {"x": v}) == want:
        h -= 1
    return h + 1


def test_a_path_witness_needs_five_recursion_levels():
    # the first of the 66 checks that fail at 4 levels when 200 conditions
    # over {0, 1} are drawn by random.Random(1) for the path 0 -> 1 -> .. -> 4
    g = DiGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}), root=0)
    c = quiet_condition(g, {0: {0}, 1: {1}, 2: {0, 1}, 3: set(), 4: {0, 1}})
    assert needed_levels(5, (g, c), 0, 5) == 5
    want = compute_X(XInstance(g, c), 0, 5)
    assert want is False  # 4 levels say (0, 5) lies in X
    f = compile_x_formula(CompileParams(5, 1), 5, cache=FormulaCache())
    assert TableEvaluator(encode_tau_n(g, c, 5)).eval(f, {"x": 0}) == want


# compile_x_formula at i = 1..top on one fresh cache, by (n, r, top)
DAG_DIGESTS = {
    (4, 1, 5):
    "50241b736a32df43feef205e754f6feb9e96482a8c47851f9c1f2ac1a6c4d37c",
    (5, 1, 6):
    "8f352097550b11e34d99d2e538a68f829051f9545ad90a1d9c2cf47850b9de40",
    (2, 2, 9):
    "c6e3a1d3c58aa56e0c5a64490a902d40536cdc34bec5aa3b5476be4155c82a93",
}


@pytest.mark.parametrize("n, r, top", DAG_DIGESTS)
def test_compiled_dags_are_pinned_node_for_node(n, r, top):
    # measured when every threshold still rebuilt its counted body
    cache = FormulaCache()
    roots = [compile_x_formula(CompileParams(n, r), i, cache=cache)
             for i in range(1, top + 1)]
    assert dag_digest(roots) == DAG_DIGESTS[n, r, top]


def test_each_counted_body_is_built_once():
    # rebuilding a counted body for each threshold makes the same 11,181
    # nodes from 53,874 intern calls and 44,984 family lookups
    cache = CountingCache(CountingInterner())
    for i in range(1, 6):
        compile_x_formula(CompileParams(4, 1), i, cache=cache)
    assert (cache.interner.calls, cache.lookups, len(cache.interner)) == (
        20302, 20669, 11181)


@pytest.mark.parametrize("n, r, i, dag, qd, nv, interned", [
    (3, 1, 4, 2473, 16, 4, 3120),
    (4, 1, 5, 8300, 20, 4, 10678),
    (5, 1, 6, 24725, 23, 4, 31072),
    (2, 2, 9, 45203, 26, 4, 49229),
])
def test_compiled_shape_is_pinned(n, r, i, dag, qd, nv, interned):
    # measured when each family still kept its own get/put block
    cache = FormulaCache()
    f = compile_x_formula(CompileParams(n, r), i, cache=cache)
    assert (dag_size(f), qdepth(f), nvars(f), len(cache.interner)) == (
        dag, qd, nv, interned)


@pytest.mark.parametrize("n, r", [(n, 1) for n in range(1, 7)]
                         + [(1, 2), (2, 2)])
def test_compiled_formulas_hold_only_what_the_translation_maps(n, r,
                                                               monkeypatch):
    # translate_lrec_once maps EQ, E and P_i atoms, NOT, OR, AND and the
    # >= and = counts: no constant, no <= count and no other symbol occurs
    # in any root, and every in-degree test counts a variable other than
    # its target
    degree_vars = []
    deg_formula = compiler.deg_formula

    def deg_formula_seen(d, target, aux, interner):
        degree_vars.append((target, aux))
        return deg_formula(d, target, aux, interner)

    monkeypatch.setattr(compiler, "deg_formula", deg_formula_seen)
    cache = FormulaCache()
    seen: dict[int, CFormula] = {}
    for i in range(1, (n + 1) ** r + 1):
        for node in nodes(compile_x_formula(CompileParams(n, r), i,
                                            cache=cache), seen):
            seen[node.nid] = node
    found = list(seen.values())
    assert not [f for f in found if f.kind == BOOL]
    assert not [f for f in found if f.kind == COUNT and f.mode == LE]
    assert {f.symbol for f in found if f.kind == ATOM} <= {
        "E", *(f"P{label}" for label in range(n + 1))}
    assert degree_vars and all(t != a for t, a in degree_vars)


def test_out_of_range_resource_rejected():
    params = CompileParams(3, 1)
    cache = FormulaCache()
    with pytest.raises(RangeViolation):
        compile_x_formula(params, 0, cache=cache)
    with pytest.raises(RangeViolation):
        compile_x_formula(params, 5, cache=cache)


def test_compiling_without_a_cache_is_a_type_error():
    with pytest.raises(TypeError):
        compile_x_formula(CompileParams(3, 1), 1)


def test_bounded_variable_count_across_resources():
    params = CompileParams(3, 1)
    cache = FormulaCache()
    counts = [
        nvars(compile_x_formula(params, i, cache=cache)) for i in range(1, 5)
    ]
    assert max(counts) == 4
    assert all(c <= 4 for c in counts)


def test_stats_fields():
    f = compile_x_formula(CompileParams(2, 1), 1, cache=FormulaCache())
    stats = formula_stats(f)
    assert set(stats) >= {"qd", "nvars", "dag_size", "tree_size"}
    assert stats["qd"] == qdepth(f)
    assert stats["dag_size"] <= stats["tree_size"]


def test_every_compiled_node_comes_after_its_children():
    f = compile_x_formula(CompileParams(4, 1), 5, cache=FormulaCache())
    for node in nodes(f):
        assert all(c.nid < node.nid for c in node.children)


def test_cache_isolation_and_reuse():
    params = CompileParams(3, 1)
    cache = FormulaCache(Interner())
    f1 = compile_x_formula(params, 2, cache=cache)
    f2 = compile_x_formula(params, 2, cache=cache)
    assert f1 is f2
    other = compile_x_formula(params, 2, cache=FormulaCache(Interner()))
    assert other is not f1
    from lreckit.cformula import print_sexpr

    assert print_sexpr(other) == print_sexpr(f1)


def test_one_cache_serves_both_resource_widths():
    # the families are keyed on n alone, so r = 2 reuses what r = 1 built
    shared = FormulaCache()
    compile_x_formula(CompileParams(2, 1), 3, cache=shared)
    before = len(shared)
    f = compile_x_formula(CompileParams(2, 2), 3, cache=shared)
    fresh = FormulaCache()
    g = compile_x_formula(CompileParams(2, 2), 3, cache=fresh)
    assert len(shared) - before < len(fresh)
    assert dag_size(f) == dag_size(g)


def test_query_variable_name_is_configurable():
    g, c = fig1_instance()
    s = encode_tau_n(g, c, 3)
    params = CompileParams(3, 1)
    cache = FormulaCache()
    default = compile_x_formula(params, 1, cache=cache)
    renamed = compile_x_formula(params, 1, x="q", cache=cache)
    ev = TableEvaluator(s)
    for v in range(3):
        assert ev.eval(default, {"x": v}) == ev.eval(renamed, {"q": v})
