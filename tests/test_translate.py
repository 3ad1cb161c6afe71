import re

import pytest
from hypothesis import given, settings

from lrec_battery import BATTERY, MAX_N_TWO_KAPPA, STRUCTURES, resource_tuples
from lrec_strategies import lrec_formulas, structures
from lreckit.cformula import (
    Interner,
    TableEvaluator,
    dag_size,
    mk_bool,
    nvars,
    qdepth,
)
from lreckit.compile import (
    QUERY_VAR,
    FormulaCache,
    eliminate_numbers,
    translate_lrec_once,
)
from lreckit.errors import (
    ArityMismatch,
    ComponentOutOfRange,
    MalformedInput,
    NestedLrec,
    SizeExceeded,
    TupleWidthUnsupported,
    UnboundVariable,
)
from lreckit.lformula import (
    TwoSortedAssignment,
    eval_lrec,
    parse_lsexpr,
)

CACHE = FormulaCache()


class CountingInterner(Interner):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def intern(self, node):
        self.calls += 1
        return super().intern(node)


def sweep(f, kappas, s, cache=CACHE):
    for tup in resource_tuples(s.n, len(kappas)):
        cf = translate_lrec_once(f, s.n, tup, cache)
        ev = TableEvaluator(s)
        for v in range(s.n):
            want = eval_lrec(
                s, f, TwoSortedAssignment({"x": v}, dict(zip(kappas, tup)))
            )
            # a failing assert prints its operands: keep cf out of it
            got = ev.eval(cf, {QUERY_VAR: v})
            assert got == want, (tup, v)


@pytest.mark.parametrize("idx", [0, 2, 4, 12, 18, 19])
def test_translation_agrees_on_small_structures(idx):
    eq, edge, card, kappas, f = BATTERY[idx]
    for s in STRUCTURES[:4]:
        if len(kappas) == 2 and s.n > 2:
            continue
        sweep(f, kappas, s)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(f=lrec_formulas(), s=structures())
def test_translation_agrees_on_generated_formulas(f, s):
    # every resource in [0, n] and every element, on one shared cache
    sweep(f, f.kappas, s)


@pytest.mark.parametrize("idx, n, tup, dag, qd, nv", [
    (0, 3, (2,), 418, 16, 7),
    (22, 2, (1, 1), 2871, 22, 7),
])
def test_translation_shape_is_pinned(idx, n, tup, dag, qd, nv):
    # measured with the COUNT branch built from at-least terms; counting by
    # class-count vectors of exact terms gave DAGs of 2034 and 8099 nodes
    cf = translate_lrec_once(BATTERY[idx][4], n, tup, FormulaCache())
    assert (dag_size(cf), qdepth(cf), nvars(cf)) == (dag, qd, nv)


def test_zero_resource_translates_to_false():
    _, _, _, kappas, f = BATTERY[0]
    assert translate_lrec_once(f, 3, (0,), CACHE) is mk_bool(
        False, CACHE.interner
    )


def test_requires_outermost_lrec():
    with pytest.raises(MalformedInput):
        translate_lrec_once(parse_lsexpr("(bool t)"), 2, (), CACHE)


def test_rejects_nested_lrec():
    inner = "(lrec (y1) (y2) (i) (eq y1 y2) (atom E y1 y2) (bool f) (y1) (j))"
    f = parse_lsexpr(
        "(lrec (y1) (y2) (i) (eq y1 y2) " + inner + " (num-eq i 0) (x) (k))"
    )
    with pytest.raises(NestedLrec):
        translate_lrec_once(f, 2, (1,), CACHE)


def test_rejects_wide_tuples():
    f = parse_lsexpr(
        "(lrec (a b) (c d) (i) (and (eq a c) (eq b d)) (bool f) "
        "(num-eq i 0) (x1 x2) (k))"
    )
    with pytest.raises(TupleWidthUnsupported):
        translate_lrec_once(f, 2, (1,), CACHE)


def test_rejects_iota_width_above_the_number_tuple_bound():
    # 4**9 iota tuples per label atom at n=3, none of them a number;
    # decode_number refuses the first one
    f = parse_lsexpr("(lrec (y1) (y2) (" + " ".join(["i"] * 9) + ") "
                     "(eq y1 y2) (atom E y1 y2) (bool f) (x) (k))")
    with pytest.raises(SizeExceeded):
        translate_lrec_once(f, 3, (1,), CACHE)


def test_resource_arity_checked():
    _, _, _, _, f = BATTERY[0]
    with pytest.raises(ArityMismatch):
        translate_lrec_once(f, 2, (1, 1), CACHE)


@pytest.mark.parametrize("eq, edge, message", [
    # a free domain parameter besides y1, y2 and x
    ("(or (eq y1 y2) (eq y1 z))", "(atom E y1 y2)",
     "unmapped domain variables: ['z']"),
    # a number variable that is neither a kappa nor an iota
    ("(eq y1 y2)", "(and (atom E y1 y2) (num-le j 1))",
     "unassigned number variables: ['j']"),
])
def test_refuses_free_variables_it_cannot_map(eq, edge, message):
    f = parse_lsexpr(f"(lrec (y1) (y2) (i) {eq} {edge} (num-le i 1) (x) (k))")
    with pytest.raises(UnboundVariable, match=re.escape(message)):
        translate_lrec_once(f, 2, (1,), CACHE)


def test_refuses_a_resource_component_above_n():
    _, _, _, _, f = BATTERY[0]
    with pytest.raises(ComponentOutOfRange):
        translate_lrec_once(f, 3, (4,), CACHE)


@pytest.mark.parametrize("tup", [(True,), (2.0,), ("1",)])
def test_resource_values_must_be_ints(tup):
    _, _, _, _, f = BATTERY[0]
    with pytest.raises(MalformedInput):
        translate_lrec_once(f, 2, tup, CACHE)


def test_repeat_translation_is_one_lookup():
    cache = FormulaCache(CountingInterner())
    f = BATTERY[4][4]
    first = translate_lrec_once(f, 3, (2,), cache)
    calls = cache.interner.calls
    # nids, not nodes: a failing assert would print both formulas as trees
    assert translate_lrec_once(f, 3, (2,), cache).nid == first.nid
    assert cache.interner.calls == calls


def test_shared_memo_gives_the_nodes_of_a_fresh_cache():
    shared = FormulaCache()
    for _, _, _, kappas, f in BATTERY:
        for n in (2, 3) if len(kappas) == 1 else (MAX_N_TWO_KAPPA,):
            for tup in resource_tuples(n, len(kappas)):
                fresh = FormulaCache(shared.interner)
                assert (translate_lrec_once(f, n, tup, shared).nid
                        == translate_lrec_once(f, n, tup, fresh).nid), (n, tup)


@pytest.mark.parametrize("text", [
    "(lrec (y1) (y2) (i) (eq y1 y2) (and (atom E y1 y2) (num-le k 1))"
    " (num-le i 1) (x) (k))",
    "(lrec (y1) (y2) (i) (or (eq y1 y2) (num-eq k 2)) (atom E y1 y2)"
    " (num-le i 1) (x) (k))",
    "(lrec (y1) (y2) (i) (eq y1 y2) (atom E y1 y2) (num-le i k2) (x)"
    " (k1 k2))",
])
def test_shared_memo_keeps_the_resource_values_read(text):
    # the edge, equality or label subformula reads a resource variable, so
    # tuples that differ in it must not share a node mapping; each case
    # disagrees with eval_lrec when the memo key leaves the read values out
    f = parse_lsexpr(text)
    cache = FormulaCache()
    for s in STRUCTURES[:6]:
        if len(f.kappas) == 2 and s.n > MAX_N_TWO_KAPPA:
            continue
        sweep(f, f.kappas, s, cache)


def test_eliminate_numbers_matches_two_sorted_semantics():
    cases = [
        ("(num-exists i (and (num-eq i j) (atom P x)))", {"j": 2}),
        ("(count-num i (num-le i j) j)", {"j": 1}),
        ("(num-le j max)", {"j": 0}),
        ("(num-succ j 3)", {"j": 2}),
    ]
    s = STRUCTURES[3]  # n = 3, P = {0, 2}
    for text, nums in cases:
        lf = parse_lsexpr(text)
        cf = eliminate_numbers(lf, {"x": "x"}, nums, s.n, CACHE.interner)
        for v in range(s.n):
            want = eval_lrec(s, lf, TwoSortedAssignment({"x": v}, nums))
            got = TableEvaluator(s).eval(cf, {"x": v})
            assert got == want, (text, v)
