import itertools
import re
import warnings

import pytest
from hypothesis import given, settings

from helpers import fig1_instance
from lrec_battery import BATTERY, STRUCTURES
from lrec_strategies import lrec_formulas, structures
from lreckit.errors import (
    IdOutOfRange,
    MalformedInput,
    RangeViolation,
    UnboundVariable,
)
from lreckit.lformula import (
    LEvaluator,
    TwoSortedAssignment,
    eval_lrec,
    parse_lsexpr,
    print_lsexpr,
)
from lreckit.structures import RelStructure, Vocabulary
from lreckit.xfix import XInstance, compute_X, encode_tau_n

VOC = Vocabulary((("E", 2), ("P", 1)))


def struct(n, edges, p=()):
    return RelStructure(
        VOC, n, {"E": frozenset(edges), "P": frozenset((v,) for v in p)}
    )


def ev(s, text, dom=None, num=None):
    return eval_lrec(s, parse_lsexpr(text), TwoSortedAssignment(dom or {}, num or {}))


def test_round_trip_all_forms():
    texts = [
        "(bool t)",
        "(eq x y)",
        "(atom E x y)",
        "(not (atom P x))",
        "(or (bool f) (atom P x))",
        "(and (bool t) (bool t))",
        "(exists x (atom P x))",
        "(forall x (atom P x))",
        "(num-exists i (num-eq i 2))",
        "(num-le min max)",
        "(num-succ i j)",
        "(count-dom x (atom P x) k)",
        "(count-num i (num-le i j) 3)",
        "(lrec (y1) (y2) (i) (eq y1 y2) (atom E y1 y2) (num-eq i 0) (x) (k))",
    ]
    for text in texts:
        f = parse_lsexpr(text)
        assert print_lsexpr(parse_lsexpr(print_lsexpr(f))) == print_lsexpr(f)


def test_parse_errors():
    for bad in ["(= x y)", "(lrec (y1) (y2))", "(num-le 1)", "(atom)"]:
        with pytest.raises(MalformedInput):
            parse_lsexpr(bad)


def test_number_sort_semantics():
    s = struct(3, [])
    assert ev(s, "(num-le min max)")
    assert ev(s, "(num-eq max 3)")
    assert ev(s, "(num-succ i j)", num={"i": 1, "j": 2})
    assert not ev(s, "(num-succ i j)", num={"i": 2, "j": 2})
    assert ev(s, "(num-exists i (num-eq i 3))")
    with pytest.raises(RangeViolation):
        ev(s, "(num-exists i (num-eq i 4))")
    with pytest.raises(RangeViolation):
        ev(s, "(num-eq i i)", num={"i": 9})


def test_counting_forms():
    s = struct(3, [(0, 1), (0, 2)], p=[1, 2])
    assert ev(s, "(count-dom x (atom P x) k)", num={"k": 2})
    assert not ev(s, "(count-dom x (atom P x) k)", num={"k": 1})
    # numbers 0..3 that are <= 1: exactly two of them
    assert ev(s, "(count-num i (num-le i 1) 2)")


def test_unbound_and_nested_errors():
    s = struct(2, [])
    with pytest.raises(UnboundVariable):
        ev(s, "(atom P x)")


def test_one_evaluator_keeps_fresh_formulas_apart():
    # each parsed tree is dropped after its call, so the second may be
    # allocated where the first was
    evaluator = LEvaluator(struct(2, [], p=[0]))
    a = TwoSortedAssignment({"x": 0})
    assert evaluator.eval(parse_lsexpr("(atom P x)"), a)
    assert not evaluator.eval(parse_lsexpr("(atom E x x)"), a)


@pytest.mark.parametrize("dom, num, error", [
    ({"x": 7}, {}, IdOutOfRange),
    ({"x": -1}, {}, IdOutOfRange),
    ({"x": "a"}, {}, IdOutOfRange),
    ({"x": 0}, {"k": "a"}, RangeViolation),
])
def test_assignment_values_are_checked(dom, num, error):
    s = struct(2, [(0, 1)])
    f = parse_lsexpr("(exists y (atom E x y))")
    a = TwoSortedAssignment(dom, num)
    with pytest.raises(error):
        LEvaluator(s).eval(f, a)
    with pytest.raises(error):
        eval_lrec(s, f, a)


FIG1_LREC = """
(lrec (y1) (y2) (i)
  (eq y1 y2)
  (atom E y1 y2)
  (or (and (atom P y1) (not (eq y1 y1))) (bool f)
      (and (atom A y1) (or (num-eq i 0) (num-eq i 2) (num-eq i 3)))
      (and (atom B y1) (or (num-eq i 0) (num-eq i 1)))
      (and (atom D y1) (num-eq i 3)))
  (x) (k))
"""


def fig1_structure():
    voc = Vocabulary((("E", 2), ("A", 1), ("B", 1), ("D", 1), ("P", 1)))
    g, _ = fig1_instance()
    return RelStructure(
        voc,
        3,
        {
            "E": frozenset(g.edges),
            "A": frozenset({(0,)}),
            "B": frozenset({(1,)}),
            "D": frozenset({(2,)}),
            "P": frozenset(),
        },
    )


def test_lrec_matches_direct_recursion():
    s = fig1_structure()
    f = parse_lsexpr(FIG1_LREC)
    g, c = fig1_instance()
    inst = XInstance(g, c)
    for v in range(3):
        for m in range(4):
            got = eval_lrec(s, f, TwoSortedAssignment({"x": v}, {"k": m}))
            assert got == compute_X(inst, v, m), (v, m)


def test_quotient_contracts_equivalent_elements():
    # the two P-labelled elements 1 and 2 are merged, 0 stays alone; 0
    # needs exactly one child in X, the P class none
    s = struct(3, [(0, 1), (0, 2)], p=[1, 2])
    card = ("(or (and (atom P y1) (num-eq i 0))"
            " (and (not (atom P y1)) (num-eq i 1)))")

    def answers(eq):
        f = parse_lsexpr("(lrec (y1) (y2) (i) " + eq + " (atom E y1 y2) "
                         + card + " (x) (k))")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return [eval_lrec(s, f, TwoSortedAssignment({"x": 0}, {"k": m}))
                    for m in range(4)]

    merged = answers("(or (eq y1 y2) (and (atom P y1) (atom P y2)))")
    assert merged == [False, False, True, True]
    assert answers("(eq y1 y2)") == [False] * 4


def test_quotient_closes_non_equivalences_with_warning():
    s = struct(3, [], p=[0])
    f = parse_lsexpr("(lrec (y1) (y2) (i) (and (atom P y1) (not (atom P y2)))"
                     " (bool f) (bool f) (x) (k))")
    with pytest.warns(UserWarning, match="closure"):
        assert not eval_lrec(s, f, TwoSortedAssignment({"x": 0}, {"k": 1}))


# the equality formula merges the in-neighbours of z, which no other part
# of the lrec node reads
EQ_READS_Z = ("(lrec (a) (b) (j) (or (eq a b) (and (atom E a z) (atom E b z)))"
              " (atom E a b) (or (and (atom P a) (num-eq j 0))"
              " (and (not (atom P a)) (num-eq j 1))) {x} (m))")


@pytest.mark.parametrize("text", [
    EQ_READS_Z.format(x="(x)"),
    # the outer lrec queries z, and the inner one sits in its edge formula
    "(lrec (y1) (y2) (i) (eq y1 y2) (and (atom E y1 y2) "
    + EQ_READS_Z.format(x="(y2)") + ") (num-eq i 0) (z) (k))",
], ids=["plain", "nested"])
def test_lrec_rereads_what_only_its_equality_formula_reads(text):
    f = parse_lsexpr(text)
    counted = parse_lsexpr(f"(count-dom z {text} c)")
    differ = 0
    for s in STRUCTURES:
        for x, k, m in itertools.product(range(s.n), (1, 2), (1, 2)):
            num = {"k": k, "m": m}
            # one fresh evaluator per value of z
            want = [eval_lrec(s, f, TwoSortedAssignment({"x": x, "z": z}, num))
                    for z in range(s.n)]
            shared = LEvaluator(s)
            got = [shared.eval(f, TwoSortedAssignment({"x": x, "z": z}, num))
                   for z in range(s.n)]
            assert got == want, (s.n, x, k, m)
            for c in range(s.n + 1):
                a = TwoSortedAssignment({"x": x}, {**num, "c": c})
                assert eval_lrec(s, counted, a) == (c == sum(want)), (s.n, x, c)
            differ += len(set(want)) > 1
    # the answer does depend on z
    assert differ > 0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=lrec_formulas(), s=structures())
def test_one_evaluator_answers_every_query_from_its_quotients(f, s):
    # the generated subformulas may read x and k; one evaluator asked every
    # x and k agrees with a fresh evaluator per assignment
    shared = LEvaluator(s)
    for x, k in itertools.product(range(s.n), range(s.n + 1)):
        a = TwoSortedAssignment({"x": x}, {"k": k})
        want = eval_lrec(s, f, a)
        assert shared.eval(f, a) == want, (x, k)


@pytest.mark.parametrize("width, n_max", [(2, 3), (3, 2)])
def test_wide_tuples_that_read_one_component_match_width_one(width, n_max):
    # each one-resource battery formula, rewritten to read only the first
    # components a of y1 and c of y2; nothing reads the padding components,
    # so the quotient of V^width is the width-1 quotient
    pad = range(1, width)

    def names(first, prefix):
        return "(" + " ".join([first] + [f"{prefix}{j}" for j in pad]) + ")"

    def widened(text):
        return re.sub(r"\by2\b", "c", re.sub(r"\by1\b", "a", text))

    checked = 0
    for eq, edge, card, kappas, f in BATTERY:
        if kappas != ("k",):
            continue
        wide = parse_lsexpr(" ".join([
            "(lrec", names("a", "b"), names("c", "d"), "(i)", widened(eq),
            widened(edge), widened(card), names("x", "x"), "(k))"]))
        for s in STRUCTURES:
            if s.n > n_max:
                continue
            for m in range(s.n + 1):
                for v in range(s.n):
                    # the padded query components name another element
                    dom = {"x": v, **{f"x{j}": (v + 1) % s.n for j in pad}}
                    want = eval_lrec(s, f, TwoSortedAssignment({"x": v}, {"k": m}))
                    got = eval_lrec(s, wide, TwoSortedAssignment(dom, {"k": m}))
                    assert got == want, (print_lsexpr(f), s.n, m, v)
                    checked += 1
    assert checked == {2: 1134, 3: 378}[width]


def test_lrec_on_encoded_instance_via_label_predicates():
    # evaluate the recursion over the tau-encoded structure itself, with
    # the card formula reading the P_i labels
    g, c = fig1_instance()
    s = encode_tau_n(g, c, 3)
    card = ("(or "
            "(and (atom P0 y1) (num-eq i 0)) (and (atom P1 y1) (num-eq i 1)) "
            "(and (atom P2 y1) (num-eq i 2)) (and (atom P3 y1) (num-eq i 3)))")
    f = parse_lsexpr(
        "(lrec (y1) (y2) (i) (eq y1 y2) (atom E y1 y2) " + card + " (x) (k))"
    )
    inst = XInstance(g, c)
    for v in range(3):
        for m in range(4):
            got = eval_lrec(s, f, TwoSortedAssignment({"x": v}, {"k": m}))
            assert got == compute_X(inst, v, m), (v, m)
