import random

from lrec_properties import (
    ALL_CHILDREN,
    AND,
    BOOLEAN_VALUE,
    OR,
    SOME_CHILD,
    boolean_value_formula,
    encode_tree,
    gate_value,
)
from lreckit.cformula import TableEvaluator
from lreckit.compile import QUERY_VAR, FormulaCache, translate_lrec_once
from lreckit.lformula import TwoSortedAssignment, eval_lrec


def random_tree(seed: int, n: int):
    """A seeded formula tree on n vertices, rooted at 0: each vertex hangs
    below its predecessor with a probability drawn per tree, else below a
    random earlier vertex, so trees range from paths to bushes."""
    rng = random.Random(seed)
    children = [[] for _ in range(n)]
    deep = rng.random()
    for v in range(1, n):
        children[v - 1 if rng.random() < deep else rng.randrange(v)].append(v)
    labels = [rng.choice((AND, OR)) if ws else rng.random() < 0.5
              for ws in children]
    return children, labels


def trees(count: int, sizes: range):
    for seed in range(count):
        n = sizes[seed % len(sizes)]
        yield random_tree(seed, n)


def lrec_disagreements(f, children, labels) -> int:
    s, n = encode_tree(children, labels), len(children)
    return sum(
        eval_lrec(s, f, TwoSortedAssignment({"x": v}, {"k": n}))
        != gate_value(children, labels, v)
        for v in range(n))


def test_encoding_marks_and_gates_and_true_leaves():
    # an OR gate over a false leaf and an AND gate, which is over a true
    # and a false leaf
    children = [[1, 4], [2, 3], [], [], []]
    labels = [OR, AND, True, False, False]
    s = encode_tree(children, labels)
    assert s.rel("E") == {(0, 1), (0, 4), (1, 2), (1, 3)}
    assert s.rel("P") == {(1,)} and s.rel("Q") == {(2,)}
    assert [gate_value(children, labels, v) for v in range(5)] == [
        False, False, True, False, False]


def test_lrec_computes_boolean_formula_value():
    checked = 0
    for children, labels in trees(144, range(1, 13)):
        assert lrec_disagreements(BOOLEAN_VALUE, children, labels) == 0
        checked += len(children)
    assert checked == 12 * sum(range(1, 13))


def test_translation_computes_boolean_formula_value():
    cache = FormulaCache()
    checked = 0
    for children, labels in trees(80, range(1, 5)):
        n = len(children)
        f = translate_lrec_once(BOOLEAN_VALUE, n, (n,), cache)
        ev = TableEvaluator(encode_tree(children, labels))
        for v in range(n):
            assert ev.eval(f, {QUERY_VAR: v}) == gate_value(children, labels,
                                                            v)
        checked += n
    assert checked == 20 * sum(range(1, 5))


def test_boolean_formula_value_is_not_vacuous():
    # AND and OR gates swapped in the label formula: some tree tells them
    # apart
    swapped = boolean_value_formula(and_test=SOME_CHILD, or_test=ALL_CHILDREN)
    assert any(lrec_disagreements(swapped, children, labels)
               for children, labels in trees(144, range(1, 13)))
