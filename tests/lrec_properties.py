"""Named LREC= properties, each with an independent referee.

A property is an lrec S-expression, an encoder from a plain Python object
to a RelStructure over the battery vocabulary {E, P, Q}, and a referee
that computes the property from the object without lformula.

Boolean formula value: a formula tree has gates (AND or OR) with children
and leaves with a truth value. E runs from each gate to its children, P
holds on the AND gates and Q on the true leaves; any other vertex is an OR
gate or a false leaf. The label formula says how many children of y1 must
hold for y1 to hold: none for a true leaf, all of them for an AND gate, at
least one for an OR gate (so never for a false leaf). On a tree every
child has in-degree 1 and is read at resource i - 1, so resource k = n
reaches every leaf from every vertex.
"""

from __future__ import annotations

from lrec_battery import VOC
from lreckit.lformula import LFormula, parse_lsexpr
from lreckit.structures import RelStructure

AND = "and"
OR = "or"

# the label formula's test on y1's count i of children that hold
ALL_CHILDREN = "(count-dom u (atom E y1 u) i)"
SOME_CHILD = "(not (num-eq i 0))"


def boolean_value_formula(and_test: str = ALL_CHILDREN,
                          or_test: str = SOME_CHILD) -> LFormula:
    """x holds at resource k iff the subformula rooted at x is true, for
    k at least the subformula's height; the tests of the AND and OR gates
    can be replaced."""
    return parse_lsexpr(
        "(lrec (y1) (y2) (i) (eq y1 y2) (atom E y1 y2)"
        " (or (and (atom Q y1) (num-eq i 0))"
        f" (and (atom P y1) (not (atom Q y1)) {and_test})"
        f" (and (not (atom P y1)) (not (atom Q y1)) {or_test}))"
        " (x) (k))")


BOOLEAN_VALUE = boolean_value_formula()


def encode_tree(children: list[list[int]], labels: list) -> RelStructure:
    """The formula tree on vertices 0..n-1, children[v] the children of v
    and labels[v] AND or OR for a gate, True or False for a leaf: E from
    each gate to its children, P on the AND gates that have children, Q on
    the true leaves."""
    return RelStructure(VOC, len(children), {
        "E": frozenset((v, w) for v, ws in enumerate(children) for w in ws),
        "P": frozenset((v,) for v, ws in enumerate(children)
                       if ws and labels[v] == AND),
        "Q": frozenset((v,) for v, ws in enumerate(children)
                       if not ws and labels[v] is True),
    })


def gate_value(children: list[list[int]], labels: list, v: int) -> bool:
    """The truth value of the subformula rooted at v."""
    if not children[v]:
        return labels[v]
    values = [gate_value(children, labels, w) for w in children[v]]
    return all(values) if labels[v] == AND else any(values)
