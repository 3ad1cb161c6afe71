"""The single-level recursion battery, carried by the benchmark itself.

Twenty-four lrec formulas over the vocabulary {E, P, Q} (formulas 21-23
use two resource variables) and eight structures with at most four
elements. The data repeats the acceptance battery on purpose: the
benchmark must not move when the test harness changes.
"""

from __future__ import annotations

VOCABULARY = (("E", 2), ("P", 1), ("Q", 1))

# (n, edges, P, Q); formulas with two resource variables run only on the
# two-element structures, as in the acceptance battery
STRUCTURES = (
    (2, ((0, 1),), (0,), (1,)),
    (2, ((0, 1), (1, 0)), (0,), ()),
    (2, ((0, 0), (0, 1)), (), (1,)),
    (3, ((0, 1), (1, 2)), (0, 2), (1,)),
    (3, ((0, 1), (0, 2), (1, 2), (2, 2)), (1,), (2,)),
    (3, ((0, 1), (1, 0), (2, 1)), (2,), ()),
    (4, ((0, 1), (1, 2), (2, 3), (3, 0)), (0, 2), (1, 3)),
    (4, ((0, 1), (0, 2), (1, 3), (2, 3), (3, 3)), (3,), (1, 2)),
)

EQ_ID = "(eq y1 y2)"
EQ_SAME_P = ("(or (and (atom P y1) (atom P y2))"
             " (and (not (atom P y1)) (not (atom P y2))))")

EDGE_PLAIN = "(atom E y1 y2)"
EDGE_REV = "(atom E y2 y1)"
EDGE_SYM = "(or (atom E y1 y2) (atom E y2 y1))"
EDGE_TO_P = "(and (atom E y1 y2) (atom P y2))"
EDGE_STRICT = "(and (atom E y1 y2) (not (eq y1 y2)))"
EDGE_TWO_STEP = "(exists u (and (atom E y1 u) (atom E u y2)))"
EDGE_FROM_Q = "(and (atom Q y1) (atom E y1 y2))"
EDGE_NONE = "(bool f)"

CARD_ZERO = "(num-eq i 0)"
CARD_LE1 = "(num-le i 1)"
CARD_BY_P = ("(or (and (atom P y1) (num-eq i 1))"
             " (and (not (atom P y1)) (num-eq i 0)))")
CARD_BY_Q = ("(or (and (atom Q y1) (num-le i 1))"
             " (and (not (atom Q y1)) (num-eq i 2)))")
CARD_DEG = "(count-dom u (atom E y1 u) i)"
CARD_PARITY = "(or (num-eq i 0) (num-eq i 2))"
CARD_ALL = "(num-le i max)"
CARD_SUCC = "(num-exists j (and (num-succ j i) (atom P y1)))"

ONE = ("k",)
TWO = ("k1", "k2")

# (equality, edge, cardinality, resource variables)
COMBOS = (
    (EQ_ID, EDGE_PLAIN, CARD_ZERO, ONE),
    (EQ_ID, EDGE_PLAIN, CARD_LE1, ONE),
    (EQ_ID, EDGE_PLAIN, CARD_BY_P, ONE),
    (EQ_ID, EDGE_PLAIN, CARD_BY_Q, ONE),
    (EQ_ID, EDGE_PLAIN, CARD_DEG, ONE),
    (EQ_ID, EDGE_PLAIN, CARD_SUCC, ONE),
    (EQ_ID, EDGE_REV, CARD_BY_P, ONE),
    (EQ_ID, EDGE_REV, CARD_PARITY, ONE),
    (EQ_ID, EDGE_SYM, CARD_BY_P, ONE),
    (EQ_ID, EDGE_SYM, CARD_LE1, ONE),
    (EQ_ID, EDGE_TO_P, CARD_ZERO, ONE),
    (EQ_ID, EDGE_TO_P, CARD_BY_Q, ONE),
    (EQ_ID, EDGE_STRICT, CARD_BY_P, ONE),
    (EQ_ID, EDGE_STRICT, CARD_DEG, ONE),
    (EQ_ID, EDGE_TWO_STEP, CARD_LE1, ONE),
    (EQ_ID, EDGE_FROM_Q, CARD_BY_P, ONE),
    (EQ_ID, EDGE_NONE, CARD_ZERO, ONE),
    (EQ_ID, EDGE_NONE, CARD_ALL, ONE),
    (EQ_SAME_P, EDGE_PLAIN, CARD_ZERO, ONE),
    (EQ_SAME_P, EDGE_SYM, CARD_LE1, ONE),
    (EQ_SAME_P, EDGE_TO_P, CARD_BY_Q, ONE),
    (EQ_ID, EDGE_PLAIN, CARD_BY_P, TWO),
    (EQ_ID, EDGE_STRICT, CARD_LE1, TWO),
    (EQ_SAME_P, EDGE_PLAIN, CARD_ZERO, TWO),
)


def lrec_text(eq: str, edge: str, card: str, kappas) -> str:
    """The S-expression of one battery formula: tuple width 1, queried
    element x, resource variables `kappas`."""
    return (f"(lrec (y1) (y2) (i) {eq} {edge} {card} (x) "
            f"({' '.join(kappas)}))")
