"""Fixed battery of single-level recursion formulas and small structures.

Every formula has recursion-free first-order subformulas, tuple width 1,
one queried element x and one or two resource variables. The equality
subformulas are genuine equivalence relations, which the single-level
translation requires.
"""

from __future__ import annotations

import itertools

from lreckit.cformula import TableEvaluator
from lreckit.compile import QUERY_VAR, FormulaCache, translate_lrec_once
from lreckit.lformula import TwoSortedAssignment, eval_lrec, parse_lsexpr
from lreckit.structures import RelStructure, Vocabulary

VOC = Vocabulary((("E", 2), ("P", 1), ("Q", 1)))


def _s(n, edges, p=(), q=()):
    return RelStructure(
        VOC,
        n,
        {
            "E": frozenset(edges),
            "P": frozenset((v,) for v in p),
            "Q": frozenset((v,) for v in q),
        },
    )


# structures with at most 4 elements, mixing sinks, loops, cycles and
# label patterns; the last two are used only with one resource variable
STRUCTURES = [
    _s(2, [(0, 1)], p=[0], q=[1]),
    _s(2, [(0, 1), (1, 0)], p=[0]),
    _s(2, [(0, 0), (0, 1)], q=[1]),
    _s(3, [(0, 1), (1, 2)], p=[0, 2], q=[1]),
    _s(3, [(0, 1), (0, 2), (1, 2), (2, 2)], p=[1], q=[2]),
    _s(3, [(0, 1), (1, 0), (2, 1)], p=[2]),
    _s(4, [(0, 1), (1, 2), (2, 3), (3, 0)], p=[0, 2], q=[1, 3]),
    _s(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 3)], p=[3], q=[1, 2]),
]

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


def _lrec(eq, edge, card, kappas):
    return parse_lsexpr(
        "(lrec (y1) (y2) (i) " + eq + " " + edge + " " + card
        + " (x) (" + " ".join(kappas) + "))"
    )


def _battery():
    one = ("k",)
    two = ("k1", "k2")
    combos = [
        (EQ_ID, EDGE_PLAIN, CARD_ZERO, one),
        (EQ_ID, EDGE_PLAIN, CARD_LE1, one),
        (EQ_ID, EDGE_PLAIN, CARD_BY_P, one),
        (EQ_ID, EDGE_PLAIN, CARD_BY_Q, one),
        (EQ_ID, EDGE_PLAIN, CARD_DEG, one),
        (EQ_ID, EDGE_PLAIN, CARD_SUCC, one),
        (EQ_ID, EDGE_REV, CARD_BY_P, one),
        (EQ_ID, EDGE_REV, CARD_PARITY, one),
        (EQ_ID, EDGE_SYM, CARD_BY_P, one),
        (EQ_ID, EDGE_SYM, CARD_LE1, one),
        (EQ_ID, EDGE_TO_P, CARD_ZERO, one),
        (EQ_ID, EDGE_TO_P, CARD_BY_Q, one),
        (EQ_ID, EDGE_STRICT, CARD_BY_P, one),
        (EQ_ID, EDGE_STRICT, CARD_DEG, one),
        (EQ_ID, EDGE_TWO_STEP, CARD_LE1, one),
        (EQ_ID, EDGE_FROM_Q, CARD_BY_P, one),
        (EQ_ID, EDGE_NONE, CARD_ZERO, one),
        (EQ_ID, EDGE_NONE, CARD_ALL, one),
        (EQ_SAME_P, EDGE_PLAIN, CARD_ZERO, one),
        (EQ_SAME_P, EDGE_SYM, CARD_LE1, one),
        (EQ_SAME_P, EDGE_TO_P, CARD_BY_Q, one),
        (EQ_ID, EDGE_PLAIN, CARD_BY_P, two),
        (EQ_ID, EDGE_STRICT, CARD_LE1, two),
        (EQ_SAME_P, EDGE_PLAIN, CARD_ZERO, two),
    ]
    return [(eq, edge, card, kappas, _lrec(eq, edge, card, kappas))
            for eq, edge, card, kappas in combos]


BATTERY = _battery()

# two-resource formulas use r=2 compilation, which is only desk-sized on
# the two-element structures
MAX_N_TWO_KAPPA = 2


def resource_tuples(n: int, width: int):
    """Every width-tuple over [0, n] whose encoded value is at most
    (n+1)^2; for width <= 2 that is every tuple."""
    bound = (n + 1) ** 2
    for tup in itertools.product(range(n + 1), repeat=width):
        if sum(m * (n + 1) ** j for j, m in enumerate(tup)) <= bound:
            yield tup


def run_battery(cache: FormulaCache | None = None):
    """Sweep the full battery; returns (checked, mismatches)."""
    cache = cache if cache is not None else FormulaCache()
    checked = 0
    mismatches = []
    for fid, (eq, edge, card, kappas, f) in enumerate(BATTERY):
        for sid, s in enumerate(STRUCTURES):
            if len(kappas) == 2 and s.n > MAX_N_TWO_KAPPA:
                continue
            # one evaluator per formula and structure: the translations of
            # all resource tuples share its tables
            ev = TableEvaluator(s)
            for tup in resource_tuples(s.n, len(kappas)):
                cf = translate_lrec_once(f, s.n, tup, cache)
                for v in range(s.n):
                    want = eval_lrec(
                        s, f,
                        TwoSortedAssignment({"x": v}, dict(zip(kappas, tup))),
                    )
                    got = ev.eval(cf, {QUERY_VAR: v})
                    checked += 1
                    if got != want:
                        mismatches.append((fid, sid, tup, v, got, want))
    return checked, mismatches
