"""Hypothesis strategies for single-level recursion formulas.

Formulas are drawn as S-expression data (nested lists of strings) and
built with lformula_from_data. The equality formulas are equivalences by
construction, which the single-level translation requires: `y1 = y2`, or
"y1 and y2 agree on a unary test", optionally or-ed with `y1 = y2`. The
edge and label formulas are arbitrary recursion-free formulas.
"""

from __future__ import annotations

from hypothesis import strategies as st

from lrec_battery import STRUCTURES, _s
from lreckit.lformula import LFormula, lformula_from_data

NUM_CONSTANTS = ("0", "1", "min", "max")
# the free variable of a unary test, renamed to y1 and y2 when it is used
TEST_VAR = "w"


def _form(draw, doms: list[str], nums: list[str], depth: int) -> list:
    """A formula over the domain variables doms and the number variables
    nums, nested at most depth deep. Bound names carry the depth, so an
    inner binder never shadows an outer one."""
    kinds = ["atom", "eq", "num"]
    if depth:
        kinds += ["not", "and", "or", "exists", "count-dom", "num-exists",
                  "count-num"]
    kind = draw(st.sampled_from(kinds))
    dom = st.sampled_from(doms)
    term = st.sampled_from([*nums, *NUM_CONSTANTS])
    if kind == "atom":
        if draw(st.booleans()):
            return ["atom", "E", draw(dom), draw(dom)]
        return ["atom", draw(st.sampled_from(("P", "Q"))), draw(dom)]
    if kind == "eq":
        return ["eq", draw(dom), draw(dom)]
    if kind == "num":
        head = draw(st.sampled_from(("num-le", "num-eq", "num-succ")))
        return [head, draw(term), draw(term)]
    if kind == "not":
        return ["not", _form(draw, doms, nums, depth - 1)]
    if kind in ("and", "or"):
        return [kind, _form(draw, doms, nums, depth - 1),
                _form(draw, doms, nums, depth - 1)]
    if kind in ("num-exists", "count-num"):
        j = f"j{depth}"
        body = _form(draw, doms, [*nums, j], depth - 1)
        if kind == "num-exists":
            return [kind, j, body]
        return [kind, j, body, draw(term)]
    u = f"u{depth}"
    body = _form(draw, [*doms, u], nums, depth - 1)
    if kind == "exists":
        return [kind, u, body]
    return [kind, u, body, draw(term)]


def _rename(data, old: str, new: str):
    if isinstance(data, list):
        return [_rename(d, old, new) for d in data]
    return new if data == old else data


@st.composite
def equivalences(draw, depth: int = 2, params=("x",)) -> list:
    """An equivalence over y1 and y2 whose unary test may read the domain
    parameters `params`."""
    identity = ["eq", "y1", "y2"]
    shape = draw(st.sampled_from(("identity", "agree", "agree or identity")))
    if shape == "identity":
        return identity
    test = _form(draw, [TEST_VAR, *params], ["k"], depth)
    a, b = _rename(test, TEST_VAR, "y1"), _rename(test, TEST_VAR, "y2")
    agree = ["or", ["and", a, b], ["and", ["not", a], ["not", b]]]
    return agree if shape == "agree" else ["or", identity, agree]


@st.composite
def lrec_formulas(draw, depth: int = 2) -> LFormula:
    """`(lrec (y1) (y2) (i) eq edge card (q) (k))` with one resource
    variable k and the query q named x, y1 or y2. The query lies outside
    the binder, so the subformulas read a query named y1 or y2 as the
    bound variable; the equality formula reads the query only when it is
    x, as a captured one would stop it being an equivalence."""
    query = draw(st.sampled_from(("x", "y1", "y2")))
    eq = draw(equivalences(depth, ("x",) if query == "x" else ()))
    edge = _form(draw, ["y1", "y2", query], ["k"], depth)
    card = _form(draw, ["y1", query], ["i", "k"], depth)
    return lformula_from_data(
        ["lrec", ["y1"], ["y2"], ["i"], eq, edge, card, [query], ["k"]])


@st.composite
def _random_structures(draw, max_n: int):
    # largest first: st.integers would draw n = 1 in almost half the cases
    n = draw(st.sampled_from(range(max_n, 0, -1)))
    elem = st.integers(0, n - 1)
    return _s(n, draw(st.sets(st.tuples(elem, elem))),
              p=draw(st.sets(elem)), q=draw(st.sets(elem)))


def structures(max_n: int = 3):
    """A battery structure or a random one over {E, P, Q}, with 1 to max_n
    elements."""
    return st.one_of(
        st.sampled_from([s for s in STRUCTURES if s.n <= max_n]),
        _random_structures(max_n))
