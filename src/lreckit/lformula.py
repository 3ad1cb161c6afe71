"""First-order counting logic with the resource-bounded recursion operator.

LFormula is a two-sorted AST: domain variables range over structure
elements, number variables over 0..n (derived from n, never stored).
The lrec operator quotients a definable graph on k-tuples by a definable
equivalence, labels the classes with admissible child-counts, and asks
whether the queried (class, resource) pair lies in the recursion relation
X computed by the xfix module.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

from .cformula import _check_atom, _names, parse_sexpr_data
from .errors import (
    ArityMismatch,
    ComponentOutOfRange,
    IdOutOfRange,
    MalformedInput,
    RangeViolation,
    SizeExceeded,
    UnboundVariable,
    UnsupportedDimension,
)
from .structures import DiGraph, RelStructure
from .xfix import CardinalityCondition, XInstance, compute_X

LBOOL = "bool"
LEQ = "eq"
LATOM = "atom"
LNOT = "not"
LOR = "or"
LAND = "and"
LEXISTS = "exists"
NUMEXISTS = "num-exists"
NUMLE = "num-le"
NUMSUCC = "num-succ"
NUMEQ = "num-eq"
COUNTDOM = "count-dom"
COUNTNUM = "count-num"
LREC = "lrec"

MAX_NUM_TUPLE = 8
MAX_TUPLE_WIDTH = 3
# the equality, edge and label evaluations of every quotient that one
# evaluation may build
MAX_QUOTIENT_WORK = 2 ** 20

# Number terms: ("var", name) | ("lit", value) | ("min",) | ("max",)


class LFormula:
    """One AST node (a tree, not interned), built by parse_lsexpr."""

    __slots__ = ("kind", "value", "vars", "symbol", "children", "bound_var",
                 "terms", "kappa", "y1", "y2", "iotas", "xs", "kappas",
                 "reads", "dom_free", "num_free")

    def __init__(self, kind, *, value=None, vars=(), symbol=None, children=(),
                 bound_var=None, terms=(), kappa=None,
                 y1=(), y2=(), iotas=(), xs=(), kappas=()):
        self.kind = kind
        self.value = value
        self.vars = tuple(vars)
        self.symbol = symbol
        self.children = tuple(children)
        self.bound_var = bound_var
        self.terms = tuple(terms)
        self.kappa = kappa
        self.y1 = tuple(y1)
        self.y2 = tuple(y2)
        self.iotas = tuple(iotas)
        self.xs = tuple(xs)
        self.kappas = tuple(kappas)

        if kind == LREC:
            k = len(self.y1)
            if not (len(self.y2) == len(self.xs) == k) or k < 1:
                raise ArityMismatch(
                    f"y1/y2/x widths {len(self.y1)}/{len(self.y2)}/{len(self.xs)}"
                    " must be equal and >= 1"
                )
            if not self.iotas or not self.kappas:
                raise ArityMismatch("iota and kappa tuples must be non-empty")
        dom, num = set(), set()
        for child, bound_dom, bound_num in self.scopes():
            dom |= child.dom_free - set(bound_dom)
            num |= child.num_free - set(bound_num)
        # what the subformulas read: for lrec, all that its quotient reads
        self.reads = (frozenset(dom), frozenset(num))
        dom.update(self.vars, self.xs)
        terms = (*self.terms, kappa) if kappa else self.terms
        num.update(self.kappas, (t[1] for t in terms if t[0] == "var"))
        self.dom_free, self.num_free = frozenset(dom), frozenset(num)

    def scopes(self) -> list[tuple]:
        """Each child with the domain and number variables this node binds
        in it: a quantifier binds its variable, and lrec binds y1, y2 in
        its equality and edge formulas and y1 and the iotas in its label
        formula."""
        if self.kind in (LEXISTS, COUNTDOM):
            return [(self.children[0], (self.bound_var,), ())]
        if self.kind in (NUMEXISTS, COUNTNUM):
            return [(self.children[0], (), (self.bound_var,))]
        if self.kind == LREC:
            eq_f, edge_f, card_f = self.children
            pair = self.y1 + self.y2
            return [(eq_f, pair, ()), (edge_f, pair, ()),
                    (card_f, self.y1, self.iotas)]
        return [(c, (), ()) for c in self.children]

    def contains_lrec(self) -> bool:
        if self.kind == LREC:
            return True
        return any(c.contains_lrec() for c in self.children)

    def __repr__(self):
        return f"<LFormula {print_lsexpr(self)}>"


@dataclass
class TwoSortedAssignment:
    """Domain-variable and number-variable maps (numbers range over 0..n)."""

    dom: dict[str, int] = field(default_factory=dict)
    num: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "TwoSortedAssignment":
        return TwoSortedAssignment(dict(self.dom), dict(self.num))


def decode_number(values, n: int) -> int:
    """Interpret a tuple of number values as one base-(n+1) numeral,
    least-significant component first."""
    values = tuple(values)
    if len(values) > MAX_NUM_TUPLE:
        raise SizeExceeded(f"number tuple of width {len(values)} exceeds "
                           f"{MAX_NUM_TUPLE}")
    total = 0
    for j, v in enumerate(values):
        if not (0 <= v <= n):
            raise ComponentOutOfRange(f"component {v} not in [0, {n}]")
        total += v * (n + 1) ** j
    return total


def term_value(term: tuple, num: dict[str, int], n: int) -> int:
    """Value of a number term under the number assignment num, on a
    structure with n elements."""
    if term[0] == "var":
        if term[1] not in num:
            raise UnboundVariable(f"number variable {term[1]!r} unassigned")
        return num[term[1]]
    if term[0] == "lit":
        if term[1] > n:
            raise RangeViolation(f"literal {term[1]} exceeds n={n}")
        return term[1]
    if term[0] == "min":
        return 0
    if term[0] == "max":
        return n
    raise MalformedInput(f"unknown number term {term!r}")


class LEvaluator:
    """Memoizing two-sorted model checker; handles lrec recursively."""

    def __init__(self, structure: RelStructure):
        self.structure = structure
        self._memo: dict[tuple, bool] = {}
        # lrec quotients: (XInstance, class index) per _key of f.reads
        self._quotients: dict[tuple, tuple] = {}

    def eval(self, f: LFormula, a: TwoSortedAssignment | None = None) -> bool:
        """Truth of f under a. Raises IdOutOfRange for a domain value that
        is not an int in [0, n), RangeViolation for a number value that is
        not an int in [0, n], and UnboundVariable for a free variable of f
        that a leaves unassigned."""
        a = a or TwoSortedAssignment()
        n = self.structure.n
        for name, value in a.dom.items():
            if type(value) is not int or not 0 <= value < n:
                raise IdOutOfRange(f"{name}={value!r} is not an id in [0, {n})")
        for name, value in a.num.items():
            if type(value) is not int or not 0 <= value <= n:
                raise RangeViolation(f"number {name}={value!r} not in [0, {n}]")
        missing_d = f.dom_free - a.dom.keys()
        missing_n = f.num_free - a.num.keys()
        if missing_d or missing_n:
            raise UnboundVariable(
                f"unassigned variables: {sorted(missing_d | missing_n)}"
            )
        self._check_work(f)
        return self._eval(f, a)

    def _check_work(self, top: LFormula) -> None:
        """Refuse top before any quotient is built if its lrec nodes could
        take more than MAX_QUOTIENT_WORK evaluations in all.

        An lrec node g builds one quotient, of n^(2k) + n^k (n+1)^w equality,
        edge and label evaluations, per assignment of g.reads that top's
        assignment leaves open: of those variables that are not free in top
        or are bound again on the way to g."""
        n = self.structure.n
        total = 0
        stack = [(top, top.dom_free, top.num_free)]
        while stack:
            g, dom, num = stack.pop()
            if g.kind == LREC:
                k, w = len(g.y1), len(g.iotas)
                if k > MAX_TUPLE_WIDTH:
                    raise UnsupportedDimension(
                        f"tuple width {k} exceeds {MAX_TUPLE_WIDTH}")
                if w > MAX_NUM_TUPLE:
                    # every class label would enumerate (n+1)**w tuples
                    raise SizeExceeded(
                        f"iota width {w} exceeds {MAX_NUM_TUPLE}")
                total += ((n ** (2 * k) + n ** k * (n + 1) ** w)
                          * n ** len(g.reads[0] - dom)
                          * (n + 1) ** len(g.reads[1] - num))
            stack += [(c, dom - set(bound_dom), num - set(bound_num))
                      for c, bound_dom, bound_num in g.scopes()]
        if total > MAX_QUOTIENT_WORK:
            raise SizeExceeded(
                f"quotient work {total} exceeds {MAX_QUOTIENT_WORK}")

    @staticmethod
    def _key(f: LFormula, a: TwoSortedAssignment, dom, num) -> tuple:
        # Keyed on the node itself (identity hash): the memo keeps f alive,
        # so a later node can never take over its key.
        return (f, tuple(sorted((v, a.dom[v]) for v in dom)),
                tuple(sorted((v, a.num[v]) for v in num)))

    def _eval(self, f: LFormula, a: TwoSortedAssignment) -> bool:
        key = self._key(f, a, f.dom_free, f.num_free)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._eval_inner(f, a)
        self._memo[key] = result
        return result

    def _bodies(self, f: LFormula, a: TwoSortedAssignment):
        """The value of f's body for each value of its bound variable:
        over the domain [0, n) or over the numbers [0, n]."""
        sub = a.copy()
        if f.kind in (LEXISTS, COUNTDOM):
            values, top = sub.dom, self.structure.n
        else:
            values, top = sub.num, self.structure.n + 1
        for v in range(top):
            values[f.bound_var] = v
            yield self._eval(f.children[0], sub)

    def _eval_inner(self, f: LFormula, a: TwoSortedAssignment) -> bool:
        s = self.structure
        n = s.n
        if f.kind == LBOOL:
            return f.value
        if f.kind == LEQ:
            return a.dom[f.vars[0]] == a.dom[f.vars[1]]
        if f.kind == LATOM:
            _check_atom(f, s)
            return tuple(a.dom[v] for v in f.vars) in s.rel(f.symbol)
        if f.kind == LNOT:
            return not self._eval(f.children[0], a)
        if f.kind == LOR:
            return any(self._eval(c, a) for c in f.children)
        if f.kind == LAND:
            return all(self._eval(c, a) for c in f.children)
        if f.kind in (LEXISTS, NUMEXISTS):
            return any(self._bodies(f, a))
        if f.kind in (COUNTDOM, COUNTNUM):
            return sum(self._bodies(f, a)) == term_value(f.kappa, a.num, n)
        if f.kind == NUMLE:
            return term_value(f.terms[0], a.num, n) <= term_value(f.terms[1], a.num, n)
        if f.kind == NUMSUCC:
            return term_value(f.terms[0], a.num, n) + 1 == term_value(f.terms[1], a.num, n)
        if f.kind == NUMEQ:
            return term_value(f.terms[0], a.num, n) == term_value(f.terms[1], a.num, n)
        if f.kind == LREC:
            return self._eval_lrec(f, a)
        raise AssertionError(f.kind)

    def _eval_lrec(self, f: LFormula, a: TwoSortedAssignment) -> bool:
        """Look the queried class and resource up in X of f's quotient,
        built once per assignment of f.reads."""
        key = self._key(f, a, *f.reads)
        quotient = self._quotients.get(key)
        if quotient is None:
            quotient = self._quotients[key] = self._quotient(f, a)
        inst, index = quotient
        resource = decode_number(tuple(a.num[v] for v in f.kappas),
                                 self.structure.n)
        if resource < 1:
            return False
        return compute_X(inst, index[tuple(a.dom[v] for v in f.xs)], resource)

    def _quotient(self, f: LFormula, a: TwoSortedAssignment) -> tuple:
        """Contract the definable graph on V^k by the reflexive, symmetric
        and transitive closure of the equality formula (with a warning when
        closure changed it), and label each class with the encoded
        iota-tuples that satisfy the card formula for any member.

        The inner evaluations skip eval's checks: the public eval already
        checked the assignment and bounded the work of every lrec below."""
        eq_f, edge_f, card_f = f.children
        n, k, w = self.structure.n, len(f.y1), len(f.iotas)
        verts = list(itertools.product(range(n), repeat=k))

        def with_tuple(base, names, tup):
            out = base.copy()
            out.dom.update(zip(names, tup))
            return out

        def pairs(g: LFormula):
            # every (u, v) in V^k x V^k that satisfies g
            for u in verts:
                au = with_tuple(a, f.y1, u)
                for v in verts:
                    if self._eval(g, with_tuple(au, f.y2, v)):
                        yield u, v

        # RST closure = connected components of the symmetrized relation,
        # with every vertex reflexively in its own component.
        parent = {u: u for u in verts}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        raw = 0
        for u, v in pairs(eq_f):
            raw += 1
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv

        groups: dict[tuple, list] = {}
        for u in verts:
            groups.setdefault(find(u), []).append(u)
        # verts is sorted, so each group is, and its first member is least
        classes = sorted(groups.values())
        # the raw relation is a subset of its closure, which holds len(cls)**2
        # pairs per class; so the two differ exactly when their sizes do.
        if raw != sum(len(cls) ** 2 for cls in classes):
            warnings.warn(
                "equivalence formula was not an equivalence relation; "
                "its reflexive-symmetric-transitive closure is used"
            )
        index = {u: idx for idx, members in enumerate(classes) for u in members}
        edges = frozenset((index[u], index[v]) for u, v in pairs(edge_f))

        labels: list[set[int]] = [set() for _ in classes]
        for u in verts:
            au = with_tuple(a, f.y1, u)
            for ivals in itertools.product(range(n + 1), repeat=w):
                sub = au.copy()
                sub.num.update(zip(f.iotas, ivals))
                if self._eval(card_f, sub):
                    labels[index[u]].add(decode_number(ivals, n))

        # Labels above a class's out-degree are unattainable but harmless;
        # keeping them does not change X.
        return (XInstance(DiGraph(len(classes), edges),
                          CardinalityCondition(tuple(map(frozenset, labels)))),
                index)


def eval_lrec(s: RelStructure, f: LFormula,
              a: TwoSortedAssignment | None = None) -> bool:
    """Evaluate any formula, recursion operators included."""
    return LEvaluator(s).eval(f, a)


# --- S-expression serialization -------------------------------------------

def _print_term(term: tuple) -> str:
    if term[0] == "var":
        return term[1]
    if term[0] == "lit":
        return str(term[1])
    return term[0]  # min / max


def print_lsexpr(f: LFormula) -> str:
    if f.kind == LBOOL:
        return f"(bool {'t' if f.value else 'f'})"
    if f.kind == LEQ:
        return f"(eq {f.vars[0]} {f.vars[1]})"
    if f.kind == LATOM:
        return f"(atom {f.symbol} {' '.join(f.vars)})"
    if f.kind == LNOT:
        return f"(not {print_lsexpr(f.children[0])})"
    if f.kind in (LOR, LAND):
        inner = " ".join(print_lsexpr(c) for c in f.children)
        return f"({f.kind} {inner})"
    if f.kind in (LEXISTS, NUMEXISTS):
        return f"({f.kind} {f.bound_var} {print_lsexpr(f.children[0])})"
    if f.kind in (NUMLE, NUMSUCC, NUMEQ):
        return f"({f.kind} {_print_term(f.terms[0])} {_print_term(f.terms[1])})"
    if f.kind in (COUNTDOM, COUNTNUM):
        return (f"({f.kind} {f.bound_var} {print_lsexpr(f.children[0])} "
                f"{_print_term(f.kappa)})")
    if f.kind == LREC:
        eq_f, edge_f, card_f = f.children
        return ("(lrec (" + " ".join(f.y1) + ") (" + " ".join(f.y2) + ") ("
                + " ".join(f.iotas) + ") " + print_lsexpr(eq_f) + " "
                + print_lsexpr(edge_f) + " " + print_lsexpr(card_f)
                + " (" + " ".join(f.xs) + ") (" + " ".join(f.kappas) + "))")
    raise AssertionError(f.kind)


def _term_from_token(tok) -> tuple:
    if not isinstance(tok, str):
        raise MalformedInput(f"expected a number term, got {tok!r}")
    if tok in ("min", "max"):
        return (tok,)
    # ASCII digits only: "٣" is a name, not the literal 3
    if tok.isascii() and tok.isdecimal():
        return ("lit", int(tok))
    return ("var", tok)


def lformula_from_data(data) -> LFormula:
    """Build the node tree of a parsed S-expression; each kind constant is
    the head of its form."""
    if not isinstance(data, list) or not data:
        raise MalformedInput(f"expected a list form, got {data!r}")
    head = data[0]
    if head == LBOOL:
        if len(data) != 2 or data[1] not in ("t", "f"):
            raise MalformedInput("(bool t|f)")
        return LFormula(LBOOL, value=data[1] == "t")
    if head == LEQ:
        if len(data) != 3:
            raise MalformedInput("(eq x y)")
        return LFormula(LEQ, vars=_names(data[1:], "(eq x y)"))
    if head == LATOM:
        if len(data) < 3:
            raise MalformedInput("(atom SYM x...)")
        symbol, *vars = _names(data[1:], "(atom SYM x...)")
        return LFormula(LATOM, symbol=symbol, vars=vars)
    if head == LNOT:
        if len(data) != 2:
            raise MalformedInput("(not f)")
        return LFormula(LNOT, children=(lformula_from_data(data[1]),))
    if head in (LOR, LAND):
        return LFormula(head, children=[lformula_from_data(d) for d in data[1:]])
    if head in (LEXISTS, "forall", NUMEXISTS):
        if len(data) != 3 or not isinstance(data[1], str):
            raise MalformedInput(f"({head} x f)")
        body = lformula_from_data(data[2])
        if head == "forall":  # not (exists x (not f))
            body = LFormula(LNOT, children=(body,))
            return LFormula(LNOT, children=(
                LFormula(LEXISTS, bound_var=data[1], children=(body,)),))
        return LFormula(head, bound_var=data[1], children=(body,))
    if head in (NUMLE, NUMSUCC, NUMEQ):
        if len(data) != 3:
            raise MalformedInput(f"({head} t1 t2)")
        return LFormula(head, terms=map(_term_from_token, data[1:]))
    if head in (COUNTDOM, COUNTNUM):
        if len(data) != 4 or not isinstance(data[1], str):
            raise MalformedInput(f"({head} x f k)")
        return LFormula(head, bound_var=data[1],
                        children=(lformula_from_data(data[2]),),
                        kappa=_term_from_token(data[3]))
    if head == LREC:
        if len(data) != 9:
            raise MalformedInput(
                "(lrec (y1...) (y2...) (i...) eq-f edge-f card-f (x...) (k...))"
            )
        return LFormula(
            LREC, y1=_names(data[1], "y1"), y2=_names(data[2], "y2"),
            iotas=_names(data[3], "iota"),
            children=[lformula_from_data(d) for d in data[4:7]],
            xs=_names(data[7], "x"), kappas=_names(data[8], "kappa"),
        )
    raise MalformedInput(f"unknown form {head!r}")


def parse_lsexpr(text: str) -> LFormula:
    return lformula_from_data(parse_sexpr_data(text))
