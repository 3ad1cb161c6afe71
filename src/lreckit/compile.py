"""Compiler from the recursion relation X to counting-logic formulas.

Given a size bound n and resource-width exponent r, compile_x_formula
produces a formula phi_i(x) over the vocabulary {E, P_0..P_n} that holds
at a vertex v of an encoded instance exactly when (v, i) lies in X. The
formula families mirror the balanced decomposition: type-0 formulas
verify membership outright, type-1 formulas verify it relative to one
waypoint pair whose child-count is assumed. Quantifier depth stays
O(r log n) and the number of variable names is a constant.

translate_lrec_once then turns a single recursion operator over
recursion-free subformulas into one counting-logic formula on the source
vocabulary by substituting definable equality/edge/label tests for the
atoms of the compiled formula.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .cformula import (
    AND,
    ATOM,
    BOOL,
    COUNT,
    EQ,
    EQN,
    GE,
    LE,
    NOT,
    OR,
    CFormula,
    Interner,
    TableEvaluator,
    mk_and,
    mk_atom,
    mk_bool,
    mk_count,
    mk_eq,
    mk_exists,
    mk_forall,
    mk_not,
    mk_or,
    dag_size,
    nodes,
    nvars,
    qdepth,
    tree_size,
)
from .errors import (
    ArityMismatch,
    MalformedInput,
    NestedLrec,
    RangeViolation,
    TupleWidthUnsupported,
    UnboundVariable,
)
from .lformula import (
    COUNTDOM,
    COUNTNUM,
    LATOM,
    LAND,
    LBOOL,
    LEQ,
    LEXISTS,
    LFormula,
    LNOT,
    LOR,
    LREC,
    NUMEQ,
    NUMEXISTS,
    NUMLE,
    NUMSUCC,
    decode_number,
    term_value,
)
from .xfix import XInstance, compute_X, encode_tau_n

PALETTE = ("x", "y", "z", "u", "v", "w")
# Reserved names never drawn from the palette: the query variable of a
# translated recursion formula and the two substitution auxiliaries.
QUERY_VAR = "q"
SUBST_VARS = ("s1", "s2")


def _fresh(avoid) -> str:
    for name in PALETTE:
        if name not in avoid:
            return name
    raise AssertionError("palette exhausted")


@dataclass(frozen=True)
class CompileParams:
    """Size bound n and resource-width exponent r; resources range in
    [1, (n+1)^r] and H budgets the doubling recursion."""

    n: int
    r: int

    def __post_init__(self):
        if self.n < 1:
            raise MalformedInput(f"n must be >= 1, got {self.n}")
        if not (1 <= self.r <= 2):
            raise RangeViolation(f"r must be in [1, 2], got {self.r}")

    @property
    def H(self) -> int:
        # ceil((4r+2) * log2(n+1)), computed exactly:
        # smallest H with 2^H >= (n+1)^(4r+2)
        return ((self.n + 1) ** (4 * self.r + 2) - 1).bit_length()


class FormulaCache:
    """Memo from (family name, n, indices, variable names) to interned
    nodes, filled by the compiler families through `_family`.

    The recursive definitions would blow up as trees, so every family call
    goes through the cache. The cache owns the interner its nodes are built
    on: the one passed in, or a fresh one. It also keeps the memos of
    `translate_lrec_once`, so every translation on it shares them.
    """

    def __init__(self, interner: Interner | None = None):
        self.interner = interner if interner is not None else Interner()
        self._memo: dict[tuple, CFormula] = {}
        # (lrec formula, n, values of the resource variables its
        # subformulas read) -> (node mapping, psi memo, size_test memo,
        # at_least memo)
        self._translations: dict[tuple, tuple[dict, dict, dict, dict]] = {}

    def get(self, key: tuple) -> CFormula | None:
        return self._memo.get(key)

    def __len__(self):
        return len(self._memo)


def _family(build):
    """Memoise a formula family on the cache it is called with, keyed on
    the family's name and its positional arguments."""
    @functools.wraps(build)
    def family(*args, cache: FormulaCache) -> CFormula:
        key = (build.__name__, *args)
        f = cache.get(key)
        if f is None:
            f = cache._memo[key] = build(*args, cache=cache)
        return f

    return family


def deg_formula(d: int, target: str, aux: str, interner: Interner) -> CFormula:
    """In-degree test: exactly d elements with an edge into target."""
    if d < 0:
        raise RangeViolation(f"degree {d} out of range")
    if aux == target:
        raise MalformedInput("aux variable must differ from target")
    return mk_count(EQN, d, aux, mk_atom("E", (aux, target), interner), interner)


@_family
def path_formula(n: int, h: int, l: int, lp: int, x: str, y: str, *,
                 cache: FormulaCache) -> CFormula:
    """Resource-annotated reachability: a walk from (x, l) to (y, lp) in
    the unfolded recursion DAG, verifiable in h doubling steps."""
    itn = cache.interner
    if h == 0:
        if l == lp:
            return mk_eq(x, y, itn)
        aux = _fresh({x, y})
        degs = [
            deg_formula(d, y, aux, itn)
            for d in range(1, n + 1)
            if (l - 1) // d == lp
        ]
        return mk_and([mk_atom("E", (x, y), itn), mk_or(degs, itn)], itn)
    z = _fresh({x, y})
    options = [
        mk_and([path_formula(n, h - 1, l, j, x, z, cache=cache),
                path_formula(n, h - 1, j, lp, z, y, cache=cache)], itn)
        for j in range(lp, l + 1)
    ]
    return mk_exists(z, mk_or(options, itn), itn)


@_family
def psi_t0(n: int, h: int, ip: int, x: str, *,
           cache: FormulaCache) -> CFormula:
    """Type-0 family: (x, ip) lies in X, verifiable in h recursion steps."""
    itn = cache.interner
    if ip <= 0:
        return mk_bool(False, itn)
    y = _fresh({x})
    if h == 0:
        aux = _fresh({x, y})
        # The degree disjunction starts at i': the node is a leaf exactly
        # when every successor's in-degree is at least i'.
        degs = [deg_formula(d, y, aux, itn) for d in range(ip, n + 1)]
        return mk_and([
            mk_atom("P0", (x,), itn),
            mk_forall(y, mk_or([mk_not(mk_atom("E", (x, y), itn), itn),
                                mk_or(degs, itn)], itn), itn),
        ], itn)
    base = psi_t0(n, 0, ip, x, cache=cache)
    options = [
        mk_and([
            path_formula(n, h, ip, l, x, y, cache=cache),
            children_t0(n, h - 1, l, c, y, cache=cache),
            psi_t1(n, h - 1, ip, l, c, x, y, cache=cache),
        ], itn)
        # l = ip is the degenerate split at (x, ip) itself: the path
        # collapses to x = y and the type-1 conjunct to P_c(x), giving the
        # direct child-count check; without it the type-1 family never
        # reaches its diagonal base case
        for l in range(1, ip + 1)
        for c in range(0, n + 1)
    ]
    return mk_or([base, mk_exists(y, mk_or(options, itn), itn)], itn)


@_family
def children_t0(n: int, h: int, l: int, c: int, y: str, *,
                cache: FormulaCache) -> CFormula:
    """(y, l) admits exactly c type-0 children inside X."""
    itn = cache.interner
    z = _fresh({y})
    aux = _fresh({y, z})
    per_d = [
        mk_and([deg_formula(d, z, aux, itn),
                psi_t0(n, h, (l - 1) // d, z, cache=cache)], itn)
        for d in range(1, n + 1)
    ]
    body = mk_and([mk_atom("E", (y, z), itn), mk_or(per_d, itn)], itn)
    return mk_count(EQN, c, z, body, itn)


@_family
def psi_t1(n: int, h: int, ip: int, j: int, c: int, x: str, y: str, *,
           cache: FormulaCache) -> CFormula:
    """Type-1 family: (x, ip) lies in X, verifiable in h steps while
    stopping at the waypoint (y, j), assumed to have exactly c in-X
    children."""
    itn = cache.interner
    if ip <= 0 or j <= 0:
        return mk_bool(False, itn)
    if ip == j and c <= n:
        base = mk_and([mk_atom(f"P{c}", (x,), itn), mk_eq(x, y, itn)], itn)
    else:
        base = mk_bool(False, itn)
    if h == 0:
        return base
    z = _fresh({x, y})
    options = [
        mk_and([
            path_formula(n, h, ip, l, x, z, cache=cache),
            path_formula(n, h, l, j, z, y, cache=cache),
            children_t1(n, h - 1, l, j, c, cp, z, y, cache=cache),
            psi_t1(n, h - 1, ip, l, cp, x, z, cache=cache),
        ], itn)
        # l = ip reaches the diagonal base case via the degenerate split at
        # (x, ip) itself
        for l in range(j + 1, ip + 1)
        for cp in range(0, n + 1)
    ]
    return mk_or([base, mk_exists(z, mk_or(options, itn), itn)], itn)


@_family
def children_t1(n: int, h: int, l: int, j: int, c: int, cp: int, z: str,
                y: str, *, cache: FormulaCache) -> CFormula:
    """(z, l) admits exactly cp children inside X, given that the waypoint
    (y, j) has exactly c; children above the waypoint recurse as type 1,
    the rest as type 0."""
    itn = cache.interner
    zp = _fresh({z, y})
    aux = _fresh({z, y, zp})
    per_d = []
    for d in range(1, n + 1):
        lnext = (l - 1) // d
        above = path_formula(n, h, lnext, j, zp, y, cache=cache)
        branch = mk_or([
            mk_and([psi_t0(n, h, lnext, zp, cache=cache),
                    mk_not(above, itn)], itn),
            mk_and([psi_t1(n, h, lnext, j, c, zp, y, cache=cache),
                    above], itn),
        ], itn)
        per_d.append(mk_and([deg_formula(d, zp, aux, itn), branch], itn))
    body = mk_and([mk_atom("E", (z, zp), itn), mk_or(per_d, itn)], itn)
    return mk_count(EQN, cp, zp, body, itn)


def compile_x_formula(params: CompileParams, i: int, x: str = "x", *,
                      cache: FormulaCache) -> CFormula:
    """The formula phi_i(x) deciding (x, i) in X on encoded instances of
    size at most n."""
    if not (1 <= i <= (params.n + 1) ** params.r):
        raise RangeViolation(
            f"resource {i} not in [1, {(params.n + 1) ** params.r}]"
        )
    return psi_t0(params.n, params.H, i, x, cache=cache)


def check_against_oracle(params: CompileParams, instances,
                         cache: FormulaCache) -> tuple[int, list[dict]]:
    """Evaluate phi_1..phi_{n+1} at every vertex of every (graph,
    condition) instance, encoded for size bound n, and compare with
    compute_X. Returns the number of checks and the disagreements."""
    formulas = {i: compile_x_formula(params, i, cache=cache)
                for i in range(1, params.n + 2)}
    checked = 0
    mismatches = []
    for idx, (g, c) in enumerate(instances):
        ev = TableEvaluator(encode_tau_n(g, c, params.n))
        inst = XInstance(g, c)
        for i, f in formulas.items():
            for v in range(g.n):
                got, want = ev.eval(f, {"x": v}), compute_X(inst, v, i)
                if got != want:
                    mismatches.append({"instance": idx, "v": v, "i": i,
                                       "compiled": got, "oracle": want})
        checked += len(formulas) * g.n
    return checked, mismatches


def formula_stats(f: CFormula) -> dict:
    """Quantifier depth, variable count, DAG size, expanded-tree size."""
    return {
        "qd": qdepth(f),
        "nvars": nvars(f),
        "dag_size": dag_size(f),
        "tree_size": tree_size(f),
    }


# --- number elimination ----------------------------------------------------

def eliminate_numbers(lf: LFormula, dom_map: dict[str, str],
                      num_map: dict[str, int], n: int,
                      interner: Interner) -> CFormula:
    """Turn a recursion-free two-sorted formula into a counting-logic
    formula, valid on structures of size exactly n.

    Number quantifiers become disjunctions over [0, n]; # over numbers
    becomes a boolean combination of the per-value instances; numeric
    atoms collapse to constants. Free domain variables are renamed via
    dom_map; bound ones get depth-indexed names (b0, b1, ...) so no
    instantiation can capture them.
    """
    itn = interner

    def go(f: LFormula, dmap, nmap, depth) -> CFormula:
        if f.kind == LBOOL:
            return mk_bool(f.value, itn)
        if f.kind == LEQ:
            return mk_eq(dmap[f.vars[0]], dmap[f.vars[1]], itn)
        if f.kind == LATOM:
            return mk_atom(f.symbol, tuple(dmap[v] for v in f.vars), itn)
        if f.kind == LNOT:
            return mk_not(go(f.children[0], dmap, nmap, depth), itn)
        if f.kind == LOR:
            return mk_or([go(c, dmap, nmap, depth) for c in f.children], itn)
        if f.kind == LAND:
            return mk_and([go(c, dmap, nmap, depth) for c in f.children], itn)
        if f.kind == LEXISTS:
            b = f"b{depth}"
            return mk_exists(
                b, go(f.children[0], {**dmap, f.bound_var: b}, nmap, depth + 1),
                itn)
        if f.kind == NUMEXISTS:
            return mk_or(
                [go(f.children[0], dmap, {**nmap, f.bound_var: v}, depth)
                 for v in range(n + 1)], itn)
        if f.kind == NUMLE:
            return mk_bool(term_value(f.terms[0], nmap, n)
                           <= term_value(f.terms[1], nmap, n), itn)
        if f.kind == NUMSUCC:
            return mk_bool(term_value(f.terms[0], nmap, n) + 1
                           == term_value(f.terms[1], nmap, n), itn)
        if f.kind == NUMEQ:
            return mk_bool(term_value(f.terms[0], nmap, n)
                           == term_value(f.terms[1], nmap, n), itn)
        if f.kind == COUNTDOM:
            b = f"b{depth}"
            target = term_value(f.kappa, nmap, n)
            body = go(f.children[0], {**dmap, f.bound_var: b}, nmap, depth + 1)
            return mk_count(EQN, target, b, body, itn)
        if f.kind == COUNTNUM:
            target = term_value(f.kappa, nmap, n)
            instances = [
                go(f.children[0], dmap, {**nmap, f.bound_var: v}, depth)
                for v in range(n + 1)
            ]
            picks = []
            for chosen in itertools.combinations(range(n + 1), target):
                chosen = set(chosen)
                picks.append(mk_and(
                    [instances[v] if v in chosen else mk_not(instances[v], itn)
                     for v in range(n + 1)], itn))
            return mk_or(picks, itn)
        if f.kind == LREC:
            raise NestedLrec("number elimination requires recursion-free input")
        raise AssertionError(f.kind)

    missing = lf.dom_free - dom_map.keys()
    if missing:
        raise UnboundVariable(f"unmapped domain variables: {sorted(missing)}")
    missing_n = lf.num_free - num_map.keys()
    if missing_n:
        raise UnboundVariable(f"unassigned number variables: {sorted(missing_n)}")
    return go(lf, dict(dom_map), dict(num_map), 0)


# --- the recursion-operator translation ------------------------------------

def _class_sizes(c: int, room: int, least: int = 1):
    """The ways to pick c classes holding at most `room` elements, with
    every size at least `least`: tuples of (size s, count q_s > 0) pairs,
    by increasing size, with sum(q_s) == c and sum(s * q_s) <= room."""
    if c == 0:
        yield ()
        return
    # every class left has size >= s, so s * q <= s * c <= room
    for s in range(least, room // c + 1):
        for q in range(1, c + 1):
            for rest in _class_sizes(c - q, room - s * q, s + 1):
                yield ((s, q), *rest)


def translate_lrec_once(f: LFormula, n: int, m_values,
                        cache: FormulaCache) -> CFormula:
    """Translate one outermost recursion operator (tuple width 1) over
    recursion-free subformulas into a counting-logic formula on the source
    vocabulary, for structures of size exactly n and the given values of
    the resource variables.

    The result has one free domain variable, QUERY_VAR, standing for the
    queried element. Equality and edge atoms of the compiled X-formula are
    replaced by definable-equivalence-guarded tests. Its counting
    quantifiers range over equivalence classes, and every one of them is
    built from "at least c classes satisfy the body" terms: `>= t` is the
    term for t, `<= t` the negated term for t+1, and `= t` the term for t
    and the negated term for t+1, so thresholds t and t+1 of one body share
    a term. At least one class satisfies the body iff some element does.
    At least c >= 2 classes do iff, for some choice of q_s classes of each
    size s with sum(q_s) = c and sum(s * q_s) <= n, at least s * q_s
    elements satisfy the body conjoined with "my class has exactly s
    members", for every s with q_s > 0. This assumes the equality formula
    defines a genuine equivalence relation, so that the body is
    class-invariant and the classes are disjoint: otherwise an element
    count does not measure classes and the sizes do not add up.

    The node mapping (compiled node id -> translated node) and the psi,
    size_test and at-least memos live on `cache`, keyed by the formula
    object, n and the values of the resource variables that eq_f, edge_f
    and card_f read: those are all a node's translation depends on. A
    repeat translation is one lookup, and a new resource maps only the
    compiled nodes the mapping has not seen. Resource values must be ints
    (bools are refused).
    """
    itn = cache.interner
    if f.kind != LREC:
        raise MalformedInput("expected an outermost lrec formula")
    eq_f, edge_f, card_f = f.children
    if any(sub.contains_lrec() for sub in f.children):
        raise NestedLrec("subformulas must be recursion-free")
    if len(f.y1) != 1:
        raise TupleWidthUnsupported(
            f"translation supports tuple width 1, got {len(f.y1)}"
        )
    m_values = tuple(m_values)
    if len(m_values) != len(f.kappas):
        raise ArityMismatch(
            f"got {len(m_values)} resource values for {len(f.kappas)} variables"
        )
    for v in m_values:
        if type(v) is not int:
            raise MalformedInput(f"resource value {v!r} is not an int")
    resource = decode_number(m_values, n)
    if resource < 1:
        return mk_bool(False, itn)

    kappa_map = dict(zip(f.kappas, m_values))
    memo, psi_memo, size_memo, least_memo = cache._translations.setdefault(
        (f, n, tuple([v for k, v in kappa_map.items() if k in f.reads[1]])),
        ({}, {}, {}, {}))
    y1, y2, xvar = f.y1[0], f.y2[0], f.xs[0]
    s1, s2 = SUBST_VARS

    def psi(sub: LFormula, *dom: str, ivals: tuple[int, ...] = ()) -> CFormula:
        # sub with (y1, y2) renamed to dom and the iotas set to ivals
        key = (sub, dom, ivals)
        hit = psi_memo.get(key)
        if hit is None:
            hit = eliminate_numbers(
                sub, {**dict(zip((y1, y2), dom)), xvar: QUERY_VAR},
                {**kappa_map, **dict(zip(f.iotas, ivals))}, n, itn)
            psi_memo[key] = hit
        return hit

    def size_test(s: int, z: str) -> CFormula:
        # "the class of z has exactly s members"
        hit = size_memo.get((s, z))
        if hit is None:
            hit = mk_count(EQN, s, s1, psi(eq_f, s1, z), itn)
            size_memo[(s, z)] = hit
        return hit

    def at_least(child: CFormula, z: str, c: int) -> CFormula:
        # "at least c classes satisfy child": some q_s classes of each size
        # s, with sum(q_s) == c, each met by s * q_s members in such classes
        if c <= 0 or c > n:
            return mk_bool(c <= 0, itn)
        if c == 1:
            return mk_exists(z, child, itn)
        key = (child.nid, z, c)
        hit = least_memo.get(key)
        if hit is None:
            hit = mk_or([
                mk_and([mk_count(GE, s * q, z,
                                 mk_and([child, size_test(s, z)], itn), itn)
                        for s, q in sizes], itn)
                for sizes in _class_sizes(c, n)], itn)
            least_memo[key] = hit
        return hit

    params = CompileParams(n, len(f.kappas))
    phi_x = compile_x_formula(params, resource, QUERY_VAR, cache=cache)

    for node in nodes(phi_x, memo):
        kind = node.kind
        if kind == BOOL:
            out = node
        elif kind == EQ:
            out = psi(eq_f, *node.vars)
        elif kind == ATOM:
            if node.symbol == "E":
                a, b = node.vars
                out = mk_exists(s1, mk_exists(s2, mk_and(
                    [psi(eq_f, s1, a), psi(eq_f, s2, b), psi(edge_f, s1, s2)],
                    itn), itn), itn)
            elif node.symbol.startswith("P"):
                label = int(node.symbol[1:])
                (a,) = node.vars
                width = len(f.iotas)
                variants = [
                    psi(card_f, s1, ivals=ivals)
                    for ivals in itertools.product(range(n + 1), repeat=width)
                    if decode_number(ivals, n) == label
                ]
                out = mk_exists(s1, mk_and(
                    [psi(eq_f, s1, a), mk_or(variants, itn)], itn), itn)
            else:
                raise MalformedInput(f"unexpected symbol {node.symbol!r}")
        elif kind == NOT:
            out = mk_not(memo[node.children[0].nid], itn)
        elif kind == OR:
            out = mk_or([memo[c.nid] for c in node.children], itn)
        elif kind == AND:
            out = mk_and([memo[c.nid] for c in node.children], itn)
        elif kind == COUNT:
            child = memo[node.children[0].nid]
            z, t = node.bound_var, node.threshold
            if node.mode == GE:
                out = at_least(child, z, t)
            elif node.mode == LE:
                out = mk_not(at_least(child, z, t + 1), itn)
            else:
                out = mk_and([at_least(child, z, t),
                              mk_not(at_least(child, z, t + 1), itn)], itn)
        else:
            raise AssertionError(kind)
        memo[node.nid] = out
    return memo[phi_x.nid]
