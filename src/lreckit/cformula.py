"""Hash-consed counting-logic formulas and their memoizing model checker.

Formulas are interned: structurally equal trees share one node, so the
recursive formula families built by the compiler stay DAG-sized. A node
stores its structural fields; the interner looks it up by its key and,
only when the key is new, derives its quantifier depth and free variables.
Every mk_* call takes the Interner its caller owns; there is no shared
default.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from operator import mul
from typing import Iterable

from .errors import (
    ArityMismatch,
    IdOutOfRange,
    MalformedInput,
    PreconditionViolated,
    RangeViolation,
    SizeExceeded,
    UnboundVariable,
    UnknownSymbol,
)
from .structures import RelStructure

BOOL = "bool"
EQ = "eq"
ATOM = "atom"
NOT = "not"
OR = "or"
AND = "and"
COUNT = "count"

GE = ">="
EQN = "="
LE = "<="

MAX_THRESHOLD = 1_000_000
# Both S-expression readers refuse forms nested deeper than this. The
# deepest walk that stays recursive, LEvaluator on nested lrec forms, takes
# about five frames a level and reaches the recursion limit near 200.
MAX_NESTING = 150
# TableEvaluator refuses to build a truth table with more cells than this:
# a node's own table or a child's table read over its parent's variables.
MAX_TABLE_CELLS = 2 ** 24

# Node ids are unique per process, not per interner: memos and intern keys
# built from nids never confuse nodes of two different interners.
_NIDS = itertools.count()


class CFormula:
    """One interned formula node. Compare by identity; build via mk_*."""

    __slots__ = (
        "kind",
        "value",
        "vars",
        "symbol",
        "children",
        "mode",
        "threshold",
        "bound_var",
        "nid",
        "qdepth",
        "fv",
        "family",
        "steps",
        "slot",
    )

    def __init__(self, kind, *, value=None, vars=(), symbol=None, children=(),
                 mode=None, threshold=None, bound_var=None):
        self.kind = kind
        self.value = value
        self.vars = vars
        self.symbol = symbol
        self.children = children
        self.mode = mode
        self.threshold = threshold
        self.bound_var = bound_var
        self.nid = -1  # assigned by the interner

    def key(self):
        return (self.kind, self.value, self.vars, self.symbol,
                tuple([c.nid for c in self.children]),
                self.mode, self.threshold, self.bound_var)

    def __repr__(self):
        # bounded by the node, not the tree: print_sexpr expands shared
        # subformulas and can be exponential in the DAG size
        return (f"<CFormula #{self.nid} {self.kind} qdepth={self.qdepth} "
                f"fv={self.fv}>")

    @property
    def free_vars(self) -> frozenset:
        """The free variables as a set: a view of `fv`."""
        return frozenset(self.fv)


def _derive(node: CFormula) -> None:
    """Set the quantifier depth and free variables of a new node from its
    already interned children. `fv` lists the free variables sorted: the
    axes of the node's truth table."""
    kind, children = node.kind, node.children
    if kind in (BOOL, EQ, ATOM):
        node.qdepth = 0
        free = set(node.vars)
    elif kind in (NOT, OR, AND):
        node.qdepth = max([c.qdepth for c in children], default=0)
        free = set().union(*[c.fv for c in children])
    elif kind == COUNT:
        (child,) = children
        node.qdepth = child.qdepth + 1
        free = set(child.fv)
        free.discard(node.bound_var)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    # the node's _Steps, set by its first table plan, which also gives it
    # its slot
    node.steps = None
    # a child's free variables are a subset of the node's (a superset for
    # COUNT), so a child of the same size has the same ones: share its tuple
    for c in children:
        if len(c.fv) == len(free):
            node.fv = c.fv
            return
    node.fv = tuple(sorted(free))


class Interner:
    """Table mapping structural keys to unique nodes.

    `intern(node)` returns the node already stored under node's key, or
    derives node's fields, gives it a nid and the interner's family and
    stores it. A node that loses to an existing one is dropped without any
    derived work. The family (`_Family`) holds what table evaluation
    derives from the interner's nodes.
    """

    def __init__(self):
        self._table: dict[tuple, CFormula] = {}
        # the TRUE and FALSE nodes, interned on mk_bool's first use of each
        self._bools: dict[bool, CFormula] = {}
        self.family = _Family()

    def intern(self, node: CFormula) -> CFormula:
        key = node.key()
        existing = self._table.get(key)
        if existing is not None:
            return existing
        _derive(node)
        node.nid = next(_NIDS)
        node.family = self.family
        self._table[key] = node
        return node

    def __len__(self):
        return len(self._table)


def mk_bool(value: bool, interner: Interner) -> CFormula:
    value = bool(value)
    node = interner._bools.get(value)
    if node is None:
        node = interner._bools[value] = interner.intern(
            CFormula(BOOL, value=value))
    return node


def mk_eq(x: str, y: str, interner: Interner) -> CFormula:
    return interner.intern(CFormula(EQ, vars=(x, y)))


def mk_atom(symbol: str, vars: Iterable[str],
            interner: Interner) -> CFormula:
    return interner.intern(CFormula(ATOM, symbol=symbol, vars=tuple(vars)))


def mk_not(child: CFormula, interner: Interner) -> CFormula:
    if child.kind == BOOL:
        return mk_bool(not child.value, interner)
    if child.kind == NOT:
        return child.children[0]
    return interner.intern(CFormula(NOT, children=(child,)))


def mk_or(children: Iterable[CFormula],
          interner: Interner) -> CFormula:
    kept = []
    for c in children:
        if c.kind == BOOL:
            if c.value:
                return mk_bool(True, interner)
            continue  # drop falses
        kept.append(c)
    if not kept:
        return mk_bool(False, interner)
    if len(kept) == 1:
        return kept[0]
    return interner.intern(CFormula(OR, children=tuple(kept)))


def mk_and(children: Iterable[CFormula],
           interner: Interner) -> CFormula:
    kept = []
    for c in children:
        if c.kind == BOOL:
            if not c.value:
                return mk_bool(False, interner)
            continue
        kept.append(c)
    if not kept:
        return mk_bool(True, interner)
    if len(kept) == 1:
        return kept[0]
    return interner.intern(CFormula(AND, children=tuple(kept)))


def mk_count(mode: str, threshold: int, bound_var: str, child: CFormula,
             interner: Interner) -> CFormula:
    if mode not in (GE, EQN, LE):
        raise MalformedInput(f"unknown counting mode {mode!r}")
    if threshold < 0 or threshold > MAX_THRESHOLD:
        raise RangeViolation(f"threshold {threshold} out of range")
    # Folds valid on every structure (a >=0 bound always holds; the witness
    # count of a constant-false body is 0).
    if mode == GE and threshold == 0 or child.kind == BOOL and not child.value:
        return mk_bool(_compare(0, mode, threshold), interner)
    return interner.intern(
        CFormula(COUNT, mode=mode, threshold=threshold,
                 bound_var=bound_var, children=(child,))
    )


def mk_exists(var: str, child: CFormula,
              interner: Interner) -> CFormula:
    return mk_count(GE, 1, var, child, interner)


def mk_forall(var: str, child: CFormula,
              interner: Interner) -> CFormula:
    return mk_not(mk_count(GE, 1, var, mk_not(child, interner), interner), interner)


def qdepth(f: CFormula) -> int:
    return f.qdepth


def nvars(f: CFormula) -> int:
    """Number of distinct variable names in f, free or bound."""
    names = set()
    for node in nodes(f):
        names.update(node.vars)
        if node.bound_var is not None:
            names.add(node.bound_var)
    return len(names)


def nodes(f: CFormula, known=()) -> list[CFormula]:
    """The nodes reachable from f, children first: ascending nid, as a child
    is interned first. Leaves out nids in `known` and what only they reach."""
    found, stack = {}, [f]
    while stack:
        node = stack.pop()
        if node.nid not in found and node.nid not in known:
            found[node.nid] = node
            stack.extend(node.children)
    return [found[nid] for nid in sorted(found)]


def dag_size(f: CFormula) -> int:
    """Number of distinct interned nodes reachable from f."""
    return len(nodes(f))


def tree_size(f: CFormula) -> int:
    """Size of the fully expanded tree (exact, unbounded integer)."""
    size: dict[int, int] = {}
    for node in nodes(f):
        size[node.nid] = 1 + sum(size[c.nid] for c in node.children)
    return size[f.nid]


def _compare(count: int, mode: str, threshold: int) -> bool:
    if mode == GE:
        return count >= threshold
    if mode == LE:
        return count <= threshold
    return count == threshold


def _checked_assignment(f: CFormula, assignment: dict | None, n: int) -> dict:
    """Check that `assignment` binds f's free variables to ids in [0, n)."""
    assignment = assignment or {}
    missing = [v for v in f.fv if v not in assignment]
    if missing:
        raise UnboundVariable(f"unassigned variables: {missing}")
    for name, value in assignment.items():
        if type(value) is not int or not 0 <= value < n:
            raise IdOutOfRange(f"{name}={value!r} is not an id in [0, {n})")
    return assignment


def _check_atom(f, s: RelStructure) -> None:
    """Refuse an atom whose symbol or arity the structure does not have.
    f is an atom of either logic: only its symbol and vars are read."""
    if f.symbol not in s.vocabulary:
        raise UnknownSymbol(f.symbol)
    arity = s.vocabulary.arity(f.symbol)
    if len(f.vars) != arity:
        raise ArityMismatch(
            f"{f.symbol} has arity {arity}, got {len(f.vars)} arguments")


class Evaluator:
    """Memoizing model checker for one structure.

    The memo key is (node id, assignment restricted to the node's free
    variables), so sharing in the hash-consed DAG pays off across calls.
    """

    def __init__(self, structure: RelStructure):
        self.structure = structure
        self._memo: dict[tuple, bool] = {}

    def eval(self, f: CFormula, assignment: dict[str, int] | None = None) -> bool:
        return self._eval(f, _checked_assignment(f, assignment, self.structure.n))

    def _eval(self, f: CFormula, a: dict[str, int]) -> bool:
        if f.kind == BOOL:
            return f.value
        key = (f.nid, tuple([a[v] for v in f.fv]))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._eval_inner(f, a)
        self._memo[key] = result
        return result

    def _eval_inner(self, f: CFormula, a: dict[str, int]) -> bool:
        s = self.structure
        if f.kind == EQ:
            return a[f.vars[0]] == a[f.vars[1]]
        if f.kind == ATOM:
            _check_atom(f, s)
            return tuple(a[v] for v in f.vars) in s.rel(f.symbol)
        if f.kind == NOT:
            return not self._eval(f.children[0], a)
        if f.kind == OR:
            return any(self._eval(c, a) for c in f.children)
        if f.kind == AND:
            return all(self._eval(c, a) for c in f.children)
        if f.kind == COUNT:
            child = f.children[0]
            sub = dict(a)
            count = 0
            for v in range(s.n):
                sub[f.bound_var] = v  # innermost binding shadows outer scopes
                if self._eval(child, sub):
                    count += 1
            return _compare(count, f.mode, f.threshold)
        raise AssertionError(f.kind)


def _repeat(pattern: int, period: int, times: int) -> int:
    """`times` copies of pattern, the first at cell 0, `period` cells apart."""
    return pattern * (((1 << period * times) - 1) // ((1 << period) - 1))


def _cells(n: int, k: int) -> int:
    """n**k, the cells of a table over k variables, if it may be built."""
    cells = n ** k
    if cells > MAX_TABLE_CELLS:
        raise SizeExceeded(f"a table over {k} variables has {cells} cells;"
                           f" at most {MAX_TABLE_CELLS} are built")
    return cells


def _gaps(blocks: int, inner: int, stride: int) -> tuple:
    """Block j of `blocks` blocks of `inner` cells moves from cell
    j*inner to cell j*stride: the mask of the cells it lands on, and the
    (mask, shift) steps; step k moves the upper half of every group of
    2**(k+1) blocks, which its mask holds, left by 2**k gaps of
    stride - inner cells. Run in reverse, right shifts into the masks
    move the blocks back."""
    steps = []
    for k in reversed(range((blocks - 1).bit_length())):
        half = 1 << k
        upper = ((1 << half * inner) - 1) << half * inner
        steps.append((_repeat(upper, 2 * half * stride,
                              -(-blocks // (2 * half))),
                      half * (stride - inner)))
    return _repeat((1 << inner) - 1, stride, blocks), steps


def _reader(n: int, k: int, kept: tuple) -> Callable[[int], int]:
    """The function that reads a child's table as a table over its
    parent's k variables; `kept` lists the positions of the child's
    variables among the parent's.

    Inserting the variable at position p moves the n**p blocks of cells
    over the variables after it n times their size apart (`_gaps`), then
    copies each n times by one multiplication."""
    _cells(n, k)
    moves = []
    for p in range(k):
        if p not in kept:
            inner = n ** sum(q > p for q in kept)
            moves.append((_gaps(n ** p, inner, n * inner)[1],
                          _repeat(1, inner, n)))

    def read(t):
        for steps, repeat in moves:
            for mask, shift in steps:
                x = t & mask
                t = t ^ x | x << shift
            t *= repeat
        return t
    return read


def _counter(n: int, k: int, b: int, passing: list) -> Callable[[int], int]:
    """The function from the table of a COUNT node's child over k
    variables, the bound one at position b, to the node's table, for
    n > 1 and `passing`, the witness counts that pass."""
    inner = n ** (k - 1 - b)
    sel, steps = _gaps(n ** b, inner, n * inner)
    steps.reverse()  # they bring the blocks of sel together
    # slice d, the cells of t where the bound variable is d, lies on the
    # cells of sel, where it is 0, in t >> d*inner; the slices are added
    # up as bit-sliced counters
    shifts = range(inner, n * inner, inner)
    width = n.bit_length()  # the bits of a witness count

    def count(t):
        planes = [t]  # planes[i]: bit i of every cell's witness count
        for shift in shifts:
            carry = t >> shift
            for i, plane in enumerate(planes):
                planes[i], carry = plane ^ carry, plane & carry
            if len(planes) < width:
                planes.append(carry)
        tbl = 0
        for c in passing:
            hit = sel
            for i, plane in enumerate(planes):
                hit &= plane if c >> i & 1 else ~plane
            tbl |= hit
        for mask, shift in steps:
            x = tbl >> shift & mask
            tbl = tbl ^ x << shift | x
        return tbl
    return count


# What a node's step does; its second field is the step's constant:
# _AND/_OR: None if every child has the node's layout, else per layout of
# the children its reader (None if the layout is the node's) and the
# children's positions; _XOR: the int xored into the child's table;
# _CONST: the table (BOOL and EQ nodes and the COUNTs that n decides);
# _COUNT: the function from the child's table to the node's (`_counter`).
_LEAF, _AND, _OR, _XOR, _CONST, _COUNT = range(6)


def _step(shape: tuple, n: int) -> tuple:
    """The table operation at n of the nodes of one shape (`_shape`)."""
    kind, k = shape[0], shape[1]
    if kind == AND or kind == OR:
        code, kept = (_AND if kind == AND else _OR), shape[2]
        # one element: every table is one cell, the same over any variables
        if n == 1 or all(len(c) == k for c in kept):
            return code, None
        # a read only moves and copies cells, so it commutes with AND and
        # OR: the children of one layout are combined first and read once
        groups = {}
        for i, c in enumerate(kept):
            groups.setdefault(c, []).append(i)
        return code, tuple([(None if len(c) == k else _reader(n, k, c),
                             tuple(idx)) for c, idx in groups.items()])
    if kind == NOT:
        return _XOR, (1 << _cells(n, k)) - 1
    if kind == COUNT:
        b, mode, threshold = shape[2:]
        # the witness counts that pass
        passing = [c for c in range(n + 1) if _compare(c, mode, threshold)]
        if n == 1 or b < 0:
            # every cell has 0 or n witnesses: the table is the child's,
            # its complement, both or neither
            mask = (1 << _cells(n, k - (b >= 0))) - 1
            if 0 in passing:
                return (_CONST, mask) if n in passing else (_XOR, mask)
            return (_XOR, 0) if n in passing else (_CONST, 0)
        if not passing:
            return _CONST, 0
        if len(passing) == n + 1:
            return _CONST, (1 << _cells(n, k - 1)) - 1
        return _COUNT, _counter(n, k, b, passing)
    if kind == EQ:
        # x = x holds everywhere; x = y on the diagonal
        if k == 1:
            return _CONST, (1 << _cells(n, 1)) - 1
        _cells(n, 2)
        return _CONST, sum(1 << i * (n + 1) for i in range(n))
    if kind == BOOL:
        return _CONST, int(shape[2])
    _cells(n, k)
    return _LEAF, None


class _Positions(dict):
    """The positions of a child's variables among its parent's, by the
    pair of their free-variable tuples, each computed on first use."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> tuple:
        fv, cv = key
        kept = self[key] = tuple(map(fv.index, cv))
        return kept


def _shape(f: CFormula, positions: _Positions) -> tuple:
    """What f's table operation depends on besides n: its kind and the
    number of its variables (for COUNT its child's); for AND and OR the
    positions among them of each child's variables (from `positions`),
    for COUNT the position of the bound variable (-1 if absent), the mode
    and the threshold, for BOOL its value."""
    kind = f.kind
    if kind == AND or kind == OR:
        fv = f.fv
        return kind, len(fv), tuple([positions[fv, c.fv] for c in f.children])
    if kind == COUNT:
        cv, b = f.children[0].fv, f.bound_var
        return (kind, len(cv), cv.index(b) if b in cv else -1, f.mode,
                f.threshold)
    if kind == BOOL:
        return kind, 0, f.value
    return kind, len(f.fv)


class _Steps(dict):
    """The steps of the nodes of one shape, by n; each built on first use.
    Every planned node of the shape in one family points here
    (`CFormula.steps`), and so does the family (`_Family.by_shape`)."""

    __slots__ = ("shape",)

    def __init__(self, shape: tuple):
        self.shape = shape

    def __missing__(self, n: int) -> tuple:
        # a build that raises SizeExceeded stores nothing
        step = self[n] = _step(self.shape, n)
        return step


class _Family:
    """What table evaluation derives from the nodes of one interner, which
    owns the family: the steps of its planned nodes by shape, the tables of
    its nodes that n decides by n, the child positions of its AND and OR
    shapes, the listing of each planned root, the nodes decided at each n
    and the plans of its roots by (root, n).

    A root's listing, built at its first plan at any n, is its nodes
    children first (`nodes`) and one ATOM node per (symbol, arity) pair
    of them, in the order they are first listed. A node gets its slot,
    the next of `size`, when it is first listed, after its children, so
    its slot is higher than theirs, at every n. `decided[n]` marks by
    slot the nodes whose step at n is built and whose table, if n
    decides it, is in `by_n[n]`; a later plan at n skips them."""

    __slots__ = ("by_shape", "by_n", "positions", "size", "listings",
                 "decided", "plans")

    def __init__(self):
        self.by_shape: dict[tuple, _Steps] = {}
        self.by_n: dict[int, dict[CFormula, int]] = {}
        self.positions = _Positions()
        self.size = 0
        self.listings: dict[CFormula, tuple] = {}
        self.decided: dict[int, bytearray] = {}
        self.plans: dict[tuple, tuple] = {}


class _Results(dict):
    """The results of one reader or counter, by the table it was given,
    each computed on first use."""

    __slots__ = ("op",)

    def __init__(self, op: Callable[[int], int]):
        self.op = op

    def __missing__(self, t: int) -> int:
        tbl = self[t] = self.op(t)
        return tbl


class _Applied(dict):
    """The `_Results` of each reader or counter: an operation applied
    again to a table of the same value is not run again."""

    __slots__ = ()

    def __missing__(self, op: Callable[[int], int]) -> _Results:
        results = self[op] = _Results(op)
        return results


def _fill(regs, prog: list, leaf: Callable[[CFormula], int] | None,
          values: _Applied) -> None:
    """Run prog, a plan's program (`_plan`): four entries per node, its
    slot, its step's code and constant, and its children, children first.
    Put each node's table in regs at its slot unless the slot is filled
    (not None); a node's children are in regs or before it in prog.
    `leaf` gives the table of an ATOM node, whose constant is the node.
    No node of prog has a _CONST step: `_plan` keeps those among its
    constant tables. Child readers and COUNT counters are applied through
    `values`."""
    it = iter(prog)
    for slot, code, arg, children in zip(it, it, it, it):
        if regs[slot] is not None:
            continue
        if code == _AND:
            tbl = -1
            if arg is None:
                for c in children:
                    tbl &= regs[c.slot]
            else:
                for read, group in arg:
                    t = -1
                    for i in group:
                        t &= regs[children[i].slot]
                    tbl &= t if read is None else values[read][t]
        elif code == _COUNT:
            tbl = values[arg][regs[children[0].slot]]
        elif code == _OR:
            tbl = 0
            if arg is None:
                for c in children:
                    tbl |= regs[c.slot]
            else:
                for read, group in arg:
                    t = 0
                    for i in group:
                        t |= regs[children[i].slot]
                    tbl |= t if read is None else values[read][t]
        elif code == _XOR:
            tbl = regs[children[0].slot] ^ arg
        else:
            tbl = leaf(arg)
        regs[slot] = tbl


def _plan(root: CFormula, n: int) -> tuple:
    """The plan of root at n: one atom per (symbol, arity) pair of root's,
    the tables by slot that no structure of n elements changes and that
    root reads, and the program (`_fill`) of the other nodes root needs.
    It reads no structure.

    The first plan of root at any n builds its listing (`_Family`). The
    nodes of root must all lie in root's family, so come from one
    interner (PreconditionViolated if not). A listed node without steps
    gets the family's next slot and the steps of its shape.

    A node is constant at n when its step is _CONST, when it is an AND
    with an empty child, or when its children are all constant (its own
    step, run by `_fill`, then gives its table); the family keeps the
    constant tables by n, so roots that share a constant sub-DAG fold it
    once. The family marks a node decided at n once its step is built
    and its constness recorded, and a later plan at n skips it. So every
    listed node's step at n is built, needed or not, by this plan or an
    earlier one, and a table too large for n is refused here: a step
    that raised SizeExceeded leaves its node unmarked, so every root
    that lists it is refused."""
    family = root.family
    listing = family.listings.get(root)
    if listing is None:
        order, atoms = nodes(root), {}
        for f in order:
            if f.family is not family:
                raise PreconditionViolated(
                    f"{root!r} has nodes of two interners, such as {f!r}")
            if f.steps is None:
                shape = _shape(f, family.positions)
                steps = family.by_shape.get(shape)
                if steps is None:
                    steps = family.by_shape[shape] = _Steps(shape)
                f.steps = steps
                f.slot = family.size
                family.size += 1
            if f.kind == ATOM:
                atoms.setdefault((f.symbol, len(f.vars)), f)
        listing = family.listings[root] = order, list(atoms.values())
    order, atoms = listing
    const = family.by_n.setdefault(n, {})
    decided = family.decided.setdefault(n, bytearray())
    decided += bytes(family.size - len(decided))
    for f in order:
        if decided[f.slot]:
            continue
        code, arg = f.steps[n]
        if code == _CONST:
            const[f] = arg
        elif code != _LEAF and not const.keys().isdisjoint(f.children):
            # a node with no constant child is not constant
            kids = list(map(const.get, f.children))
            if None not in kids:
                # registers for the children and f alone
                regs = dict(zip([c.slot for c in f.children], kids))
                regs[f.slot] = None
                _fill(regs, [f.slot, code, arg, f.children], None,
                      _Applied())
                const[f] = regs[f.slot]
            elif 0 in kids and code == _AND:
                const[f] = 0
        decided[f.slot] = 1
    # from the root down, stopping at constant nodes
    needed, loads, prog = {root}, {}, []
    for f in reversed(order):
        if f in needed:
            tbl = const.get(f)
            if tbl is None:
                code, arg = f.steps[n]
                # reversed below with the nodes: slot, code, constant,
                # children
                prog += f.children, f if code == _LEAF else arg, code, f.slot
                needed.update(f.children)
            else:
                loads[f.slot] = tbl
    prog.reverse()
    return atoms, loads, prog


class TableEvaluator:
    """Bottom-up model checker: one truth table per interned node.

    A table is an int over the node's sorted free variables `fv`: bit i is
    cell i, the i-th assignment in row-major order (the last variable
    varies fastest), n**k cells for k variables. NOT, AND and OR are one
    int operation per child; a child read inserts axes and COUNT removes
    one, both by the block moves of `_gaps`. Each DAG node is processed
    once; sharing across queries (different assignments, different roots
    over a common sub-DAG) is free. What a node's step needs besides its
    children's tables is built once per shape and n (`_Steps`), so an
    evaluator pays only for the int operations and the atoms. The
    evaluator keeps the tables of each interner's nodes in a list, at the
    nodes' slots (`_Family`), and the result of each reader or counter
    by the table it was given (`_Applied`), so an operation applied again
    to a table of the same value is not run again; both die with it. A
    root's nodes must come from one interner.

    A formula built for n elements must decide smaller structures too;
    on those, a count whose threshold exceeds the domain size is
    constant, and so is a conjunction over an empty one. So the first
    evaluation of a root at each n builds its plan (`_plan`), kept in the
    root's family; a plan depends on the root and n alone. Every
    evaluation at n, the first too, checks one atom of each (symbol,
    arity) pair of the root against its structure, loads the constant
    tables the root reads, and runs the plan's program (`_fill`) over the
    other nodes it needs. A plan skips nodes but no refusal: every step
    is built and every atom's symbol and arity are checked, needed or
    not.
    """

    def __init__(self, structure: RelStructure):
        self.structure = structure
        # by interner's family, the tables of its nodes by slot; None where
        # not filled
        self._regs: dict[_Family, list] = {}
        self._values = _Applied()

    def _leaf(self, f: CFormula) -> int:
        """The table of an ATOM node, checked against the structure: one
        cell per assignment of its distinct variables, fv."""
        n = self.structure.n
        fv, args = f.fv, f.vars
        cells = n ** len(fv)
        first = [args.index(v) for v in args]
        weight = [n ** (len(fv) - 1 - fv.index(v)) if first[j] == j else 0
                  for j, v in enumerate(args)]
        bits = bytearray(b"0") * cells  # cells last first
        for t in self.structure.rel(f.symbol):
            if all([t[j] == t[i] for j, i in enumerate(first)]):
                bits[cells - 1 - sum(map(mul, t, weight))] = ord("1")
        return int(bits, 2)

    def _tables(self, root: CFormula) -> int:
        """Fill the registers of the nodes root needs; root's table."""
        family = root.family
        if root.steps is not None:
            regs = self._regs.get(family, ())
            if root.slot < len(regs) and regs[root.slot] is not None:
                return regs[root.slot]
        s = self.structure
        n = s.n
        plan = family.plans.get((root, n))
        if plan is None:
            plan = family.plans[root, n] = _plan(root, n)
        atoms, loads, prog = plan
        for f in atoms:
            _check_atom(f, s)
        # after the plan: a root's first plan gives it its slot
        slot = root.slot
        regs = self._regs.get(family)
        if regs is None:
            regs = self._regs[family] = [None] * (slot + 1)
        elif len(regs) <= slot:
            regs += [None] * (slot + 1 - len(regs))
        for at, tbl in loads.items():
            regs[at] = tbl
        _fill(regs, prog, self._leaf, self._values)
        return regs[slot]

    def eval(self, f: CFormula, assignment: dict[str, int] | None = None) -> bool:
        n = self.structure.n
        assignment = _checked_assignment(f, assignment, n)
        cell = sum(assignment[v] * n ** p
                   for p, v in enumerate(reversed(f.fv)))
        return bool(self._tables(f) >> cell & 1)


# --- S-expression serialization -------------------------------------------

def print_sexpr(f: CFormula) -> str:
    if f.kind == BOOL:
        return f"(bool {'t' if f.value else 'f'})"
    if f.kind == EQ:
        return f"(eq {f.vars[0]} {f.vars[1]})"
    if f.kind == ATOM:
        return f"(atom {f.symbol} {' '.join(f.vars)})"
    if f.kind == NOT:
        return f"(not {print_sexpr(f.children[0])})"
    if f.kind in (OR, AND):
        inner = " ".join(print_sexpr(c) for c in f.children)
        return f"({f.kind} {inner})"
    if f.kind == COUNT:
        return (f"(count {f.mode} {f.threshold} {f.bound_var} "
                f"{print_sexpr(f.children[0])})")
    raise AssertionError(f.kind)


def tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise MalformedInput("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise MalformedInput("missing closing parenthesis")
        return items, pos + 1
    if tok == ")":
        raise MalformedInput("unexpected ')'")
    return tok, pos + 1


def parse_sexpr_data(text: str):
    tokens = tokenize(text)
    depth = 0
    for tok in tokens:
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_NESTING:
            raise SizeExceeded(f"forms nest deeper than {MAX_NESTING}")
    data, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise MalformedInput("trailing input after formula")
    return data


def _names(data, what: str) -> tuple[str, ...]:
    """data as a tuple of names; MalformedInput unless it is a list of
    strings, so a list never lands in a variable or symbol slot."""
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise MalformedInput(f"{what}: expected names, got {data!r}")
    return tuple(data)


def formula_from_data(data, interner: Interner) -> CFormula:
    if not isinstance(data, list) or not data:
        raise MalformedInput(f"expected a list form, got {data!r}")
    head = data[0]
    if head == "bool":
        if len(data) != 2 or data[1] not in ("t", "f"):
            raise MalformedInput("(bool t|f)")
        return mk_bool(data[1] == "t", interner)
    if head == "eq":
        if len(data) != 3:
            raise MalformedInput("(eq x y)")
        return mk_eq(*_names(data[1:], "(eq x y)"), interner)
    if head == "atom":
        if len(data) < 3:
            raise MalformedInput("(atom SYM x...)")
        symbol, *vars = _names(data[1:], "(atom SYM x...)")
        return mk_atom(symbol, vars, interner)
    if head == "not":
        if len(data) != 2:
            raise MalformedInput("(not f)")
        return mk_not(formula_from_data(data[1], interner), interner)
    if head in ("or", "and"):
        children = [formula_from_data(d, interner) for d in data[1:]]
        return (mk_or if head == "or" else mk_and)(children, interner)
    if head == "count":
        if len(data) != 5:
            raise MalformedInput("(count MODE N x f)")
        mode, threshold = data[1], data[2]
        (var,) = _names(data[3:4], "(count MODE N x f)")
        # ASCII digits only: int() would also take "1_0", "+1" and "٣"
        if not (isinstance(threshold, str) and threshold.isascii()
                and threshold.isdecimal()):
            raise MalformedInput(f"bad threshold {threshold!r}")
        return mk_count(mode, int(threshold), var,
                        formula_from_data(data[4], interner), interner)
    raise MalformedInput(f"unknown form {head!r}")


def parse_sexpr(text: str, interner: Interner) -> CFormula:
    return formula_from_data(parse_sexpr_data(text), interner)
