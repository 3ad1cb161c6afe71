import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import distinguishes, mk_implies
from lreckit import cformula
from lreckit.cformula import (
    CFormula,
    Evaluator,
    Interner,
    TableEvaluator,
    dag_size,
    mk_and,
    mk_atom,
    mk_bool,
    mk_count,
    mk_eq,
    mk_exists,
    mk_forall,
    mk_not,
    mk_or,
    nodes,
    nvars,
    parse_sexpr,
    print_sexpr,
    qdepth,
    tree_size,
)
from lreckit.errors import (
    ArityMismatch,
    IdOutOfRange,
    MalformedInput,
    PreconditionViolated,
    SizeExceeded,
    UnboundVariable,
    UnknownSymbol,
)
from lreckit.structures import RelStructure, Vocabulary

VOC = Vocabulary((("E", 2), ("P", 1), ("R", 3)))
VARS = ("x", "y", "z")
# The interner the generated formulas are built on; the identity checks
# below need every example to come from one table.
ITN = Interner()


def structures_of(n):
    return st.builds(
        lambda e, p, r: RelStructure(VOC, n, {"E": e, "P": p, "R": r}),
        st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        st.frozensets(st.tuples(st.integers(0, n - 1))),
        st.frozensets(st.tuples(*[st.integers(0, n - 1)] * 3)),
    )


def structures(max_n=4):
    return st.integers(1, max_n).flatmap(structures_of)


def formulas():
    var = st.sampled_from(VARS)
    atomic = st.one_of(
        st.booleans().map(lambda b: mk_bool(b, ITN)),
        st.tuples(var, var).map(lambda p: mk_eq(*p, ITN)),
        st.tuples(var, var).map(lambda p: mk_atom("E", p, ITN)),
        var.map(lambda v: mk_atom("P", (v,), ITN)),
        # unsorted and repeated variables, such as R(z, x, z)
        st.tuples(var, var, var).map(lambda t: mk_atom("R", t, ITN)),
    )

    def compound(children):
        return st.one_of(
            children.map(lambda c: mk_not(c, ITN)),
            st.lists(children, min_size=1, max_size=3).map(
                lambda cs: mk_or(cs, ITN)),
            st.lists(children, min_size=1, max_size=3).map(
                lambda cs: mk_and(cs, ITN)),
            st.tuples(var, children).map(lambda p: mk_exists(*p, ITN)),
            st.tuples(var, children).map(lambda p: mk_forall(*p, ITN)),
            st.tuples(
                st.sampled_from((">=", "=", "<=")), st.integers(0, 4), var, children
            ).map(lambda p: mk_count(*p, ITN)),
        )

    return st.recursive(atomic, compound, max_leaves=12)


FULL = {"x": 0, "y": 0, "z": 0}


def full_assignment(s):
    return {v: 0 for v in VARS} if s.n else {}


@settings(max_examples=200)
@given(structures(), formulas())
def test_recursive_and_table_evaluators_agree(s, f):
    assign = {v: 0 for v in VARS}
    assert Evaluator(s).eval(f, assign) == TableEvaluator(s).eval(f, assign)


def assert_cells_match(ev, f):
    """Every cell of f's table in the TableEvaluator ev equals the
    recursive Evaluator's value under that cell's assignment, and the
    table sets no bit past its n**k cells."""
    fv, n = f.fv, ev.structure.n
    assert fv == tuple(sorted(f.free_vars))
    ref = Evaluator(ev.structure)
    for values in itertools.product(range(n), repeat=len(fv)):
        a = dict(zip(fv, values))
        assert ev.eval(f, a) == ref.eval(f, a)
    assert 0 <= ev._tables(f) < 1 << n ** len(fv)


@settings(max_examples=200)
@given(structures(), structures(), formulas())
def test_every_table_cell_matches_the_recursive_evaluator(s, t, f):
    # the same DAG on two domain sizes, n = 1 among them: a per-node cache
    # that kept anything of the first structure would misread the second
    assume(s.n != t.n)
    for structure in (s, t):
        assert_cells_match(TableEvaluator(structure), f)


@settings(max_examples=100)
@given(structures(), structures(), formulas(), formulas(), st.booleans())
def test_roots_that_share_a_sub_dag_match_the_recursive_evaluator(
        s, t, g, h, g_first):
    # a root's plans are kept in its family; nodes that an earlier root
    # put in the memo are skipped, and a later evaluator on another n
    # builds another plan over the same steps
    assume(s.n != t.n)
    f = mk_and([g, h], ITN)
    ev = TableEvaluator(s)
    for root in (g, f) if g_first else (f, g):
        assert_cells_match(ev, root)
    assert_cells_match(TableEvaluator(t), f)


def assert_family_is_whole(root):
    """Every node of root is in root's family, at a distinct slot below
    the family's size, each node's above its children's."""
    family, order = root.family, nodes(root)
    assert all(f.family is family for f in order)
    slots = [f.slot for f in order]
    assert len(set(slots)) == len(slots)
    assert all(0 <= slot < family.size for slot in slots)
    assert all(c.slot < f.slot for f in order for c in f.children)


@settings(max_examples=100)
@given(structures(), st.lists(formulas(), min_size=2, max_size=4),
       st.data())
def test_roots_in_any_order_on_one_evaluator_match(s, roots, data):
    # one evaluator's registers serve every root: a root may find its
    # nodes filled by an earlier one, or lie at a higher slot than the
    # registers reach
    ev = TableEvaluator(s)
    for i in data.draw(st.permutations(range(len(roots)))):
        assert_cells_match(ev, roots[i])
    for root in roots:
        assert_cells_match(ev, root)
        assert_family_is_whole(root)


# n = 5 with the bound variable c moves 25 blocks: the last group of every
# step is partly filled
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", [">=", "=", "<="])
# the child is over (a, b, c): the bound variable is absent, first, middle
# or last
@pytest.mark.parametrize("bound", ["d", "a", "b", "c"])
def test_count_matches_the_recursive_evaluator(n, mode, bound):
    rng = random.Random(n)
    triples = itertools.product(range(n), repeat=3)
    s = RelStructure(VOC, n, {"R": {u for u in triples if rng.random() < 0.5}})
    child = mk_atom("R", ("a", "b", "c"), ITN)
    ev = TableEvaluator(s)
    for threshold in range(n + 2):
        assert_cells_match(ev, mk_count(mode, threshold, bound, child, ITN))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_wide_block_moves_match_the_recursive_evaluator(n):
    # the conjunction over (a, b, c, d, e) reads R(a, c, e) with two axes
    # inserted and E(b, d) with three; a COUNT over e moves n**4 blocks
    rng = random.Random(n)
    rels = {name: {u for u in itertools.product(range(n), repeat=arity)
                   if rng.random() < 0.5}
            for name, arity in (("E", 2), ("R", 3))}
    s = RelStructure(VOC, n, rels)
    body = mk_and([mk_atom("R", ("a", "c", "e"), ITN),
                   mk_atom("E", ("b", "d"), ITN)], ITN)
    ev = TableEvaluator(s)
    assert_cells_match(ev, body)
    for bound in "abcde":
        for threshold in range(n + 1):
            assert_cells_match(ev, mk_count("=", threshold, bound, body, ITN))


@settings(max_examples=100)
@given(structures(5), structures(5), formulas(), formulas(),
       st.sampled_from((">=", "=", "<=")), st.integers(1, 2),
       st.integers(0, 2), st.sampled_from(VARS), st.permutations(range(6)))
def test_plans_for_small_domains_match_the_recursive_evaluator(
        s, t, g, h, mode, over, threshold, var, turn):
    # c counts past s.n, so at s.n it is constant; when it is empty, so
    # are a and the NOT under the last COUNT. g and h lie below c and a
    # and are roots too, so on one evaluator a constant node sits in the
    # memo without the descendants that a later root needs, or after them
    c = mk_count(mode, s.n + over, var, g, ITN)
    a = mk_and([c, h], ITN)
    roots = [a, mk_or([c, h], ITN), mk_or([a, g], ITN), g, h,
             mk_count(mode, threshold, var, mk_not(a, ITN), ITN)]
    ev = TableEvaluator(s)
    for i in turn:
        assert_cells_match(ev, roots[i])
    # fresh evaluators: another size, then s.n again on the kept plans
    for structure in (t, s):
        ev = TableEvaluator(structure)
        for root in roots:
            assert_cells_match(ev, root)


@pytest.mark.parametrize("symbols, error", [
    ((("E", 2),), UnknownSymbol),
    ((("E", 2), ("P", 2)), ArityMismatch),
])
def test_a_kept_plan_checks_the_atoms_of_every_structure(symbols, error):
    # the first root is constant at every n (x = x never fails), the
    # second reads P; both plans are built on a structure that has P
    itn = Interner()
    p = mk_atom("P", ("x",), itn)
    roots = [mk_and([mk_not(mk_eq("x", "x", itn), itn), p], itn),
             mk_or([p, mk_atom("E", ("x", "y"), itn)], itn)]
    for root in roots:
        assert_cells_match(TableEvaluator(_random_e_and_r(2)), root)
        assert (root, 2) in root.family.plans
        other = RelStructure(Vocabulary(symbols), 2, {})
        with pytest.raises(error):
            TableEvaluator(other).eval(root, {"x": 0, "y": 0})


def test_a_plan_is_kept_when_its_first_structure_is_refused():
    # a plan reads no structure: it is kept although the structure it was
    # first built for lacks P, and it serves the next structure at n
    itn = Interner()
    root = mk_or([mk_atom("P", ("x",), itn),
                  mk_atom("E", ("x", "y"), itn)], itn)
    lacks_p = RelStructure(Vocabulary((("E", 2),)), 2, {})
    with pytest.raises(UnknownSymbol):
        TableEvaluator(lacks_p).eval(root, {"x": 0, "y": 0})
    plan = root.family.plans[root, 2]
    assert_cells_match(TableEvaluator(_random_e_and_r(2)), root)
    assert root.family.plans[root, 2] is plan


def test_a_table_too_large_is_refused_before_an_unknown_atom():
    # the plan builds every step before any atom meets the structure, so
    # the 60**5-cell conjunction is refused although Zed comes first
    itn = Interner()
    root = parse_sexpr(
        "(and (atom Zed x) (count >= 1 a (count >= 1 b (count >= 1 c"
        " (count >= 1 d (count >= 1 e (and (atom E a b) (atom E c d)"
        " (eq e a))))))))", itn)
    sixty = RelStructure(Vocabulary((("E", 2),)), 60, {})
    with pytest.raises(SizeExceeded):
        TableEvaluator(sixty).eval(root, {"x": 0})


def test_a_node_refused_at_n_is_refused_for_every_root_that_lists_it():
    # at 28 elements the conjunction over (a, b, c, d, e) has 28**5 cells;
    # the count over it never passes, so it builds no table and needs
    # nothing of the conjunction, which it lists after the conjunction's
    # own plan was refused
    itn = Interner()
    body = mk_and([mk_atom("R", ("a", "c", "e"), itn),
                   mk_atom("E", ("b", "d"), itn)], itn)
    wide = RelStructure(VOC, 28, {})
    assignment = dict.fromkeys("abcde", 0)
    for root in (body, mk_count(">=", 29, "e", body, itn)):
        with pytest.raises(SizeExceeded):
            TableEvaluator(wide).eval(root, assignment)


@pytest.mark.parametrize("symbols, error", [
    ((("P", 1), ("R", 3)), UnknownSymbol),
    ((("E", 3), ("P", 1), ("R", 3)), ArityMismatch),
])
def test_a_root_planned_after_another_checks_its_shared_atoms(symbols,
                                                              error):
    # g is planned first, so its nodes are decided at n = 2 when the roots
    # over it are planned; each still checks E, which only g reads, and
    # the first needs nothing of g (x = x always holds)
    itn = Interner()
    g = parse_sexpr("(and (atom P x) (count >= 1 y (atom E x y)))", itn)
    roots = [mk_and([mk_not(mk_eq("x", "x", itn), itn), g], itn),
             mk_or([g, mk_atom("R", ("x", "x", "x"), itn)], itn)]
    ev = TableEvaluator(_random_e_and_r(2))
    for root in [g] + roots:
        assert_cells_match(ev, root)
    other = RelStructure(Vocabulary(symbols), 2, {})
    for root in roots:
        with pytest.raises(error):
            TableEvaluator(other).eval(root, {"x": 0})


@settings(max_examples=50)
@given(st.lists(formulas(), min_size=2, max_size=4),
       st.tuples(*map(structures_of, (1, 2, 3))), st.data())
def test_roots_planned_at_several_sizes_in_any_order_match(roots, sized,
                                                           data):
    # each (root, n) is planned on a fresh evaluator, in a drawn order:
    # a plan at n skips the nodes that an earlier root decided at n
    pairs = [(root, s) for root in roots for s in sized]
    for i in data.draw(st.permutations(range(len(pairs)))):
        root, s = pairs[i]
        assert_cells_match(TableEvaluator(s), root)


def test_nodes_of_one_shape_share_their_steps():
    # a shape reads positions, not names: E(x, y) & P(y) and E(u, w) & P(w)
    # have one; a count binds x or u at position 0, another y at 1
    itn = Interner()
    f = parse_sexpr("(and (atom E x y) (atom P y))", itn)
    g = parse_sexpr("(and (atom E u w) (atom P w))", itn)
    counts = [mk_count(">=", 1, v, h, itn) for v, h in (("x", f), ("u", g),
                                                         ("y", f))]
    assert_cells_match(TableEvaluator(_random_e_and_r(3)), mk_or(counts, itn))
    assert f.steps is g.steps
    assert counts[0].steps is counts[1].steps
    assert counts[2].steps is not counts[0].steps


def _random_e_and_r(n):
    """A structure on n elements with seeded random relations E and R."""
    rng = random.Random(n)
    return RelStructure(VOC, n, {
        name: {u for u in itertools.product(range(n), repeat=arity)
               if rng.random() < 0.5}
        for name, arity in (("E", 2), ("R", 3))})


def test_steps_built_at_one_n_serve_every_other_n():
    # a fresh interner: every step of this DAG is first built at n = 3
    itn = Interner()
    body = mk_and([mk_atom("R", ("a", "c", "e"), itn),
                   mk_atom("E", ("b", "d"), itn)], itn)
    roots = [body] + [mk_count("=", 1, v, body, itn) for v in "abcde"]
    for n in (3, 1, 2, 5, 3):
        ev = TableEvaluator(_random_e_and_r(n))
        for root in roots:
            assert_cells_match(ev, root)
    # 28**5 = 17,210,368 cells: more than MAX_TABLE_CELLS, and a refused
    # build leaves nothing behind that a later evaluator would take
    wide = _random_e_and_r(28)
    for _ in range(2):
        with pytest.raises(SizeExceeded):
            TableEvaluator(wide).eval(body, dict.fromkeys("abcde", 0))
    ev = TableEvaluator(_random_e_and_r(2))
    for root in roots:
        assert_cells_match(ev, root)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_children_of_one_layout_are_read_together(n):
    # under AND and OR over (a, b, c), E(a, b) and not E(b, a) are
    # combined and read once; P(b) and E(a, c) are read one each
    s = _random_e_and_r(n)
    s = RelStructure(VOC, n, {"E": s.rel("E"), "R": s.rel("R"),
                              "P": {(v,) for v in range(n) if v % 2}})
    itn = Interner()
    kids = [mk_atom("E", ("a", "b"), itn),
            mk_not(mk_atom("E", ("b", "a"), itn), itn),
            mk_atom("R", ("a", "b", "c"), itn),
            mk_atom("P", ("b",), itn),
            mk_atom("E", ("a", "c"), itn)]
    ev = TableEvaluator(s)
    for mk in (mk_and, mk_or):
        assert_cells_match(ev, mk(kids, itn))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_counts_over_one_child_in_one_evaluator_match(n):
    # every COUNT below applies its own counter to the one table of R:
    # an evaluator that reused a result by the table alone would give
    # each the first one's table
    itn = Interner()
    child = mk_atom("R", ("a", "b", "c"), itn)
    ev = TableEvaluator(_random_e_and_r(n))
    for bound in "abc":
        for mode in (">=", "=", "<="):
            for threshold in range(n + 1):
                assert_cells_match(
                    ev, mk_count(mode, threshold, bound, child, itn))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reads_of_one_child_into_other_layouts_in_one_evaluator_match(n):
    # E(b, c) lies at positions (1, 2) under a node over (a, b, c), (0, 1)
    # under one over (b, c, d) and (0, 2) under one over (b, bb, c): three
    # readers of one table in one evaluator, for AND and again for OR
    itn = Interner()
    e = mk_atom("E", ("b", "c"), itn)
    others = [mk_atom("P", (v,), itn) for v in ("a", "d", "bb")]
    ev = TableEvaluator(_random_e_and_r(n))
    for mk in (mk_and, mk_or):
        for other in others:
            assert_cells_match(ev, mk([e, other], itn))


def _kept_entries(root):
    """The entries each node of root and each of their steps records
    hold: the node's steps by n, and its family's plans, shapes, constant
    tables, slots, listings and decided marks by n."""
    kept = {}
    for f in nodes(root):
        family = f.family
        kept[f] = (len(f.steps), len(family.plans), len(family.by_shape),
                   {n: len(c) for n, c in family.by_n.items()},
                   family.size, len(family.listings),
                   {n: bytes(d) for n, d in family.decided.items()})
    return kept


def test_a_second_evaluator_at_one_n_keeps_nothing_new():
    # what an evaluator stores of the tables it reads goes with it: a
    # second structure of the same size adds no entry to a node or a
    # steps record
    itn = Interner()
    root = parse_sexpr(
        "(or (count = 1 y (and (atom E x y) (atom P y)))"
        " (count >= 2 z (and (atom R x y z) (not (atom E z y)))))", itn)
    first = RelStructure(VOC, 3, {"E": {(0, 1), (1, 2)}, "P": {(1,)}})
    assert_cells_match(TableEvaluator(first), root)
    kept = _kept_entries(root)
    assert_cells_match(TableEvaluator(_random_e_and_r(3)), root)
    assert _kept_entries(root) == kept


def test_a_root_over_nodes_of_two_interners_is_refused():
    # a NOT of another interner's atom lies in no family of the root's
    itn = Interner()
    loop = mk_atom("E", ("x", "x"), Interner())
    root = mk_or([mk_atom("P", ("x",), itn), mk_not(loop, itn)], itn)
    with pytest.raises(PreconditionViolated):
        TableEvaluator(_random_e_and_r(3)).eval(root, {"x": 0})


def test_a_root_over_roots_planned_first_matches():
    # g and h share no node and are planned first; a root over both then
    # plans its new nodes in the same family, on the evaluator that filled
    # g and h and on fresh ones at two sizes
    itn = Interner()
    g = parse_sexpr("(count = 1 y (and (atom E x y) (atom P y)))", itn)
    h = parse_sexpr("(count >= 2 z (or (atom R x y z) (not (eq y z))))",
                    itn)
    ev = TableEvaluator(_random_e_and_r(3))
    for first in (g, h):
        assert_cells_match(ev, first)
    root = mk_or([g, mk_and([h, mk_atom("P", ("z",), itn)], itn)], itn)
    assert_cells_match(ev, root)
    for first in (g, h):
        assert_cells_match(ev, first)
    for n in (2, 3):
        for r in (root, g, h):
            assert_cells_match(TableEvaluator(_random_e_and_r(n)), r)
    assert_family_is_whole(root)
    assert g.family is h.family is root.family is itn.family


def test_one_evaluator_keeps_the_registers_of_two_interners_apart():
    # two formulas that differ in one atom, on two interners: their nodes
    # have the same slots in either family, and one evaluator must not
    # read one's tables as the other's (f holds nowhere, g at x = 0)
    text = "(and (count = 1 y (and (atom E x y) (atom P y))) (atom {}))"
    first, second = Interner(), Interner()
    f = parse_sexpr(text.format("P x"), first)
    g = parse_sexpr(text.format("E x x"), second)
    s = RelStructure(VOC, 3, {"E": {(0, 0), (0, 1), (1, 2)}, "P": {(1,)}})
    ev = TableEvaluator(s)
    for root in (f, g, f, g):
        assert_cells_match(ev, root)
    assert f.family is first.family and g.family is second.family
    assert f.slot == g.slot


def test_evaluation_keeps_no_state_in_the_module():
    def sizes(values, path):
        # every dict, list and set in the module, also inside tuples
        for name, value in values:
            if isinstance(value, (dict, list, set)):
                yield path + (name,), len(value)
            elif isinstance(value, tuple):
                yield from sizes(enumerate(value), path + (name,))
    before = dict(sizes(vars(cformula).items(), ()))
    itn = Interner()
    f = parse_sexpr("(and (count = 1 y (atom E x y)) (not (atom P x)))", itn)
    g = parse_sexpr("(count >= 2 z (or (atom R x y z) (eq y z)))", itn)
    for n in range(1, 6):
        ev = TableEvaluator(_random_e_and_r(n))
        for root in (f, g):
            assert_cells_match(ev, root)
    assert dict(sizes(vars(cformula).items(), ())) == before


@settings(max_examples=150)
@given(formulas())
def test_sexpr_round_trip(f):
    assert parse_sexpr(print_sexpr(f), ITN) is f


@settings(max_examples=100)
@given(structures(), formulas(), st.integers(0, 3))
def test_exact_count_is_ge_and_not_ge_succ(s, f, t):
    exact = mk_count("=", t, "x", f, ITN)
    split = mk_and(
        [mk_count(">=", t, "x", f, ITN),
         mk_not(mk_count(">=", t + 1, "x", f, ITN), ITN)], ITN
    )
    assign = {v: 0 for v in VARS}
    assert TableEvaluator(s).eval(exact, assign) == TableEvaluator(s).eval(
        split, assign
    )


@settings(max_examples=100)
@given(formulas(), formulas())
def test_interning_gives_identity(f, g):
    again_f = parse_sexpr(print_sexpr(f), ITN)
    assert again_f is f
    if print_sexpr(f) == print_sexpr(g):
        assert f is g


def _fields(f):
    """(qdepth, variable names, free variables) of f, recomputed over its
    whole tree."""
    if f.kind in ("bool", "eq", "atom"):
        return 0, frozenset(f.vars), frozenset(f.vars)
    subs = [_fields(c) for c in f.children]
    if f.kind == "count":
        ((qd, names, free),) = subs
        return qd + 1, names | {f.bound_var}, free - {f.bound_var}
    return (max(qd for qd, _, _ in subs),
            frozenset().union(*(names for _, names, _ in subs)),
            frozenset().union(*(free for _, _, free in subs)))


@settings(max_examples=100)
@given(formulas())
def test_interned_nodes_carry_their_derived_fields(f):
    for node in nodes(f):
        qd, names, free = _fields(node)
        assert (node.qdepth, nvars(node), node.free_vars) == (
            qd, len(names), free)
        assert node.fv == tuple(sorted(free))
        # a node shares the tuple of a child with its free variables
        same = [c.fv for c in node.children if set(c.fv) == free]
        if same:
            assert any(node.fv is fv for fv in same)


def test_rebuilding_returns_the_node_and_takes_no_nid():
    itn = Interner()
    f = parse_sexpr("(or (atom E x y) (count = 2 y (and (eq x y) (atom P y))))",
                    itn)
    size = len(itn)
    before = mk_bool(True, Interner()).nid
    assert parse_sexpr(print_sexpr(f), itn) is f
    assert mk_bool(True, Interner()).nid == before + 1
    assert len(itn) == size
    # a new key keeps the node; a node that loses to an existing one gets
    # no nid and no derived field
    fresh = CFormula("not", children=(f,))
    assert itn.intern(fresh) is fresh and fresh.qdepth == 1
    dropped = CFormula("not", children=(f,))
    assert itn.intern(dropped) is fresh
    assert dropped.nid == -1 and not hasattr(dropped, "qdepth")


def test_atom_arity_is_checked_before_any_table():
    s = RelStructure(VOC, 3, {"E": frozenset({(0, 1)})})
    f = mk_atom("E", ("x",) * 13, Interner())
    for ev in (Evaluator(s), TableEvaluator(s)):
        with pytest.raises(ArityMismatch):
            ev.eval(f, {"x": 0})


@settings(max_examples=50)
@given(structures())
def test_atom_table_spans_its_distinct_variables(s):
    f = mk_atom("R", ("x", "x", "y"), ITN)
    table = TableEvaluator(s)
    assert f.fv == ("x", "y")
    assert_cells_match(table, f)
    for a in range(s.n):
        for b in range(s.n):
            assert table.eval(f, {"x": a, "y": b}) == ((a, a, b) in s.rel("R"))


def test_unknown_kind_is_refused_when_interned():
    with pytest.raises(ValueError):
        Interner().intern(CFormula("xor", children=()))


def test_interner_isolation():
    f = mk_atom("P", ("x",), Interner())
    g = mk_atom("P", ("x",), Interner())
    assert f is not g
    assert f.nid != g.nid
    assert print_sexpr(f) == print_sexpr(g)


def test_building_without_an_interner_is_a_type_error():
    with pytest.raises(TypeError):
        mk_atom("P", ("x",))
    with pytest.raises(TypeError):
        parse_sexpr("(atom P x)")


def test_intern_keys_do_not_alias_across_interners():
    # an intern key holds child nids; an atom of another interner must
    # not make a NOT over it look like the NOT over this interner's atom
    a = Interner()
    p = mk_atom("P", ("x",), a)
    loop = mk_atom("E", ("x", "x"), Interner())
    assert print_sexpr(mk_not(loop, a)) == "(not (atom E x x))"
    assert print_sexpr(mk_not(p, a)) == "(not (atom P x))"


def test_evaluators_keep_formulas_of_two_interners_apart():
    # both evaluators memoize on nids; one evaluator may see formulas
    # built on different interners
    s = RelStructure(VOC, 1, {"E": frozenset(), "P": frozenset({(0,)})})
    p = mk_atom("P", ("x",), Interner())
    loop = mk_atom("E", ("x", "x"), Interner())
    b = Interner()
    succ = mk_exists("y", mk_atom("E", ("x", "y"), b), b)
    for ev in (Evaluator(s), TableEvaluator(s)):
        assert ev.eval(p, {"x": 0})
        assert not ev.eval(loop, {"x": 0})
        assert not ev.eval(succ, {"x": 0})


def test_qdepth_and_nvars():
    itn = Interner()
    inner = mk_atom("E", ("x", "y"), itn)
    f = mk_exists("x", mk_count(">=", 2, "y", inner, itn), itn)
    assert qdepth(inner) == 0
    assert qdepth(f) == 2
    assert nvars(f) == 2
    g = mk_and([f, mk_atom("P", ("z",), itn)], itn)
    assert nvars(g) == 3
    # a vacuous binder and a rebound name each count once
    assert nvars(parse_sexpr("(count >= 1 z (atom P x))", itn)) == 2
    assert nvars(parse_sexpr(
        "(and (atom P x) (count >= 1 x (atom E x y)))", itn)) == 2


def test_shadowing_inner_binder_wins():
    itn = Interner()
    s = RelStructure(VOC, 2, {"E": frozenset(), "P": frozenset({(1,)})})
    # exists x (not P(x) and exists x P(x)) -- the inner x is independent
    p = mk_atom("P", ("x",), itn)
    f = mk_exists(
        "x", mk_and([mk_not(p, itn), mk_exists("x", p, itn)], itn), itn
    )
    assert Evaluator(s).eval(f)


def test_dag_smaller_than_tree_when_shared():
    itn = Interner()
    p = mk_atom("P", ("x",), itn)
    f = mk_or([mk_and([p, p], itn), mk_and([p, p], itn)], itn)
    assert dag_size(f) < tree_size(f)


def test_deep_chain_is_walked_without_recursion():
    # f_k = P(x) and not f_(k-1): 5,000 links, far past the recursion limit
    itn = Interner()
    s = RelStructure(VOC, 2, {"P": frozenset({(0,)})})
    p = mk_atom("P", ("x",), itn)
    f = p
    for _ in range(5000):
        f = mk_and([p, mk_not(f, itn)], itn)
    ev = TableEvaluator(s)
    assert ev.eval(f, {"x": 0}) is True  # f_k holds at a P-state iff k is even
    assert ev.eval(f, {"x": 1}) is False
    assert dag_size(f) == 2 * 5000 + 1
    assert tree_size(f) == 3 * 5000 + 1


def test_repr_is_bounded_by_the_node():
    # 37 nodes that print as a tree of 786,430: pytest formats the operands
    # of a failing assert with repr
    itn = Interner()
    f = mk_atom("P", ("x",), itn)
    for _ in range(18):
        f = mk_and([f, mk_not(f, itn)], itn)
    assert dag_size(f) == 37 and tree_size(f) == 786_430
    assert len(repr(f)) < 200


def test_nodes_lists_children_first_and_skips_known_nodes():
    itn = Interner()
    p, q = mk_atom("P", ("x",), itn), mk_atom("E", ("x", "y"), itn)
    f = mk_or([mk_and([p, q], itn), mk_not(q, itn)], itn)
    listed = nodes(f)
    assert [node.nid for node in listed] == sorted(node.nid for node in listed)
    assert listed[-1] is f and len(listed) == dag_size(f) == 5
    assert nodes(f, {q.nid}) == [n for n in listed if n is not q]
    assert nodes(f, {f.nid}) == []


def test_boolean_simplifications():
    itn = Interner()
    p = mk_atom("P", ("x",), itn)
    assert mk_not(mk_not(p, itn), itn) is p
    assert mk_and([p, mk_bool(True, itn)], itn) is p
    assert mk_or([p, mk_bool(False, itn)], itn) is p
    assert mk_or([p, mk_bool(True, itn)], itn) is mk_bool(True, itn)
    assert mk_and([p, mk_bool(False, itn)], itn) is mk_bool(False, itn)
    assert mk_count(">=", 0, "x", p, itn) is mk_bool(True, itn)


@pytest.mark.parametrize("mode", [">=", "=", "<="])
@pytest.mark.parametrize("threshold", range(4))
def test_count_of_false_folds_by_its_witness_count_zero(mode, threshold):
    # no witness satisfies a false body: the count passes exactly when 0
    # passes the comparison
    itn = Interner()
    f = mk_count(mode, threshold, "x", mk_bool(False, itn), itn)
    holds = mode == "<=" or threshold == 0
    assert f is mk_bool(holds, itn)


def test_implies():
    itn = Interner()
    s = RelStructure(VOC, 2, {"E": frozenset(), "P": frozenset({(0,), (1,)})})
    f = mk_forall("x", mk_implies(mk_atom("P", ("x",), itn),
                                  mk_eq("x", "x", itn), itn), itn)
    assert Evaluator(s).eval(f)


def test_unbound_variable_raises():
    s = RelStructure(VOC, 2, {"E": frozenset(), "P": frozenset()})
    with pytest.raises(UnboundVariable):
        Evaluator(s).eval(mk_atom("P", ("x",), Interner()), {})
    with pytest.raises(UnboundVariable):
        TableEvaluator(s).eval(mk_atom("P", ("x",), Interner()), {})


@pytest.mark.parametrize("assign", [
    {"x": 0, "y": 7}, {"x": -1, "y": 0}, {"x": 0, "y": "1"}, {"x": 0, "y": 1.0},
    {"x": True, "y": 0}, {"x": 0, "y": 0, "unused": 4},
])
def test_evaluators_refuse_ids_out_of_range(assign):
    # on an n=4 flat table, (x, y) = (0, 7) would read the cell of the
    # edge (1, 3)
    s = RelStructure(VOC, 4, {"E": frozenset({(1, 3)})})
    f = mk_atom("E", ("x", "y"), Interner())
    for ev in (Evaluator(s), TableEvaluator(s)):
        with pytest.raises(IdOutOfRange):
            ev.eval(f, assign)


def test_distinguishes_requires_sentence():
    itn = Interner()
    s = RelStructure(VOC, 2, {"E": frozenset(), "P": frozenset()})
    t = RelStructure(VOC, 2, {"E": frozenset(), "P": frozenset({(0,)})})
    sentence = mk_exists("x", mk_atom("P", ("x",), itn), itn)
    assert distinguishes(s, t, sentence)
    with pytest.raises(UnboundVariable):
        distinguishes(s, t, mk_atom("P", ("x",), itn))


def test_parse_errors():
    itn = Interner()
    with pytest.raises(MalformedInput):
        parse_sexpr("(frob x)", itn)
    with pytest.raises(MalformedInput):
        parse_sexpr("(count maybe 1 x (bool t))", itn)
    with pytest.raises(MalformedInput):
        parse_sexpr("(eq x)", itn)
    with pytest.raises(MalformedInput):
        parse_sexpr("(bool t) extra", itn)
