"""The three benchmark workloads: inputs from a seed, items, verdicts.

A workload builds its whole item list in `setup` from the seed and the
number of rounds, so the same seed gives the same items. Each round holds
a fixed mix of item kinds; the seed picks the concrete inputs inside each
kind and the order inside each round. Item cost depends mostly on the
kind, so the fixed mix keeps throughput comparable across seeds.

`run_item` returns the list of disagreements with the item's referee
(empty when the verdict is right); the runner turns an exception into a
failed item. `count` adds the item's deterministic counts to a traced
pass after the item's span has closed, so counting is not item time.
"""

from __future__ import annotations

import itertools
import math
import random
from types import SimpleNamespace

from lreckit.cformula import Interner, TableEvaluator, dag_size, nvars, qdepth
from lreckit.compile import QUERY_VAR, CompileParams, FormulaCache
from lreckit.intervals import maxcliques
from lreckit.lformula import TwoSortedAssignment, parse_lsexpr
from lreckit.structures import Graph, RelStructure, Vocabulary
from lreckit.xfix import XInstance

import battery
from layers import CountingCache, CountingInterner


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _free_var_histogram(roots) -> dict[int, int]:
    """Number of distinct nodes reachable from `roots`, by free-variable
    count. A table evaluator builds one table of |A|^k cells for each."""
    hist: dict[int, int] = {}
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.nid in seen:
            continue
        seen.add(node.nid)
        k = len(node.free_vars)
        hist[k] = hist.get(k, 0) + 1
        stack.extend(node.children)
    return hist


def _count_tables(rec, hist: dict[int, int], n: int) -> None:
    rec.counts["cformula.table_nodes"] += sum(hist.values())
    rec.counts["cformula.table_cells"] += sum(
        count * n ** k for k, count in hist.items())


def _count_roots(rec, roots) -> None:
    for f in roots:
        rec.counts["cformula.dag_nodes"] += dag_size(f)
        rec.peak("cformula.qdepth_max", qdepth(f))
        rec.peak("cformula.nvars_max", nvars(f))


def _new_cache(rec):
    """A fresh formula cache; counting subclasses on a traced pass."""
    if rec is None:
        return FormulaCache(Interner())
    return CountingCache(CountingInterner())


def _graph_digest(g) -> list:
    return [g.n, sorted(g.edges), getattr(g, "root", None)]


class Verify:
    """Compiled formula vs. the recursion oracle, as `lreckit verify`.

    The formulas phi_1..phi_{n+1} for n = 4, r = 1 are compiled once in
    setup; every item reads them. An item is one instance of
    `generate_corpus(seed, 4, count)`: encode it, build one table
    evaluator, check every (v, i) against `compute_X`.
    """

    name = "verify"
    N = 4
    R = 1
    # instances per round by element count, in the proportions of the
    # corpus itself: generate_corpus(seed, 4, 400) over seeds 1-40 gives
    # 49.7%, 26.1%, 16.5% and 7.7% for 1, 2, 3 and 4 elements, that is
    # 12.9, 6.8, 4.3 and 2.0 per 26. Table-evaluation cost is set mostly
    # by the element count, since every item checks the same DAG, so a
    # fixed mix keeps the cost of a round nearly the same for every seed.
    MIX = {1: 13, 2: 7, 3: 4, 4: 2}
    ROUND_ITEMS = sum(MIX.values())
    NOMINAL_ROUND_S = 4.6
    # a pass of at least 100 items takes about 25 s, so only two fit
    PASSES = 2

    def setup(self, seed, rounds, api, rec=None):
        pool = api.generate(seed, self.N, 200 + 40 * rounds)
        by_size = {size: [] for size in self.MIX}
        for g, c in pool:
            by_size[g.n].append((g, c))
        rng = _rng(self.name, seed)
        items = []
        for r in range(rounds):
            batch = []
            for size, quota in self.MIX.items():
                bucket = by_size[size]
                # a short bucket is reused cyclically
                batch += [bucket[(r * quota + j) % len(bucket)]
                          for j in range(quota)]
            rng.shuffle(batch)
            items += batch
        cache = _new_cache(rec)
        params = CompileParams(self.N, self.R)
        formulas = [api.compile(params, i, cache=cache)
                    for i in range(1, self.N + 2)]
        state = SimpleNamespace(items=items, cache=cache, formulas=formulas)
        if rec is not None:
            state.hist = _free_var_histogram(formulas)
            _count_roots(rec, formulas)
        return state

    def invariants(self, state) -> list[str]:
        """The paper's invariants on the compiled formulas: a constant
        number of variables (4) and quantifier depth O(log n)."""
        broken = []
        nv = max(nvars(f) for f in state.formulas)
        if nv != 4:
            broken.append(f"nvars_max = {nv}, expected 4")
        ratio = max(qdepth(f) for f in state.formulas) / math.log2(self.N + 1)
        if not ratio < 20:
            broken.append(f"qdepth_max / log2(n+1) = {ratio:.2f}, bound 20")
        return broken

    def run_item(self, state, item, api):
        g, c = item
        ev = TableEvaluator(api.encode(g, c, self.N))
        inst = XInstance(g, c)
        bad = []
        for i, f in enumerate(state.formulas, 1):
            for v in range(g.n):
                got = api.table_eval(ev, f, {"x": v})
                want = api.compute_X(inst, v, i)
                if got != want:
                    bad.append(f"(v={v}, i={i}): table {got}, compute_X {want}")
        return bad

    def count(self, state, item, rec):
        _count_tables(rec, state.hist, item[0].n)

    def describe(self, item):
        g, c = item
        return _graph_digest(g) + [[sorted(s) for s in c.sets]]


class Translate:
    """The single-level lrec translation against the direct evaluator.

    An item is one (formula, structure, resource tuple): translate it with
    `translate_lrec_once` on the run's shared formula cache, build a fresh
    table evaluator, and check every element against `eval_lrec`.
    """

    name = "translate"
    # slots of one round: (element count, resource tuple). Item cost is
    # set mostly by the slot, so the slots form four cost classes, and
    # the median and the 90th percentile fall inside a class, not on a
    # border between two:
    #   3 cheap (under 0.1 s), 14 middle (0.1-0.2 s), 2 at about 0.3 s,
    #   1 at about 0.65 s.
    # The two upper classes use two-resource formulas only: there are
    # three of them and they cost about the same, so the classes stay
    # narrow. Tuples encoding resource 0 are left out (the translation is
    # the constant false), and so are the largest resources: at 1-5 s
    # per item a run could not hold 100 items.
    SLOTS = (
        (2, (2,)), (3, (1,)), (2, (2, 0)),
        (3, (2,)), (3, (2,)), (3, (2,)), (3, (2,)), (3, (2,)),
        (4, (1,)), (4, (1,)), (4, (1,)), (4, (1,)), (4, (1,)),
        (2, (0, 1)), (2, (0, 1)), (2, (0, 1)), (2, (0, 1)),
        (2, (1, 1)), (2, (1, 1)),
        (2, (2, 1)),
    )
    ROUND_ITEMS = len(SLOTS)
    NOMINAL_ROUND_S = 3.0
    # a pass of at least 100 items takes about 15 s
    PASSES = 2

    def __init__(self):
        voc = Vocabulary(battery.VOCABULARY)
        self.structures = [
            RelStructure(voc, n, {
                "E": frozenset(edges),
                "P": frozenset((v,) for v in p),
                "Q": frozenset((v,) for v in q),
            })
            for n, edges, p, q in battery.STRUCTURES
        ]

    def setup(self, seed, rounds, api, rec=None):
        formulas = [(parse_lsexpr(battery.lrec_text(*combo)), combo[3])
                    for combo in battery.COMBOS]
        rng = _rng(self.name, seed)
        # formulas of each resource width are dealt from a seeded cyclic
        # order, so every run uses them equally often
        deal = {}
        for width in (1, 2):
            ids = [fid for fid, (_, kappas) in enumerate(formulas)
                   if len(kappas) == width]
            rng.shuffle(ids)
            deal[width] = itertools.cycle(ids)
        by_size = {}
        for sid, s in enumerate(self.structures):
            by_size.setdefault(s.n, []).append(sid)
        items = []
        for _ in range(rounds):
            batch = [(next(deal[len(tup)]), rng.choice(by_size[n]), tup)
                     for n, tup in self.SLOTS]
            rng.shuffle(batch)
            items += batch
        return SimpleNamespace(items=items, cache=_new_cache(rec),
                               formulas=formulas, roots={}, last=None)

    def invariants(self, state) -> list[str]:
        return []

    def run_item(self, state, item, api):
        fid, sid, tup = item
        f, kappas = state.formulas[fid]
        s = self.structures[sid]
        cf = api.translate(f, s.n, tup, state.cache)
        state.last = cf
        ev = TableEvaluator(s)
        bad = []
        for v in range(s.n):
            want = api.eval_lrec(
                s, f, TwoSortedAssignment({"x": v}, dict(zip(kappas, tup))))
            got = api.table_eval(ev, cf, {QUERY_VAR: v})
            if got != want:
                bad.append(f"(x={v}): table {got}, eval_lrec {want}")
        return bad

    def count(self, state, item, rec):
        cf = state.last
        hist = state.roots.get(cf.nid)
        if hist is None:
            hist = state.roots[cf.nid] = _free_var_histogram([cf])
            _count_roots(rec, [cf])
        _count_tables(rec, hist, self.structures[item[1]].n)

    def describe(self, item):
        return list(item)


def _random_graph(rng, n, p):
    return Graph(n, frozenset(
        e for e in itertools.combinations(range(n), 2) if rng.random() < p))


def _relabel(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


def _cycles(*lengths):
    edges, base = [], 0
    for m in lengths:
        edges += [(base + j, base + (j + 1) % m) for j in range(m)]
        base += m
    return Graph(base, frozenset(edges))


class Graphs:
    """Graph machinery that never touches `cformula` or `compile`.

    A round holds 8 corpus DAGs through weights, build_tree and
    check_tree; 8 `build_H` unfoldings checked for mul <= i and the height
    bound; 4 two-dimensional WL pairs whose answer is known by
    construction; 8 interval-recognition queries checked against the
    oracle.
    """

    name = "graphs"
    WL_K = 2
    WL_ROUNDS = 3
    MAX_CLIQUES = 12  # is_interval refuses more with SizeExceeded
    ROUND_ITEMS = 28
    NOMINAL_ROUND_S = 0.065
    # passes split the rounds, so more of them cost no more work; with
    # items this short, twelve spread each item over the whole run
    PASSES = 12

    def setup(self, seed, rounds, api, rec=None):
        rng = _rng(self.name, seed)
        dags = [g for g, _ in api.generate(seed, 12, 8 * rounds)]
        hosts = [g for g, _ in api.generate(seed + 1, 8, 2 * rounds)]
        kinds = []
        for r in range(rounds):
            batch = [("dag", dags[8 * r + j]) for j in range(8)]
            for j in range(8):
                g = hosts[2 * r + j % 2]
                res = 1 + j % 2
                cap = (g.n + 1) ** res
                i = rng.choice(sorted({1, 2, 3, cap // 2, cap} - {0}))
                batch.append(("unfold", g, rng.randrange(g.n), i, res))
            for _ in range(3):
                g = _random_graph(rng, 8, rng.uniform(0.3, 0.7))
                # isomorphic copies are never told apart: every round runs
                batch.append(("wl", g, _relabel(rng, g), None))
            m = rng.choice((5, 6))
            # a 2m-cycle against two m-cycles: both 2-regular, so round 0
            # agrees; 2-dimensional WL separates them by distance
            batch.append(("wl", _relabel(rng, _cycles(2 * m)),
                          _relabel(rng, _cycles(m, m)), "apart"))
            intervals = 0
            while intervals < 8:
                g = _random_graph(rng, rng.choice((6, 7, 8)),
                                  rng.uniform(0.2, 0.8))
                if len(maxcliques(g)) <= self.MAX_CLIQUES:
                    batch.append(("interval", g))
                    intervals += 1
            rng.shuffle(batch)
            kinds += batch
        return SimpleNamespace(items=kinds, last=None)

    def invariants(self, state) -> list[str]:
        return []

    def run_item(self, state, item, api):
        kind = item[0]
        if kind == "dag":
            g = item[1]
            t = api.weights(g)
            bad = []
            if any(w > m for w, m in zip(t.wt, t.mul)) or \
                    not t.awt <= t.amul <= max(t.mul) * g.n:
                bad.append("weight invariants")
            tree = api.build_tree(g)
            report = api.check_tree(g, tree)
            if not report.all_pass():
                bad.append(f"check_tree: {report.witnesses}")
            state.last = tree
            return bad
        if kind == "unfold":
            _, g, v, i, r = item
            h = api.build_H(g, v, i)
            bad = []
            if max(api.weights(h.graph).mul) > i:
                bad.append(f"mul above i = {i}")
            tree = api.build_tree(h.graph)
            # height <= (4r+2) * log2(n+1)
            if 2 ** tree.height() > (g.n + 1) ** (4 * r + 2):
                bad.append(f"height {tree.height()} above the bound")
            state.last = (h, tree)
            return bad
        if kind == "wl":
            _, g, h, expect = item
            got = api.distinguish(g, h, self.WL_K, self.WL_ROUNDS)
            state.last = got
            ok = got is None if expect is None else got is not None and got >= 1
            return [] if ok else [f"distinguish gave {got}, expected {expect}"]
        g = item[1]
        got, want = api.is_interval(g), api.oracle(g)
        return [] if got == want else [f"is_interval {got}, oracle {want}"]

    def count(self, state, item, rec):
        kind = item[0]
        if kind == "dag":
            self._count_tree(rec, state.last)
        elif kind == "unfold":
            h, tree = state.last
            rec.counts["xfix.H_nodes"] += h.graph.n
            self._count_tree(rec, tree)
        elif kind == "wl":
            got = state.last
            rec.counts["wl.rounds"] += self.WL_ROUNDS if got is None else got
        else:
            rec.counts["intervals.graphs"] += 1

    @staticmethod
    def _count_tree(rec, tree):
        rec.counts["balancer.tree_nodes"] += len(tree.nodes())
        rec.peak("balancer.height_max", tree.height())

    def describe(self, item):
        kind = item[0]
        if kind == "wl":
            return [kind, _graph_digest(item[1]), _graph_digest(item[2]),
                    item[3]]
        if kind == "unfold":
            return [kind, _graph_digest(item[1])] + list(item[2:])
        return [kind, _graph_digest(item[1])]


WORKLOADS = {w.name: w for w in (Verify(), Translate(), Graphs())}
