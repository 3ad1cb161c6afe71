"""The lreckit calls the benchmark times, and the recorder for traced runs.

A layer is an lreckit module. Every call the benchmark makes into a layer
goes through `Api`, one attribute per entry of `CALLS`. Untraced, the
attributes are the library functions themselves. Traced, each is wrapped
so that it records a span (name, start, end, parent, item id) and counts
calls and raised errors. Spans stay in memory until the run ends.

Counters that need a look inside a layer come from subclasses of its
public classes, passed in where the library accepts them:
`CountingInterner` through `FormulaCache(interner=...)` and
`CountingCache` in place of `FormulaCache`.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from lreckit import compile as lcompile
from lreckit.balancer import build_tree, check_tree
from lreckit.cformula import Interner, TableEvaluator
from lreckit.compile import FormulaCache, compile_x_formula, translate_lrec_once
from lreckit.corpus import generate_corpus
from lreckit.dagstats import weights
from lreckit.intervals import is_interval, is_interval_oracle
from lreckit.lformula import eval_lrec
from lreckit.wl import distinguish
from lreckit.xfix import build_H, compute_X, encode_tau_n

# span name -> library callable; the span name is "<module>.<call>"
CALLS = {
    "corpus.generate": generate_corpus,
    "compile.compile": compile_x_formula,
    "compile.translate": translate_lrec_once,
    "cformula.table_eval": TableEvaluator.eval,
    "xfix.encode": encode_tau_n,
    "xfix.compute_X": compute_X,
    "xfix.build_H": build_H,
    "lformula.eval_lrec": eval_lrec,
    "dagstats.weights": weights,
    "balancer.build_tree": build_tree,
    "balancer.check_tree": check_tree,
    "wl.distinguish": distinguish,
    "intervals.is_interval": is_interval,
    "intervals.oracle": is_interval_oracle,
}

ITEM = "item"

LAYERS = ("corpus", "compile", "cformula", "xfix", "lformula", "dagstats",
          "balancer", "wl", "intervals")

# counters that workloads add up; "<span>_calls" ones come from `wrap`
COUNTED = ("cformula.table_eval_calls", "cformula.table_nodes",
           "cformula.table_cells", "cformula.dag_nodes",
           "xfix.compute_X_calls", "xfix.H_nodes",
           "lformula.eval_lrec_calls", "balancer.tree_nodes", "wl.rounds",
           "intervals.graphs")

# every per-layer metric of a traced run, with its unit
PER_LAYER = {
    **{name + "_s": "s" for name in CALLS},
    **{name: "count" for name in COUNTED},
    "cformula.cells_per_s": "1/s",
    "cformula.intern_calls": "count",
    "cformula.intern_new": "count",
    "cformula.intern_hit_ratio": "ratio",
    "cformula.qdepth_max": "count",
    "cformula.nvars_max": "count",
    "compile.cache_hits": "count",
    "compile.cache_misses": "count",
    "compile.cache_hit_ratio": "ratio",
    "balancer.height_max": "count",
    **{layer + ".errors": "count" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}


class Api:
    """One attribute per `CALLS` entry, named after the part after the
    dot: `api.encode(g, c, n)`, `api.table_eval(ev, f, assignment)`."""

    def __init__(self, recorder: "Recorder | None" = None):
        for name, fn in CALLS.items():
            if recorder is not None:
                fn = recorder.wrap(name, fn)
            setattr(self, name.split(".", 1)[1], fn)


class Recorder:
    """Spans, counters and maxima of one traced pass."""

    def __init__(self):
        # [name, start_ns, end_ns, parent index or -1, item id or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self.item_id: int | None = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.item_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[layer + ".errors"] += 1
                raise
            finally:
                self._close(rec)

        return traced

    def begin_item(self, item_id: int) -> list:
        self.item_id = item_id
        return self._open(ITEM)

    def end_item(self, rec: list) -> None:
        self._close(rec)
        self.item_id = None

    def peak(self, name: str, value: int) -> None:
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    def self_times(self, items_only: bool = False):
        """Self time per span name in seconds (span time minus the time
        its child spans cover), total item wall time, and the part of it
        that no layer span covers. `items_only` drops set-up spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        own: Counter = Counter()
        item_ns = 0
        for idx, (name, start, end, _, item) in enumerate(self.spans):
            if items_only and item is None:
                continue
            own[name] += end - start - child_ns[idx]
            if name == ITEM:
                item_ns += end - start
        uncovered = own.pop(ITEM, 0)
        return ({k: v / 1e9 for k, v in own.items()},
                item_ns / 1e9, uncovered / 1e9)


class CountingInterner(Interner):
    """Counts intern calls and the calls that created a new node."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.new = 0

    def intern(self, node):
        self.calls += 1
        out = super().intern(node)
        if out is node:
            self.new += 1
        return out


class CountingCache(FormulaCache):
    """Counts formula-cache lookups that hit and that missed."""

    def __init__(self, interner=None):
        super().__init__(interner)
        self.hits = 0
        self.misses = 0

    def get(self, key):
        out = super().get(key)
        if out is None:
            self.misses += 1
        else:
            self.hits += 1
        return out


@contextmanager
def patched_compile(api: Api):
    """While active, `translate_lrec_once` reaches `compile_x_formula`
    through the traced wrapper, so its nested compile shows as a child
    span. The module attribute is restored on exit."""
    lcompile.compile_x_formula = api.compile
    try:
        yield
    finally:
        lcompile.compile_x_formula = compile_x_formula
