"""Command-line front door: one subcommand per module capability.

All outputs are JSON (formulas as S-expressions inside JSON strings) and
fully determined by the inputs and --seed. Errors surface as a
machine-readable JSON object on stderr with exit code 2. Each command
returns its document and exit code, and `main` writes the one JSON object;
warnings raised on the way go into it as a "warnings" list.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import balancer, compile as compiler, corpus, dagstats, intervals, wl
from .cformula import Interner, TableEvaluator, parse_sexpr, print_sexpr
from .errors import LreckitError, MalformedInput, SizeExceeded, SizeMismatch
from .lformula import TwoSortedAssignment, eval_lrec, parse_lsexpr
from .structures import parse_digraph, parse_graph, parse_structure
from .xfix import XInstance, compute_X, parse_cardinality


# compile and decompose refuse to print a formula or a decomposition tree
# whose expanded tree is larger: both share subtrees in memory, but the
# printer writes every node of the expanded tree. A decomposition node
# becomes a dict and then about 700 bytes of indented JSON (the 1.56M nodes
# of a 30-vertex band DAG wrote 1.09 GB at 3.6 GB peak RSS), so its cap is
# lower; it admits the 24-vertex band DAG, 86,966 nodes.
MAX_PRINTED_NODES = 20_000_000
MAX_DECOMPOSED_NODES = 100_000
# the largest oracle sweep, in (vertex, i) pairs, and verify corpus
MAX_ORACLE_PAIRS = 2 ** 20
MAX_VERIFY_COUNT = 10_000


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"cannot read {path!r}: {exc}") from None


def _assignment(text: str | None) -> dict:
    """The JSON object given to --assign; {} when the option is absent."""
    try:
        doc = json.loads(text) if text else {}
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"--assign is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedInput("--assign must be a JSON object")
    return doc


def _formula_text(args) -> str:
    """The formula given inline by --sexpr (even if empty) or by --formula."""
    if args.sexpr is not None:
        return args.sexpr
    if args.formula is None:
        raise MalformedInput("give the formula by --sexpr or --formula")
    return _read(args.formula)


def _emit(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise MalformedInput(f"cannot write {out!r}: {exc}") from None
    else:
        print(text)


def cmd_eval(args):
    s = parse_structure(_read(args.structure))
    f = parse_sexpr(_formula_text(args), Interner())
    result = TableEvaluator(s).eval(f, _assignment(args.assign))
    return {"result": result}, 0


def cmd_lrec_eval(args):
    s = parse_structure(_read(args.structure))
    f = parse_lsexpr(_formula_text(args))
    raw = _assignment(args.assign)
    unknown = sorted(set(raw) - {"dom", "num"})
    if unknown:
        raise MalformedInput(
            f"--assign has unknown keys {unknown}: it has only 'dom' and 'num'")
    dom, num = raw.get("dom", {}), raw.get("num", {})
    if not isinstance(dom, dict) or not isinstance(num, dict):
        raise MalformedInput('--assign "dom" and "num" must be JSON objects')
    a = TwoSortedAssignment(dom, num)
    return {"result": eval_lrec(s, f, a)}, 0


def cmd_oracle(args):
    if args.max_i < 1:
        raise MalformedInput(f"--max-i {args.max_i} is less than 1")
    g = parse_digraph(_read(args.graph))
    if g.n * args.max_i > MAX_ORACLE_PAIRS:
        raise SizeExceeded(f"--max-i {args.max_i} over {g.n} vertices sweeps"
                           f" more than {MAX_ORACLE_PAIRS} pairs")
    inst = XInstance(g, parse_cardinality(_read(args.cond), g))
    members = [
        [v, i]
        for v in range(g.n)
        for i in range(1, args.max_i + 1)
        if compute_X(inst, v, i)
    ]
    return {"n": g.n, "max_i": args.max_i, "X": members}, 0


def cmd_compile(args):
    params = compiler.CompileParams(args.n, args.r)
    f = compiler.compile_x_formula(params, args.i,
                                   cache=compiler.FormulaCache())
    stats = compiler.formula_stats(f)
    if stats["tree_size"] > MAX_PRINTED_NODES:
        raise SizeExceeded(
            f"the formula expands to {stats['tree_size']} nodes when printed;"
            f" at most {MAX_PRINTED_NODES} are printed")
    doc = {"formula": print_sexpr(f), "stats": {**stats, "H": params.H}}
    return doc, 0


def cmd_verify(args):
    if args.count < 1:
        raise MalformedInput(f"--count {args.count} is less than 1")
    if args.count > MAX_VERIFY_COUNT:
        raise SizeExceeded(f"--count {args.count} is more than"
                           f" {MAX_VERIFY_COUNT} instances")
    params = compiler.CompileParams(args.n, args.r)
    instances = corpus.generate_corpus(args.seed, args.n, args.count)
    checked, mismatches = compiler.check_against_oracle(
        params, instances, compiler.FormulaCache())
    return {
        "instances": len(instances),
        "checked": checked,
        "mismatches": mismatches,
        "ok": not mismatches,
    }, 0 if not mismatches else 1


def cmd_decompose(args):
    g = parse_digraph(_read(args.graph))
    tree = balancer.build_tree(g)
    size = tree.tree_size()
    if size > MAX_DECOMPOSED_NODES:
        raise SizeExceeded(
            f"the decomposition tree expands to {size} nodes when printed;"
            f" at most {MAX_DECOMPOSED_NODES} are printed")
    report = balancer.check_tree(g, tree)
    return {
        "tree": tree.root.to_dict(),
        "height": tree.height(),
        "check": report.to_dict(),
        "ok": report.all_pass(),
    }, 0 if report.all_pass() else 1


def cmd_stats(args):
    g = parse_digraph(_read(args.graph))
    return dagstats.weights(g).to_dict(), 0


def cmd_wl(args):
    g = parse_graph(_read(args.graph1))
    h = parse_graph(_read(args.graph2))
    # one joint refinement: round 0 is always compared, later rounds up to
    # --max-rounds; each graph's history ends at its own first repeat
    found, counts = None, ([], [])
    for r, colorings in enumerate(wl.rounds([g, h], args.k)):
        if g.n != h.n:  # after round 0 has validated k, as in wl.distinguish
            raise SizeMismatch(f"orders differ: {g.n} vs {h.n}")
        cg, ch = colorings
        if (found is None and r <= max(args.max_rounds, 0)
                and sorted(cg) != sorted(ch)):
            found = r
        for history, colors in zip(counts, colorings):
            if len(history) < 2 or history[-1] != history[-2]:
                history.append(len(set(colors)))
    return {
        "distinguished": found is not None,
        "rounds": found,
        "class_sizes_per_round": {"g": counts[0], "h": counts[1]},
    }, 0


def cmd_interval(args):
    g = parse_graph(_read(args.graph))
    cliques = intervals.maxcliques(g)
    interval = intervals.is_interval(g)
    doc = {
        "is_interval": interval,
        "maxcliques": [sorted(c) for c in cliques],
    }
    if interval:
        ends = intervals.possible_ends(g)
        doc["possible_ends"] = sorted(sorted(c) for c in ends)
        anchor = min(ends, key=sorted)
        rel = intervals.prec_order(g, anchor)
        doc["prec"] = rel.to_dict()
        doc["modules"] = [sorted(s)
                          for s in intervals.extract_modules(g, anchor)]
    return doc, 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise MalformedInput, so that a bad
    argv ends like every other bad input: one JSON object on stderr. Its
    subparsers are of this class too; --help still prints and exits 0."""

    def error(self, message):
        raise MalformedInput(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lreckit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write JSON here instead of stdout")

    sp = sub.add_parser("eval", help="evaluate a counting-logic formula")
    sp.add_argument("structure")
    sp.add_argument("--formula", help="file with an S-expression")
    sp.add_argument("--sexpr", help="inline S-expression")
    sp.add_argument("--assign", help="JSON object var -> element id")
    common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("lrec-eval", help="evaluate a recursion formula")
    sp.add_argument("structure")
    sp.add_argument("--formula")
    sp.add_argument("--sexpr")
    sp.add_argument("--assign", help='JSON {"dom": {...}, "num": {...}}')
    common(sp)
    sp.set_defaults(func=cmd_lrec_eval)

    sp = sub.add_parser("oracle", help="sweep the recursion relation X")
    sp.add_argument("graph")
    sp.add_argument("--cond", required=True)
    sp.add_argument("--max-i", type=int, default=8)
    common(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("compile", help="compile the X-membership formula")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--i", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("verify", help="compiled formula vs oracle sweep")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=25)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("decompose", help="balanced decomposition tree")
    sp.add_argument("graph")
    common(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("stats", help="weight/multiplicity table")
    sp.add_argument("graph")
    common(sp)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("wl", help="Weisfeiler-Leman distinguishing test")
    sp.add_argument("graph1")
    sp.add_argument("graph2")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--max-rounds", type=int, default=10)
    common(sp)
    sp.set_defaults(func=cmd_wl)

    sp = sub.add_parser("interval", help="interval-graph report")
    sp.add_argument("graph")
    common(sp)
    sp.set_defaults(func=cmd_interval)

    return p


def _with_warnings(doc: dict, caught) -> dict:
    """doc as it is, or with the distinct warnings in `caught` added under
    "warnings", in the order first raised."""
    if not caught:
        return doc
    seen = dict.fromkeys((w.category.__name__, str(w.message)) for w in caught)
    return {**doc, "warnings": [{"category": category, "message": message}
                                for category, message in seen]}


def main(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            doc, code = args.func(args)
            _emit(_with_warnings(doc, caught), args.out)
            return code
        except LreckitError as exc:
            error = {"error": type(exc).__name__, "message": str(exc)}
            json.dump(_with_warnings(error, caught), sys.stderr)
            sys.stderr.write("\n")
            return 2


if __name__ == "__main__":
    sys.exit(main())
