"""Command-line front door: one subcommand per module capability.

All outputs are JSON (formulas as S-expressions inside JSON strings) and
fully determined by the inputs and --seed. Errors surface as a
machine-readable JSON object on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import balancer, compile as compiler, corpus, dagstats, intervals, wl
from .cformula import Interner, TableEvaluator, parse_sexpr, print_sexpr
from .errors import LreckitError, MalformedInput, SizeExceeded
from .lformula import TwoSortedAssignment, eval_lrec, parse_lsexpr
from .structures import parse_digraph, parse_graph, parse_structure
from .xfix import XInstance, compute_X, encode_tau_n, parse_cardinality


# compile refuses to print a formula whose expanded tree is larger: the
# printer writes every node of the tree, so output grows with tree_size.
MAX_PRINTED_NODES = 20_000_000


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


def _load_instance(args):
    g = parse_digraph(_read(args.graph))
    c = parse_cardinality(_read(args.cond), g)
    return g, c


def cmd_eval(args) -> int:
    s = parse_structure(_read(args.structure))
    f = parse_sexpr(_formula_text(args), Interner())
    result = TableEvaluator(s).eval(f, _assignment(args.assign))
    _emit({"result": result}, args.out)
    return 0


def cmd_lrec_eval(args) -> int:
    s = parse_structure(_read(args.structure))
    f = parse_lsexpr(_formula_text(args))
    raw = _assignment(args.assign)
    dom, num = raw.get("dom", {}), raw.get("num", {})
    if not isinstance(dom, dict) or not isinstance(num, dict):
        raise MalformedInput('--assign "dom" and "num" must be JSON objects')
    a = TwoSortedAssignment(dom, num)
    _emit({"result": eval_lrec(s, f, a)}, args.out)
    return 0


def cmd_oracle(args) -> int:
    g, c = _load_instance(args)
    inst = XInstance(g, c)
    members = [
        [v, i]
        for v in range(g.n)
        for i in range(1, args.max_i + 1)
        if compute_X(inst, v, i)
    ]
    _emit({"n": g.n, "max_i": args.max_i, "X": members}, args.out)
    return 0


def cmd_compile(args) -> int:
    params = compiler.CompileParams(args.n, args.r)
    f = compiler.compile_x_formula(params, args.i,
                                   cache=compiler.FormulaCache())
    stats = compiler.formula_stats(f)
    if stats["tree_size"] > MAX_PRINTED_NODES:
        raise SizeExceeded(
            f"the formula expands to {stats['tree_size']} nodes when printed;"
            f" at most {MAX_PRINTED_NODES} are printed")
    doc = {"formula": print_sexpr(f), "stats": {**stats, "H": params.H}}
    _emit(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    params = compiler.CompileParams(args.n, args.r)
    instances = corpus.generate_corpus(args.seed, args.n, args.count)
    cache = compiler.FormulaCache()
    formulas = {i: compiler.compile_x_formula(params, i, cache=cache)
                for i in range(1, args.n + 2)}
    mismatches = []
    checked = 0
    for idx, (g, c) in enumerate(instances):
        s = encode_tau_n(g, c, args.n)
        ev = TableEvaluator(s)
        inst = XInstance(g, c)
        for i, f in formulas.items():
            for v in range(g.n):
                checked += 1
                got = ev.eval(f, {"x": v})
                want = compute_X(inst, v, i)
                if got != want:
                    mismatches.append({"instance": idx, "v": v, "i": i,
                                       "compiled": got, "oracle": want})
    _emit({
        "instances": len(instances),
        "checked": checked,
        "mismatches": mismatches,
        "ok": not mismatches,
    }, args.out)
    return 0 if not mismatches else 1


def cmd_decompose(args) -> int:
    g = parse_digraph(_read(args.graph))
    tree = balancer.build_tree(g)
    report = balancer.check_tree(g, tree)
    _emit({
        "tree": tree.root.to_dict(),
        "height": tree.height(),
        "check": report.to_dict(),
        "ok": report.all_pass(),
    }, args.out)
    return 0 if report.all_pass() else 1


def cmd_stats(args) -> int:
    g = parse_digraph(_read(args.graph))
    _emit(dagstats.weights(g).to_dict(), args.out)
    return 0


def cmd_wl(args) -> int:
    g = parse_graph(_read(args.graph1))
    h = parse_graph(_read(args.graph2))
    rounds = wl.distinguish(g, h, args.k, args.max_rounds)
    stable_g, _ = wl.refine_to_stable(g, args.k)
    stable_h, _ = wl.refine_to_stable(h, args.k)
    _emit({
        "distinguished": rounds is not None,
        "rounds": rounds,
        "class_sizes_per_round": {
            "g": stable_g.history,
            "h": stable_h.history,
        },
    }, args.out)
    return 0


def cmd_interval(args) -> int:
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
    _emit(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lreckit")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LreckitError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
