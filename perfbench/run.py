"""lreckit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Runs from any directory; imports lreckit from the `src/` next to this
directory. `--seconds` sets the amount of work through each workload's
nominal round time, so the item list depends only on workload, seed and
seconds, and a faster program finishes sooner. The item list runs in
several passes, each on a fresh set-up, and an item's time is its mean
over the passes: on a shared host the best of a few passes follows the
host's short fast spells, while the mean weighs every spell by its share
of the run.

With `--trace 0` the last line of stdout carries the end-to-end metrics;
with `--trace 1` the untraced passes are followed by one traced pass, and
the last line carries the per-layer metrics. The line before it is a
report with the environment, failures and, when traced, the self time
per layer.
Traced runs also write their spans to perfbench/out/. Exit status: 0 when
every verdict agreed with its referee, 1 when one did not or a paper
invariant broke, 2 when the lreckit sources are missing.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
# set-ups timed for setup_s, at least; the last ones feed the untraced
# passes, whose number each workload sets
SETUP_REPEATS = 9
# items in a pass, at least: item_ms_p90 has 10 samples above it
MIN_ITEMS = 100

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify", "translate", "graphs"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _third_party():
    # imported here, after the timings, so that setup_s does not count it
    from importlib import metadata
    ours = {"lreckit", "battery", "layers", "workloads", "run"}
    found = {}
    for name in sorted({m.split(".")[0] for m in list(sys.modules)}):
        if name in ours or name.startswith("_") or \
                name in sys.stdlib_module_names:
            continue
        try:
            found[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            pass
    return found


def _environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "third_party": _third_party(),
    }


def run_pass(workload, state, api, rec=None):
    """Run every item once; time each from start to verdict, and the
    whole pass."""
    times, failures = [], []
    gc.collect()
    start = time.perf_counter()
    for idx, item in enumerate(state.items):
        span = rec.begin_item(idx) if rec is not None else None
        t0 = time.perf_counter()
        try:
            bad = workload.run_item(state, item, api)
        except Exception as exc:  # a failed item is counted, never dropped
            bad = [f"{type(exc).__name__}: {exc}"]
        times.append(time.perf_counter() - t0)
        if rec is not None:
            rec.end_item(span)
            if not bad:
                workload.count(state, item, rec)
        if bad:
            failures.append({"item": idx, "disagreements": bad[:3]})
    elapsed = time.perf_counter() - start
    return {"times": times, "failures": failures,
            "items_per_s": len(times) / elapsed}


def _digest(workload, items):
    text = json.dumps([workload.describe(item) for item in items])
    return hashlib.sha256(text.encode()).hexdigest()


def mean_times(passes):
    """Each item's mean time over the passes."""
    return [statistics.fmean(ts)
            for ts in zip(*(p["times"] for p in passes))]


def _end_to_end(import_s, setup_times, passes):
    times = mean_times(passes)
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "items_per_s": len(times) / sum(times),
        "item_ms_p50": statistics.median(times) * 1e3,
        "item_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def _per_layer(layers, rec, state, untraced_rate, traced):
    own, item_s, uncovered_s = rec.self_times()
    values = {name + "_s": own.get(name, 0.0) for name in layers.CALLS}
    values.update({name: rec.counts[name] for name in layers.COUNTED})
    values.update({layer + ".errors": rec.counts[layer + ".errors"]
                   for layer in layers.LAYERS})
    table_s = values["cformula.table_eval_s"]
    values["cformula.cells_per_s"] = (
        values["cformula.table_cells"] / table_s if table_s else 0.0)
    # graphs keeps no formula cache; its counts read 0
    cache = getattr(state, "cache", None)
    interner = getattr(cache, "interner", None)
    calls, new = getattr(interner, "calls", 0), getattr(interner, "new", 0)
    hits, misses = getattr(cache, "hits", 0), getattr(cache, "misses", 0)
    values["cformula.intern_calls"] = calls
    values["cformula.intern_new"] = new
    values["cformula.intern_hit_ratio"] = 1 - new / calls if calls else 0.0
    values["compile.cache_hits"] = hits
    values["compile.cache_misses"] = misses
    values["compile.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    for name in ("cformula.qdepth_max", "cformula.nvars_max",
                 "balancer.height_max"):
        values[name] = rec.maxima.get(name, 0)
    values["trace.overhead_frac"] = 1 - traced["items_per_s"] / untraced_rate
    values["trace.uncovered_frac"] = uncovered_s / item_s
    return values


def _layer_table(rec):
    """Self time per layer inside items, and the item wall time it must
    account for."""
    own, item_s, uncovered_s = rec.self_times(items_only=True)
    by_layer = {}
    for name, seconds in own.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    return {"item_wall_s": item_s, "uncovered_s": uncovered_s,
            "self_s": dict(sorted(by_layer.items(),
                                  key=lambda kv: -kv[1]))}


def _write_spans(args, rec):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ("name", "start_ns", "end_ns", "parent", "item")
    with open(path, "w") as fh:
        json.dump({"fields": fields, "spans": rec.spans}, fh)
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lreckit" / "__init__.py").is_file():
        print(f"perfbench: no lreckit sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import layers
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    workload = WORKLOADS[args.workload]
    npasses = workload.PASSES
    rounds = max(round(args.seconds / npasses / workload.NOMINAL_ROUND_S),
                 math.ceil(MIN_ITEMS / workload.ROUND_ITEMS))
    nsetups = max(SETUP_REPEATS, npasses)

    # every pass runs on a fresh set-up: shared state such as the formula
    # cache of translate must start empty each time
    api = layers.Api()
    setup_times, passes, digests = [], [], set()
    for idx in range(nsetups):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(args.seed, rounds, api)
        setup_times.append(time.perf_counter() - t0)
        if idx >= nsetups - npasses:
            digests.add(_digest(workload, state.items))
            passes.append(run_pass(workload, state, api))
    broken = workload.invariants(state)
    if len(digests) != 1:
        broken.append("the set-ups of one run gave different item lists")
    untraced_rate = statistics.median(p["items_per_s"] for p in passes)
    report = {
        "environment": _environment(args),
        "rounds": rounds,
        "items": len(state.items),
        "items_digest": digests.pop(),
        "passes": npasses,
        "pass_items_per_s": [p["items_per_s"] for p in passes],
        "setup_times_s": setup_times,
        "import_s": import_s,
    }

    if args.trace:
        rec = layers.Recorder()
        tapi = layers.Api(rec)
        state = None
        gc.collect()
        with layers.patched_compile(tapi):
            state = workload.setup(args.seed, rounds, tapi, rec)
            traced = run_pass(workload, state, tapi, rec)
        broken += workload.invariants(state)
        passes.append(traced)
        metrics = _per_layer(layers, rec, state, untraced_rate, traced)
        units = layers.PER_LAYER
        report["layers"] = _layer_table(rec)
        report["spans_file"] = _write_spans(args, rec)
    else:
        metrics = _end_to_end(import_s, setup_times, passes)
        units = END_TO_END
        times = mean_times(passes)
        p90 = statistics.quantiles(times, n=10)[8]
        report["samples"] = len(times)
        report["samples_above_p90"] = sum(t > p90 for t in times)

    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    report["failed_frac"] = len(failures) / attempted
    report["failures"] = failures[:10]
    report["invariants_broken"] = broken
    correct = not failures and not broken
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    if not correct:
        print(f"perfbench: {len(failures)} of {attempted} items disagree "
              f"with their referee; invariants broken: {broken}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
