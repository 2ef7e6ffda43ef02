"""Time-to-proved-optimum benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up imports the program afresh, generates
the workload's fixed instance pool and serializes it to text; the seed fixes
the order in which the pool is fed to the pipeline. The pipeline runs one
instance at a time in a single process, a closed loop.

An untraced run makes one pass over the whole pool. Outcomes and shares come
from that pass. It then repeats passes over the instances that pass proved,
in a fresh order each time, until each has been timed workloads.SAMPLES
times. Each sample runs between two machine-speed probes and its wall time
is scaled to a nominal machine (speed.py); an instance's time is the median
of its scaled samples. An instance that was not proved is charged at least
L, unscaled, and is not repeated. The pools are sized so that a run takes
about S seconds; a run that cannot take every sample within 3 S seconds
stops without a result, because a median of fewer samples would not be
comparable.

A traced run makes one untraced and one traced pass over the whole pool.

Set-up is timed, scaled the same way, 3 times at the start and once after
each pass; `setup_s` is the median.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. `attempted` and `failed` count every
pipeline run, repeats included. The lines before it print the same metrics
as a table, by name and unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time

from speed import between_probes

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# Set-up runs this many times at the start and once after each pass, so that
# its median does not hang on one moment's load on the machine.
SETUP_REPEATS = 3
# A run that would take longer than this many times --seconds stops.
OVERRUN = 3
# The program's modules; each set-up imports them afresh.
PROGRAM = (
    "maxhrt.core",
    "maxhrt.generator",
    "maxhrt.heuristics",
    "maxhrt.instance_io",
    "maxhrt.ip_model",
    "maxhrt.preprocess",
    "maxhrt.solver",
)
TRACE_DIR = ".bench_trace"  # spans of a traced run, relative to the working directory

END_TO_END_UNITS = {
    "proof_s.p50": "s",
    "proof_s.p75": "s",
    "proved_share": "share",
    "sound_share": "share",
    "found_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span name, count key or None for self time)
PER_LAYER = {
    "solver.solve_s": ("s", "solver.solve", None),
    "solver.nodes": ("count", "solver.solve", "nodes"),
    "solver.nodes_per_s": ("1/s", None, None),
    "solver.root_proved": ("count", "solver.solve", "root_proved"),
    "solver.timeouts": ("count", "solver.solve", "timeouts"),
    "solver.open_gap": ("count", "solver.solve", "open_gap"),
    "solver.false_optimal": ("count", "solver.solve", "false_optimal"),
    "preprocess.offer_s": ("s", "preprocess.offer", None),
    "preprocess.apply_s": ("s", "preprocess.apply", None),
    "preprocess.offer_deleted": ("count", "preprocess.offer", "deleted"),
    "preprocess.apply_deleted": ("count", "preprocess.apply", "deleted"),
    "preprocess.skipped": ("count", "preprocess.offer", "skipped"),
    "ip_model.build_s": ("s", "ip_model.build", None),
    "ip_model.vars": ("count", "ip_model.build", "vars"),
    "ip_model.rows": ("count", "ip_model.build", "rows"),
    "ip_model.nnz": ("count", "ip_model.build", "nnz"),
    "heuristics.warm_s": ("s", "heuristics.warm", None),
    "heuristics.warm_size": ("count", "heuristics.warm", "size"),
    "heuristics.warm_shortfall": ("count", "heuristics.warm", "shortfall"),
    "core.rank_s": ("s", "core.rank", None),
    "core.certify_s": ("s", "core.certify", None),
    "core.certify_failed": ("count", "core.certify", "failed"),
    "instance_io.parse_s": ("s", "instance_io.parse", None),
    "instance_io.serialize_s": ("s", "instance_io.serialize", None),
    "generator.gen_s": ("s", "generator.gen", None),
    "trace.overhead_share": ("share", None, None),
}


def import_program():
    """Import the program's modules afresh; return their generate and serializer.

    The modules loaded before are put back afterwards, so the pipeline keeps
    using one copy of them. Re-importing runs each module's code again, as
    in a new process, but reads the compiled files from the cache.
    """

    def program_modules():
        return [n for n in sys.modules if n == "maxhrt" or n.startswith("maxhrt.")]

    loaded = {name: sys.modules.pop(name) for name in program_modules()}
    try:
        modules = {name: importlib.import_module(name) for name in PROGRAM}
    finally:
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
    return modules["maxhrt.generator"].generate, modules["maxhrt.instance_io"].serialize_instance


def generate_pool(configs, label, tracer, generate, serialize_instance):
    """(label, instance text) for each config of the pool."""
    texts = []
    for config in configs:
        key = label(config)
        with tracer.span("generator.gen", key):
            texts.append((key, serialize_instance(generate(config))))
    return texts


def end_to_end(first, charged, failed, best_known, setup_s):
    """End-to-end metrics, plus failed_share and shortfall for the table.

    `first` holds the first pass's results; `charged` maps each instance to
    its time over all passes.
    """
    q = statistics.quantiles(charged.values(), n=4, method="inclusive")
    n = len(first)
    proved = sum(r.outcome == "proved" for r in first)
    found = sum(r.size for r in first)
    known = sum(best_known[r.key] for r in first)
    metrics = {
        "proof_s.p50": q[1],
        "proof_s.p75": q[2],
        "proved_share": proved / n,
        "sound_share": 1 - failed / n,
        "found_share": found / known,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"failed_share": failed / n, "shortfall": known - found}


def per_layer(tracer, setups, overhead_share):
    """Per-layer metrics of one traced pass (generator: of one of `setups`)."""
    self_times = tracer.self_times()
    counts = tracer.count_totals()
    out = {}
    for name, (_, span_name, key) in PER_LAYER.items():
        if name == "solver.nodes_per_s":
            solve_s = self_times.get("solver.solve", 0.0)
            out[name] = counts.get("solver.solve.nodes", 0) / solve_s if solve_s else 0.0
        elif name == "trace.overhead_share":
            out[name] = overhead_share
        else:
            total = self_times.get(span_name, 0.0) if key is None else counts.get(f"{span_name}.{key}", 0)
            out[name] = total / setups if span_name == "generator.gen" else total
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description="Time-to-proved-optimum benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A first import loads the standard library modules the program uses
    # and compiles it; set-up times the imports after it.
    for name in PROGRAM:
        importlib.import_module(name)
    import pipeline
    import workloads
    from checker import FAILED, INVALID, OVER_BOUND, PROVED, TIMEOUT, Reference
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    configs = workloads.WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    setup_times = []
    import_times = []

    def set_up(repeats=1):
        for _ in range(repeats):

            def timed_set_up():
                t0 = time.perf_counter()
                program = import_program()
                t1 = time.perf_counter()
                pool = dict(generate_pool(configs, workloads.label, tracer, *program))
                return pool, t1 - t0, time.perf_counter() - t0

            (pool, import_s, total_s), scale = between_probes(timed_set_up)
            import_times.append(import_s * scale)
            setup_times.append(total_s * scale)
        return pool

    texts = set_up(SETUP_REPEATS)

    stored = workloads.load_reference()[args.workload]
    refs = {}
    for key, text in texts.items():
        entry = stored.get(key)
        if entry is None or entry["sha256"] != workloads.text_digest(text):
            sys.exit(f"no reference for {key}, or its text changed: rerun perfbench/reference.py")
        refs[key] = Reference(entry["incumbent"], entry["upper_bound"])

    rng = random.Random(args.seed)
    limit = workloads.TIME_LIMIT

    scaled = {key: [] for key in texts}  # instance -> its samples, scaled where proved

    def run_pass(keys, pass_tracer):
        order = list(keys)
        rng.shuffle(order)
        results = []
        for k in order:
            r, scale = between_probes(
                lambda: pipeline.run_instance(texts[k], k, refs[k], limit, pass_tracer)
            )
            scaled[k].append(r.charged_s * scale if r.outcome == PROVED else r.charged_s)
            results.append(r)
        return results

    run_start = time.perf_counter()
    first = run_pass(texts, Tracer(enabled=False))
    records = list(first)
    set_up()
    passes = 1
    if args.trace:
        traced = run_pass(texts, tracer)
        records += traced
        set_up()
        passes += 1
    else:
        proved = [r.key for r in first if r.outcome == PROVED]
        pass_s = sum(r.wall_s for r in first if r.outcome == PROVED)
        while proved and passes < workloads.SAMPLES:
            if time.perf_counter() - run_start + pass_s > OVERRUN * args.seconds:
                sys.exit(f"{args.workload}: pass {passes + 1} of {workloads.SAMPLES} would end "
                         f"after {OVERRUN} x {args.seconds} s; the pool is too large for this machine")
            pass_start = time.perf_counter()
            records += run_pass(proved, Tracer(enabled=False))
            pass_s = time.perf_counter() - pass_start
            set_up()
            passes += 1

    setup_s = statistics.median(setup_times)

    failed = [r for r in records if r.outcome in FAILED]
    correct = not any(r.outcome in (INVALID, OVER_BOUND) for r in records)
    print(f"workload {args.workload}: {len(texts)} instances, {passes} passes, "
          f"L = {limit} s, seed {args.seed}")
    for key, outcome, detail in sorted({(r.key, r.outcome, r.detail) for r in failed}):
        print(f"  failed: {key}: {outcome} {detail}")
    print(f"  set-up: median {setup_s:.4f} s, of which import median "
          f"{statistics.median(import_times):.4f} s (scaled)")
    highs = [stored[key] for key in texts]
    print(f"  HiGHS yardstick, not a metric: {sum(e['status'] == 'optimal' for e in highs)}"
          f"/{len(highs)} proved, median {statistics.median(e['highs_s'] for e in highs)} s")
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        tracer.dump(path)
        print(f"  spans written to {path}")
        # Instances that hit L take about L either way, so they are left out.
        untraced = {r.key: r.wall_s for r in first if r.outcome != TIMEOUT}
        kept = [r for r in traced if r.key in untraced and r.outcome != TIMEOUT]
        untraced_s = sum(untraced[r.key] for r in kept)
        overhead = sum(r.wall_s for r in kept) / untraced_s - 1 if kept else 0.0
        metrics = per_layer(tracer, len(setup_times), overhead)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        layer_s = {name: v for name, v in metrics.items() if units[name] == "s"}
        print(f"  largest self time: {max(layer_s, key=layer_s.get)}")
    else:
        charged = {key: statistics.median(samples) for key, samples in scaled.items()}
        unscaled = {key: statistics.median(r.charged_s for r in records if r.key == key) for key in texts}
        best_known = {key: ref.incumbent for key, ref in refs.items()}
        first_failed = sum(r.outcome in FAILED for r in first)
        metrics, extra = end_to_end(first, charged, first_failed, best_known, setup_s)
        units = dict(END_TO_END_UNITS)
        print(f"  proved {sum(r.outcome == PROVED for r in first)}/{len(first)}"
              f"; failed_share {extra['failed_share']:.6g}; shortfall {extra['shortfall']}")
        wall = statistics.quantiles(unscaled.values(), n=4, method="inclusive")
        print(f"  unscaled wall time: proof_s.p50 {wall[1]:.4f} s, proof_s.p75 {wall[2]:.4f} s")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
