#!/usr/bin/env python3
"""The ntom benchmark: builds ntom_benchmark, runs workloads, prints metrics.

One workload (the last line of stdout is the result JSON: correct,
attempted, failed and metrics):

    python3 benchmark/run.py --workload fig3_brite --seed 42 --seconds 20 --trace 0

Every workload, metrics printed by name with unit and sample count:

    python3 benchmark/run.py --seed 42
    python3 benchmark/run.py --seed 42 --trace 1      # per-layer metrics

Stability sets and their comparison:

    python3 benchmark/run.py --repeat 10 --out a.json [--workload W ...]
    python3 benchmark/run.py --compare a.json b.json

Other: --list prints the workloads; --record-expected writes
expected/seed<N>.json (the accuracy cells of each grid workload's warm-up
operation) for --seed N.

Standard library only. ntom_benchmark is built with CMake into
build-bench/ at the root of the checkout; temporary files go to a
per-run directory under it that is removed when the run ends, including
on failure.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "ntom_benchmark")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected")
CHILD_TIMEOUT_S = 170
MAE_TOLERANCE = 1e-12

# Estimator display labels, the per-estimator solve metrics.
ESTIMATORS = ["Sparsity", "Bayes-Indep", "Bayes-Corr", "Independence",
              "Corr-heuristic", "Corr-complete"]
BOOLEAN_ESTIMATORS = ["Sparsity", "Bayes-Indep", "Bayes-Corr"]
CODECS = ["raw", "rle", "sparse", "xor_rle", "t_rle", "t_sparse"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build_binary():
    """Configures once, then brings ntom_benchmark up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "ntom_benchmark"],
                   check=True, stdout=sys.stderr, cwd=ROOT)


def list_workloads():
    out = subprocess.run([BINARY, "--list"], check=True, cwd=ROOT,
                         stdout=subprocess.PIPE, text=True).stdout
    return [line.split()[0] for line in out.splitlines() if line.strip()]


# ------------------------------------------------------------- one run

def run_binary(workload, seed, seconds, trace):
    """Runs ntom_benchmark in its own process and returns its results."""
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "tmp"))
    try:
        out = os.path.join(tmp, "results.json")
        spans = os.path.join(tmp, "spans.jsonl")  # written by traced runs.
        proc = subprocess.Popen(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--tmp", tmp, "--out", out],
            cwd=ROOT, stdout=sys.stderr)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
        with open(out) as f:
            results = json.load(f)
        if trace:
            results["spans"] = read_spans(spans)
            keep = os.path.join(BUILD, "spans")
            os.makedirs(keep, exist_ok=True)
            shutil.copy(spans, os.path.join(
                keep, "%s-seed%d.jsonl" % (workload, seed)))
        return results
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ------------------------------------------------------------- metrics

def percentile(xs, q):
    """Linear-interpolated q-th percentile (0-100) of a non-empty list."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(results):
    ops = results["op_s"]
    if not ops:
        raise RuntimeError("no timed operations; raise --seconds")
    return {
        "setup_s": (statistics.median(results["setup_s"]), "s",
                    len(results["setup_s"])),
        "cpu_ms_per_op": (1e3 * statistics.median(results["op_cpu_s"]), "ms",
                          len(ops)),
    }


def ungated(results):
    """Printed with every untraced run but not metrics: on a shared VM the
    wall-clock latency follows the host's steal time (its median spread by
    up to 36% across ten runs), and at these sizes the peak RSS is mostly
    allocator arenas."""
    ops = results["op_s"]
    log("  (ungated) op latency p50 %.6g ms, p90 %.6g ms, max %.6g ms (n=%d); "
        "peak RSS %.1f MB" % (1e3 * statistics.median(ops),
                              1e3 * percentile(ops, 90), 1e3 * max(ops),
                              len(ops), results["peak_rss_kb"] / 1024.0))


def span_layer(name):
    """Layer of a span or fold name ('api.fit.Bayes-Corr' -> 'api.solve')."""
    if name.startswith("api."):
        method = name.split(".")[1]
        if method in ("fit", "end_fit", "refit"):
            return "api.solve"
        if method in ("infer", "links"):
            return "api." + method
        return "api.count"
    return {"topogen.generate": "topogen", "sim.scenario": "sim.scenario",
            "sim.materialize": "sim", "trace.open": "trace",
            "trace.materialize": "trace", "exp.run_state": "exp"}.get(name)


def stream_pass_self(cell, spans, folds):
    """Self time of a live cell's two stream passes: the fit pass (first
    begin_fit to last end_fit) and the scoring pass (first to last
    infer call), minus the estimator calls inside them. What remains is
    the simulation the passes re-run, plus the scorers."""
    mine = [s for s in spans if s["cell"] == cell["cell"]
            and s["name"].startswith("api.")]
    folded = [f for f in folds if f["cell"] == cell["cell"]]
    total = 0
    begins = [s["b"] for s in mine if s["name"].startswith("api.begin_fit.")]
    ends = [s["e"] for s in mine if s["name"].startswith("api.end_fit.")]
    if begins and ends:
        lo, hi = min(begins), max(ends)
        inside = sum(s["e"] - s["b"] for s in mine
                     if lo <= s["b"] and s["e"] <= hi)
        consumed = sum(f["busy"] for f in folded
                       if f["name"].startswith("api.consume."))
        total += hi - lo - inside - consumed
    infers = [f for f in folded if f["name"].startswith("api.infer.")]
    if infers:
        lo = min(f["b"] for f in infers)
        hi = max(f["e"] for f in infers)
        total += hi - lo - sum(f["busy"] for f in infers)
    return total


def per_layer(results):
    """Self time per layer as a share of the traced operations' thread
    time, plus the layer counters, from the recorded spans."""
    pairs = results["pairs"]
    if not pairs:
        raise RuntimeError("no traced operations; raise --seconds")
    spans = [s for s in results["spans"] if s["type"] == "span"]
    folds = [s for s in results["spans"] if s["type"] == "fold"]
    ops = [s for s in spans if s["tag"].startswith("op:")]
    n_ops = max(len(ops), 1)
    base = sum((s["e"] - s["b"]) * int(s["tag"][3:]) for s in ops)

    # Nesting per thread: a span's parent is the innermost span of the
    # same thread that contains it.
    children = {}
    by_thread = {}
    for s in spans:
        by_thread.setdefault(s["thread"], []).append(s)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s["b"], -s["e"]))
        stack = []
        for s in thread_spans:
            while stack and stack[-1]["e"] <= s["b"]:
                stack.pop()
            if stack:
                children[id(stack[-1])] = children.get(id(stack[-1]), 0) + \
                    (s["e"] - s["b"])
            stack.append(s)
    # Folded calls belong to their cell span, or (outside cells) to the
    # operation spans of their thread.
    fold_busy = {}
    thread_fold_busy = {}
    for f in folds:
        if f["cell"] >= 0:
            fold_busy[f["cell"]] = fold_busy.get(f["cell"], 0) + f["busy"]
        else:
            thread_fold_busy[f["thread"]] = \
                thread_fold_busy.get(f["thread"], 0) + f["busy"]

    layers = {}
    solve = {e: 0 for e in ESTIMATORS}
    infer = {e: 0 for e in BOOLEAN_ESTIMATORS}

    def add(layer, ns):
        layers[layer] = layers.get(layer, 0) + ns

    for f in folds:
        layer = span_layer(f["name"])
        if layer is not None:
            add(layer, f["busy"])
        if layer == "api.infer":
            infer[f["name"].split(".", 2)[2]] += f["busy"]
    for s in spans:
        self_ns = s["e"] - s["b"] - children.get(id(s), 0)
        if s["tag"].startswith("op:"):
            if s["name"] == "service.ingest":
                add("service", self_ns - thread_fold_busy.get(s["thread"], 0))
                thread_fold_busy[s["thread"]] = 0
            continue
        if s["name"] == "exp.cell":
            self_ns -= fold_busy.get(s["cell"], 0)
            if s["tag"] == "replay":
                add("trace", self_ns)
            elif s["tag"] == "live":
                passes = stream_pass_self(s, spans, folds)
                add("sim", passes)
                add("exp", self_ns - passes)
            else:
                add("exp", self_ns)
            continue
        layer = span_layer(s["name"])
        add(layer, self_ns)
        if layer == "api.solve":
            solve[s["name"].split(".", 2)[2]] += self_ns
    busy = sum(layers.values())
    grid_ops = [s for s in ops if s["name"] == "exp.grid"]
    if grid_ops:
        add("exp.grid.idle", base - busy)

    counters = results["counters"]
    pct = lambda ns: 100.0 * ns / base if base else 0.0
    m = {}
    for layer in ("topogen", "sim.scenario", "sim", "api.count", "api.solve"):
        m[layer + ".pct"] = (pct(layers.get(layer, 0)), "%")
    for e in ESTIMATORS:
        m["api.solve.%s.pct" % e] = (pct(solve[e]), "%")
    m["api.infer.pct"] = (pct(layers.get("api.infer", 0)), "%")
    for e in BOOLEAN_ESTIMATORS:
        m["api.infer.%s.pct" % e] = (pct(infer[e]), "%")
    for layer in ("api.links", "exp", "exp.grid.idle", "trace", "service"):
        m[layer + ".pct"] = (pct(layers.get(layer, 0)), "%")
    for c in ("cells", "steals", "topo_cache_hits", "topo_cache_misses"):
        m["exp.grid." + c] = (counters.get("exp.grid." + c, 0.0), "count")
    max_cell = 0.0
    for op in grid_ops:
        longest = max([c["e"] - c["b"] for c in spans if c["name"] == "exp.cell"
                       and op["b"] <= c["b"] and c["e"] <= op["e"]] or [0])
        max_cell += 100.0 * longest / (op["e"] - op["b"])
    m["exp.grid.max_cell.pct"] = (max_cell / max(len(grid_ops), 1), "%")
    solve_calls = sum(1 for s in spans if span_layer(s["name"]) == "api.solve")
    m["api.solve.calls"] = (solve_calls / n_ops, "count")
    for method in ("infer", "consume"):
        calls = sum(f["count"] for f in folds
                    if f["name"].startswith("api.%s." % method))
        m["api.%s.calls" % method] = (calls / n_ops, "count")
    for c in ("frames", "file_bytes", "encoded_bytes", "decoded_bytes"):
        m["trace." + c] = (counters.get("trace." + c, 0.0),
                           "B" if c.endswith("bytes") else "count")
    intervals = counters.get("trace.intervals", 0.0)
    m["trace.bytes_per_interval"] = (
        counters.get("trace.file_bytes", 0.0) / intervals if intervals else 0.0,
        "B")
    for c in CODECS:
        name = "trace.codec.%s.sections" % c
        m[name] = (counters.get(name, 0.0), "count")
    for c in ("refits", "chunks_retired", "torn"):
        m["service." + c] = (counters.get("service." + c, 0.0), "count")
    m["service.queries_per_s"] = (counters.get("service.queries_per_s", 0.0),
                                  "1/s")
    m["traced.op_thread_s"] = (base / 1e9 / n_ops, "s")
    m["trace_overhead.pct"] = (
        100.0 * statistics.median([t / p - 1.0 for p, t in pairs]), "%")
    return {k: (v, u, len(pairs)) for k, (v, u) in m.items()}


# --------------------------------------------------------- correctness

def check_expected(workload, seed, cells):
    """Compares the warm-up operation's cells with expected/seed<N>.json.
    Returns (checked, problems)."""
    path = os.path.join(EXPECTED, "seed%d.json" % seed)
    if not os.path.exists(path):
        return False, []
    with open(path) as f:
        expected = json.load(f).get(workload)
    if expected is None:
        return False, []
    if len(expected) != len(cells):
        return True, ["%d cells, expected %d" % (len(cells), len(expected))]
    problems = []
    for got, want in zip(cells, expected):
        if got[:3] != want[:3]:
            problems.append("cell %s, expected %s" % (got[:3], want[:3]))
        elif want[2] == "mean_abs_error":
            if abs(got[3] - want[3]) > MAE_TOLERANCE:
                problems.append("%s = %r, expected %r" % ("/".join(got[:3]),
                                                          got[3], want[3]))
        elif got[3] != want[3]:
            problems.append("%s = %r, expected %r" % ("/".join(got[:3]),
                                                      got[3], want[3]))
    return True, problems


def measure(workload, seed, seconds, trace):
    """One benchmark run of one workload, checked and turned into metrics."""
    results = run_binary(workload, seed, seconds, trace)
    failed = results["failed"]
    for problem in results["failures"]:
        log("FAILED: " + problem)
    if results["cells"]:
        checked, problems = check_expected(workload, seed, results["cells"])
        if problems:
            failed += 1
            for problem in problems[:8]:
                log("FAILED: expected cells: " + problem)
        log("accuracy cells: %s" % (
            "match expected/seed%d.json" % seed if checked and not problems
            else "mismatch" if problems
            else "no expectations for seed %d; seed-independent checks only"
            % seed))
    metrics = per_layer(results) if trace else end_to_end(results)
    log("%s seed=%d trace=%d simd=%s threads=%d nproc=%d" % (
        workload, seed, trace, results["simd"], results["threads"],
        results["nproc"]))
    for name, (value, unit, n) in metrics.items():
        log("  %-34s %14.6g %-6s (n=%d)" % (name, value, unit, n))
    if not trace:
        ungated(results)
    return {"correct": failed == 0, "attempted": results["attempted"],
            "failed": failed, "seed": seed, "trace": trace,
            "simd": results["simd"], "threads": results["threads"],
            "nproc": results["nproc"],
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in metrics.items()}}


def result_line(result):
    """The result object a single-workload run prints last: exactly
    correct, attempted, failed and metrics (value and unit)."""
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in result["metrics"].items()}}


# ------------------------------------------------------ sets and compare

def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL,
                              text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def spread(values):
    """(median, q1, q3, relative IQR) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def bounds():
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    limits = bounds()
    ok = True
    print("%-16s %-18s %12s %12s %8s %8s %8s %6s" % (
        "workload", "metric", "median A", "median B", "IQR A", "IQR B",
        "B vs A", "bound"))
    for workload in sorted(set(a["runs"]) & set(b["runs"])):
        names = a["runs"][workload][0]["metrics"].keys()
        for name in names:
            va = [r["metrics"][name]["value"] for r in a["runs"][workload]]
            vb = [r["metrics"][name]["value"] for r in b["runs"][workload]]
            ma, _, _, sa = spread(va)
            mb, _, _, sb = spread(vb)
            limit = limits.get(name)
            worse = 0.0
            if limit and ma:
                worse = (mb - ma) / ma if limit["better"] == "lower" \
                    else (ma - mb) / ma
            flag = ""
            if limit:
                if worse > limit["bound"]:
                    flag = "  WORSE"
                    ok = False
                if max(sa, sb) > limit["bound"]:
                    flag += "  SPREAD"
                    ok = False
            print("%-16s %-18s %12.6g %12.6g %7.1f%% %7.1f%% %+7.1f%% %5s%s" % (
                workload, name, ma, mb, 100 * sa, 100 * sb, 100 * worse,
                "%d%%" % round(100 * limit["bound"]) if limit else "-", flag))
            print("%-16s %-18s q1..q3 A %.6g..%.6g (n=%d), B %.6g..%.6g (n=%d)"
                  % ("", "", *spread(va)[1:3], len(va), *spread(vb)[1:3],
                     len(vb)))
    return ok


def record_expected(seed):
    out = {}
    for workload in ("fig3_brite", "fig4_sparse", "capture_replay"):
        results = run_binary(workload, seed, 0, 0)
        if results["failed"]:
            raise RuntimeError("%s failed: %s" % (workload, results["failures"]))
        out[workload] = results["cells"]
    os.makedirs(EXPECTED, exist_ok=True)
    path = os.path.join(EXPECTED, "seed%d.json" % seed)
    with open(path, "w") as f:
        f.write("{\n")
        for i, (workload, cells) in enumerate(out.items()):
            f.write(' "%s": [\n' % workload)
            f.write(",\n".join("  " + json.dumps(c) for c in cells))
            f.write("\n ]%s\n" % ("," if i + 1 < len(out) else ""))
        f.write("}\n")
    log("wrote " + path)


# ------------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write the --repeat set here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()

    if args.compare:
        return 0 if compare(*args.compare) else 1
    build_binary()
    if args.list:
        print(subprocess.run([BINARY, "--list"], check=True, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True).stdout, end="")
        return 0
    if args.record_expected:
        record_expected(args.seed)
        return 0
    seconds = args.seconds
    if seconds is None:
        with open(SPEC) as f:
            seconds = json.load(f)["run_seconds"]
    selected = args.workload or list_workloads()

    if args.repeat:
        runs = {w: [] for w in selected}
        for i in range(args.repeat):
            for w in selected:
                result = measure(w, args.seed + i, seconds, args.trace)
                runs[w].append(result)
                if not result["correct"]:
                    return 1
        summary = {"commit": git_commit(), "seconds": seconds, "runs": runs}
        if args.out:
            with open(args.out, "w") as f:
                json.dump(summary, f, indent=1)
        for w, rs in runs.items():
            for name in rs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in rs]
                med, q1, q3, rel = spread(values)
                print("%-16s %-30s median %12.6g  q1 %12.6g  q3 %12.6g  "
                      "n=%d  IQR/median %5.1f%%" % (w, name, med, q1, q3,
                                                   len(values), 100 * rel))
        return 0

    results = {w: measure(w, args.seed, seconds, args.trace)
               for w in selected}
    if len(selected) == 1:
        print(json.dumps(result_line(results[selected[0]])))
    else:
        print(json.dumps({"commit": git_commit(), "runs": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # no result line on any failure.
        log("run.py: %s" % e)
        sys.exit(1)
