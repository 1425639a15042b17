#!/usr/bin/env python3
"""BerkMin benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_hard --seed 1 --seconds 35 --trace 0

It builds perfbench/bench.exe with dune, writes the workload's inputs
from the seed, then runs passes over them until --seconds have been
measured.  Every instance and every pass of the request stream runs in
a freshly exec'd worker process, one at a time.  Every answer is
checked.  It prints a metric table and, as the last line of stdout, one
JSON object.  With --trace 1 it alternates untraced and traced passes
and reports per-layer metrics and the tracing overhead instead of the
end-to-end metrics.  README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper_hard", "large_formula", "incremental")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORK_DIR = ".perfbench"

# Passes measured at least, however long they take.
MIN_PASSES = 3
# An instance faster than REPEAT_TARGET_S runs up to REPEAT_MAX times a
# pass, about REPEAT_TARGET_S in all.
REPEAT_TARGET_S = 0.5
REPEAT_MAX = 8
# Wall-clock limits: a worker running longer is killed and counted as
# failed.  The request stream also ends a request after 10 s itself.
INSTANCE_LIMIT_S = 60
STREAM_LIMIT_S = 120
BUILD_LIMIT_S = 850

MB = 1024.0 * 1024.0

# Per-layer metric -> span name whose self time it sums.
LAYER_SPANS = {
    "dimacs.parse_s": "dimacs.parse_file",
    "create.s": "solver.create",
    "simplify.s": "solver.simplify",
    "search.s": "solver.solve",
    "check.s": "cnf.satisfied_by",
    "server.parse_s": "protocol.parse_line",
    "server.handle_s.solve": "server.handle_line:solve",
    "server.handle_s.new_var": "server.handle_line:new_var",
    "server.handle_s.add_clauses": "server.handle_line:add_clauses",
}

SEARCH_COUNTS = (
    "conflicts", "decisions", "propagations", "binary_propagations",
    "watcher_visits", "blocker_hits", "top_clause_decisions",
    "top_cursor_steps", "restarts", "reductions", "removed_clauses",
    "gc_runs", "gc_reclaimed_bytes", "learnt_literals", "global_decisions",
    "nb_two_cache_hits",
)
SIMPLIFY_COUNTS = {
    "simplify.eliminated_vars": "eliminated_vars",
    "simplify.subsumed": "subsumed",
    "simplify.strengthened": "strengthened",
    "simplify.failed_literals": "failed_literals",
    "simplify.removed_clauses": "simplified_clauses",
}
SESSION_COUNTS = ("conflicts", "decisions", "propagations")
STREAM_OPS = ("solve", "new_var", "add_clauses")


def declared_metrics():
    """Name -> unit of every metric BENCHMARK.json declares, split into
    the end-to-end and the per-layer set."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [{m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")]


class Failed(Exception):
    """An operation failed: wrong or unchecked answer, unknown, error
    response, time-limit kill or crash.  Carries the operations the
    failing pass attempted and how many of them failed."""

    def __init__(self, message, attempted=1, failed=1):
        super().__init__(message)
        self.attempted, self.failed = attempted, failed


def build():
    """Builds the benchmark executable from the checkout's sources."""
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", EXE],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def generate(workload, seed):
    """Writes the inputs; returns the directory, manifest and input hash."""
    out = os.path.join(WORK_DIR, "%s-seed%d" % (workload, seed))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    subprocess.run([EXE, "gen", workload, str(seed), out], check=True,
                   timeout=INSTANCE_LIMIT_S)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as f:
            digest.update(f.read())
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    return out, manifest, digest.hexdigest()


def run_worker(argv, limit):
    """Runs one worker process; returns its JSON result or raises Failed."""
    try:
        done = subprocess.run([EXE] + argv, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        raise Failed("killed after the %d s limit: %s" % (limit, " ".join(argv)))
    except OSError as e:
        raise Failed("worker did not start: %s" % e)
    if done.returncode != 0:
        raise Failed("worker exited with %d: %s\n%s"
                     % (done.returncode, " ".join(argv), done.stderr[-2000:]))
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise Failed("worker printed no result: " + " ".join(argv))


def self_times(spans):
    """Self time per span name: a span's duration minus its children's."""
    child = {}
    for s in spans:
        child[s["parent"]] = child.get(s["parent"], 0) + s["stop_ns"] - s["start_ns"]
    out = {}
    for s in spans:
        own = s["stop_ns"] - s["start_ns"] - child.get(s["index"], 0)
        out[s["name"]] = out.get(s["name"], 0.0) + own * 1e-9
    return out


def empty_layers():
    """Every per-layer metric BENCHMARK.json declares, at 0, plus the
    helper counts behind the derived ratios."""
    layers = dict.fromkeys(declared_metrics()[1], 0)
    layers.update({"dimacs.bytes": 0, "search.learnt_total": 0})
    return layers


def finish_layers(layers):
    """Derived per-layer ratios; drops the helper counts."""
    def ratio(a, b):
        return a / b if b else 0.0
    layers["dimacs.mb_per_s"] = ratio(layers.pop("dimacs.bytes") / MB,
                                      layers["dimacs.parse_s"])
    layers["search.blocker_hit_ratio"] = ratio(layers["search.blocker_hits"],
                                               layers["search.watcher_visits"])
    learnt = layers.pop("search.learnt_total")
    layers["search.learnt_kept_ratio"] = (
        1.0 - ratio(layers["search.removed_clauses"], learnt) if learnt else 0.0)
    layers["search.propagations_per_s"] = ratio(layers["search.propagations"],
                                                layers["search.s"])
    return layers


# ---------------------------------------------------------------------
# File workloads: paper_hard and large_formula


def by_instance(passes):
    """Every sample of every pass, grouped by instance in manifest order."""
    groups = {}
    for p in passes:
        for r in p:
            groups.setdefault(r["name"], []).append(r)
    return groups


def file_pass(dirname, manifest, trace, earlier):
    """One pass over the instances, each run in a fresh process.  An
    instance that took under REPEAT_TARGET_S in earlier passes runs
    several times, so short instances get more samples for their
    medians."""
    seen = by_instance(earlier)
    results = []
    for inst in manifest["instances"]:
        repeat = 1
        if inst["name"] in seen:
            t = statistics.median(r["time_to_verdict_s"] for r in seen[inst["name"]])
            repeat = max(1, min(REPEAT_MAX, round(REPEAT_TARGET_S / t)))
        argv = ["file", os.path.join(dirname, inst["file"]), inst["expect"],
                "1" if inst["simplify"] else "0", "1" if trace else "0"]
        for _ in range(repeat):
            try:
                r = run_worker(argv, INSTANCE_LIMIT_S)
            except Failed as e:
                raise Failed(str(e), len(results) + 1, 1)
            if not r["ok"]:
                raise Failed("%s: verdict %s, expected %s, or its model failed the check"
                             % (inst["name"], r["verdict"], inst["expect"]),
                             len(results) + 1, 1)
            r["name"] = inst["name"]
            results.append(r)
    return results


def file_fingerprint(results):
    """Per instance, its verdict and exact counters; the repeats of an
    instance within a pass add an entry only if they differ."""
    prints = {}
    for r in results:
        work = [r["verdict"]] + [r[part][c] for part in ("simplify", "search")
                                 for c in ("conflicts", "decisions", "propagations",
                                           "watcher_visits")]
        entries = prints.setdefault(r["name"], [])
        if work not in entries:
            entries.append(work)
    return [[name] + entries for name, entries in prints.items()]


def file_end_to_end(passes):
    groups = by_instance(passes)
    per_instance = [statistics.median(r["time_to_verdict_s"] for r in samples)
                    for samples in groups.values()]
    setup = sum(statistics.median(r["setup_s"] for r in samples)
                for samples in groups.values())
    total = sum(per_instance)
    latencies = sorted(per_instance)
    counts = [len(samples) for samples in groups.values()]
    return {
        "time_to_verdict_s": total,
        "setup_s": setup,
        "peak_rss_mb": max(r["vmhwm_kb"] for p in passes for r in p) / 1024.0,
        "requests_per_s": len(groups) / total,
        "request_p50_ms": 1000.0 * statistics.median(latencies),
        "request_p99_ms": 1000.0 * nearest_rank(latencies, 0.99),
    }, "%d instances, each the median of %d to %d samples; p99 is the slowest" % (
        len(groups), min(counts), max(counts))


def file_details(passes):
    """Per-instance lines for the table: median time and its spread."""
    lines = []
    for name, samples in by_instance(passes).items():
        times = [r["time_to_verdict_s"] for r in samples]
        q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
        lines.append("  instance %-24s %10.4f s  iqr %5.1f%%  n %2d  %s, %d conflicts"
                     % (name, statistics.median(times),
                        100.0 * (q[2] - q[0]) / statistics.median(times), len(times),
                        samples[0]["verdict"], samples[0]["search"]["conflicts"]))
    return lines


def file_layers(passes):
    """Per instance, the median self time of each layer and its exact
    counts; summed over the instances."""
    layers = empty_layers()
    for samples in by_instance(passes).values():
        times = [self_times(r["spans"]) for r in samples]
        for metric, span in LAYER_SPANS.items():
            layers[metric] += statistics.median(t.get(span, 0.0) for t in times)
        r = samples[0]
        layers["dimacs.bytes"] += r["bytes"]
        layers["dimacs.literals"] += r["literals"]
        layers["create.arena_bytes"] += r["arena_bytes"]
        layers["search.vars"] += r["vars"]
        layers["search.max_learnt_live"] = max(layers["search.max_learnt_live"],
                                               r["max_learnt_live"])
        layers["search.learnt_total"] += r["search"]["learnt_total"]
        for c in SEARCH_COUNTS:
            layers["search." + c] += r["search"][c]
        for m, c in SIMPLIFY_COUNTS.items():
            layers[m] += r["simplify"][c]
    return finish_layers(layers)


# ---------------------------------------------------------------------
# The incremental workload


def stream_details(passes):
    r = passes[0][0]
    return ["  stream: %d requests per pass (%s), %d sat, %d unsat, %d cores re-solved"
            % (r["requests"], ", ".join("%s %d" % kv for kv in sorted(r["ops"].items())),
               r["sat"], r["unsat"], sum(p[0]["cores_resolved"] for p in passes))]


def stream_pass(dirname, manifest, seed, index, trace):
    """One pass: open, the base load and the stream, in a fresh process.
    A request never answered counts as failed."""
    operations = manifest["requests"] + 2
    try:
        r = run_worker(["stream", dirname, str(seed), str(index), "1" if trace else "0"],
                       STREAM_LIMIT_S)
    except Failed as e:
        raise Failed(str(e), operations, operations)
    if not r["ok"]:
        raise Failed("incremental stream: %d failed requests: %s"
                     % (r["failures"], "; ".join(r["errors"])), operations,
                     r["failures"] + manifest["requests"] - r["requests"])
    return [r]


def stream_fingerprint(results):
    r = results[0]
    return [r["requests"], r["ops"], r["sat"], r["unsat"], r["core_literals"],
            r["response_bytes"], r["session"]["conflicts"], r["session"]["decisions"],
            r["session"]["propagations"], r["session"]["watcher_visits"], r["digest"]]


def stream_end_to_end(passes):
    runs = [p[0] for p in passes]
    pooled = sorted(x for r in runs for x in r["latencies_s"])
    rank = math.ceil(0.99 * len(pooled))
    return {
        "time_to_verdict_s": statistics.median(r["setup_s"] + sum(r["latencies_s"])
                                               for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": max(r["vmhwm_kb"] for r in runs) / 1024.0,
        "requests_per_s": statistics.median(len(r["latencies_s"]) / sum(r["latencies_s"])
                                            for r in runs),
        "request_p50_ms": 1000.0 * statistics.median(pooled),
        "request_p99_ms": 1000.0 * pooled[rank - 1],
    }, "%d requests over %d passes, %d beyond p99" % (
        len(pooled), len(runs), len(pooled) - rank)


def stream_layers(passes):
    return median_metrics([stream_pass_layers(p[0]) for p in passes])


def stream_pass_layers(r):
    layers = empty_layers()
    times = self_times(r["spans"])
    for metric, span in LAYER_SPANS.items():
        layers[metric] = times.get(span, 0.0)
    layers["dimacs.bytes"] = r["base_bytes"]
    layers["dimacs.literals"] = r["base_literals"]
    layers["server.response_bytes"] = r["response_bytes"]
    for op in STREAM_OPS:
        layers["server.requests." + op] = r["ops"].get(op, 0)
    layers["server.requests.sat"] = r["sat"]
    layers["server.requests.unsat"] = r["unsat"]
    for c in SESSION_COUNTS:
        layers["session." + c] = r["session"][c]
    layers["session.core_literals"] = r["core_literals"]
    layers["session.vars"] = r["session_vars"]
    layers["session.learnt_live"] = r["session_learnt_live"]
    layers["session.arena_bytes"] = r["session_arena_bytes"]
    return finish_layers(layers)


def stream_operations(results):
    return results[0]["requests"] + 2  # the stream plus open and the base load


# ---------------------------------------------------------------------


def nearest_rank(sorted_values, q):
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def median_metrics(dicts):
    """Per key, the median over the dicts; an exact count that every
    pass shares keeps its value."""
    out = {}
    for k in dicts[0]:
        values = [d[k] for d in dicts]
        out[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    dirname, manifest, input_hash = generate(args.workload, args.seed)
    if args.workload == "incremental":
        run_pass = lambda i, traced, earlier: stream_pass(dirname, manifest, args.seed,
                                                          i, traced)
        fingerprint, end_to_end = stream_fingerprint, stream_end_to_end
        layers_of, operations = stream_layers, stream_operations
        details = stream_details
    else:
        run_pass = lambda i, traced, earlier: file_pass(dirname, manifest, traced, earlier)
        fingerprint, end_to_end = file_fingerprint, file_end_to_end
        layers_of, operations = file_layers, len
        details = file_details

    plain, traced = [], []
    attempted = failed = 0
    error = None
    started = time.monotonic()
    index = 0
    while True:
        # A traced run alternates untraced and traced passes, so slow
        # drifts of the host touch both alike.
        is_traced = bool(args.trace) and index % 2 == 1
        try:
            results = run_pass(index, is_traced, plain + traced)
            attempted += operations(results)
        except Failed as e:
            error = str(e)
            attempted += e.attempted
            failed += e.failed
            break
        (traced if is_traced else plain).append(results)
        index += 1
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        if enough and time.monotonic() - started >= args.seconds:
            break
    elapsed = time.monotonic() - started

    prints = [fingerprint(p) for p in plain + traced]
    if error is None and any(f != prints[0] for f in prints):
        error = "passes did different work: the exact-work fingerprints differ"
        failed += 1
    work = {"workload": args.workload, "seed": args.seed, "inputs_sha256": input_hash,
            "work": prints[0] if prints else None}

    correct = error is None
    metrics = {}
    summary = ""
    if correct and not args.trace:
        metrics, summary = end_to_end(plain)
    elif correct:
        layers = layers_of(traced)
        untraced = end_to_end(plain)[0]["time_to_verdict_s"]
        with_trace = end_to_end(traced)[0]["time_to_verdict_s"]
        layers["trace.overhead_pct"] = 100.0 * (with_trace - untraced) / untraced
        metrics = layers
        summary = "%d untraced and %d traced passes" % (len(plain), len(traced))
        with open(os.path.join(dirname, "trace.json"), "w") as f:
            json.dump({"fingerprint": work, "passes": [
                [{"name": r.get("name", "session"), "spans": r["spans"]} for r in p]
                for p in traced]}, f)

    units = declared_metrics()[args.trace]
    if metrics and set(metrics) != set(units):
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(metrics) ^ set(units)))
    print("perfbench %s seed=%d trace=%d: %d passes in %.1f s%s"
          % (args.workload, args.seed, args.trace, len(plain) + len(traced), elapsed,
             " (%s)" % summary if summary else ""))
    for name in sorted(metrics):
        print("  %-32s %16.6f %s" % (name, metrics[name], units[name]))
    if plain and correct:
        print("\n".join(details(plain)))
    print("  %-32s %16.6f ratio (%d failed / %d attempted)"
          % ("failed_ratio", failed / max(attempted, 1), failed, attempted))
    if error:
        print("FAILED: " + error)
    print("fingerprint " + json.dumps(work, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
