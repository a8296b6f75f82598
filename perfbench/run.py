#!/usr/bin/env python3
"""D3L discovery benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload lookup|batch --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

The first form runs one workload in one JVM and prints, as its last line,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. The
second runs every workload untraced and then traced and reports the
tracing overhead. Build, Spark scratch space and the raw figures of each
run (spans included) go to .bench_build/ in the checkout.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import build  # noqa: E402
import stats  # noqa: E402

ROOT = build.ROOT
WORK = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("lookup", "batch")
TIMEOUT_S = 170

# What one timed operation is, per workload.
OPS = {
    "lookup": "single-target queryTable, top-k collected",
    "batch": "queryAll over the targets, all collected, plus join-path expansion",
}

# Settings the program's own build gives its forked JVMs, plus the module
# openings Spark needs on Java 17.
JVM_FLAGS = [
    "-Xmx2g",
    "-Dspark.driver.host=127.0.0.1",
    "-Dspark.ui.enabled=false",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_jvm(cp, workload, seed, seconds, trace, deadline):
    tmp = os.path.join(WORK, "tmp")
    runs = os.path.join(WORK, "runs")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(runs, exist_ok=True)
    out = os.path.join(runs, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    cmd = [build.java()] + JVM_FLAGS + ["-Djava.io.tmpdir=" + tmp, "-cp", cp,
                                        "repro.perfbench.Main", "--workload", workload,
                                        "--seed", str(seed), "--seconds", str(seconds),
                                        "--trace", str(trace), "--out", out]
    log = os.path.join(runs, "%s-seed%d-trace%d.log" % (workload, seed, trace))
    with open(log, "w") as lf:
        proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=lf, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("%s run timed out; JVM log in %s" % (workload, log))
        finally:
            # Also reached on SIGTERM (see main): never leave the JVM behind.
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError("%s JVM exited with %d; log in %s" % (workload, proc.returncode, log))
    with open(out) as f:
        return json.load(f)


def end_to_end(raw):
    """metric -> (value, sample count)."""
    walls = [o["wall_s"] for o in raw["ops"]]
    targets = sum(o["items"] for o in raw["ops"])
    q = raw["quality"]
    n_targets = int(q.get("targets", 0))
    return {
        "setup_s": (raw["setup_s"], 1),
        "query_p50_s": (statistics.median(walls), len(walls)),
        "targets_per_s": (targets / sum(walls), len(walls)),
        "precision_at_k": (q.get("precision_at_k", 0.0), n_targets),
        "recall_at_k": (q.get("recall_at_k", 0.0), n_targets),
    }


def per_layer(raw, names):
    spans = raw["spans"]
    spark = raw["spark"]
    cores = raw["settings"]["cores"]
    ops = [s for s in spans if s["name"] == "bench.op"]
    out = stats.mean_dicts([stats.spark_per_span(spans, spark, op, cores) for op in ops])
    durations = {}
    for s in spans:
        durations.setdefault(s["name"], []).append((s["end_ms"] - s["start_ms"]) / 1e3)
    for layer, ms in stats.layer_self_times(spans).items():
        out[layer + ".self_s"] = ms / 1e3
    out["eval.coverage_j_at_k"] = raw["quality"].get("coverage_j_at_k", 0.0)
    out.update(raw["counts"])
    for n in names:
        if n not in out and n.endswith("_s") and n[:-2] in durations:
            out[n] = statistics.median(durations[n[:-2]])
    return {n: out.get(n, 0.0) for n in names}


def print_e2e(raw, e2e, units):
    q = raw["quality"]
    print("end-to-end, tracing off; one query = %s; k = %s" % (OPS[raw["workload"]], q.get("k")))
    for name, (v, n) in e2e.items():
        print("  %-18s %14.6g %-8s n=%d" % (name, v, units[name], n))
    tail = stats.tail_percentile(len(raw["ops"]))
    if tail:
        walls = [o["wall_s"] for o in raw["ops"]]
        print("  query_p%-11s %14.6g s        n=%d" % (tail, stats.percentile(walls, tail), len(walls)))
    print("  %-18s %14.6g s        n=1" % ("index_s", raw["index_s"]))
    print("  %-18s %14.6g cells/s  n=1" % ("index_cells_per_s", raw["cells"] / raw["index_s"]))
    if "coverage_j_at_k" in q:
        print("  %-18s %14.6g ratio    n=%d" % ("coverage_j_at_k", q["coverage_j_at_k"], q["targets"]))
    print("  %-18s %14.6g ratio    (%d of %d operations)" % (
        "failed_frac", raw["failed"] / max(1, raw["attempted"]), raw["failed"], raw["attempted"]))


def print_trace(raw, layer, units, untraced):
    print("per layer, traced (spark.* per timed operation; *_s spans: median duration):")
    for name, v in layer.items():
        print("  %-42s %14.6g %s" % (name, v, units[name]))
    print("self time by layer over the whole run:")
    for name, ms in sorted(stats.layer_self_times(raw["spans"]).items(), key=lambda kv: -kv[1]):
        print("  %-10s %10.3f s" % (name, ms / 1e3))
    if raw["kernels"]:
        print("kernels (ns per unit, units implied per operation, CPU seconds implied):")
        for k in raw["kernels"]:
            print("  %-28s %10.1f ns x %12d per %-28s = %8.4f s" % (
                k["name"], k["ns"], k["implied"], k["per"], k["ns"] * k["implied"] / 1e9))
    traced = statistics.median(o["wall_s"] for o in raw["ops"])
    if untraced is not None:
        print("tracing overhead: query_p50_s %.4f s traced vs %.4f s untraced (%+.1f%%)" % (
            traced, untraced, 100 * (traced / untraced - 1)))
    else:
        print("tracing overhead: no untraced run of this workload and seed on record")


def one(cp, workload, seed, seconds, trace, deadline):
    b = spec()
    raw = run_jvm(cp, workload, seed, seconds, trace, deadline)
    print("perfbench %s seed=%d seconds=%s trace=%d" % (workload, seed, seconds, trace))
    print("settings: " + ", ".join("%s=%s" % kv for kv in sorted(raw["settings"].items())))
    for p in raw["problems"]:
        print("FAILED CHECK: " + p)
    if not raw["ops"]:
        raise RuntimeError("%s: no query ran" % workload)
    metrics_path = os.path.join(WORK, "runs", "%s-seed%d-metrics.json" % (workload, seed))
    if trace:
        units = {m["name"]: m["unit"] for m in b["per_layer"]}
        layer = per_layer(raw, list(units))
        untraced = None
        if os.path.exists(metrics_path):
            with open(metrics_path) as f:
                untraced = json.load(f)["query_p50_s"]
        print_trace(raw, layer, units, untraced)
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layer.items()}
    else:
        units = {m["name"]: m["unit"] for m in b["end_to_end"]}
        e2e = end_to_end(raw)
        print_e2e(raw, e2e, units)
        with open(metrics_path, "w") as f:
            json.dump({n: v for n, (v, _) in e2e.items()}, f)
        metrics = {n: {"value": e2e[n][0], "unit": units[n]} for n in units}
    return {"correct": raw["failed"] == 0 and raw["attempted"] > 0,
            "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        seconds = a.seconds if a.seconds is not None else spec()["run_seconds"]
        cp = build.build()
        if a.workload != "all":
            result = one(cp, a.workload, a.seed, seconds, a.trace, time.time() + TIMEOUT_S)
            print(json.dumps(result))
            return 0
        ok = True
        for w in WORKLOADS:
            for trace in (0, 1):
                r = one(cp, w, a.seed, seconds, trace, time.time() + TIMEOUT_S)
                ok = ok and r["correct"]
                print()
        return 0 if ok else 1
    except (build.BuildError, RuntimeError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
