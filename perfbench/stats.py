"""Pure helpers that turn a run's raw figures into metrics: percentiles,
interval unions, span self time and the per-operation Spark attribution.
"""
import statistics

# Percentiles considered beyond the median, highest last.
TAIL_PERCENTILES = (75, 90, 95, 99, 99.9)


def tail_percentile(n):
    """Highest percentile above the median with at least ten of `n`
    samples beyond it, or None when even p75 has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100 - p) >= 1000 - 1e-6:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in (0, 100])."""
    xs = sorted(values)
    rank = max(1, -(-len(xs) * p // 100))
    return xs[int(rank) - 1]


def union_length(intervals):
    """Total length covered by (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(i for i in intervals if i[1] > i[0]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def clip(intervals, lo, hi):
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


def self_times(spans):
    """span id -> duration minus the part of it its child spans cover (ms)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(c["start_ms"], c["end_ms"]) for c in children.get(s["id"], [])]
        covered = union_length(clip(kids, s["start_ms"], s["end_ms"]))
        out[s["id"]] = (s["end_ms"] - s["start_ms"]) - covered
    return out


def layer_self_times(spans):
    """layer (first part of a span name) -> summed self time (ms)."""
    per = self_times(spans)
    out = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + per[s["id"]]
    return out


def subtree(spans, root_id):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s["id"])
    ids, todo = set(), [root_id]
    while todo:
        i = todo.pop()
        ids.add(i)
        todo += kids.get(i, [])
    return ids


SPARK_SUMS = ("jobs", "stages", "tasks", "task_failures", "executor_run_ms",
              "executor_cpu_ns", "gc_ms", "shuffle_read_bytes",
              "shuffle_write_bytes", "spill_bytes")


def spark_per_span(spans, spark, root, cores):
    """Spark figures attributed to `root` and the spans below it."""
    ids = subtree(spans, root["id"])
    lo, hi = root["start_ms"], root["end_ms"]
    wall_s = (hi - lo) / 1e3
    sums = dict.fromkeys(SPARK_SUMS, 0)
    for sid, agg in spark.get("per_span", {}).items():
        if int(sid) in ids:
            for k in SPARK_SUMS:
                sums[k] += agg[k]
    jobs = [(j["start_ms"], j["end_ms"]) for j in spark.get("jobs", []) if j["span"] in ids]
    in_jobs_s = union_length(clip(jobs, lo, hi)) / 1e3
    plans = [(s, e) for s, e in spark.get("plan_phases", []) if lo <= s < hi]
    run_s = sums["executor_run_ms"] / 1e3
    return {
        "spark.jobs": sums["jobs"],
        "spark.stages": sums["stages"],
        "spark.tasks": sums["tasks"],
        "spark.task_failures": sums["task_failures"],
        "spark.in_jobs_s": in_jobs_s,
        "spark.driver_s": wall_s - in_jobs_s,
        "spark.plan_s": union_length(clip(plans, lo, hi)) / 1e3,
        "spark.executor_run_s": run_s,
        "spark.executor_cpu_s": sums["executor_cpu_ns"] / 1e9,
        "spark.gc_s": sums["gc_ms"] / 1e3,
        "spark.core_util": run_s / (wall_s * cores) if wall_s > 0 and cores else 0.0,
        "spark.shuffle_read_bytes": sums["shuffle_read_bytes"],
        "spark.shuffle_write_bytes": sums["shuffle_write_bytes"],
        "spark.spill_bytes": sums["spill_bytes"],
    }


def mean_dicts(ds):
    if not ds:
        return {}
    return {k: statistics.fmean(d[k] for d in ds) for k in ds[0]}
