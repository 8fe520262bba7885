"""Summarize result files written by bench/run.py.

    python3 bench/summarize.py .bench_out/result-*.json > summary.json

Groups the results by workload and trace mode and gives, per metric, the
median, the quartiles and the spread (interquartile distance over the
median) of its values, as Python's ``statistics.quantiles(values, n=4)``
gives them, next to the metric's bound from BENCHMARK.json.  It also
lists, per workload, the output digests and the exact profiler counts of
the traced runs, which must repeat for one seed, and compares the
baseline rows quoted in ROADMAP open item 1 with the matching per-layer
metrics.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ROADMAP open item 1: (row, quoted value, workload, metric, scale to the
# metric's unit).  Quoted at GF(101) on random inputs.
ROADMAP_ROWS = (
    ("quadric x quadric", "149 us", "sample-gf101", "poly.form_mul_us", 149.0),
    ("res0 determinant", "0.91 ms", "sample-gf101", "matrices.det_res0_ms",
     0.91),
    ("common_linear_factor on the 3 minors", "3.0 ms", "sample-gf101",
     "gcd.common_linear_factor_minors_ms", 3.0),
    ("classify_res0", "4.2 ms", "sample-gf101", "strata.classify_res0_ms", 4.2),
    ("classify_res1", "5.0 ms", "sample-gf101", "strata.classify_res1_ms", 5.0),
    ("verify.run_all", "1.07 s", "replay", "verify.run_all_ms", 1070.0),
    ("CLI betti M", "0.13 s", "cli-oneshot", "cli.betti.p50_ms", 130.0),
)
# profiler-counted metrics, exact for one seed
EXACT = (
    "field.scalar_ops_per_op", "poly.mul_calls_per_op",
    "gcd.multivariate_gcd.calls_per_op",
    "matrices.random_graded_automorphism.accept_ratio",
    "gcd.binary_roots.fail_count",
)


def _stats(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "min": min(values),
        "max": max(values),
    }


def summarize(paths):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups = {}
    for path in paths:
        with open(path) as fh:
            run = json.load(fh)
        stamp = run["details"]["stamp"]
        key = (stamp["workload"], stamp["trace"])
        groups.setdefault(key, []).append(run)
    out = {"runs": {}, "roadmap_rows": []}
    for (workload, trace), runs in sorted(groups.items()):
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            entry = _stats(values)
            entry["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            if name in bounds:
                entry["bound"] = bounds[name]
                spread = entry.get("spread")
                entry["within_bound"] = spread is not None and \
                    spread <= bounds[name]
                entry["within_third_of_bound"] = spread is not None and \
                    spread < bounds[name] / 3
            metrics[name] = entry
        by_seed = {}
        for r in runs:
            seed = r["details"]["stamp"]["seed"]
            record = by_seed.setdefault(str(seed), {"digests": [], "exact": []})
            record["digests"].append(r["details"]["digest"])
            if trace:
                record["exact"].append({
                    k: r["result"]["metrics"][k]["value"] for k in EXACT
                })
        repeat = all(len(set(v["digests"])) == 1 and all(
            e == v["exact"][0] for e in v["exact"]) for v in by_seed.values())
        out["runs"][f"{workload} trace={trace}"] = {
            "runs": len(runs),
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "stamp": runs[0]["details"]["stamp"],
            "metrics": metrics,
            "per_seed": by_seed,
            "digests_and_exact_counts_repeat": repeat,
        }
    tolerance = bounds.get("latency_ms_p50")
    for row, quoted, workload, metric, value in ROADMAP_ROWS:
        group = out["runs"].get(f"{workload} trace=1")
        if group is None:
            continue
        measured = group["metrics"][metric]["median"]
        ratio = measured / value
        out["roadmap_rows"].append({
            "row": row,
            "quoted": quoted,
            "metric": f"{workload}: {metric}",
            "measured_median": measured,
            "ratio": ratio,
            "tolerance": tolerance,
            "outside_bound": abs(ratio - 1) > tolerance,
        })
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1, sort_keys=True)
    print()
