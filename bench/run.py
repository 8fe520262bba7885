"""Benchmark of quarticmoduli: one workload, one seed, one timed run.

    python3 bench/run.py --workload sample-gf101 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The load is a closed loop with one
client: each op starts after the previous one ends.  ``--trace 0`` prints
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs an
untraced and a traced phase of half the time each and prints the
per-layer metrics.  Before and after the timed phase the run starts fresh
interpreters that set the workload up, and reports their median as
``setup_s``.  Every reported time is scaled to a reference host speed
measured next to it (see ``REFERENCE_NS``).  Earlier stdout lines give a
table and a details object (run stamp, output digest, sample counts,
failures, unscaled figures); the last line is the result object.  Full
results, and the spans of a traced run, are written under ``.bench_out/``
in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SCHEMA = 1
# fresh interpreters timed before and again after the timed phase
SETUP_PROBES = 4
IMPORT_PROBES = 5
# The shared host runs the same code up to about 2x faster in some periods
# of seconds than in others.  A fixed loop timed next to every measurement
# tracks that speed to within a few percent, so every reported time is
# scaled to a host on which the loop takes REFERENCE_NS; the unscaled
# end-to-end figures are in the details line.
REFERENCE_NS = 500_000


def reference_ns():
    """Time in ns of a fixed dict-and-tuple loop that does not touch the
    program: a probe of the host's current speed."""
    start = time.perf_counter_ns()
    table = {}
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * 3 % 101
    return time.perf_counter_ns() - start


def timed_scaled(fn):
    """Run ``fn()``; returns its result and the host's slowness against
    REFERENCE_NS around the call."""
    before = reference_ns()
    result = fn()
    return result, (before + reference_ns()) / (2 * REFERENCE_NS)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load_program():
    """Import the package from the checkout's src/, or exit with an error."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "quarticmoduli", "__init__.py")):
        sys.exit(f"error: no quarticmoduli package under {src}")
    sys.path.insert(0, src)
    import quarticmoduli  # noqa: F401


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---- set-up ------------------------------------------------------------


def set_up(name, seed):
    """Build the workload, draw the first input and run one warm-up op."""
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliOneshot:
        scratch = os.path.join(OUT_DIR, f"cli-{seed}-{os.getpid()}")
        workload = cls(seed, ROOT, scratch)
    else:
        workload = cls(seed, ROOT)
    try:
        workload.run_op(workload.make_input(-1))
    except Exception:  # noqa: BLE001 - the timed ops record failures
        pass
    workload.refusals = 0
    return workload, workload.make_input(0)


def _setup_probe(args):
    """Child side of ``measure_setup``: set up, print the ready time."""
    _load_program()
    workload, _ = set_up(args.workload, args.seed)
    print(repr(time.monotonic()), flush=True)
    workload.close()


def measure_setup(args):
    """(seconds, host slowness) of fresh interpreters, each timed from its
    start to the moment it could run its first op.

    CLOCK_MONOTONIC is shared by all processes, so the child's ready time
    and the parent's start time compare directly.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]

    def probe():
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, timeout=120,
                              check=True)
        return float(done.stdout.decode().split()[-1]) - start

    return [timed_scaled(probe) for _ in range(SETUP_PROBES)]


def measure_import_ms():
    """Median time of a fresh ``import quarticmoduli``, in ms."""
    code = ("import time; t = time.perf_counter(); import quarticmoduli; "
            "print((time.perf_counter() - t) * 1000)")
    from workloads import child_env

    env = child_env(ROOT)
    samples = []
    for _ in range(IMPORT_PROBES):
        done, slowness = timed_scaled(lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, timeout=60,
            check=True))
        samples.append(float(done.stdout.decode()) / slowness)
    return statistics.median(samples)


# ---- the closed loop -----------------------------------------------------


class Phase:
    """Outcome of one timed phase of the closed loop."""

    def __init__(self):
        self.latencies = []
        self.passed = 0
        self.failed = 0
        self.wrong = 0
        self.fail_types = {}
        self.outputs = []
        self.elapsed = 0.0
        self.references = []  # reference_ns() before each op and at the end

    @property
    def attempted(self):
        return self.passed + self.failed

    def slowness(self):
        """Per op, the host's slowness against REFERENCE_NS: the mean of
        the reference times just before and just after the op."""
        refs = self.references
        return [(refs[i] + refs[i + 1]) / (2 * REFERENCE_NS)
                for i in range(len(self.latencies))]

    def scaled_latencies_ms(self):
        return [1000 * t / s for t, s in zip(self.latencies, self.slowness())]

    def raw_throughput(self):
        return self.passed / (self.elapsed - sum(self.references) / 1e9)

    def scaled_throughput(self):
        return self.raw_throughput() * statistics.mean(self.slowness())

    def fail(self, kind, message):
        self.failed += 1
        entry = self.fail_types.setdefault(kind, {"count": 0, "first": ""})
        entry["count"] += 1
        entry["first"] = entry["first"] or message[:300]


def run_phase(workload, seconds, first, min_ops=0, first_input=None,
              tracer=None, keep_outputs=0):
    """Run ops first, first+1, ... until ``seconds`` pass and ``min_ops``
    ops are done.  Inputs are drawn between ops, outside the op timer and
    outside any span."""
    from workloads import CheckFailed

    phase = Phase()
    workload.refusals = 0
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    index = first
    while True:
        inp = first_input if (index == first and first_input is not None) \
            else workload.make_input(index)
        phase.references.append(reference_ns())
        if tracer is not None:
            tracer.active = True
            tracer.begin_op(index, workload.op_name(inp))
        t0 = clock()
        try:
            outputs = workload.run_op(inp)
            phase.passed += 1
        except CheckFailed as exc:
            phase.wrong += 1
            phase.fail("CheckFailed", str(exc))
            outputs = ["fail:CheckFailed"]
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            phase.fail(type(exc).__name__, repr(exc))
            outputs = ["fail:" + type(exc).__name__]
        finally:
            t1 = clock()
            if tracer is not None:
                tracer.end_op()
                tracer.active = False
        phase.latencies.append(t1 - t0)
        if len(phase.outputs) < keep_outputs:
            phase.outputs.append(outputs)
        index += 1
        if t1 >= deadline and index - first >= min_ops:
            break
    phase.references.append(reference_ns())
    phase.elapsed = clock() - start
    phase.refusals = workload.refusals
    return phase


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def digest(outputs):
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


# ---- per-layer measurements ------------------------------------------------


def counting_pass(workload, modules, extra):
    """Replay the first ``count_ops`` ops under the profiler and a fresh
    span recorder; returns exact counts."""
    from quarticmoduli import gcd, matrices
    from quarticmoduli.field import FieldScalar, ParamScalar
    from quarticmoduli.poly import MultiPoly
    from tracing import Tracer, count_calls
    from workloads import ALL_LABELS, CheckFailed

    scalar_ops = [
        (f"{cls.__name__}.{op}", getattr(cls, op))
        for cls, ops in (
            (FieldScalar, ("__add__", "__sub__", "__rsub__", "__mul__",
                           "__neg__", "__truediv__", "__rtruediv__",
                           "inverse", "__pow__")),
            (ParamScalar, ("__add__", "__sub__", "__rsub__", "__mul__",
                           "__neg__", "__pow__")),
        )
        for op in ops
    ]
    functions = scalar_ops + [
        ("poly.mul", MultiPoly.__mul__),
        ("gcd.multivariate_gcd", gcd.multivariate_gcd),
        ("rga", matrices.random_graded_automorphism),
        ("GradedAutomorphism.__init__", matrices.GradedAutomorphism.__init__),
    ]
    n = workload.count_ops
    recorder = Tracer(modules, extra)
    wrong = []

    def run():
        for index in range(n):
            inp = workload.make_input(index)
            recorder.active = True
            try:
                workload.run_op(inp)
            except CheckFailed as exc:
                wrong.append(str(exc))
            except Exception:  # noqa: BLE001 - counted by the timed phases
                pass
            finally:
                recorder.active = False

    recorder.install()
    try:
        counts, callers = count_calls(run, functions)
    finally:
        recorder.remove()
    per_op = max(n, 1)
    attempts = callers.get(("GradedAutomorphism.__init__", "rga"), 0)
    labels = {}
    for name in ("strata.classify_res0", "strata.classify_res1"):
        for key, value in recorder.outcomes.get(name, {}).items():
            if key.startswith("label."):
                labels[key[6:]] = labels.get(key[6:], 0) + value
    roots = recorder.outcomes.get("gcd.binary_roots", {})
    metrics = {
        "field.scalar_ops_per_op": sum(counts[k] for k, _ in scalar_ops) / per_op,
        "poly.mul_calls_per_op": counts["poly.mul"] / per_op,
        "gcd.multivariate_gcd.calls_per_op":
            counts["gcd.multivariate_gcd"] / per_op,
        "matrices.random_graded_automorphism.accept_ratio":
            counts["rga"] / attempts if attempts else 0.0,
        "gcd.binary_roots.fail_count": sum(
            v for k, v in roots.items() if k.startswith("fail.")),
    }
    for label in ALL_LABELS:
        metrics[f"strata.label.{label}.count"] = labels.get(label, 0)
    return metrics, n, wrong


def kernel_timings(workload):
    """Per-call times of single public functions on the workload's own
    domain and data, timed from outside."""
    from quarticmoduli import gcd, strata
    from tracing import time_per_call_ns

    res0, res1 = workload.kernel_data()
    scalars = [c for m in res0 + res1 for row in m.entries for e in row
               for c in e.poly.terms.values()]
    pairs = [(scalars[i], scalars[(i * 7 + 3) % len(scalars)])
             for i in range(len(scalars))]
    pairs = (pairs * (2000 // len(pairs) + 1))[:2000]
    quadrics = [e.poly for m in res0 for e in m.row(0) if e]
    quad_pairs = [(quadrics[i], quadrics[(i + 1) % len(quadrics)])
                  for i in range(len(quadrics))]
    minors = [m.submatrix([1, 2], [0, 1, 2]).maximal_minors() for m in res0]
    kernels = {
        "field.mul_ns": (lambda ab: ab[0] * ab[1], pairs, 5, 1),
        "field.add_ns": (lambda ab: ab[0] + ab[1], pairs, 5, 1),
        "field.inv_ns": (lambda ab: ab[0].inverse(), pairs, 5, 1),
        "poly.form_mul_us": (lambda ab: ab[0] * ab[1], quad_pairs * 10, 5,
                             1e3),
        "matrices.det_res0_ms": (lambda m: m.determinant(), res0, 3, 1e6),
        "gcd.common_linear_factor_minors_ms": (gcd.common_linear_factor,
                                               minors, 3, 1e6),
        "strata.classify_res0_ms": (strata.classify_res0, res0, 3, 1e6),
        "strata.classify_res1_ms": (strata.classify_res1, res1, 3, 1e6),
    }
    out = {}
    for name, (fn, items, repeats, scale) in kernels.items():
        ns, slowness = timed_scaled(
            lambda: time_per_call_ns(fn, items, repeats))
        out[name] = ns / scale / slowness
    return out


def span_metrics(tracer, n_ops, slowness):
    """Per-op span figures of the traced phase; times are scaled by the
    phase's mean host slowness."""
    from tracing import SPAN_TARGETS

    summary = tracer.summary()
    per_op = max(n_ops, 1)
    metrics = {}
    for name, _, _ in SPAN_TARGETS:
        calls, self_ns, _ = summary.get(name, (0, 0, []))
        metrics[f"{name}.calls"] = calls / per_op
        metrics[f"{name}.self_ms"] = self_ns / 1e6 / per_op / slowness
        outcomes = tracer.outcomes.get(name, {})
        tried = outcomes.get("hit", 0) + outcomes.get("miss", 0)
        metrics[f"{name}.hit_ratio"] = outcomes.get("hit", 0) / tried \
            if tried else 0.0
    for sub in ("classify", "limit", "betti", "verify", "sample"):
        durations = summary.get("cli." + sub, (0, 0, []))[2]
        metrics[f"cli.{sub}.p50_ms"] = statistics.median(durations) / 1e6 \
            / slowness if durations else 0.0
    return metrics


# ---- the run stamp -----------------------------------------------------------


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              stdin=subprocess.DEVNULL, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def run_stamp(args, workload):
    import quarticmoduli

    revision = _git("rev-parse", "HEAD")
    dirty = None
    if revision is not None:
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "schema": SCHEMA,
        "git_revision": revision,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "PYTHONPATH": os.environ.get("PYTHONPATH"),
        "package_version": quarticmoduli.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": dict(workload.params, digest_ops=workload.digest_ops,
                       count_ops=workload.count_ops),
        "loop": "closed, one client",
    }


# ---- main ----------------------------------------------------------------------


def _emit(metrics, units, details, result):
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result), flush=True)


def _write(name, data):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(data, fh)


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)
    _load_program()
    spec = _spec()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: "
                 + ", ".join(workloads.WORKLOADS))
    setup_samples = [] if args.trace else measure_setup(args)
    workload, first_input = set_up(args.workload, args.seed)
    try:
        if args.trace:
            result, details = traced_run(args, spec, workload, first_input)
        else:
            result, details = untraced_run(args, spec, workload, first_input,
                                           setup_samples)
    finally:
        workload.close()
    details["stamp"] = run_stamp(args, workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    _write(f"result-{tag}.json", {"result": result, "details": details})
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    _emit({k: v["value"] for k, v in result["metrics"].items()}, units,
          details, result)
    return 0


def _phase_details(phase):
    return {
        "ops": phase.attempted,
        "latency_samples": len(phase.latencies),
        "passed": phase.passed,
        "failed": phase.failed,
        "fail": phase.fail_types,
        "known_refusals": phase.refusals,
        "elapsed_s": phase.elapsed,
    }


def _select(spec_metrics, values):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def untraced_run(args, spec, workload, first_input, setup_samples):
    phase = run_phase(workload, args.seconds, 0, workload.digest_ops,
                      first_input, keep_outputs=workload.digest_ops)
    setup_samples = setup_samples + measure_setup(args)
    if hasattr(workload, "max_child_rss_kib"):
        rss_kib = workload.max_child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat_ms = phase.scaled_latencies_ms()
    raw_ms = [x * 1000 for x in phase.latencies]
    values = {
        "throughput_ops_s": phase.scaled_throughput(),
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": percentile(lat_ms, 0.9),
        "pass_frac": phase.passed / phase.attempted,
        "setup_s": statistics.median(t / s for t, s in setup_samples),
        "peak_rss_mib": rss_kib / 1024,
    }
    result = {
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": _select(spec["end_to_end"], values),
    }
    details = _phase_details(phase)
    details["raw"] = {
        "throughput_ops_s": phase.raw_throughput(),
        "latency_ms_p50": statistics.median(raw_ms),
        "latency_ms_p90": percentile(raw_ms, 0.9),
        "setup_s": statistics.median(t for t, _ in setup_samples),
        "setup_samples_s": [t for t, _ in setup_samples],
    }
    details["host_slowness_mean"] = statistics.mean(phase.slowness())
    details["digest"] = digest(phase.outputs)
    details["digest_ops"] = len(phase.outputs)
    return result, details


def traced_run(args, spec, workload, first_input):
    import tracing
    import workloads

    half = args.seconds / 2
    plain = run_phase(workload, half, 0, workload.digest_ops, first_input,
                      keep_outputs=workload.digest_ops)
    modules = tracing.package_modules()
    tracer = tracing.Tracer(modules, [workloads])
    tracer.install()
    try:
        traced = run_phase(workload, half, plain.attempted, tracer=tracer)
    finally:
        tracer.remove()
    values = span_metrics(tracer, traced.attempted,
                          statistics.mean(traced.slowness()))
    counts, counted_ops, wrong = counting_pass(workload, modules, [workloads])
    values.update(counts)
    values.update(kernel_timings(workload))
    from quarticmoduli import verify

    def run_all_ms():
        start = time.perf_counter()
        verify.run_all()
        return (time.perf_counter() - start) * 1000

    ms, slowness = timed_scaled(run_all_ms)
    values["verify.run_all_ms"] = ms / slowness
    values["cli.import_ms"] = measure_import_ms()
    plain_rate = plain.scaled_throughput()
    values["trace.overhead_frac"] = 1 - traced.scaled_throughput() \
        / plain_rate if plain_rate else 0.0
    _write(f"spans-{args.workload}-seed{args.seed}.json", tracer.to_json_dict())
    result = {
        "correct": plain.wrong == 0 and traced.wrong == 0 and not wrong,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": _select(spec["per_layer"], values),
    }
    details = {
        "untraced": _phase_details(plain),
        "traced": _phase_details(traced),
        "counted_ops": counted_ops,
        "counting_pass_wrong": wrong,
        "digest": digest(plain.outputs),
        "digest_ops": len(plain.outputs),
        "span_count": len(tracer.spans),
    }
    return result, details


if __name__ == "__main__":
    sys.exit(main())
