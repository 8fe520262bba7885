"""Span recording at the layer boundaries of quarticmoduli, from outside.

The recorder replaces the public functions of each layer with wrappers
that record a span (op id, name, start, end, parent) and put the original
back when it is removed.  Nothing under ``src/`` is edited: every module
attribute, class attribute and ``from ... import`` binding that refers to
a wrapped function is swapped, so calls one module makes into another are
recorded too.  The field and poly kernels are too hot to wrap; they are
counted by ``count_calls`` under the stdlib profiler instead.
"""

import cProfile
import pstats
import statistics
import sys
import time

# (layer metric name, module, attribute path inside the module)
SPAN_TARGETS = (
    ("poly.exact_div", "poly", "MultiPoly.try_exact_div"),
    ("matrices.determinant", "matrices", "FormMatrix.determinant"),
    ("matrices.maximal_minors", "matrices", "FormMatrix.maximal_minors"),
    ("matrices.act", "matrices", "act"),
    ("gcd.common_linear_factor", "gcd", "common_linear_factor"),
    ("gcd.lines_dividing_all", "gcd", "lines_dividing_all"),
    ("gcd.gcd_fold", "gcd", "gcd_fold"),
    ("gcd.binary_roots", "gcd", "binary_roots"),
    ("strata.classify_res0", "strata", "classify_res0"),
    ("strata.classify_res1", "strata", "classify_res1"),
    ("degeneration.family_limit", "degeneration", "family_limit"),
    ("degeneration.tangent_quartic", "degeneration", "tangent_quartic"),
    ("degeneration.build_twisted_ideal_resolution", "degeneration",
     "build_twisted_ideal_resolution"),
    ("degeneration.fitting_support", "degeneration", "fitting_support"),
    ("verify.transition", "verify", "verify_transition"),
    ("verify.cocycle", "verify", "verify_cocycle"),
    ("verify.reduction_chain", "verify", "verify_reduction_chain"),
    ("verify.chart_minors", "verify", "verify_chart_minors"),
    ("verify.fibre_determinant", "verify", "verify_fibre_determinant"),
    ("verify.tangent_quartic", "verify", "verify_tangent_quartic"),
    ("verify.poincare_corollary", "verify", "verify_poincare_corollary"),
    ("betti.poincare_M", "betti", "poincare_M"),
)


def _outcome_of(name, result):
    """The useful-outcome key recorded for a span, or None."""
    if name == "gcd.common_linear_factor":
        return "hit" if result is not None else "miss"
    if name == "gcd.lines_dividing_all":
        return "hit" if result.lines else "miss"
    if name in ("strata.classify_res0", "strata.classify_res1"):
        return "label." + result.label
    return None


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans in memory while installed and while ``active``.

    Spans are kept as flat tuples and only summarized or written out when
    the run ends.  ``outcomes`` counts, per span name, the outcome keys of
    ``_outcome_of`` and the exception types raised through the span.
    """

    def __init__(self, package_modules, extra_modules=()):
        self.modules = package_modules
        self.extra_modules = tuple(extra_modules)
        self.names = []
        self.spans = []
        self.stack = []
        self.outcomes = {}
        self.op_id = -1
        self.active = False
        self._patches = []

    # ---- install / remove -------------------------------------------

    def install(self):
        scan = list(self.modules.values()) + list(self.extra_modules)
        for name, module_name, path in SPAN_TARGETS:
            owner, attr = _resolve(self.modules[module_name], path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            # rebind every `from .x import f` copy of a module function
            for module in scan:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._count(name, "fail." + type(exc).__name__)
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.spans[index] = (tracer.op_id, name_id, start, end, parent)
            outcome = _outcome_of(name, result)
            if outcome is not None:
                tracer._count(name, outcome)
            return result

        return wrapper

    def _count(self, name, key):
        counts = self.outcomes.setdefault(name, {})
        counts[key] = counts.get(key, 0) + 1

    # ---- op-level spans ---------------------------------------------

    def begin_op(self, op_id, name):
        """Open the root span of one op; layer spans nest under it."""
        if name not in self.names:
            self.names.append(name)
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append((op_id, self.names.index(name), time.perf_counter_ns()))

    def end_op(self):
        index = self.stack.pop()
        op_id, name_id, start = self.spans[index]
        self.spans[index] = (op_id, name_id, start, time.perf_counter_ns(), -1)

    # ---- summaries ----------------------------------------------------

    def summary(self):
        """Per span name: [calls, total self ns, durations in ns].

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for k, (_, name_id, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(self.names[name_id], [0, 0, []])
            entry[0] += 1
            entry[1] += end - start - child_ns[k]
            entry[2].append(end - start)
        return out

    def to_json_dict(self):
        return {
            "names": list(self.names),
            "fields": ["op", "name", "start_ns", "end_ns", "parent"],
            "spans": [list(s) for s in self.spans],
        }


def count_calls(run, functions):
    """Exact call counts of ``functions`` while ``run()`` executes.

    Returns ({label: total calls}, {(callee label, caller label): calls})
    for the (label, function) pairs given; totals count recursive calls.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    keys = {}
    for label, fn in functions:
        code = fn.__code__
        keys[label] = (code.co_filename, code.co_firstlineno, code.co_name)
    totals = {}
    callers = {}
    for label, key in keys.items():
        entry = stats.get(key)
        totals[label] = entry[1] if entry else 0
        if not entry:
            continue
        for other, other_key in keys.items():
            by_caller = entry[4].get(other_key)
            if by_caller:
                callers[(label, other)] = by_caller[1]
    return totals, callers


def time_per_call_ns(fn, items, repeats=5):
    """Median over repeats of the time per item of ``fn(item)``, in ns.

    The time of the same loop with a no-op body is subtracted, so the
    figure is the call itself, not the loop step.
    """
    clock = time.perf_counter_ns

    def loop(body):
        start = clock()
        for item in items:
            body(item)
        return clock() - start

    noop = lambda item: None  # noqa: E731
    samples = []
    for _ in range(repeats):
        busy = loop(fn)
        idle = loop(noop)
        samples.append(max(busy - idle, 0) / len(items))
    return statistics.median(samples)


def package_modules():
    """The loaded quarticmoduli modules, by short name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "quarticmoduli" or name.startswith("quarticmoduli."):
            out[name.rpartition(".")[2]] = module
    return out
