"""Span tracer that times confein's layers from outside the package.

The tracer replaces a public function (or method) with a wrapper that
records one span per call: name, start, end and the index of the span that
was open when it started (its parent).  A module-level function is patched
on its defining module and on every loaded `confein` module that imported
it by name, so calls through either binding are seen.  `restore()` puts
every original object back; nothing under `src/` is edited.

Per-layer figures come from `metrics()`:

- `<span>_s`: inclusive seconds, summed over the outermost spans of that
  name (a span nested inside a span of the same name is not counted twice);
- `<span>_self_s`: seconds not covered by any direct child span;
- `<span>_calls`: number of those outermost calls, i.e. entries into the
  layer from outside it.

A span named after a function (`curvature.samples`) reports as
`curvature.samples_s`; one named after a whole module (`linalg`) as
`linalg.s`.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

_MARK = "__bench_span__"


def _tape_instrs(tracer, args, kwargs, prog):
    tracer.count("evaluate.tape_instrs", len(prog))


def _slot_bytes(tracer, args, kwargs, result):
    import numpy as np

    prog, bindings = args[0], (args[1] if len(args) > 1 else kwargs["bindings"])
    n_points = max((np.size(v) for v in bindings.values()
                    if isinstance(v, np.ndarray)), default=1)
    tracer.maximum("evaluate.max_slot_bytes", prog.n_slots * n_points * 8)


# (span name, defining module, attribute path, observer of each call)
TARGETS = (
    ("curvature.samples", "confein.curvature", "CurvaturePack.samples", None),
    ("evaluate.compile", "confein.evaluate", "compile_batch", _tape_instrs),
    ("evaluate.run", "confein.evaluate", "EvalProgram.run", _slot_bytes),
    ("genericity.classify_genericity", "confein.genericity",
     "classify_genericity", None),
    ("linalg", "confein.linalg", "rank_nullspace", None),
    ("linalg", "confein.linalg", "rank", None),
    ("linalg", "confein.linalg", "nullspace", None),
    ("linalg", "confein.linalg", "det", None),
    ("linalg", "confein.linalg", "adjugate", None),
    ("obstructions.k_field", "confein.obstructions", "k_field", None),
    ("obstructions.k_field", "confein.obstructions", "dual_candidate_jet",
     None),
    ("obstructions.invariants", "confein.obstructions", "e_tensor", None),
    ("obstructions.invariants", "confein.obstructions", "f1", None),
    ("obstructions.invariants", "confein.obstructions", "f2", None),
    ("obstructions.invariants", "confein.obstructions", "cspace_residual",
     None),
    ("obstructions.invariants", "confein.obstructions", "bach_residual",
     None),
    ("obstructions.invariants", "confein.obstructions", "dim4_invariant",
     None),
    ("obstructions.potential", "confein.obstructions",
     "reconstruct_potential", None),
    ("tractor.rank_obstruction", "confein.tractor", "rank_obstruction", None),
)

# Span names whose figures are reported; "cli.classify" is the root span
# the benchmark opens around each classify call.
SPAN_NAMES = ("cli.classify",) + tuple(dict.fromkeys(t[0] for t in TARGETS))
COUNTERS = ("evaluate.tape_instrs", "evaluate.max_slot_bytes")
# overhead_s times this many wrapped and bare no-op calls, this many times
OVERHEAD_CALLS, OVERHEAD_REPEATS = 20_000, 5


def metric_prefix(span):
    return span + ("_" if "." in span else ".")


def is_wrapper(obj):
    return hasattr(obj, _MARK)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # --- recording -----------------------------------------------------
    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    # --- patching ------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        import confein.cli  # noqa: F401  (loads every module that imports by name)

        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        modules = [m for n, m in sys.modules.items()
                   if n == "confein" or n.startswith("confein.")]
        try:
            for name, modname, path, observe in TARGETS:
                owner = sys.modules[modname]
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                wrapper = self.wrap(name, original, observe)
                self._patch(owner, attr, wrapper)
                if classes:
                    continue
                for mod in modules:
                    if mod is owner:
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # --- summaries -----------------------------------------------------
    def overhead_s(self):
        """Estimated seconds tracing added to the recorded calls: the
        number of spans times the median cost of one wrapped call over a
        bare one, measured on a no-op in this process."""
        def noop():
            pass

        probe = Tracer(self.clock)
        wrapped = probe.wrap("probe", noop)
        costs = []
        for _ in range(OVERHEAD_REPEATS):
            t0 = self.clock()
            for _ in range(OVERHEAD_CALLS):
                noop()
            t1 = self.clock()
            for _ in range(OVERHEAD_CALLS):
                wrapped()
            t2 = self.clock()
            costs.append(((t2 - t1) - (t1 - t0)) / OVERHEAD_CALLS)
            probe.spans.clear()
        costs.sort()
        return len(self.spans) * costs[len(costs) // 2]

    def self_times(self):
        """Per span: its duration minus the union of its direct children's
        intervals (clipped to the span)."""
        children = [[] for _ in self.spans]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c in sorted(children[i], key=lambda c: self.spans[c][1]):
                lo = max(self.spans[c][1], reach)
                hi = min(self.spans[c][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def _outermost(self, i):
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def metrics(self, names=SPAN_NAMES):
        """{metric name: value} for every span name in `names` (zero when
        the layer was never entered) plus the counters."""
        out = dict.fromkeys(COUNTERS, 0)
        for name in names:
            pre = metric_prefix(name)
            out[pre + "calls"] = 0
            out[pre + "s"] = 0.0
            out[pre + "self_s"] = 0.0
        for i, ((name, start, end, _), self_s) in enumerate(
                zip(self.spans, self.self_times())):
            if name not in names:
                continue
            pre = metric_prefix(name)
            out[pre + "self_s"] += self_s
            if self._outermost(i):
                out[pre + "calls"] += 1
                out[pre + "s"] += end - start
        out.update(self.counters)
        return out
