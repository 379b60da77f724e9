"""Span tracing for the benchmark's traced runs.

The benchmark wraps sparsepr's public functions from the outside: each
function is replaced in the namespace that calls it (the modules import
names directly, so `sparsepr.retrieval.forward_transform` and
`sparsepr.fourier.forward_transform` are separate references). A wrapper
records one span per call: name, start, end, parent span and enclosing
retrieval run. Spans stay in memory and are summarized when the run ends.

Untraced runs never install a wrapper, so the end-to-end metrics carry no
tracing cost; the traced run reports that cost as `trace.overhead_ratio`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

RUN = "retrieval.run"
LINE_SEARCH = "sparsity.line_search"
PENALTY_EVAL = "sparsity.penalty_eval"

# (module, attribute, span name).
TARGETS = (
    ("sparsepr", "run_hio", RUN),
    ("sparsepr", "run_sparse_hio", RUN),
    ("sparsepr", "binary_phase_phantom", "experiment.phantom"),
    ("sparsepr", "gray_phase_phantom", "experiment.phantom"),
    ("sparsepr.retrieval", "run_hio", RUN),
    ("sparsepr.retrieval", "run_sparse_hio", RUN),
    ("sparsepr.retrieval", "inverse_transform", "fourier.inverse_transform"),
    ("sparsepr.retrieval", "forward_transform", "fourier.forward_transform"),
    ("sparsepr.retrieval", "impose_magnitude", "fourier.impose_magnitude"),
    ("sparsepr.retrieval", "hio_update", "retrieval.hio_update"),
    ("sparsepr.retrieval", "sparsity_descent", "sparsity.descent"),
    ("sparsepr.retrieval", "tv_value", "retrieval.penalty_trace"),
    ("sparsepr.retrieval", "huber_value", "retrieval.penalty_trace"),
    ("sparsepr.retrieval", "select_delta", "retrieval.penalty_trace"),
    ("sparsepr.retrieval", "as_mask", "grids.as_mask"),
    ("sparsepr.fourier", "as_complex_field", "grids.as_complex_field"),
    ("sparsepr.sparsity", "tv_gradient", "sparsity.gradient"),
    ("sparsepr.sparsity", "huber_gradient", "sparsity.gradient"),
    ("sparsepr.sparsity", "backtracking_step", LINE_SEARCH),
    ("sparsepr.sparsity", "smoothed_tv_value", PENALTY_EVAL),
    ("sparsepr.sparsity", "huber_value", PENALTY_EVAL),
    ("sparsepr.sparsity", "select_delta", "sparsity.select_delta"),
    ("sparsepr.sparsity", "bounding_box", "grids.bounding_box"),
    ("sparsepr.sparsity", "as_mask", "grids.as_mask"),
    ("sparsepr.grids", "as_mask", "grids.as_mask"),
    ("sparsepr.experiment", "as_mask", "grids.as_mask"),
    ("sparsepr.experiment", "bounding_box", "grids.bounding_box"),
    ("sparsepr.experiment", "binary_phase_phantom", "experiment.phantom"),
    ("sparsepr.experiment", "gray_phase_phantom", "experiment.phantom"),
    ("sparsepr.experiment", "run_statistics", "experiment.run_statistics"),
    ("sparsepr.cli", "write_field_file", "fieldfile.write"),
    ("sparsepr.cli", "as_mask", "grids.as_mask"),
)

# (name, unit, better). The traced run reports every one of these on every
# workload: 0 where the layer does no work there, None (with a warning)
# where a wrapped function is gone or was never called though it should be.
PER_LAYER = (
    ("fourier.fft_pair.ms_per_iter", "ms", "lower"),
    ("fourier.impose_magnitude.ms_per_iter", "ms", "lower"),
    ("fourier.share_of_iter", "ratio", "lower"),
    ("grids.as_complex_field.calls_per_iter", "count", "lower"),
    ("grids.bounding_box.calls_per_iter", "count", "lower"),
    ("grids.as_mask.calls_per_iter", "count", "lower"),
    ("grids.mask_and_box.ms_per_iter", "ms", "lower"),
    ("retrieval.hio_update.ms_per_iter", "ms", "lower"),
    ("retrieval.loop.self_ms_per_iter", "ms", "lower"),
    ("retrieval.penalty_trace.ms_per_iter", "ms", "lower"),
    ("retrieval.iters_to_recover", "count", "lower"),
    ("retrieval.recovered_fraction", "ratio", "higher"),
    ("sparsity.descent.ms_per_iter", "ms", "lower"),
    ("sparsity.descent.share_of_iter", "ratio", "lower"),
    ("sparsity.gradient.ms_per_iter", "ms", "lower"),
    ("sparsity.gradient.us_per_call", "us", "lower"),
    ("sparsity.line_search.ms_per_iter", "ms", "lower"),
    ("sparsity.line_search.evals_per_step", "count", "lower"),
    ("sparsity.line_search.first_trial_accept_ratio", "ratio", "higher"),
    ("sparsity.line_search.zero_steps", "count", "lower"),
    ("sparsity.penalty_eval.calls_per_iter", "count", "lower"),
    ("sparsity.penalty_eval.us_per_call", "us", "lower"),
    ("sparsity.select_delta.ms_per_iter", "ms", "lower"),
    ("sparsity.inner_steps_per_iter", "count", "lower"),
    ("fieldfile.write.ms_per_cell", "ms", "lower"),
    ("fieldfile.bytes_written", "bytes", "lower"),
    ("experiment.run_statistics.ms", "ms", "lower"),
    ("experiment.phantom.ms", "ms", "lower"),
    ("cli.sweep.cell_s_p50.hio", "s", "lower"),
    ("cli.sweep.cell_s_p50.hio-tv", "s", "lower"),
    ("cli.sweep.worker_busy_ratio", "ratio", "higher"),
    ("cli.sweep.speedup_vs_jobs1", "ratio", "higher"),
    ("trace.iter_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans_per_iter", "count", "lower"),
)


def warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


class Tracer:
    """Installs the span wrappers while entered and keeps every span.

    A span is (name, start, end, parent index, enclosing run index,
    result); the result is kept only for line-search spans, whose return
    value is the accepted step.
    """

    def __init__(self):
        self.spans = []
        self._current = -1
        self._run = -1
        self._saved = []
        self.missing = []
        by_name = {}
        for module_name, attr, name in TARGETS:
            by_name.setdefault(name, []).append(f"{module_name}.{attr}")
        self.targets_by_name = by_name

    def __enter__(self):
        self.missing = []
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def _wrap(self, fn, name):
        spans = self.spans
        is_run = name == RUN
        keep_result = name == LINE_SEARCH

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, run = self._current, self._run
            index = len(spans)
            spans.append(None)
            self._current = index
            if is_run:
                self._run = index
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._current, self._run = parent, run
                spans[index] = (name, start, end, parent, index if is_run else run,
                                result if keep_result else None)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around `cli.main`."""
        parent = self._current
        index = len(self.spans)
        self.spans.append(None)
        self._current = index
        start = time.perf_counter()
        try:
            yield
        finally:
            self._current = parent
            self.spans[index] = (name, start, time.perf_counter(), parent, self._run, None)

    def missing_names(self) -> set:
        """Span names all of whose wrapped functions no longer exist."""
        gone = set(self.missing)
        return {name for name, targets in self.targets_by_name.items()
                if all(t in gone for t in targets)}


class RecoveryProbe:
    """Samples the phase RMSE of the iterate every `every` iterations.

    Hooks `sparsepr.retrieval.forward_transform`, whose argument is the
    iterate after the support update and descent block. The sample is
    taken before the call, outside any timed span. `first` is the first
    sampled iteration whose RMSE is under the tolerance, or None.
    """

    def __init__(self, sp, truth, mask, tolerance, every=10):
        self.sp, self.truth, self.mask = sp, truth, mask
        self.tolerance, self.every = tolerance, every
        self.available = True
        self.calls = 0
        self.first = None

    def reset(self):
        self.calls = 0
        self.first = None

    def __enter__(self):
        module = self.sp.retrieval
        original = getattr(module, "forward_transform", None)
        if original is None:
            self.available = False
            warn("trace target sparsepr.retrieval.forward_transform no longer exists; "
                 "retrieval.iters_to_recover is not measured")
            return self

        def sampled(field, *args, **kwargs):
            self.calls += 1
            if self.first is None and self.calls % self.every == 0:
                sp = self.sp
                try:
                    rmse = sp.phase_rmse(sp.zero_outside_support(field, self.mask),
                                         self.truth, self.mask)
                except ValueError:
                    rmse = float("inf")
                if rmse < self.tolerance:
                    self.first = self.calls
            return original(field, *args, **kwargs)

        self._restore = (module, original)
        module.forward_transform = sampled
        return self

    def __exit__(self, *exc):
        if self.available:
            module, original = self._restore
            module.forward_transform = original
        return False


class Summary:
    """Counts and times per span name, split into spans inside a retrieval
    run and all spans."""

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, run, result in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.count = {}
        self.total = {}
        self.run_count = {}
        self.run_total = {}
        self.run_self = {}
        self.durations = {}
        evals = {}
        top_grids = 0.0
        for index, (name, start, end, parent, run, result) in enumerate(spans):
            duration = end - start
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.durations.setdefault(name, []).append(duration)
            if run < 0:
                continue
            self.run_count[name] = self.run_count.get(name, 0) + 1
            self.run_total[name] = self.run_total.get(name, 0.0) + duration
            self.run_self[name] = self.run_self.get(name, 0.0) + duration - child_time[index]
            if name.startswith("grids.") and not (parent >= 0 and spans[parent][0].startswith("grids.")):
                top_grids += duration
            if name == PENALTY_EVAL and parent >= 0 and spans[parent][0] == LINE_SEARCH:
                evals[parent] = evals.get(parent, 0) + 1
        self.top_grids = top_grids
        steps = [(i, s[5]) for i, s in enumerate(spans) if s[0] == LINE_SEARCH and s[4] >= 0]
        self.steps = len(steps)
        self.step_evals = sum(evals.get(i, 0) for i, _ in steps)
        # p0 plus one trial: the first trial step was accepted
        self.first_trial = sum(1 for i, t in steps if evals.get(i, 0) == 2 and t)
        self.zero_steps = sum(1 for _, t in steps if t == 0.0)
        self.n_spans = len(spans)


def ratio(num, den):
    """num / den, or 0 where there is nothing to divide (no work done)."""
    return num / den if num is not None and den else 0.0


def layer_metrics(tracer, workload, iters, cells, extras):
    """Per-layer metrics from the tracer's spans.

    `iters` is the number of outer iterations run inside traced retrieval
    runs and `cells` the number of traced sweep cells. `extras` holds the
    values measured outside spans (recovery, sweep files, overhead) by
    metric name; they take precedence over the span formulas.
    """
    s = Summary(tracer.spans)
    gone = tracer.missing_names()
    for target in tracer.missing:
        warn(f"trace target {target} no longer exists")
    warned = set()

    def covered(metric, names):
        for name in names:
            if name in gone:
                problem = f"every function traced as {name} is gone"
            elif name in workload.expects and s.count.get(name, 0) == 0:
                problem = f"{name} got no calls on {workload.name}"
            else:
                continue
            if (metric, name) not in warned:
                warned.add((metric, name))
                warn(f"{metric} is missing: {problem}")
            return False
        return True

    def per_iter_ms(*names):
        return 1e3 * ratio(sum(s.run_total.get(n, 0.0) for n in names), iters)

    def calls_per_iter(name):
        return ratio(s.run_count.get(name, 0), iters)

    def us_per_call(name):
        return 1e6 * ratio(s.run_total.get(name, 0.0), s.run_count.get(name, 0))

    def median_ms(name):
        return 1e3 * statistics.median(s.durations[name]) if name in s.durations else 0.0

    iter_ms = per_iter_ms(RUN)
    fft = ("fourier.inverse_transform", "fourier.forward_transform")

    formulas = {
        "fourier.fft_pair.ms_per_iter": (fft, lambda: per_iter_ms(*fft)),
        "fourier.impose_magnitude.ms_per_iter": (
            ("fourier.impose_magnitude",), lambda: per_iter_ms("fourier.impose_magnitude")),
        "fourier.share_of_iter": (
            fft + ("fourier.impose_magnitude", RUN),
            lambda: ratio(per_iter_ms(*fft, "fourier.impose_magnitude"), iter_ms)),
        "grids.as_complex_field.calls_per_iter": (
            ("grids.as_complex_field",), lambda: calls_per_iter("grids.as_complex_field")),
        "grids.bounding_box.calls_per_iter": (
            ("grids.bounding_box",), lambda: calls_per_iter("grids.bounding_box")),
        "grids.as_mask.calls_per_iter": (("grids.as_mask",), lambda: calls_per_iter("grids.as_mask")),
        "grids.mask_and_box.ms_per_iter": (
            ("grids.as_mask", "grids.bounding_box"), lambda: 1e3 * ratio(s.top_grids, iters)),
        "retrieval.hio_update.ms_per_iter": (
            ("retrieval.hio_update",), lambda: per_iter_ms("retrieval.hio_update")),
        "retrieval.loop.self_ms_per_iter": (
            (RUN,), lambda: 1e3 * ratio(s.run_self.get(RUN, 0.0), iters)),
        "retrieval.penalty_trace.ms_per_iter": (
            ("retrieval.penalty_trace",), lambda: per_iter_ms("retrieval.penalty_trace")),
        "sparsity.descent.ms_per_iter": (("sparsity.descent",), lambda: per_iter_ms("sparsity.descent")),
        "sparsity.descent.share_of_iter": (
            ("sparsity.descent", RUN), lambda: ratio(per_iter_ms("sparsity.descent"), iter_ms)),
        "sparsity.gradient.ms_per_iter": (("sparsity.gradient",), lambda: per_iter_ms("sparsity.gradient")),
        "sparsity.gradient.us_per_call": (("sparsity.gradient",), lambda: us_per_call("sparsity.gradient")),
        "sparsity.line_search.ms_per_iter": ((LINE_SEARCH,), lambda: per_iter_ms(LINE_SEARCH)),
        "sparsity.line_search.evals_per_step": (
            (LINE_SEARCH, PENALTY_EVAL), lambda: ratio(s.step_evals, s.steps)),
        "sparsity.line_search.first_trial_accept_ratio": (
            (LINE_SEARCH, PENALTY_EVAL), lambda: ratio(s.first_trial, s.steps)),
        "sparsity.line_search.zero_steps": ((LINE_SEARCH,), lambda: s.zero_steps),
        "sparsity.penalty_eval.calls_per_iter": ((PENALTY_EVAL,), lambda: calls_per_iter(PENALTY_EVAL)),
        "sparsity.penalty_eval.us_per_call": ((PENALTY_EVAL,), lambda: us_per_call(PENALTY_EVAL)),
        "sparsity.select_delta.ms_per_iter": (
            ("sparsity.select_delta",), lambda: per_iter_ms("sparsity.select_delta")),
        "sparsity.inner_steps_per_iter": (
            ("sparsity.gradient",), lambda: calls_per_iter("sparsity.gradient")),
        "fieldfile.write.ms_per_cell": (
            ("fieldfile.write",), lambda: 1e3 * ratio(s.total.get("fieldfile.write", 0.0), cells)),
        "experiment.run_statistics.ms": (
            ("experiment.run_statistics",), lambda: median_ms("experiment.run_statistics")),
        "experiment.phantom.ms": (("experiment.phantom",), lambda: median_ms("experiment.phantom")),
        "trace.iter_ms": ((RUN,), lambda: iter_ms),
        "trace.spans_per_iter": ((RUN,), lambda: ratio(s.n_spans, iters)),
    }

    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in extras:
            value = extras[name]
        elif name in formulas:
            sources, formula = formulas[name]
            value = formula() if covered(name, sources) else None
        else:
            value = 0.0
        metrics[name] = (None if value is None else float(value), unit)
    return metrics
