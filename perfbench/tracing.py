"""Span tracing installed from outside the package.

``Tracer.install`` wraps each function named in ``TARGETS`` and puts the
wrapper into every ``qident`` module namespace that bound the original, so
that calls made through ``qident.cli``, re-exports in ``qident`` and
method look-ups such as ``RlcmModel.distribution`` (which reads
``qident.rlcm.response_distribution`` at call time) are all recorded.
Spans stay in memory; ``write_trace`` saves them when the run ends.

``self_times`` gives each span's duration minus the part of its interval
covered by its child spans, and ``layer_metrics`` turns the spans of the
traced repetitions into the ``<module>.<function>.<stat>`` metrics.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

import numpy as np


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start, end=0, attrs=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}


def _bound(fn):
    """Argument look-up by parameter name, defaults applied."""
    sig = inspect.signature(fn)

    def lookup(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return lookup


def _annotate_classify(span, args, result):
    span.attrs["undetermined"] = result.scenario.value == "Undetermined"


def _annotate_em_fit(span, args, result):
    span.name = f"estimate.em_fit.{args['model']}"
    span.attrs["iterations"] = result.iterations
    span.attrs["capped"] = not result.converged


def _annotate_kernel(span, args, result):
    # one 2^J float64 buffer is filled per attribute pattern with p > 0
    n_classes = int(np.count_nonzero(np.asarray(args["p"])))
    span.attrs["computed_bytes"] = (1 << args["theta"].shape[0]) * 8 * n_classes


# (module, function, annotator or None, whether the annotator needs arguments)
TARGETS = [
    ("qmatrix", "enumerate_canonical", lambda s, a, r: s.attrs.update(designs=len(r)), False),
    ("qmatrix", "classify_dina", _annotate_classify, False),
    ("qmatrix", "classify_gdina", _annotate_classify, False),
    ("qmatrix", "check_conditions_DE", None, False),
    ("qmatrix", "check_generic_completeness", None, False),
    ("rlcm", "response_distribution", _annotate_kernel, True),
    ("rlcm", "simulate", lambda s, a, r: s.attrs.update(subjects=int(a["n"])), True),
    ("tmatrix", "tp_vector", _annotate_kernel, True),
    ("witness", "certify", None, False),
    ("witness", "gdina_two_item_attr", lambda s, a, r: s.attrs.update(witnesses=len(r)), False),
    ("witness", "incomplete_gamma_merge", None, False),
    ("estimate", "exhaustive_search", None, False),
    ("estimate", "multistart_fit", None, False),
    ("estimate", "em_fit", _annotate_em_fit, True),
    ("estimate", "align_to_truth", None, False),
    ("estimate", "mse_experiment", None, False),
    ("io", "dump_report", lambda s, a, r: s.attrs.update(bytes=len(r.encode())), False),
    ("io", "load_pattern_counts_csv", None, False),
    ("cli", "main", None, False),
]


class Tracer:
    """Records one span per call of each target function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, annotate, needs_args):
        lookup = _bound(fn) if needs_args else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter_ns())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if annotate is not None:
                annotate(span, lookup(args, kwargs) if needs_args else None, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``qident`` namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qident" or name.startswith("qident."))
        ]
        for module, func, annotate, needs_args in TARGETS:
            original = getattr(sys.modules[f"qident.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, annotate, needs_args)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its children's intervals
    (clipped to the span), in the spans' time unit."""
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(idx, ())
        )
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.end - span.start - covered)
    return out


# (layer, stats).  A stat is (suffix, unit, better).
_TIME = ("self_s", "s", "lower")
_CALLS = ("calls", "count", "lower")
_CLASSIFY = (_CALLS, _TIME, ("p50_us", "us", "lower"), ("p99_us", "us", "lower"),
             ("undetermined_frac", "ratio", "lower"))
_EM = (_CALLS, _TIME, ("iterations", "count", "lower"), ("us_per_iter", "us", "lower"),
       ("capped_frac", "ratio", "lower"))
LAYERS = [
    ("qmatrix.enumerate_canonical", (_CALLS, _TIME, ("designs", "count", "higher"))),
    ("qmatrix.classify_dina", _CLASSIFY),
    ("qmatrix.classify_gdina", _CLASSIFY),
    ("qmatrix.check_conditions_DE", (_CALLS, _TIME)),
    ("qmatrix.check_generic_completeness", (_CALLS, _TIME)),
    ("rlcm.response_distribution",
     (_CALLS, _TIME, ("p50_ms", "ms", "lower"), ("computed_bytes", "B", "lower"))),
    ("rlcm.simulate", (_CALLS, _TIME, ("subjects", "count", "higher"))),
    ("tmatrix.tp_vector", (_CALLS, _TIME, ("computed_bytes", "B", "lower"))),
    ("witness.certify", (_CALLS, _TIME, ("rejected_frac", "ratio", "lower"))),
    ("witness.gdina_two_item_attr", (_CALLS, _TIME, ("witnesses", "count", "higher"))),
    ("witness.incomplete_gamma_merge", (_CALLS, _TIME)),
    ("estimate.exhaustive_search", (_CALLS, _TIME)),
    ("estimate.multistart_fit", (_CALLS, _TIME)),
    ("estimate.em_fit.dina", _EM),
    ("estimate.em_fit.gdina", _EM),
    ("estimate.align_to_truth", (_CALLS, _TIME)),
    ("estimate.mse_experiment", (_CALLS, _TIME)),
    ("io.dump_report", (_CALLS, _TIME, ("bytes", "B", "lower"))),
    ("io.load_pattern_counts_csv", (_CALLS, _TIME)),
    ("cli.main", (_CALLS, _TIME)),
]
OVERHEAD = ("trace_overhead_frac", "ratio", "lower")


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = [(f"{layer}.{suffix}", unit, better)
             for layer, stats in LAYERS for suffix, unit, better in stats]
    return specs + [OVERHEAD]


def _stat(suffix, spans, selfs, n_reps):
    calls = len(spans)
    if suffix == "calls":
        return calls / n_reps
    if suffix == "self_s":
        return sum(selfs) * 1e-9 / n_reps
    if calls == 0:
        return 0.0
    durations = np.array([s.end - s.start for s in spans], dtype=float)
    if suffix == "p50_us":
        return float(np.percentile(durations, 50)) * 1e-3
    if suffix == "p99_us":
        return float(np.percentile(durations, 99)) * 1e-3
    if suffix == "p50_ms":
        return float(np.percentile(durations, 50)) * 1e-6
    if suffix == "undetermined_frac":
        return sum(s.attrs["undetermined"] for s in spans) / calls
    if suffix == "rejected_frac":
        return sum(s.attrs.get("raised") == "NotCertified" for s in spans) / calls
    if suffix == "capped_frac":
        return sum(s.attrs["capped"] for s in spans) / calls
    if suffix == "us_per_iter":
        return sum(selfs) * 1e-3 / sum(s.attrs["iterations"] for s in spans)
    # additive counts: designs, subjects, witnesses, bytes, computed_bytes, iterations
    return sum(s.attrs[suffix] for s in spans) / n_reps


def layer_metrics(spans, n_reps: int) -> dict[str, float]:
    """Per-layer metrics averaged over ``n_reps`` traced repetitions."""
    selfs = self_times(spans)
    by_name: dict[str, tuple[list, list]] = {}
    for span, own in zip(spans, selfs):
        group = by_name.setdefault(span.name, ([], []))
        group[0].append(span)
        group[1].append(own)
    out = {}
    for layer, stats in LAYERS:
        group_spans, group_selfs = by_name.get(layer, ([], []))
        for suffix, _, _ in stats:
            out[f"{layer}.{suffix}"] = float(_stat(suffix, group_spans, group_selfs, n_reps))
    return out


def write_trace(path, spans) -> None:
    """Gzipped JSON: a name table and one [name, parent, start_ns, end_ns,
    attrs] row per span, parents given as row indices (-1 for a root)."""
    names: dict[str, int] = {}
    rows = []
    for span in spans:
        idx = names.setdefault(span.name, len(names))
        rows.append([idx, span.parent, span.start, span.end, span.attrs or None])
    payload = {"names": list(names), "spans": rows}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
