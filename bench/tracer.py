"""Span recording around calls into gpca's modules, from outside the library.

The tracer replaces the module attributes the pipeline looks up at call
time (and `numpy.linalg.svd`) with wrappers that record one span per call:
name, start, end and the index of the enclosing span. Spans are recorded
only inside a span the runner opened, so set-up, checks and metric code
stay out of the trace. Spans live in memory until the run writes them out.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import sys
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        index = self._push(name)
        try:
            yield
        finally:
            self._pop(index)

    def _push(self, name) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def _pop(self, index):
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            index = self._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(index)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per-name sum of span durations minus the time their children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = collections.Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] += (end - start) - covered
        return dict(totals)

    def calls(self) -> dict[str, int]:
        return dict(collections.Counter(name for name, *_ in self.spans))

    def write(self, path, header):
        with open(path, "w") as fh:
            json.dump({**header, "counts": dict(self.counts), "spans": self.spans}, fh)


def _count_lift(tracer, args, out):
    tracer.counts["veronese.lift_mb"] += out.size * 8 / 2**20


def _count_segment(tracer, args, seg):
    tracer.counts["fitting.nullity"] += sum(s.nullity for s in seg.stages)
    if tracer.inside("discovery.recursive_segment"):
        tracer.counts["discovery.recursion_segment_calls"] += 1
    if tracer.inside("experiment.run_experiment"):
        tracer.counts["experiment.segment_calls"] += 1


def _count_trials(tracer, args, rows):
    config = args[0]
    tracer.counts["experiment.trials"] += len(config.noise_grid) * config.trials


def _count_recursion(tracer, args, result):
    _, report = result
    tracer.counts["discovery.probes"] += len(report.rank_table)
    stack = [report.tree] if report.tree is not None else []
    while stack:
        node = stack.pop()
        tracer.counts["discovery.splits_kept"] += bool(node.children)
        stack.extend(node.children)


def _count_equal_dim(tracer, args, result):
    tracer.counts["discovery.probes"] += len(result.rank_table)


def _count_ksub(tracer, args, result):
    tracer.counts["baselines.k_subspaces_iters"] += result[1]


def _count_em(tracer, args, result):
    tracer.counts["baselines.em_mixture_pca_iters"] += result[2]


def install(tracer: Tracer) -> None:
    """Wrap every layer function wherever a gpca module holds a reference to it."""
    import gpca
    from gpca import (
        baselines,
        cli,
        discovery,
        experiment,
        fitting,
        motion,
        polynomial,
        segmentation,
        synthgen,
        veronese,
    )

    layers = [
        ("veronese.lift", veronese, "veronese_lift", _count_lift),
        ("linalg.svd", np.linalg, "svd", None),
        ("fitting.embed", fitting, "embed", None),
        ("fitting.select_rank", fitting, "select_rank", None),
        ("polynomial.evaluate", polynomial, "evaluate", None),
        ("polynomial.evaluate", polynomial.PolynomialBasis, "evaluate", None),
        ("polynomial.basis_gradients", polynomial, "basis_gradients", None),
        ("polynomial.lift_matrix", polynomial, "lift_matrix", None),
        ("segmentation.segment", segmentation, "segment", _count_segment),
        ("segmentation.select_point", segmentation, "select_point", None),
        ("segmentation.algebraic_distance2", segmentation, "algebraic_distance2", None),
        ("segmentation.model_at_point", segmentation, "model_at_point", None),
        ("segmentation.assign", segmentation, "assign", None),
        ("segmentation.reject_outliers", segmentation, "reject_outliers", None),
        ("discovery.recursive_segment", discovery, "recursive_segment", _count_recursion),
        ("discovery.discover_equal_dim", discovery, "discover_equal_dim", _count_equal_dim),
        ("discovery.project", discovery, "project", None),
        ("baselines.k_subspaces", baselines, "k_subspaces", _count_ksub),
        ("baselines.em_mixture_pca", baselines, "em_mixture_pca", _count_em),
        ("experiment.run_experiment", experiment, "run_experiment", _count_trials),
        ("synthgen.generate", synthgen, "generate", None),
        ("motion.epipolar_lines", motion, "epipolar_lines", None),
        ("cli.load", synthgen, "load_dataset", None),
        ("cli.load", motion, "read_correspondences", None),
        ("cli.write", cli, "_write_json", None),
        ("cli.write", cli, "_write_text", None),
    ]
    holders = [gpca, np.linalg, polynomial.PolynomialBasis] + [
        module for name, module in sys.modules.items() if name.startswith("gpca.")
    ]
    for name, owner, attr, hook in layers:
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, hook)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics: self times in s, call counts and work counts."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def per_pass(value):
        return float(value) / passes

    def ratio(num, den):
        return float(num) / den if den else 0.0

    out = {}
    for metric, span in [
        ("veronese.lift", "veronese.lift"),
        ("linalg.svd", "linalg.svd"),
        ("fitting.embed", "fitting.embed"),
        ("polynomial.basis_gradients", "polynomial.basis_gradients"),
        ("polynomial.lift_matrix", "polynomial.lift_matrix"),
        ("segmentation.segment", "segmentation.segment"),
    ]:
        out[f"{metric}_s"] = (per_pass(self_s.get(span, 0.0)), "s")
        out[f"{metric}_calls"] = (per_pass(calls.get(span, 0)), "count")
    for span in [
        "fitting.select_rank",
        "polynomial.evaluate",
        "segmentation.select_point",
        "segmentation.algebraic_distance2",
        "segmentation.model_at_point",
        "segmentation.assign",
        "segmentation.reject_outliers",
        "discovery.recursive_segment",
        "discovery.discover_equal_dim",
        "discovery.project",
        "baselines.k_subspaces",
        "baselines.em_mixture_pca",
        "synthgen.generate",
        "motion.epipolar_lines",
        "cli.load",
        "cli.write",
    ]:
        out[f"{span}_s"] = (per_pass(self_s.get(span, 0.0)), "s")
    out["veronese.lift_mb"] = (per_pass(counts["veronese.lift_mb"]), "MB")
    out["fitting.nullity"] = (per_pass(counts["fitting.nullity"]), "count")
    out["discovery.probes"] = (per_pass(counts["discovery.probes"]), "count")
    out["discovery.split_yield"] = (
        ratio(counts["discovery.splits_kept"], counts["discovery.recursion_segment_calls"]),
        "ratio",
    )
    out["baselines.k_subspaces_iters"] = (per_pass(counts["baselines.k_subspaces_iters"]), "count")
    out["baselines.em_mixture_pca_iters"] = (
        per_pass(counts["baselines.em_mixture_pca_iters"]),
        "count",
    )
    out["experiment.segment_calls_per_trial"] = (
        ratio(counts["experiment.segment_calls"], counts["experiment.trials"]),
        "count",
    )
    return out
