"""Spans around the package's public functions, and the per-layer metrics.

A span records name, start, end, parent span and, for some functions, a
size (windows in a batch, bytes of a checkpoint).  Spans stay in memory and
are written out when the run ends.  Each wrapper is installed at the name
its caller looks up, e.g. ``neural.forward_batch`` as ``neural.train`` sees
it and ``ttformat.format_tt_matrix`` as ``neural.save_model`` sees it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time

from ttrnn import backtest as bt
from ttrnn import features, interpret, neural


def _len_arg(i):
    return lambda args: len(args[i])


def _file_size_arg(i):
    return lambda args: os.path.getsize(args[i])


# (owner, attribute the caller looks up, span name, size of a call from its args)
WRAPPED = (
    (features, "synth_panel", "features.synth_panel", None),
    (features, "load_panel", "features.load_panel", None),
    (features, "assemble", "features.assemble", None),
    (features.FeaturePanel, "samples", "features.FeaturePanel.samples", None),
    (features, "reshape", "tensor.reshape", None),  # as FeaturePanel.x_tensor sees it
    (neural, "format_tt_matrix", "ttformat.format_tt_matrix", None),  # inside save_model
    (neural, "parse_tt_matrix", "ttformat.parse_tt_matrix", None),  # inside load_model
    (neural, "init_model", "neural.init_model", None),
    (neural, "train", "neural.train", None),
    (neural, "forward_batch", "neural.forward_batch", _len_arg(1)),
    (neural, "backward", "neural.backward", _len_arg(1)),
    (neural, "sgd_step", "neural.sgd_step", None),
    (neural, "forward_sequence", "neural.forward_sequence", None),
    (neural, "evaluate", "neural.evaluate", _len_arg(1)),
    (neural, "save_model", "neural.save_model", _file_size_arg(1)),
    (neural, "load_model", "neural.load_model", _file_size_arg(0)),
    (interpret, "core_change", "interpret.core_change", None),
    (interpret, "write_core_change_csv", "interpret.write_core_change_csv", None),
    (bt, "evaluate_predictions", "backtest.evaluate_predictions", None),
    (bt, "write_track_csv", "backtest.write_track_csv", None),
)

# Root spans the benchmark records around its own phases.
PREP, SETUP, RUN, PASS = "bench.prep", "bench.setup", "bench.run", "bench.pass"


class Tracer:
    """In-memory span log: ``spans[i] = [name, start, end, parent, size]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if size is not None:
                self.spans[index][4] = size(args)
            return result

        return traced

    def adopt(self, spans):
        """Append spans another tracer recorded, keeping their parent links."""
        offset = len(self.spans)
        self.spans.extend(
            [name, start, end, parent + offset if parent >= 0 else parent, size]
            for name, start, end, parent, size in spans
        )

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, size in WRAPPED:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, size))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index):
        self.spans[index][2] = self.clock()
        self._open.pop()


def self_times(spans):
    """Per span: its duration minus the time its child spans cover.

    Children of one span never overlap in this single-threaded program, so
    the time they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]


def roots(spans):
    """Index of each span's root span (parents always precede their children)."""
    out = []
    for i, span in enumerate(spans):
        parent = span[3]
        out.append(i if parent < 0 else out[parent])
    return out


# Per-layer metrics: name -> (unit, statistic, end-to-end metric it should
# move, workloads it moves it on).  The function is the name minus its last
# dotted part.  Statistics: "median" per call, "self" median self time per
# call, "per_item" total time over total size (windows), "size" median size
# per call (bytes), "calls" calls in one whole workload run.
LAYER_METRICS = {
    "features.synth_panel.ms": ("ms", "median", "setup_s", "train_full, train_reduced"),
    "features.load_panel.ms": ("ms", "median", "setup_s", "backtest_full"),
    "features.assemble.ms": ("ms", "median", "setup_s", "all"),
    "features.FeaturePanel.samples.ms": ("ms", "median", "setup_s", "all"),
    "tensor.reshape.calls": ("count", "calls", "setup_s", "all"),
    "ttformat.format_tt_matrix.ms": ("ms", "median", "run_s", "train_full"),
    "ttformat.parse_tt_matrix.ms": ("ms", "median", "setup_s", "backtest_full"),
    "neural.init_model.ms": ("ms", "median", "setup_s", "train_full, train_reduced"),
    "neural.train.self_ms": ("ms", "self", "windows_per_s", "train_full, train_reduced"),
    "neural.forward_batch.ms_per_sample": (
        "ms", "per_item", "windows_per_s", "train_full, train_reduced"),
    "neural.backward.ms_per_sample": (
        "ms", "per_item", "windows_per_s", "train_full, train_reduced"),
    "neural.sgd_step.ms_per_call": ("ms", "median", "windows_per_s", "train_full, train_reduced"),
    "neural.forward_sequence.calls": ("count", "calls", "nothing (an exact count)", "all"),
    "neural.forward_sequence.ms_per_window": (
        "ms", "median", "score_ms_mean", "backtest_full"),
    "neural.evaluate.ms_per_window": ("ms", "per_item", "windows_per_s", "backtest_full"),
    "neural.save_model.ms": ("ms", "median", "run_s", "train_full"),
    "neural.save_model.bytes": ("bytes", "size", "run_s", "train_full"),
    "neural.load_model.ms": ("ms", "median", "setup_s", "backtest_full"),
    "neural.load_model.bytes": ("bytes", "size", "setup_s", "backtest_full"),
    "interpret.core_change.ms": ("ms", "median", "run_s", "train_full, train_reduced"),
    "interpret.write_core_change_csv.ms": ("ms", "median", "run_s", "train_full, train_reduced"),
    "backtest.evaluate_predictions.ms": ("ms", "median", "windows_per_s, run_s", "backtest_full"),
    "backtest.write_track_csv.ms": ("ms", "median", "run_s", "backtest_full"),
}

# features.load_panel only runs on backtest_full; every other layer metric is
# measured on all three workloads, so only those are the benchmark's per-layer
# metrics.  load_panel is still reported in the trace file.
BENCHMARK_LAYER_METRICS = [m for m in LAYER_METRICS if m != "features.load_panel.ms"]


def calls_per_run(spans) -> dict:
    """Calls of each wrapped function in one whole workload run.

    That is the first ``bench.run`` span: one set-up and one pass.  The
    counts repeat exactly from run to run and from machine to machine.
    """
    root_of = roots(spans)
    first_run = next((i for i, s in enumerate(spans) if s[0] == RUN), None)
    calls = {name: 0 for _owner, _attr, name, _size in WRAPPED}
    for i, span in enumerate(spans):
        if span[0] in calls and root_of[i] == first_run:
            calls[span[0]] += 1
    return calls


def layer_metrics(spans):
    """Per-layer values from the spans of one traced run.

    Times come from every span: the set-ups, the passes and, on
    backtest_full, the training run that makes its checkpoint.  "calls" is
    :func:`calls_per_run`.  A function that never ran has no time (None).
    """
    selfs = self_times(spans)
    calls = calls_per_run(spans)
    ms, self_ms, sizes = {}, {}, {}
    for i, (name, start, end, _, size) in enumerate(spans):
        ms.setdefault(name, []).append((end - start) * 1e3)
        self_ms.setdefault(name, []).append(selfs[i] * 1e3)
        if size is not None:
            sizes.setdefault(name, []).append(size)

    out = {}
    for metric, (_unit, stat, _moves, _on) in LAYER_METRICS.items():
        fn = metric.rpartition(".")[0]
        if stat == "calls":
            out[metric] = calls[fn]
        elif fn not in ms:
            out[metric] = None
        elif stat == "median":
            out[metric] = statistics.median(ms[fn])
        elif stat == "self":
            out[metric] = statistics.median(self_ms[fn])
        elif stat == "per_item":
            out[metric] = sum(ms[fn]) / sum(sizes[fn])
        else:
            out[metric] = statistics.median(sizes[fn])
    return out
