"""Tests of the benchmark itself: its checks, its spans and its metric lists.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json

import numpy as np
import pytest

import bench
import checks
import machine
import pipeline
import spans
from ttrnn import neural

REDUCED = pipeline.WORKLOADS["train_reduced"]


@pytest.fixture(scope="module")
def probe_digest(tmp_path_factory):
    return pipeline.probe(REDUCED, tmp_path_factory.mktemp("probe"))


def failures(digest):
    found = checks.Checks()
    found.probe(digest, checks.load_reference(REDUCED.name), "probe")
    return found


def test_probe_matches_reference(probe_digest):
    found = failures(probe_digest)
    assert found.attempted > 0 and found.failures == []


def shift(row, amount):
    """Move ``amount`` of probability mass between two classes; the sum stays 1."""
    row[1] += amount
    row[2] -= amount


@pytest.mark.parametrize(
    "perturb, caught_by",
    [
        (lambda d: shift(d["probs"][3], 1e-10), "reference"),
        (lambda d: d["epoch_losses"].__setitem__(-1, d["epoch_losses"][-1] * (1 + 1e-10)),
         "reference"),
        (lambda d: d["probs"][0].__setitem__(0, float("nan")), "not a probability"),
        (lambda d: d["epoch_losses"].__setitem__(0, float("inf")), "not finite"),
    ],
    ids=["probability", "loss", "nan-probability", "inf-loss"],
)
def test_checks_catch_a_perturbed_output(probe_digest, perturb, caught_by):
    digest = json.loads(json.dumps(probe_digest))
    perturb(digest)
    found = failures(digest)
    assert found.failures and any(caught_by in f for f in found.failures)


def test_checks_catch_a_perturbed_program(monkeypatch, tmp_path):
    """Probabilities still sum to 1, but no longer match the reference."""
    softmax = neural.softmax

    def skewed(logits):
        p = softmax(logits) * np.array([1.0, 1.0, 1.0 + 1e-9])
        return p / p.sum()

    monkeypatch.setattr(neural, "softmax", skewed)
    found = failures(pipeline.probe(REDUCED, tmp_path))
    assert found.failures and all("reference" in f for f in found.failures)


def test_probability_rows_must_sum_to_one():
    found = checks.Checks()
    found.probabilities([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5 + 1e-9]], "rows")
    assert (found.attempted, found.failed) == (2, 1)


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    with tracer.span("root"):  # 0 .. 10
        leaf()  # 1 .. 2
        with tracer.span("mid"):  # 4 .. 9
            leaf()  # 5 .. 8
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2]
    assert spans.self_times(tracer.spans) == [4.0, 1.0, 2.0, 3.0]


def test_layer_metrics_count_one_workload_run():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    forward = tracer.wrap("neural.forward_sequence", lambda model, xs: None)
    evaluate = tracer.wrap("neural.evaluate", lambda model, data: None, spans._len_arg(1))
    for _ in range(2):
        with tracer.span(spans.RUN):
            for _ in range(3):
                forward(None, [])
            evaluate(None, [1, 2, 3, 4])  # one tick for four windows
    layers = spans.layer_metrics(tracer.spans)
    assert layers["neural.forward_sequence.calls"] == 3
    assert layers["neural.forward_sequence.ms_per_window"] == 1000.0
    assert layers["neural.evaluate.ms_per_window"] == 250.0
    assert layers["features.load_panel.ms"] is None
    assert layers["tensor.reshape.calls"] == 0


def test_adopted_spans_keep_their_parents():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 1.0, -1, None]]
    tracer.adopt([["b", 0.0, 2.0, -1, None], ["c", 0.5, 1.0, 0, 3]])
    assert [s[3] for s in tracer.spans] == [-1, -1, 1]


def test_wrappers_sit_where_callers_look_them_up(tmp_path):
    tracer = spans.Tracer()
    original = neural.forward_batch
    with tracer.installed():
        pipeline.probe(REDUCED, tmp_path)
    assert neural.forward_batch is original
    names = [s[0] for s in tracer.spans]
    parent_of = {i: names[s[3]] for i, s in enumerate(tracer.spans) if s[3] >= 0}
    batch = names.index("neural.forward_batch")
    assert parent_of[batch] == "neural.train"
    # Every epoch of the probe takes two full batches and a short one.
    sizes = [s[4] for s in tracer.spans if s[0] == "neural.forward_batch"]
    assert sizes == [8, 8, 4] * pipeline.EPOCHS
    assert parent_of[names.index("neural.forward_sequence")] == "neural.forward_batch"
    assert parent_of[names.index("interpret.core_change")] == "neural.train"
    assert parent_of[names.index("tensor.reshape")] == "features.FeaturePanel.samples"


def test_benchmark_json_lists_what_the_runs_report():
    with open(machine.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == ["train_full", "backtest_full"]
    assert set(pipeline.WORKLOADS) == {"train_full", "train_reduced", "backtest_full"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m: spans.LAYER_METRICS[m][0] for m in spans.BENCHMARK_LAYER_METRICS
    }
