"""Correctness checks made inside every run; ``failed / attempted`` is the error rate."""

from __future__ import annotations

import json
import math
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# ROADMAP aim 1: results must match the current per-sample path to about
# 1e-12 relative.  Probabilities are about 1/3 and losses about 1, so a
# relative bound is meaningful for every entry.
RTOL = 1e-12


class Checks:
    """Counts checks attempted and keeps a message for each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def probabilities(self, probs, what: str):
        """One check per row: finite, non-negative and summing to 1."""
        probs = np.asarray(probs, dtype=np.float64)
        for i, row in enumerate(probs):
            ok = bool(np.all(np.isfinite(row)) and np.all(row >= 0.0))
            ok = ok and abs(float(row.sum()) - 1.0) <= RTOL
            self.expect(ok, f"{what} row {i} is not a probability distribution: {row}")

    def losses(self, losses, what: str):
        for i, loss in enumerate(losses):
            self.expect(math.isfinite(loss), f"{what} epoch {i + 1} loss {loss} is not finite")

    def close(self, got, want, what: str):
        """``got`` matches ``want`` entry by entry to RTOL relative."""
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        ok = got.shape == want.shape and bool(
            np.all(np.abs(got - want) <= RTOL * np.abs(want))
        )
        self.expect(ok, f"{what} differs from its reference by more than {RTOL} relative")

    def same(self, got, want, what: str):
        """Bit-identical results: same seed, same bytes."""
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        self.expect(got.shape == want.shape and np.array_equal(got, want), f"{what} changed")

    def same_model(self, got, want, what: str):
        pairs = zip(got.named_params(), want.named_params())
        self.expect(
            all(gn == wn and np.array_equal(g, w) for (gn, g), (wn, w) in pairs),
            f"{what}: parameters differ",
        )

    def probe(self, digest: dict, reference: dict, what: str):
        """The probe's epoch losses and probabilities against the stored reference."""
        self.losses(digest["epoch_losses"], what)
        self.probabilities(digest["probs"], what)
        self.close(digest["epoch_losses"], reference["epoch_losses"], f"{what} epoch losses")
        self.close(digest["probs"], reference["probs"], f"{what} probabilities")


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)[workload]


def check_pass(checks: Checks, result, saved, first, what: str):
    """Checks on one pass.

    ``saved`` is the model written to the checkpoint the pass scored with;
    ``first`` is the run's first pass, which had the same seed and inputs.
    """
    checks.losses(result.epoch_losses, what)
    checks.probabilities(result.window_probs, f"{what} per-window scoring")
    checks.probabilities(result.probs, f"{what} evaluate")
    checks.close(result.probs, result.window_probs, f"{what} evaluate vs per-window scoring")
    checks.same_model(result.loaded, saved, f"{what} checkpoint round trip")
    if first is not None:
        checks.same(result.epoch_losses, first.epoch_losses, f"{what} epoch losses")
        checks.same(result.probs, first.probs, f"{what} probabilities")
