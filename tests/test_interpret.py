import json

import numpy as np
import pytest

from ttrnn.errors import DataError
from ttrnn.interpret import (
    CoreChangeLog,
    ShapeDrift,
    core_change,
    modal_ranking,
    read_core_change_csv,
    write_core_change_csv,
    write_ranking_json,
)


def snapshots_for(deltas):
    """Two epochs: zeros, then the given per-core deltas."""
    first = [np.zeros_like(np.asarray(d)) for d in deltas]
    second = [np.asarray(d, dtype=float) for d in deltas]
    return [first, second]


class TestCoreChange:
    def test_identical_snapshots_zero(self):
        core = np.arange(8.0).reshape(1, 2, 4, 1)
        log = core_change([[core], [core.copy()], [core.copy()]])
        assert np.array_equal(log.values, np.zeros((1, 2)))
        assert log.epochs == [2, 3]

    def test_uniform_perturbation(self):
        # 8 entries moved by +0.1 each: squared norm 0.08 over 8 entries
        base = np.zeros((1, 2, 4, 1))
        log = core_change([[base], [base + 0.1]])
        assert log.values[0, 0] == pytest.approx(0.01, rel=1e-12)

    def test_quadratic_in_perturbation(self):
        base = np.random.default_rng(0).normal(size=(2, 3, 2, 2))
        delta = np.random.default_rng(1).normal(size=base.shape)
        one = core_change([[base], [base + delta]]).values[0, 0]
        two = core_change([[base], [base + 2 * delta]]).values[0, 0]
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_scaling_relation_exact(self):
        delta = np.random.default_rng(2).normal(size=(1, 4, 2, 1))
        c1 = core_change(snapshots_for([delta])).values[0, 0]
        c3 = core_change(snapshots_for([3.0 * delta])).values[0, 0]
        assert c3 == pytest.approx(9.0 * c1, rel=1e-12)

    def test_completeness(self):
        rng = np.random.default_rng(3)
        shapes = [(1, 2, 3, 2), (2, 4, 3, 2), (2, 2, 3, 1)]
        snaps = [[rng.normal(size=s) for s in shapes] for _ in range(6)]
        log = core_change(snaps)
        assert log.values.shape == (3, 5)  # cores x (epochs - 1)
        assert np.all(log.values >= 0.0)

    def test_shape_drift(self):
        with pytest.raises(ShapeDrift):
            core_change([[np.zeros((1, 2, 2, 1))], [np.zeros((1, 3, 2, 1))]])

    def test_needs_one_snapshot(self):
        with pytest.raises(DataError):
            core_change([])
        log = core_change([[np.zeros((1, 2, 2, 1))]])  # one epoch: no change columns
        assert log.values.shape == (1, 0) and log.epochs == []
        with pytest.raises(DataError, match="empty core-change log"):
            modal_ranking(log)


class TestModalRanking:
    def test_single_core_first(self):
        log = core_change(snapshots_for([np.full((1, 2, 2, 1), 0.5)]))
        assert modal_ranking(log)[0][0] == 1

    def test_dominant_core_wins(self):
        deltas = [
            np.full((1, 2, 2, 2), 10.0),
            np.full((2, 2, 2, 2), 0.1),
            np.full((2, 2, 2, 1), 0.1),
        ]
        ranking = modal_ranking(core_change(snapshots_for(deltas)))
        assert ranking[0][0] == 1
        assert ranking[0][1] > ranking[1][1]

    def test_tie_breaks_to_lower_index(self):
        deltas = [np.full((1, 2, 2, 1), 0.5), np.full((1, 2, 2, 1), 0.5)]
        ranking = modal_ranking(core_change(snapshots_for(deltas)))
        assert [core for core, _ in ranking] == [1, 2]

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(4)
        shapes = [(1, 3, 2, 2), (2, 2, 2, 2), (2, 4, 2, 1)]
        snaps = [[rng.normal(size=s) for s in shapes] for _ in range(4)]
        log = core_change(snaps)
        totals = []
        for n, shape in enumerate(shapes):
            tot = 0.0
            for e in range(1, 4):
                d = snaps[e][n] - snaps[e - 1][n]
                tot += float(np.sum(d * d)) / d.size
            totals.append(tot)
        expected = sorted(range(3), key=lambda n: (-totals[n], n))
        got = [core - 1 for core, _ in modal_ranking(log)]
        assert got == expected


class TestLabelsAndIO:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        shapes = [(1, 2, 2, 2), (2, 3, 2, 1)]
        snaps = [[rng.normal(size=s) for s in shapes] for _ in range(5)]
        log = core_change(snaps)
        path = tmp_path / "core_change.csv"
        write_core_change_csv(log, path)
        back = read_core_change_csv(path)
        assert back.epochs == log.epochs
        assert np.array_equal(back.values, log.values)

    def test_ranking_json(self, tmp_path):
        log = CoreChangeLog(
            epochs=[2, 3],
            values=np.array([[0.5, 0.0], [0.1, 0.3]]),
        )
        path = tmp_path / "ranking.json"
        write_ranking_json(log, path)
        payload = json.loads(path.read_text())
        assert [e["core"] for e in payload["ranking"]] == [1, 2]
        assert payload["ranking"][0]["total_normalized_change"] == pytest.approx(0.5)
