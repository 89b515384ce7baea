"""Tests for the design-space exploration utility."""

import os

import pytest

from repro.core import design_space
from repro.core.design_space import DesignPoint, DesignSpaceExplorer
from repro.nn.models import mobilenet_v1, resnet34
from repro.workloads import list_workloads


@pytest.fixture(scope="module")
def explorer():
    return DesignSpaceExplorer([resnet34(), mobilenet_v1()])


class TestDesignPoints:
    def test_label(self):
        point = DesignPoint(rows=128, cols=128, supported_depths=(1, 2, 4))
        assert point.label == "128x128 k={1,2,4}"

    def test_default_candidates_are_legal(self):
        for point in DesignSpaceExplorer.default_candidates():
            assert all(point.rows % depth == 0 for depth in point.supported_depths)

    def test_default_candidates_cover_paper_sizes(self):
        sizes = {(p.rows, p.cols) for p in DesignSpaceExplorer.default_candidates()}
        assert (128, 128) in sizes and (256, 256) in sizes


class TestEvaluation:
    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer([])

    def test_evaluate_point_metrics(self, explorer):
        result = explorer.evaluate_point(
            DesignPoint(rows=128, cols=128, supported_depths=(1, 2, 4))
        )
        assert 0.0 < result.latency_saving < 0.25
        assert 0.0 < result.power_saving < 0.30
        assert result.edp_gain > 1.0
        assert set(result.per_model_latency_saving) == {"ResNet-34", "MobileNetV1"}
        assert result.arrayflex_time_ms < result.conventional_time_ms

    def test_illegal_point_raises(self, explorer):
        with pytest.raises(ValueError):
            explorer.evaluate_point(DesignPoint(rows=100, cols=100, supported_depths=(1, 3)))

    def test_explore_preserves_order(self, explorer):
        points = [
            DesignPoint(rows=64, cols=64, supported_depths=(1, 2, 4)),
            DesignPoint(rows=128, cols=128, supported_depths=(1, 2, 4)),
        ]
        results = explorer.explore(points)
        assert [r.point for r in results] == points

    def test_explore_empty_rejected(self, explorer):
        with pytest.raises(ValueError):
            explorer.explore([])


class TestRanking:
    def test_rank_by_edp(self, explorer):
        points = [
            DesignPoint(rows=64, cols=64, supported_depths=(1, 2, 4)),
            DesignPoint(rows=128, cols=128, supported_depths=(1, 2)),
            DesignPoint(rows=128, cols=128, supported_depths=(1, 2, 4)),
        ]
        ranked = explorer.rank(points, objective="edp_gain")
        gains = [r.edp_gain for r in ranked]
        assert gains == sorted(gains, reverse=True)

    def test_restricting_modes_hurts(self, explorer):
        """Dropping the k = 4 mode can only reduce the savings."""
        full = explorer.evaluate_point(
            DesignPoint(rows=128, cols=128, supported_depths=(1, 2, 4))
        )
        restricted = explorer.evaluate_point(
            DesignPoint(rows=128, cols=128, supported_depths=(1, 2))
        )
        assert full.latency_saving >= restricted.latency_saving
        assert full.edp_gain >= restricted.edp_gain

    def test_invalid_objective(self, explorer):
        with pytest.raises(ValueError):
            explorer.rank([DesignPoint(rows=64, cols=64, supported_depths=(1, 2))], "speed")

    def test_paper_claim_larger_arrays_save_more(self, explorer):
        small = explorer.evaluate_point(
            DesignPoint(rows=128, cols=128, supported_depths=(1, 2, 4))
        )
        large = explorer.evaluate_point(
            DesignPoint(rows=256, cols=256, supported_depths=(1, 2, 4))
        )
        assert large.power_saving > small.power_saving


class TestRegistryWorkloads:
    def test_models_accept_registry_names(self):
        by_name = DesignSpaceExplorer(["resnet34", "mobilenet_v1"])
        by_object = DesignSpaceExplorer([resnet34(), mobilenet_v1()])
        point = DesignPoint(rows=64, cols=64, supported_depths=(1, 2, 4))
        assert by_name.evaluate_point(point) == by_object.evaluate_point(point)

    def test_from_suite_transformers(self):
        explorer = DesignSpaceExplorer.from_suite("transformers")
        assert [model.name for model in explorer.models] == [
            "BERT-Base", "GPT-2-decode", "ViT-B/16",
        ]
        point = DesignPoint(rows=128, cols=128, supported_depths=(1, 2, 4))
        result = explorer.evaluate_point(point)
        assert 0.0 < result.latency_saving < 1.0
        assert set(result.per_model_latency_saving) == {
            "BERT-Base", "GPT-2-decode", "ViT-B/16",
        }

    def test_from_suite_batch_scaling(self):
        explorer = DesignSpaceExplorer.from_suite("transformers", batch=4)
        assert all(model.name.endswith("@bs4") for model in explorer.models)

    def test_unknown_name_surfaces(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(["alexnet"])


class TestSweepStore:
    """A sweep writes each design point's decisions as one complete merge."""

    POINTS = [
        DesignPoint(rows=rows, cols=cols, supported_depths=(1, 2, 4))
        for rows, cols in ((32, 32), (64, 48), (96, 64), (128, 128))
    ]

    def test_serial_cold_sweep_merges_once_per_point(self, tmp_path):
        explorer = DesignSpaceExplorer(list_workloads(), cache_dir=tmp_path, max_workers=1)
        explorer.explore(self.POINTS)
        assert explorer.backend.store.counters()["merges"] == len(self.POINTS)

    def test_parallel_cold_sweep_leaves_every_decision_stored(self, tmp_path):
        """Pool workers never race on one shard's read-merge-replace, so a
        restarted sweep finds every decision and writes nothing."""
        models = list_workloads()
        cold = DesignSpaceExplorer(models, cache_dir=tmp_path, max_workers=2).explore(
            self.POINTS
        )
        restart = DesignSpaceExplorer(models, cache_dir=tmp_path, max_workers=1)
        assert restart.explore(self.POINTS) == cold
        counters = restart.backend.store.counters()  # nothing solved, so nothing put
        assert counters["merges"] == 0
        assert counters["pending_rows"] == 0


class TestImplicitFanOut:
    """Without a pinned worker count, large sweeps fan out over the CPUs
    this process may run on, not over every CPU of the machine."""

    POINTS = [
        DesignPoint(rows=8 * (i + 1), cols=64, supported_depths=(1, 2))
        for i in range(design_space.AUTO_PARALLEL_MIN_POINTS)
    ]

    @pytest.fixture()
    def fan_out(self, monkeypatch):
        """Worker counts ``explore`` asked the process pool for."""
        requested = []

        def record(explorer, points, workers):
            requested.append(workers)
            return [explorer.evaluate_point(point) for point in points]

        monkeypatch.setattr(DesignSpaceExplorer, "_auto_parallel_safe", lambda self: True)
        monkeypatch.setattr(DesignSpaceExplorer, "_explore_parallel", record)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        return requested

    def test_one_usable_cpu_stays_serial(self, monkeypatch, fan_out):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        DesignSpaceExplorer([mobilenet_v1()]).explore(self.POINTS)
        assert fan_out == []

    def test_workers_follow_the_affinity_mask(self, monkeypatch, fan_out):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        DesignSpaceExplorer([mobilenet_v1()]).explore(self.POINTS)
        assert fan_out == [2]

    def test_cpu_count_without_an_affinity_api(self, monkeypatch, fan_out):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        DesignSpaceExplorer([mobilenet_v1()]).explore(self.POINTS)
        assert fan_out == [8]
