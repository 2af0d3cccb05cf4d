"""Tests for the canned experiment runners E1-E10."""

import math

import pytest

from repro.analysis import experiments as ex
from repro.analysis.report import ExperimentResult
from repro.runtime.engine import Runtime
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


def tiny_trace(game="bioshock1_like", seed=6, frames=12):
    profile = GameProfile.preset(game).scaled(0.06)
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, frames // 2),
            Segment(SegmentKind.COMBAT, 0, frames // 4),
            Segment(SegmentKind.EXPLORE, 0, frames - frames // 2 - frames // 4),
        )
    )
    return TraceGenerator(profile, seed=seed).generate(script=script)


@pytest.fixture(scope="module")
def tiny_corpus():
    return {
        "bioshock1_like": tiny_trace("bioshock1_like"),
        "bioshock2_like": tiny_trace("bioshock2_like"),
    }


class TestClusteringMetrics:
    def test_per_frame_rows(self, tiny_corpus):
        trace = tiny_corpus["bioshock1_like"]
        metrics = ex.clustering_metrics(trace, CFG)
        assert len(metrics) == trace.num_frames
        for m in metrics:
            assert 0.0 <= m.error < 1.0
            assert 0.0 <= m.efficiency < 1.0
            assert 0.0 <= m.outlier_rate <= 1.0
            assert m.num_clusters >= 1

    def test_feature_columns_subset(self, tiny_corpus):
        trace = tiny_corpus["bioshock1_like"]
        metrics = ex.clustering_metrics(trace, CFG, feature_columns=[0, 1, 2])
        assert len(metrics) == trace.num_frames


class TestE1E2:
    def test_e1_structure(self, tiny_corpus):
        result = ex.e1_clustering_accuracy(tiny_corpus, CFG)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "E1"
        games = result.column("game")
        assert games[-1] == "AVERAGE"
        assert len(games) == len(tiny_corpus) + 1
        for err in result.column("pred error %"):
            assert 0.0 <= err < 50.0

    def test_e2_structure(self, tiny_corpus):
        result = ex.e2_cluster_outliers(tiny_corpus, CFG)
        rates = result.column("outlier rate %")
        assert all(0.0 <= r <= 100.0 for r in rates)

    def test_render_contains_paper_refs(self, tiny_corpus):
        text = ex.e1_clustering_accuracy(tiny_corpus, CFG).render()
        assert "65.8%" in text
        assert "1.0%" in text


class TestE3:
    def test_efficiency_monotone_in_radius(self, tiny_corpus):
        result = ex.e3_error_efficiency_tradeoff(
            tiny_corpus["bioshock1_like"], CFG, radii=(0.05, 0.3, 1.0)
        )
        effs = result.column("efficiency %")
        assert effs[0] < effs[-1]


class TestE4:
    def test_phases_exist_in_each_game(self, tiny_corpus):
        result = ex.e4_phase_detection(tiny_corpus)
        assert all(result.column("has phases"))
        for factor in result.column("repeat factor"):
            assert factor > 1.0

    def test_purity_reported(self, tiny_corpus):
        result = ex.e4_phase_detection(tiny_corpus)
        for purity in result.column("purity %"):
            assert math.isnan(purity) or 0.0 <= purity <= 100.0


class TestE5:
    def test_fraction_shrinks_with_length(self):
        result = ex.e5_subset_size(
            "bioshock1_like", CFG, lengths=(40, 160), scale=0.06
        )
        fractions = result.column("combined subset draws %")
        assert fractions[-1] < fractions[0]


class TestE6:
    def test_correlation_above_paper_bar(self, tiny_corpus):
        result = ex.e6_frequency_correlation(
            tiny_corpus, CFG, clocks_mhz=(600.0, 1000.0, 1400.0)
        )
        for r in result.column("correlation r"):
            assert r > 0.99


class TestE7:
    def test_all_variants_present(self, tiny_corpus):
        result = ex.e7_ablations(tiny_corpus["bioshock1_like"], CFG)
        variants = result.column("variant")
        assert any("leader (default)" in v for v in variants)
        assert any("kmeans" in v for v in variants)
        assert any("agglomerative" in v for v in variants)
        for group in ex.FEATURE_GROUPS:
            assert any(group in v for v in variants)

    def test_feature_groups_cover_all_features(self):
        from repro.core.features import FEATURE_NAMES

        covered = set()
        for names in ex.FEATURE_GROUPS.values():
            covered.update(names)
        assert covered == set(FEATURE_NAMES)


class TestE8:
    def test_clustering_beats_naive_baselines(self, tiny_corpus):
        result = ex.e8_baselines(tiny_corpus["bioshock1_like"], CFG)
        errors = dict(zip(result.column("method"), result.column("error %")))
        assert errors["clustering (paper)"] < errors["first_n"]
        assert errors["clustering (paper)"] < errors["random"]

    def test_frame_block_present(self, tiny_corpus):
        result = ex.e8_baselines(tiny_corpus["bioshock1_like"], CFG)
        methods = result.column("method")
        assert any("phase subset" in m for m in methods)
        assert any("simpoint" in m for m in methods)


class TestE9E10ThroughRuntime:
    def test_e9_warm_cache_rerun_simulates_nothing(self, tiny_corpus, tmp_path):
        reference = ex.e9_cross_architecture_transfer(tiny_corpus)

        cold_runtime = Runtime(cache_dir=tmp_path)
        cold = ex.e9_cross_architecture_transfer(tiny_corpus, runtime=cold_runtime)
        assert cold_runtime.snapshot().counter_total("frames_simulated") > 0

        warm_runtime = Runtime(cache_dir=tmp_path)
        warm = ex.e9_cross_architecture_transfer(tiny_corpus, runtime=warm_runtime)
        assert warm_runtime.snapshot().counter_total("frames_simulated") == 0
        assert cold.rows == reference.rows
        assert warm.rows == reference.rows

    def test_e10_simulates_through_the_runtime(self, tiny_corpus):
        reference = ex.e10_phase_signal_stability(tiny_corpus)
        runtime = Runtime(jobs=2)
        result = ex.e10_phase_signal_stability(tiny_corpus, runtime=runtime)
        assert result.rows == reference.rows
        assert runtime.snapshot().counter_total("frames_simulated") > 0


class TestReport:
    def test_column_lookup(self, tiny_corpus):
        result = ex.e1_clustering_accuracy(tiny_corpus, CFG)
        with pytest.raises(ValueError):
            result.column("nonexistent")

    def test_as_dict(self, tiny_corpus):
        data = ex.e2_cluster_outliers(tiny_corpus, CFG).as_dict()
        assert data["experiment"] == "E2"
        assert isinstance(data["rows"], list)
