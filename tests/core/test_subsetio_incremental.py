"""Tests for subset persistence and incremental clustering (extensions)."""

import io
import json

import numpy as np
import pytest

from repro.core.features import FeatureExtractor
from repro.core.incremental import IncrementalClusterer, fit_shared_normalizer
from repro.core.subsetio import (
    check_subset_against,
    load_subset,
    read_subset,
    save_subset,
    write_subset,
)
from repro.core.subsetting import build_subset
from repro.errors import ClusteringError, SubsetError
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

SMALL = GameProfile.preset("bioshock1_like").scaled(0.06)


@pytest.fixture(scope="module")
def game_trace():
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
            Segment(SegmentKind.EXPLORE, 0, 8),
        )
    )
    return TraceGenerator(SMALL, seed=17).generate(script=script)


class TestSubsetIO:
    def test_roundtrip(self, game_trace, tmp_path):
        subset = build_subset(game_trace)
        path = tmp_path / "subset.json"
        save_subset(subset, path)
        back = load_subset(path)
        assert back.frame_positions == subset.frame_positions
        assert back.frame_weights == subset.frame_weights
        assert back.parent_name == subset.parent_name
        assert back.method == subset.method

    def test_loaded_subset_still_estimates(self, game_trace, tmp_path):
        from repro.simgpu.batch import simulate_trace_multi
        from repro.simgpu.config import GpuConfig

        config = GpuConfig.preset("mainstream")
        subset = build_subset(game_trace)
        path = tmp_path / "subset.json"
        save_subset(subset, path)
        back = load_subset(path)
        actual = simulate_trace_multi(game_trace, [config])[0].total_time_ns
        estimate = back.estimate_on_config(game_trace, config)
        assert abs(estimate - actual) / actual < 0.1

    def test_detection_summary_serialized(self, game_trace):
        subset = build_subset(game_trace)
        buffer = io.StringIO()
        write_subset(subset, buffer)
        assert '"num_phases"' in buffer.getvalue()

    def test_roundtrip_with_detection_block(self, game_trace):
        # build_subset attaches phase-detection provenance, so the
        # written file carries the optional "detection" block — the
        # strict reader must accept exactly what the writer produced.
        subset = build_subset(game_trace)
        assert subset.detection is not None
        buffer = io.StringIO()
        write_subset(subset, buffer)
        back = read_subset(io.StringIO(buffer.getvalue()))
        assert back.frame_positions == subset.frame_positions
        assert back.frame_weights == subset.frame_weights
        assert back.parent_name == subset.parent_name
        assert back.parent_num_frames == subset.parent_num_frames
        assert back.parent_num_draws == subset.parent_num_draws
        assert back.subset_num_draws == subset.subset_num_draws
        assert back.method == subset.method

    def test_unknown_top_level_key_rejected(self, game_trace):
        subset = build_subset(game_trace)
        buffer = io.StringIO()
        write_subset(subset, buffer)
        record = json.loads(buffer.getvalue())
        record["surprise"] = 1
        with pytest.raises(SubsetError, match="unknown fields.*surprise"):
            read_subset(io.StringIO(json.dumps(record)))

    def test_unknown_detection_key_rejected(self, game_trace):
        subset = build_subset(game_trace)
        buffer = io.StringIO()
        write_subset(subset, buffer)
        record = json.loads(buffer.getvalue())
        record["detection"]["surprise"] = 1
        with pytest.raises(SubsetError, match="unknown detection fields"):
            read_subset(io.StringIO(json.dumps(record)))

    def test_missing_detection_key_rejected(self, game_trace):
        subset = build_subset(game_trace)
        buffer = io.StringIO()
        write_subset(subset, buffer)
        record = json.loads(buffer.getvalue())
        del record["detection"]["num_phases"]
        with pytest.raises(SubsetError, match="missing field 'detection"):
            read_subset(io.StringIO(json.dumps(record)))

    def test_non_object_json_rejected(self):
        with pytest.raises(SubsetError, match="JSON object"):
            read_subset(io.StringIO("[1, 2, 3]"))

    def test_bad_json_rejected(self):
        with pytest.raises(SubsetError, match="malformed"):
            read_subset(io.StringIO("{not json"))

    def test_bad_version_rejected(self):
        with pytest.raises(SubsetError, match="version"):
            read_subset(io.StringIO('{"version": 99}'))

    def test_missing_field_rejected(self):
        with pytest.raises(SubsetError, match="missing field"):
            read_subset(io.StringIO('{"version": 1, "parent_name": "x"}'))

    def test_check_against_matching_trace(self, game_trace):
        subset = build_subset(game_trace)
        check_subset_against(subset, game_trace)

    def test_check_against_wrong_trace(self, game_trace, simple_trace):
        subset = build_subset(game_trace)
        with pytest.raises(SubsetError, match="extracted from"):
            check_subset_against(subset, simple_trace)

    def test_check_against_different_seed(self, game_trace):
        other = TraceGenerator(SMALL, seed=18).generate(
            num_frames=game_trace.num_frames
        )
        subset = build_subset(game_trace)
        # Same name and frame count, different content.
        with pytest.raises(SubsetError, match="different seed"):
            check_subset_against(subset, other)


class TestIncrementalClusterer:
    @pytest.fixture()
    def matrices(self, game_trace):
        extractor = FeatureExtractor(game_trace)
        return [extractor.frame_matrix(f) for f in game_trace.frames]

    def test_matches_per_frame_counts_roughly(self, matrices):
        normalizer = fit_shared_normalizer(matrices[:4])
        clusterer = IncrementalClusterer(radius=0.3, normalizer=normalizer)
        clusterings = [clusterer.cluster_frame(m) for m in matrices]
        for clustering, matrix in zip(clusterings, matrices):
            assert clustering.num_draws == matrix.shape[0]
            assert int(clustering.weights.sum()) == matrix.shape[0]

    def test_later_frames_found_fewer_new_leaders(self, matrices):
        normalizer = fit_shared_normalizer(matrices)
        clusterer = IncrementalClusterer(radius=0.3, normalizer=normalizer)
        clusterer.cluster_frame(matrices[0])
        after_first = clusterer.num_live_leaders
        clusterer.cluster_frame(matrices[1])
        after_second = clusterer.num_live_leaders
        # The second (near-identical) frame adds few leaders.
        assert after_second - after_first < after_first * 0.5

    def test_idle_leaders_retired(self, matrices):
        normalizer = fit_shared_normalizer(matrices)
        clusterer = IncrementalClusterer(
            radius=0.3, normalizer=normalizer, max_idle_frames=1
        )
        clusterer.cluster_frame(matrices[0])
        # Menu-less frames keep most leaders alive; force retirement by
        # feeding a tiny synthetic matrix twice.
        far = np.full((1, matrices[0].shape[1]), 1e6)
        clusterer.cluster_frame(far)
        clusterer.cluster_frame(far)
        clusterer.cluster_frame(far)
        assert clusterer.num_live_leaders <= 2

    def test_deterministic(self, matrices):
        def run():
            normalizer = fit_shared_normalizer(matrices)
            clusterer = IncrementalClusterer(radius=0.3, normalizer=normalizer)
            return [clusterer.cluster_frame(m).num_clusters for m in matrices]

        assert run() == run()

    def test_prediction_quality_reasonable(self, game_trace, matrices):
        from repro.core.predict import predict_time_ns, rep_times_from_draw_times
        from repro.simgpu.batch import simulate_frame_range_multi
        from repro.simgpu.config import GpuConfig

        config = GpuConfig.preset("mainstream")
        (ground,) = simulate_frame_range_multi(
            game_trace, [config], 0, game_trace.num_frames
        )
        normalizer = fit_shared_normalizer(matrices)
        clusterer = IncrementalClusterer(radius=0.3, normalizer=normalizer)
        errors = []
        for matrix, truth in zip(matrices, ground):
            clustering = clusterer.cluster_frame(matrix)
            rep_times = rep_times_from_draw_times(clustering, truth.draw_times_ns)
            predicted = predict_time_ns(rep_times, clustering.weights)
            errors.append(abs(predicted - truth.time_ns) / truth.time_ns)
        assert float(np.mean(errors)) < 0.05

    def test_bad_args_rejected(self, matrices):
        normalizer = fit_shared_normalizer(matrices)
        with pytest.raises(ClusteringError):
            IncrementalClusterer(radius=0.0, normalizer=normalizer)
        with pytest.raises(ClusteringError):
            IncrementalClusterer(radius=1.0, normalizer=normalizer,
                                 max_idle_frames=0)
        clusterer = IncrementalClusterer(radius=1.0, normalizer=normalizer)
        with pytest.raises(ClusteringError):
            clusterer.cluster_frame(np.empty((0, 3)))

    def test_fit_shared_normalizer_empty_rejected(self):
        with pytest.raises(ClusteringError):
            fit_shared_normalizer([])
