"""Tests for the composed (phase x clustering) subset artifact."""

import pytest

from repro.core.pipeline import SubsettingPipeline
from repro.core.subsetting import build_combined_subset, build_subset
from repro.errors import SubsetError
from repro.simgpu.batch import simulate_trace_multi
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.phasescript import PhaseScript, Segment, SegmentKind
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


@pytest.fixture(scope="module")
def world():
    profile = GameProfile.preset("bioshock1_like").scaled(0.08)
    script = PhaseScript(
        (
            Segment(SegmentKind.EXPLORE, 0, 8),
            Segment(SegmentKind.COMBAT, 0, 8),
            Segment(SegmentKind.EXPLORE, 0, 8),
        )
    )
    trace = TraceGenerator(profile, seed=61).generate(script=script)
    pipeline = SubsettingPipeline()
    clusterings = pipeline.cluster_all_frames(trace)
    subset = build_subset(trace)
    combined = build_combined_subset(trace, subset, clusterings)
    return trace, subset, clusterings, combined


class TestBuildCombinedSubset:
    def test_smaller_than_both_parts(self, world):
        trace, subset, clusterings, combined = world
        assert combined.num_frames == subset.num_frames
        assert combined.num_draws < subset.subset_num_draws
        assert combined.draw_fraction < subset.draw_fraction

    def test_draw_weights_cover_kept_frames(self, world):
        trace, subset, _, combined = world
        for position, weights in zip(subset.frame_positions, combined.draw_weights):
            assert sum(weights) == trace.frames[position].num_draws

    def test_rep_trace_preserves_frame_indices(self, world):
        trace, subset, _, combined = world
        for position, frame in zip(subset.frame_positions, combined.rep_trace.frames):
            assert frame.index == trace.frames[position].index

    def test_estimate_tracks_parent(self, world):
        trace, _, _, combined = world
        for preset in ("lowpower", "mainstream", "highend"):
            config = GpuConfig.preset(preset)
            actual = simulate_trace_multi(trace, [config])[0].total_time_ns
            estimate = combined.estimate_on_config(config)
            error = abs(estimate - actual) / actual
            assert error < 0.15, f"{preset}: {100 * error:.1f}%"

    def test_estimate_tracks_frequency_scaling(self, world):
        from repro.util.stats import pearson_correlation

        trace, _, _, combined = world
        clocks = (600.0, 900.0, 1200.0, 1500.0)
        parent, estimates = [], []
        for clock in clocks:
            config = CFG.with_core_clock(clock)
            parent.append(simulate_trace_multi(trace, [config])[0].total_time_ns)
            estimates.append(combined.estimate_on_config(config))
        parent_imp = [parent[0] / t - 1 for t in parent[1:]]
        est_imp = [estimates[0] / t - 1 for t in estimates[1:]]
        assert pearson_correlation(parent_imp, est_imp) > 0.995

    def test_wrong_trace_rejected(self, world, simple_trace):
        trace, subset, clusterings, _ = world
        with pytest.raises(SubsetError, match="built from"):
            build_combined_subset(simple_trace, subset, clusterings)

    def test_wrong_clustering_count_rejected(self, world):
        trace, subset, clusterings, _ = world
        with pytest.raises(SubsetError, match="clusterings"):
            build_combined_subset(trace, subset, clusterings[:-1])
