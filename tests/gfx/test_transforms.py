"""Tests for workload what-if transformations."""

import pytest

from repro.errors import ValidationError
from repro.gfx.enums import PassType
from repro.gfx.transforms import filter_passes, scale_resolution, sort_passes_by_material
from repro.gfx.validate import validate_trace
from repro.simgpu.batch import simulate_trace_multi
from repro.simgpu.config import GpuConfig
from repro.synth.generator import TraceGenerator
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


@pytest.fixture(scope="module")
def game_trace():
    profile = GameProfile.preset("bioshock1_like").scaled(0.08)
    from repro.synth.phasescript import PhaseScript, Segment, SegmentKind

    script = PhaseScript((Segment(SegmentKind.EXPLORE, 0, 6),))
    return TraceGenerator(profile, seed=8).generate(script=script)


class TestScaleResolution:
    def test_result_validates(self, game_trace):
        validate_trace(scale_resolution(game_trace, 1.5))

    def test_pixels_scale_quadratically(self, game_trace):
        scaled = scale_resolution(game_trace, 2.0)
        orig_px = sum(d.pixels_shaded for f in game_trace.frames for d in f.draws()
                      if d.render_target_ids)
        new_px = sum(d.pixels_shaded for f in scaled.frames for d in f.draws()
                     if d.render_target_ids)
        assert new_px == pytest.approx(4 * orig_px, rel=0.01)

    def test_shadow_maps_untouched(self, game_trace):
        scaled = scale_resolution(game_trace, 2.0)
        for frame_a, frame_b in zip(game_trace.frames, scaled.frames):
            for rp_a, rp_b in zip(frame_a.passes, frame_b.passes):
                if rp_a.pass_type is PassType.SHADOW:
                    assert rp_a.draws == rp_b.draws

    def test_screen_targets_resized(self, game_trace):
        scaled = scale_resolution(game_trace, 0.5)
        backbuffer = scaled.render_targets[0]
        original = game_trace.render_targets[0]
        assert backbuffer.width == original.width // 2

    def test_geometry_unchanged(self, game_trace):
        scaled = scale_resolution(game_trace, 2.0)
        orig = [d.vertex_count for f in game_trace.frames for d in f.draws()]
        new = [d.vertex_count for f in scaled.frames for d in f.draws()]
        assert orig == new

    def test_lower_resolution_is_faster(self, game_trace):
        half = scale_resolution(game_trace, 0.5)
        t_full = simulate_trace_multi(game_trace, [CFG])[0].total_time_ns
        t_half = simulate_trace_multi(half, [CFG])[0].total_time_ns
        assert t_half < t_full

    def test_bad_factor_rejected(self, game_trace):
        with pytest.raises(ValidationError):
            scale_resolution(game_trace, 0.0)

    def test_metadata_records_factor(self, game_trace):
        assert scale_resolution(game_trace, 1.5).metadata["resolution_factor"] == 1.5


class TestSortByMaterial:
    def test_draw_multiset_preserved(self, game_trace):
        sorted_trace = sort_passes_by_material(game_trace)
        for frame_a, frame_b in zip(game_trace.frames, sorted_trace.frames):
            assert sorted(
                d.shader_id for d in frame_a.draws()
            ) == sorted(d.shader_id for d in frame_b.draws())
            assert frame_a.num_draws == frame_b.num_draws

    def test_sorted_never_slower(self, game_trace):
        # Grouping materials amortizes switch penalties and cache warmup;
        # the generator already sorts opaque passes, so the gain here is
        # small but must not be negative (beyond noise).
        quiet = CFG.scaled(noise_amplitude=0.0)
        t_orig = simulate_trace_multi(game_trace, [quiet])[0].total_time_ns
        (sorted_result,) = simulate_trace_multi(
            sort_passes_by_material(game_trace), [quiet]
        )
        t_sorted = sorted_result.total_time_ns
        assert t_sorted <= t_orig * 1.001

    def test_interleaved_workload_gains(self):
        from tests.conftest import make_draw, make_world

        a = [make_draw(shader_id=1, texture_ids=(1,)) for _ in range(6)]
        b = [make_draw(shader_id=2, texture_ids=(2,)) for _ in range(6)]
        interleaved = [d for pair in zip(a, b) for d in pair]
        trace = make_world([interleaved])
        quiet = CFG.scaled(noise_amplitude=0.0)
        t_orig = simulate_trace_multi(trace, [quiet])[0].total_time_ns
        (sorted_result,) = simulate_trace_multi(
            sort_passes_by_material(trace), [quiet]
        )
        t_sorted = sorted_result.total_time_ns
        assert t_sorted < t_orig


class TestFilterPasses:
    def test_keeps_only_named(self, game_trace):
        filtered = filter_passes(
            game_trace, [PassType.FORWARD, PassType.POST, PassType.UI]
        )
        kinds = {rp.pass_type for f in filtered.frames for rp in f.passes}
        assert PassType.SHADOW not in kinds
        assert PassType.FORWARD in kinds

    def test_no_shadows_is_faster(self, game_trace):
        filtered = filter_passes(
            game_trace,
            [PassType.FORWARD, PassType.TRANSPARENT, PassType.POST, PassType.UI],
        )
        t_full = simulate_trace_multi(game_trace, [CFG])[0].total_time_ns
        t_filtered = simulate_trace_multi(filtered, [CFG])[0].total_time_ns
        assert t_filtered < t_full

    def test_empty_keep_rejected(self, game_trace):
        with pytest.raises(ValidationError, match="at least one"):
            filter_passes(game_trace, [])

    def test_all_frames_empty_rejected(self, game_trace):
        with pytest.raises(ValidationError, match="no draws left"):
            filter_passes(game_trace, [PassType.LIGHTING])  # forward game

    def test_bad_entry_rejected(self, game_trace):
        with pytest.raises(ValidationError, match="PassType"):
            filter_passes(game_trace, ["shadow"])
