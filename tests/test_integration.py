"""Cross-module integration tests: generator -> simulator -> methodology."""

import numpy as np
import pytest

from repro.core.phasedetect import detect_phases
from repro.core.pipeline import SubsettingPipeline
from repro.core.subsetting import build_subset
from repro.gfx.traceio import trace_from_string, trace_to_string
from repro.gfx.validate import validate_trace
from repro.simgpu.batch import simulate_trace_multi
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator
from repro.synth.generator import TraceGenerator
from repro.synth.profiles import GameProfile

CFG = GpuConfig.preset("mainstream")


@pytest.fixture(scope="module", params=["bioshock1_like", "bioshock_infinite_like"])
def generated_trace(request):
    profile = GameProfile.preset(request.param).scaled(0.06)
    return TraceGenerator(profile, seed=13).generate(num_frames=20)


class TestGeneratedTracesAreSimulable:
    def test_validate_and_simulate(self, generated_trace):
        validate_trace(generated_trace)
        result = simulate_trace_multi(generated_trace, [CFG])[0]
        assert result.total_time_ns > 0
        assert all(t > 0 for t in result.frame_times_ns)

    def test_sequential_batch_agree_on_generated(self, generated_trace):
        seq = GpuSimulator(CFG).simulate_trace(generated_trace)
        bat = simulate_trace_multi(generated_trace, [CFG])[0]
        assert bat.total_time_ns == pytest.approx(seq.total_time_ns, rel=1e-9)

    def test_serialization_roundtrip_preserves_simulation(self, generated_trace):
        back = trace_from_string(trace_to_string(generated_trace))
        a = simulate_trace_multi(generated_trace, [CFG])[0].total_time_ns
        b = simulate_trace_multi(back, [CFG])[0].total_time_ns
        assert a == pytest.approx(b, rel=1e-12)


class TestPipelineOnBothRenderers:
    def test_full_run(self, generated_trace):
        result = SubsettingPipeline().run(generated_trace, CFG)
        assert result.mean_prediction_error < 0.05
        assert result.subset_time_error < 0.15
        assert 0.0 < result.combined_draw_fraction < 1.0

    def test_pipeline_deterministic(self, generated_trace):
        a = SubsettingPipeline().run(generated_trace, CFG)
        b = SubsettingPipeline().run(generated_trace, CFG)
        assert a.mean_prediction_error == b.mean_prediction_error
        assert a.subset.frame_positions == b.subset.frame_positions


class TestSubsetTransfersAcrossArchitectures:
    def test_subset_built_once_validates_everywhere(self, generated_trace):
        # The whole point of micro-architecture-independent features: a
        # subset extracted once works on other architecture points.
        subset = build_subset(generated_trace)
        for preset in ("lowpower", "mainstream", "highend"):
            config = GpuConfig.preset(preset)
            actual = simulate_trace_multi(generated_trace, [config])[0].total_time_ns
            estimate = subset.estimate_on_config(generated_trace, config)
            assert abs(estimate - actual) / actual < 0.12, preset


class TestPhaseDetectionMatchesScriptLoops:
    def test_looped_script_reuses_phases(self):
        from repro.synth.phasescript import PhaseScript, Segment, SegmentKind

        profile = GameProfile.preset("bioshock1_like").scaled(0.06)
        generator = TraceGenerator(profile, seed=21)
        script = PhaseScript(
            (
                Segment(SegmentKind.EXPLORE, 0, 16),
                Segment(SegmentKind.COMBAT, 0, 16),
                Segment(SegmentKind.EXPLORE, 1, 8),
            )
        )
        short = generator.generate(num_frames=40, script=script)
        looped = generator.generate(num_frames=80, script=script)  # 2 loops
        d_short = detect_phases(short, interval_length=4)
        d_looped = detect_phases(looped, interval_length=4)
        # The second loop revisits the same gameplay: phase count must not
        # double (boundary intervals may add a phase or two).
        assert d_looped.num_phases <= d_short.num_phases + 2
        # And the subset fraction must drop.
        assert (
            build_subset(looped, d_looped).frame_fraction
            < build_subset(short, d_short).frame_fraction + 1e-9
        )


class TestNoiseAmplitudeControlsOutliers:
    def test_quieter_model_fewer_outliers(self):
        from repro.analysis.experiments import clustering_metrics

        profile = GameProfile.preset("bioshock1_like").scaled(0.08)
        trace = TraceGenerator(profile, seed=3).generate(num_frames=8)
        noisy = clustering_metrics(trace, CFG.scaled(noise_amplitude=0.2))
        quiet = clustering_metrics(trace, CFG.scaled(noise_amplitude=0.0))
        assert np.mean([m.outlier_rate for m in quiet]) <= np.mean(
            [m.outlier_rate for m in noisy]
        )
