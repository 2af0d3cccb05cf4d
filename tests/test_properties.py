"""Property-based tests on cross-module invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_frame import cluster_frame
from repro.core.features import FeatureExtractor
from repro.core.predict import predict_time_ns, rep_times_from_draw_times
from repro.core.shadervector import quantize_count
from repro.gfx.enums import PrimitiveTopology
from repro.gfx.state import (
    ADDITIVE_STATE,
    FULLSCREEN_STATE,
    OPAQUE_STATE,
    TRANSPARENT_STATE,
)
from repro.gfx.traceio import trace_from_string, trace_to_string
from repro.simgpu.batch import simulate_trace_multi
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator

from tests.conftest import make_draw, make_world

CFG = GpuConfig.preset("mainstream")

draw_strategy = st.builds(
    make_draw,
    shader_id=st.integers(min_value=1, max_value=4),
    vertex_count=st.integers(min_value=1, max_value=50000),
    pixels=st.integers(min_value=0, max_value=400000),
    shaded_fraction=st.floats(min_value=0.0, max_value=1.0),
    texture_ids=st.sampled_from([(), (10,), (11, 12)]),
    state=st.sampled_from(
        [OPAQUE_STATE, TRANSPARENT_STATE, ADDITIVE_STATE, FULLSCREEN_STATE]
    ),
    topology=st.sampled_from(list(PrimitiveTopology)),
    instance_count=st.integers(min_value=1, max_value=4),
)

frame_lists = st.lists(
    st.lists(draw_strategy, min_size=1, max_size=8), min_size=1, max_size=3
)


class TestTraceRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(frame_lists)
    def test_serialization_is_lossless(self, draw_lists):
        trace = make_world(draw_lists)
        back = trace_from_string(trace_to_string(trace))
        assert back.frames == trace.frames
        assert back.shaders == trace.shaders
        assert back.textures == trace.textures


class TestSimulatorInvariants:
    @settings(max_examples=20, deadline=None)
    @given(frame_lists)
    def test_times_positive_and_additive(self, draw_lists):
        trace = make_world(draw_lists)
        result = simulate_trace_multi(trace, [CFG])[0]
        assert result.total_time_ns > 0
        assert result.total_time_ns == pytest.approx(
            sum(result.frame_times_ns)
        )

    @settings(max_examples=15, deadline=None)
    @given(frame_lists, st.floats(min_value=1.1, max_value=4.0))
    def test_higher_clock_never_slower(self, draw_lists, factor):
        trace = make_world(draw_lists)
        slow = simulate_trace_multi(trace, [CFG.with_core_clock(500.0)])[0]
        fast = simulate_trace_multi(trace, [CFG.with_core_clock(500.0 * factor)])[0]
        assert fast.total_time_ns <= slow.total_time_ns + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(frame_lists)
    def test_speedup_bounded_by_clock_ratio(self, draw_lists):
        # Scaling only the core clock cannot speed up more than the ratio.
        trace = make_world(draw_lists)
        t1 = simulate_trace_multi(trace, [CFG.with_core_clock(500.0)])[0].total_time_ns
        t2 = simulate_trace_multi(trace, [CFG.with_core_clock(2000.0)])[0].total_time_ns
        assert t1 / t2 <= 4.0 + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.lists(draw_strategy, min_size=2, max_size=8))
    def test_adding_a_draw_never_cheapens_a_frame(self, draws):
        shorter = make_world([draws[:-1]])
        longer = make_world([draws])
        quiet = CFG.scaled(noise_amplitude=0.0)
        t_short = simulate_trace_multi(shorter, [quiet])[0].total_time_ns
        t_long = simulate_trace_multi(longer, [quiet])[0].total_time_ns
        assert t_long >= t_short - 1e-9


class TestClusteringInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(draw_strategy, min_size=2, max_size=16),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_weighted_reps_cover_all_draws(self, draws, radius):
        trace = make_world([draws])
        features = FeatureExtractor(trace).frame_matrix(trace.frames[0])
        clustering = cluster_frame(features, radius=radius)
        assert int(clustering.weights.sum()) == len(draws)
        assert set(clustering.labels) == set(range(clustering.num_clusters))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(draw_strategy, min_size=2, max_size=12))
    def test_singleton_clustering_predicts_exactly(self, draws):
        # With every draw its own cluster, prediction equals ground truth.
        trace = make_world([draws])
        features = FeatureExtractor(trace).frame_matrix(trace.frames[0])
        clustering = cluster_frame(features, radius=1e-12)
        if clustering.num_clusters != len(draws):
            return  # duplicate feature rows legitimately collapse
        result = GpuSimulator(CFG).simulate_frame(
            trace.frames[0], trace, keep_draw_costs=True
        )
        times = result.draw_times_ns()
        predicted = predict_time_ns(
            rep_times_from_draw_times(clustering, times), clustering.weights
        )
        assert predicted == pytest.approx(result.time_ns, rel=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(draw_strategy, min_size=1, max_size=12))
    def test_duplicated_frame_doubles_population_not_clusters(self, draws):
        trace = make_world([draws + draws])
        features = FeatureExtractor(trace).frame_matrix(trace.frames[0])
        single = cluster_frame(
            FeatureExtractor(make_world([draws])).frame_matrix(
                make_world([draws]).frames[0]
            )
        )
        doubled = cluster_frame(features)
        assert doubled.num_clusters == single.num_clusters
        np.testing.assert_array_equal(doubled.weights, 2 * single.weights)


class TestFormatRoundTrips:
    @settings(max_examples=20, deadline=None)
    @given(frame_lists)
    def test_binary_format_lossless(self, draw_lists):
        import io

        from repro.gfx.tracebin import read_trace_binary, write_trace_binary

        trace = make_world(draw_lists)
        buffer = io.BytesIO()
        write_trace_binary(trace, buffer)
        buffer.seek(0)
        back = read_trace_binary(buffer)
        assert back.frames == trace.frames


class TestQuantizeMonotone:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_monotone_in_count(self, a, b, tolerance):
        qa, qb = quantize_count(a, tolerance), quantize_count(b, tolerance)
        if a <= b:
            assert qa <= qb
        else:
            assert qa >= qb
