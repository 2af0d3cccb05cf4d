"""Batch path equivalence: the vectorized simulator must match the
sequential reference exactly (up to float rounding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gfx.enums import PrimitiveTopology
from repro.gfx.state import (
    ADDITIVE_STATE,
    FULLSCREEN_STATE,
    OPAQUE_STATE,
    TRANSPARENT_STATE,
)
from repro.errors import SimulationError
from repro.simgpu import batch
from repro.simgpu.batch import (
    ConfigTable,
    _context_matrix,
    clear_precomp_cache,
    frame_precomp_cached,
    simulate_frame_range_multi,
    simulate_trace_multi,
)
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator

from tests.conftest import make_draw, make_world

CFG = GpuConfig()

STATES = [OPAQUE_STATE, TRANSPARENT_STATE, ADDITIVE_STATE, FULLSCREEN_STATE]


draw_strategy = st.builds(
    make_draw,
    shader_id=st.integers(min_value=1, max_value=5),
    vertex_count=st.integers(min_value=1, max_value=100000),
    pixels=st.integers(min_value=0, max_value=500000),
    shaded_fraction=st.floats(min_value=0.0, max_value=1.0),
    texture_ids=st.sampled_from([(), (10,), (11, 12), (10, 11, 12)]),
    state=st.sampled_from(STATES),
    topology=st.sampled_from(list(PrimitiveTopology)),
    instance_count=st.integers(min_value=1, max_value=8),
)

config_strategy = st.builds(
    lambda cores, tex_kb, l2_kb, clock, mem_clock, shader_sw, rt_sw: (
        GpuConfig().scaled(
            name="rnd",
            num_shader_cores=cores,
            tex_cache_kb=tex_kb,
            l2_cache_kb=l2_kb,
            core_clock_mhz=clock,
            memory_clock_mhz=mem_clock,
            shader_switch_cycles=shader_sw,
            rt_switch_cycles=rt_sw,
        )
    ),
    cores=st.integers(min_value=1, max_value=16),
    tex_kb=st.integers(min_value=16, max_value=512),
    l2_kb=st.integers(min_value=128, max_value=4096),
    clock=st.floats(min_value=400.0, max_value=2000.0),
    mem_clock=st.floats(min_value=800.0, max_value=3000.0),
    shader_sw=st.integers(min_value=0, max_value=500),
    rt_sw=st.integers(min_value=0, max_value=2000),
)


class TestEquivalence:
    def test_matches_sequential_on_fixture(self, simple_trace):
        seq = GpuSimulator(CFG).simulate_trace(simple_trace, keep_draw_costs=True)
        (bat,) = simulate_trace_multi(simple_trace, [CFG])
        assert bat.total_time_ns == pytest.approx(seq.total_time_ns, rel=1e-12)
        for fs, fb in zip(seq.frame_results, bat.frame_results):
            assert fb.time_ns == pytest.approx(fs.time_ns, rel=1e-12)
            assert fb.core_cycles == pytest.approx(fs.core_cycles, rel=1e-12)
            assert fb.dram_cycles == pytest.approx(fs.dram_cycles, rel=1e-12)
            for key in fs.pass_times_ns:
                assert fb.pass_times_ns[key] == pytest.approx(
                    fs.pass_times_ns[key], rel=1e-12
                )

    def test_per_draw_times_match(self, simple_trace):
        seq = GpuSimulator(CFG).simulate_trace(simple_trace, keep_draw_costs=True)
        (outputs,) = simulate_frame_range_multi(
            simple_trace, [CFG], 0, simple_trace.num_frames
        )
        for fs, out in zip(seq.frame_results, outputs):
            np.testing.assert_allclose(
                out.draw_times_ns, np.array(fs.draw_times_ns()), rtol=1e-12
            )

    @settings(max_examples=25, deadline=None)
    @given(
        draws=st.lists(draw_strategy, min_size=1, max_size=12),
        preset=st.sampled_from(["lowpower", "mainstream", "highend"]),
    )
    def test_random_traces_match(self, draws, preset):
        trace = make_world([draws])
        config = GpuConfig.preset(preset)
        seq = GpuSimulator(config).simulate_trace(trace)
        (bat,) = simulate_trace_multi(trace, [config])
        assert bat.total_time_ns == pytest.approx(seq.total_time_ns, rel=1e-9)


class TestMultiConfigParity:
    """A C-config pass must equal its C=1 passes and track the oracle."""

    def _candidates(self):
        return [
            CFG,
            CFG.scaled(name="small-caches", tex_cache_kb=16, l2_cache_kb=256),
            CFG.with_core_clock(1400.0),
            GpuConfig.preset("lowpower"),
            GpuConfig.preset("highend"),
        ]

    def test_matches_single_config_batch_exactly(self, simple_trace):
        # Row i of the (C, N) broadcast is the same arithmetic as the
        # C=1 pass — bit-identical, not just close.
        configs = self._candidates()
        multi = simulate_trace_multi(simple_trace, configs)
        for config, result in zip(configs, multi):
            (single,) = simulate_trace_multi(simple_trace, [config])
            for fs, fm in zip(single.frame_results, result.frame_results):
                assert fm.time_ns == fs.time_ns
                assert fm.core_cycles == fs.core_cycles
                assert fm.dram_cycles == fs.dram_cycles
                assert fm.pass_times_ns == fs.pass_times_ns

    def test_three_way_parity_on_fixture(self, simple_trace):
        configs = self._candidates()
        multi = simulate_trace_multi(simple_trace, configs)
        for config, result in zip(configs, multi):
            seq = GpuSimulator(config).simulate_trace(simple_trace)
            for fs, fm in zip(seq.frame_results, result.frame_results):
                assert fm.time_ns == pytest.approx(fs.time_ns, rel=1e-12)
                assert fm.core_cycles == pytest.approx(
                    fs.core_cycles, rel=1e-12
                )
                assert fm.dram_cycles == pytest.approx(
                    fs.dram_cycles, rel=1e-12
                )

    @settings(max_examples=25, deadline=None)
    @given(
        frames=st.lists(
            st.lists(draw_strategy, min_size=1, max_size=8),
            min_size=1,
            max_size=3,
        ),
        configs=st.lists(config_strategy, min_size=1, max_size=4),
    )
    def test_random_traces_and_configs_agree(self, frames, configs):
        """Each row of the C-config pass equals the C=1 pass exactly, and
        both agree with the sequential oracle per frame."""
        trace = make_world(frames)
        n = trace.num_frames
        multi = simulate_frame_range_multi(trace, configs, 0, n)
        for config, rows in zip(configs, multi):
            seq = GpuSimulator(config).simulate_trace(trace)
            (singles,) = simulate_frame_range_multi(trace, [config], 0, n)
            triples = zip(seq.frame_results, singles, rows)
            for fs, fb, fm in triples:
                assert fm.time_ns == fb.time_ns
                assert fm.core_cycles == fb.core_cycles
                assert fm.dram_cycles == fb.dram_cycles
                assert fm.pass_times_ns == fb.pass_times_ns
                assert np.array_equal(fm.draw_times_ns, fb.draw_times_ns)
                for attr in ("time_ns", "core_cycles", "dram_cycles"):
                    want = getattr(fs, attr)
                    assert getattr(fb, attr) == pytest.approx(want, rel=1e-9)
                    assert getattr(fm, attr) == pytest.approx(want, rel=1e-9)

    def test_empty_configs(self, simple_trace):
        assert simulate_trace_multi(simple_trace, []) == []
        assert simulate_frame_range_multi(simple_trace, [], 0, 1) == []

    def test_shared_precomp_matches_fresh(self, simple_trace):
        configs = self._candidates()
        clear_precomp_cache()
        fresh = simulate_trace_multi(simple_trace, configs)
        shared = simulate_trace_multi(simple_trace, configs)  # memo hits
        for a, b in zip(shared, fresh):
            assert a.total_time_ns == b.total_time_ns

    def test_invalid_range_rejected(self, simple_trace):
        with pytest.raises(SimulationError, match="frame range"):
            simulate_frame_range_multi(
                simple_trace, [CFG], 0, simple_trace.num_frames + 1
            )


class TestFramePrecompMemo:
    def test_cached_by_trace_digest(self, simple_trace):
        clear_precomp_cache()
        frame = simple_trace.frames[0]
        first = frame_precomp_cached(simple_trace, frame)
        second = frame_precomp_cached(simple_trace, frame)
        assert first is second
        clear_precomp_cache()
        third = frame_precomp_cached(simple_trace, frame)
        assert third is not first

    def test_memoized_range_matches_direct(self, simple_trace):
        clear_precomp_cache()
        warmup = simulate_frame_range_multi(
            simple_trace, [CFG], 0, simple_trace.num_frames
        )
        memoized = simulate_frame_range_multi(
            simple_trace, [CFG], 0, simple_trace.num_frames
        )
        (direct,) = simulate_trace_multi(simple_trace, [CFG])
        for out, warm_out, frame_result in zip(
            memoized[0], warmup[0], direct.frame_results
        ):
            assert out.time_ns == warm_out.time_ns
            assert out.time_ns == frame_result.time_ns


class TestPrecompCache:
    def test_reuse_across_clocks(self, simple_trace, monkeypatch, tmp_path):
        # A private, empty store: every frame misses it exactly once.
        monkeypatch.setenv("REPRO_PRECOMP_DIR", str(tmp_path))
        calls = {"precompute": 0}
        real = batch.precompute_frame

        def counting(trace, frame):
            calls["precompute"] += 1
            return real(trace, frame)

        monkeypatch.setattr(batch, "precompute_frame", counting)
        clear_precomp_cache()
        (a,) = simulate_trace_multi(simple_trace, [CFG.with_core_clock(800.0)])
        (b,) = simulate_trace_multi(simple_trace, [CFG.with_core_clock(800.0)])
        simulate_trace_multi(simple_trace, [CFG.with_core_clock(1200.0)])
        assert a.total_time_ns == b.total_time_ns
        # Precompute is clock-independent: once per frame, then memo hits.
        assert calls["precompute"] == simple_trace.num_frames

    def test_cache_key_differs_with_capacity(self, simple_trace, monkeypatch):
        calls = {"warm": 0}
        real = batch.warm_fractions

        def counting(fp, capacity_bytes):
            calls["warm"] += 1
            return real(fp, capacity_bytes)

        monkeypatch.setattr(batch, "warm_fractions", counting)
        fp = frame_precomp_cached(simple_trace, simple_trace.frames[0])
        _context_matrix(fp, ConfigTable([CFG]))
        assert calls["warm"] == 1
        _context_matrix(fp, ConfigTable([CFG, CFG.scaled(tex_cache_kb=32)]))
        assert calls["warm"] == 3

    def test_precomp_matches_fresh(self, simple_trace):
        clear_precomp_cache()
        (without,) = simulate_trace_multi(simple_trace, [CFG])
        (with_pre,) = simulate_trace_multi(simple_trace, [CFG])  # memo hits
        assert with_pre.total_time_ns == pytest.approx(without.total_time_ns)


class TestContextMatrix:
    def test_rows_computed_once_per_distinct_value(
        self, simple_trace, monkeypatch
    ):
        calls = {"warm": 0, "switch": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            batch, "warm_fractions", counting("warm", batch.warm_fractions)
        )
        monkeypatch.setattr(
            batch, "switch_cycles", counting("switch", batch.switch_cycles)
        )
        fp = frame_precomp_cached(simple_trace, simple_trace.frames[0])

        # A DVFS table: clocks differ, capacities and penalties don't.
        clocks = (600.0, 800.0, 1000.0)
        dvfs = ConfigTable([CFG.with_core_clock(c) for c in clocks])
        warm, switch = _context_matrix(fp, dvfs)
        assert calls == {"warm": 1, "switch": 1}
        assert warm.shape == switch.shape == (3, fp.num_draws)
        assert (warm == warm[0]).all() and (switch == switch[0]).all()

        calls.update(warm=0, switch=0)
        caches = ConfigTable([CFG, CFG.scaled(tex_cache_kb=32), CFG])
        _context_matrix(fp, caches)
        assert calls == {"warm": 2, "switch": 1}
