"""Kernel dispatch layer: backend selection + cross-backend bit-parity.

The compiled backends (numba, cext) must reproduce the pure-python
reference *bit for bit* — the property tests assert ``==`` on raw
float64 arrays, never approximate closeness.  Backend availability is
machine-dependent: the python backend always runs, the cext tests skip
without a C compiler, the numba tests skip without numba installed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.simgpu import _kernels
from repro.simgpu.batch import precompute_frame
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator

from tests.conftest import make_draw, make_world


def _available(name: str) -> bool:
    return _kernels._try_load(name) is not None


COMPILED_BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            not _available(name), reason=f"{name} backend unavailable"
        ),
    )
    for name in ("cext", "numba")
]


@pytest.fixture
def force_backend(monkeypatch):
    def force(name: str) -> None:
        monkeypatch.setenv(_kernels.KERNELS_ENV, name)

    return force


# -- synthetic flat-array inputs -----------------------------------------


@st.composite
def slot_arrays(draw):
    """Random (tex_ids, sizes, offsets) frames, degenerate shapes included.

    Covers empty frames (no draws), draws with no textures, frames where
    every slot is a first touch (all-distinct ids), and single-texture
    frames (one id everywhere) via the id-pool bounds.
    """
    num_draws = draw(st.integers(min_value=0, max_value=12))
    pool_size = draw(st.integers(min_value=1, max_value=6))
    ids = []
    sizes = []
    offsets = [0]
    for _ in range(num_draws):
        slots = draw(st.integers(min_value=0, max_value=5))
        for _ in range(slots):
            ids.append(draw(st.integers(min_value=0, max_value=pool_size - 1)))
            sizes.append(draw(st.integers(min_value=1, max_value=1 << 24)))
        offsets.append(len(ids))
    return (
        np.array(ids, dtype=np.int64),
        np.array(sizes, dtype=np.int64),
        np.array(offsets, dtype=np.int64),
    )


class TestBackendResolution:
    def test_python_always_available(self, force_backend):
        force_backend("python")
        assert _kernels.backend().name == "python"

    def test_auto_resolves_to_something(self, force_backend):
        force_backend("auto")
        assert _kernels.backend().name in ("numba", "cext", "python")

    def test_unknown_backend_rejected(self, force_backend):
        force_backend("fortran")
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            _kernels.backend()
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            _kernels.set_backend("fortran")

    def test_unavailable_backend_is_an_error_not_a_fallback(
        self, force_backend, monkeypatch
    ):
        monkeypatch.setitem(_kernels._FAILED, "numba", "forced for test")
        monkeypatch.delitem(_kernels._RESOLVED, "numba", raising=False)
        force_backend("numba")
        if _kernels._try_load("numba") is None:
            with pytest.raises(ConfigError, match="unavailable"):
                _kernels.backend()

    def test_set_backend_exports_env(self, monkeypatch):
        monkeypatch.delenv(_kernels.KERNELS_ENV, raising=False)
        resolved = _kernels.set_backend("python")
        assert resolved == "python"
        import os

        assert os.environ[_kernels.KERNELS_ENV] == "python"

    def test_kernel_info_does_not_resolve_by_default(
        self, force_backend, monkeypatch
    ):
        force_backend("python")
        monkeypatch.delitem(_kernels._RESOLVED, "python", raising=False)
        info = _kernels.kernel_info(resolve=False)
        assert info == {"requested": "python", "backend": None}
        info = _kernels.kernel_info(resolve=True)
        assert info == {"requested": "python", "backend": "python"}


class TestPurePythonKernels:
    """Reference-behaviour checks that run on every machine."""

    def test_empty_frame(self, force_backend):
        force_backend("python")
        empty = np.zeros(0, dtype=np.int64)
        offsets = np.zeros(1, dtype=np.int64)
        assert _kernels.reuse_distances(empty, empty, offsets).shape == (0,)
        assert _kernels.segment_sums_i64(empty, offsets).shape == (0,)

    def test_first_touches_are_inf(self, force_backend):
        force_backend("python")
        ids = np.array([1, 2, 3], dtype=np.int64)
        sizes = np.array([10, 20, 30], dtype=np.int64)
        offsets = np.array([0, 3], dtype=np.int64)
        reuse = _kernels.reuse_distances(ids, sizes, offsets)
        assert np.all(np.isinf(reuse))

    def test_single_texture_reuse_is_own_size(self, force_backend):
        force_backend("python")
        ids = np.array([7, 7], dtype=np.int64)
        sizes = np.array([64, 64], dtype=np.int64)
        offsets = np.array([0, 1, 2], dtype=np.int64)
        reuse = _kernels.reuse_distances(ids, sizes, offsets)
        assert np.isinf(reuse[0])
        assert reuse[1] == 64.0

    def test_segment_sums_match_python_sums(self, force_backend):
        force_backend("python")
        values = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        offsets = np.array([0, 2, 2, 5], dtype=np.int64)
        totals = _kernels.segment_sums_i64(values, offsets)
        assert totals.tolist() == [3, 0, 12]


def _reuse_with(backend, tex_ids, sizes, offsets):
    """The public reuse_distances wrapper, pinned to one backend object."""
    if tex_ids.shape[0] == 0:
        return np.full(0, np.inf)
    uniques, inverse = np.unique(tex_ids, return_inverse=True)
    dense = np.ascontiguousarray(inverse, dtype=np.int64)
    return backend._reuse(dense, sizes, offsets, int(len(uniques)))


@pytest.mark.parametrize("backend_name", COMPILED_BACKENDS)
class TestCompiledParity:
    """Compiled kernels must equal the python reference bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(arrays=slot_arrays())
    def test_reuse_distance_bit_parity(self, backend_name, arrays):
        tex_ids, sizes, offsets = arrays
        expected = _reuse_with(_kernels._PYTHON_BACKEND, tex_ids, sizes, offsets)
        actual = _reuse_with(
            _kernels._try_load(backend_name), tex_ids, sizes, offsets
        )
        # == on the raw bits: inf positions and finite values both exact.
        assert np.array_equal(expected, actual)

    @settings(max_examples=60, deadline=None)
    @given(arrays=slot_arrays())
    def test_segment_sum_bit_parity(self, backend_name, arrays):
        _, sizes, offsets = arrays
        bpps = sizes.astype(np.float64) * 0.25  # dyadic, like bytes/pixel
        python = _kernels._PYTHON_BACKEND
        compiled = _kernels._try_load(backend_name)
        if len(sizes) == 0:
            return  # the public wrapper short-circuits empty inputs
        assert np.array_equal(
            python._seg_i64(sizes, offsets), compiled._seg_i64(sizes, offsets)
        )
        assert np.array_equal(
            python._seg_f64(bpps, offsets), compiled._seg_f64(bpps, offsets)
        )

    def test_full_frame_precompute_parity(self, backend_name, monkeypatch):
        """End to end: precompute_frame arrays agree across backends."""
        trace = make_world(
            [
                [
                    make_draw(texture_ids=(10, 11)),
                    make_draw(texture_ids=(11,)),
                    make_draw(texture_ids=()),
                    make_draw(texture_ids=(12, 10, 11)),
                ]
            ]
        )
        frame = trace.frames[0]
        monkeypatch.setenv(_kernels.KERNELS_ENV, "python")
        reference = precompute_frame(trace, frame)
        monkeypatch.setenv(_kernels.KERNELS_ENV, backend_name)
        compiled = precompute_frame(trace, frame)
        for name in ("tex_slot_sizes", "tex_slot_reuse", "tex_slot_offsets",
                     "tex_totals", "footprint"):
            assert np.array_equal(
                getattr(reference, name), getattr(compiled, name)
            ), name


class TestKernelsMatchSequentialSimulator:
    """The kernel-backed batch path still matches the scalar reference."""

    def test_trace_times_identical(self, monkeypatch):
        from repro.simgpu.batch import simulate_trace_multi

        trace = make_world(
            [
                [make_draw(texture_ids=(10,)), make_draw(texture_ids=(10, 11))],
                [make_draw(texture_ids=(11,)), make_draw(texture_ids=())],
            ]
        )
        config = GpuConfig()
        reference = GpuSimulator(config).simulate_trace(trace)
        monkeypatch.setenv(_kernels.KERNELS_ENV, "auto")
        batch = simulate_trace_multi(trace, [config])[0]
        for ref, new in zip(reference.frame_results, batch.frame_results):
            assert new.time_ns == pytest.approx(ref.time_ns, rel=1e-12)
