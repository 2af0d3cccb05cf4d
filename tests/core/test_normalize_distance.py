"""Tests for normalization and distance computations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.distance import cdist_euclidean, euclidean_to_point, pairwise_euclidean
from repro.core.normalize import Normalizer
from repro.errors import ValidationError

matrices = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 20), st.integers(1, 6)),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


class TestNormalizer:
    def test_zscore_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(5.0, 3.0, size=(200, 4))
        out = Normalizer("zscore").fit_transform(matrix)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_minmax_range(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(-5, 10, size=(50, 3))
        out = Normalizer("minmax").fit_transform(matrix)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_none_is_identity(self):
        matrix = np.arange(12.0).reshape(4, 3)
        out = Normalizer("none").fit_transform(matrix)
        np.testing.assert_array_equal(out, matrix)

    def test_constant_column_maps_to_zero(self):
        matrix = np.column_stack([np.ones(10), np.arange(10.0)])
        out = Normalizer("zscore").fit_transform(matrix)
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(ValidationError, match="before fit"):
            Normalizer().transform(np.ones((2, 2)))

    def test_column_mismatch_rejected(self):
        normalizer = Normalizer().fit(np.ones((3, 2)))
        with pytest.raises(ValidationError, match="columns"):
            normalizer.transform(np.ones((3, 5)))

    def test_bad_method_rejected(self):
        with pytest.raises(ValidationError):
            Normalizer("sigmoid")

    def test_nan_rejected(self):
        matrix = np.array([[1.0, np.nan]])
        with pytest.raises(ValidationError, match="non-finite"):
            Normalizer().fit(matrix)

    @settings(max_examples=30, deadline=None)
    @given(matrices)
    def test_zscore_idempotent_shape(self, matrix):
        out = Normalizer("zscore").fit_transform(matrix)
        assert out.shape == matrix.shape
        assert np.all(np.isfinite(out))


class TestDistances:
    def test_euclidean_to_point_known(self):
        matrix = np.array([[0.0, 0.0], [3.0, 4.0]])
        dists = euclidean_to_point(matrix, np.array([0.0, 0.0]))
        np.testing.assert_allclose(dists, [0.0, 5.0])

    def test_pairwise_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(15, 4))
        dists = pairwise_euclidean(matrix)
        np.testing.assert_allclose(dists, dists.T, atol=1e-9)
        np.testing.assert_allclose(np.diag(dists), 0.0, atol=1e-6)

    def test_pairwise_identical_rows_are_exactly_zero_apart(self):
        # The expanded-square identity gave 1.9e-6 in every cell here.
        matrix = np.array([[38.4, -59.9, -26.1, -99.3]] * 2)
        assert (pairwise_euclidean(matrix) == 0.0).all()

    def test_cdist_matches_pairwise(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(10, 3))
        np.testing.assert_allclose(
            cdist_euclidean(matrix, matrix), pairwise_euclidean(matrix), atol=1e-9
        )

    def test_cdist_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="incompatible"):
            cdist_euclidean(np.ones((2, 3)), np.ones((2, 4)))

    @settings(max_examples=30, deadline=None)
    @given(matrices)
    def test_triangle_inequality_samples(self, matrix):
        dists = pairwise_euclidean(matrix)
        n = matrix.shape[0]
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j, k = rng.integers(0, n, size=3)
            assert dists[i, j] <= dists[i, k] + dists[k, j] + 1e-6
