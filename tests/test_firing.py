"""Firing extraction, scatter statistics, ICC ranking, and the LDA solver."""

import numpy as np
import pytest

from fisherprune import firing
from fisherprune.data import LabeledImage, generate_synthetic
from fisherprune.errors import ConfigurationError, DimensionError, NonFiniteError
from fisherprune.firing import (
    FiringMatrix, diagonal_dominance, extract_firing_matrix,
    full_lda_directions, icc_scores, rank_and_select,
    scatter_matrices, standardize, variance_ranking_baseline,
)
from fisherprune.network import Network, build_cnn, forward
from fisherprune.tensor import Tensor

import oracles
from test_train import widen_to_float64


@pytest.fixture
def small_mat():
    """Column 0 separates the classes cleanly, column 1 is pure noise."""
    rng = np.random.default_rng(5)
    n = 40
    labels = np.repeat([0, 1], n // 2)
    vals = rng.normal(0, 1, (n, 3))
    vals[:, 0] += np.where(labels == 0, -3.0, 3.0)
    vals[:, 2] *= 0.01
    return FiringMatrix(vals, labels)


class TestExtraction:
    def test_rows_are_channel_maxima(self):
        net = build_cnn((1, 8, 8), [(3, 3, 1, False)], [4], 2, seed=2)
        split = generate_synthetic(3, size=16, seed=0)
        # shrink the images to fit the toy net
        for s in split.train:
            s.image = type(s.image)(s.image.data[:, :8, :8])
        mat = extract_firing_matrix(net, split.train, 0)
        assert mat.values.shape == (len(split.train), 3)
        _, rec = forward(net, split.train[0].image, record=True)
        want = rec.activations[1].reshape(3, -1).max(axis=1)
        np.testing.assert_allclose(mat.values[0], want, rtol=1e-6)
        np.testing.assert_array_equal(
            mat.labels, [s.label for s in split.train])

    def test_layer_must_be_conv(self):
        net = build_cnn((1, 8, 8), [(3, 3, 1, True)], [4], 2, seed=2)
        split = generate_synthetic(2, size=16, seed=0)
        with pytest.raises(ConfigurationError, match="not a conv"):
            extract_firing_matrix(net, split.train, 1)

    @pytest.mark.parametrize("layer", [0.0, True, "0"])
    def test_layer_must_be_an_int(self, layer):
        net = build_cnn((1, 8, 8), [(3, 3, 1, True)], [4], 2, seed=2)
        split = generate_synthetic(2, size=16, seed=0)
        with pytest.raises(ConfigurationError, match="layer must be an int"):
            extract_firing_matrix(net, split.train, layer)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_bitwise_the_relu_layer_peaks(self, dtype):
        """The rectified conv output's peak is the following relu layer's."""
        net = build_cnn((1, 12, 12), [(4, 3, 1, True), (5, 3, 1, False)],
                        [6], 2, seed=23)
        if dtype == np.float64:
            net = widen_to_float64(net)
        rng = np.random.default_rng(6)
        images = [LabeledImage(Tensor(rng.random((1, 12, 12)).astype(dtype) - 0.5),
                               i % 2, f"i{i}") for i in range(4)]
        images.append(LabeledImage(Tensor(np.zeros((1, 12, 12), dtype)), 0, "z"))
        for layer in net.conv_indices():
            trunk = Network(net.input_shape, net.layers[: layer + 2])
            rows = [forward(trunk, s.image).data.reshape(
                net.layers[layer].weights.shape[0], -1).max(axis=1)
                for s in images]
            got = extract_firing_matrix(net, images, layer).values
            assert got.tobytes() == np.array(rows, dtype=np.float64).tobytes()

    def test_empty_image_list_rejected(self):
        net = build_cnn((1, 8, 8), [(3, 3, 1, True)], [4], 2, seed=2)
        with pytest.raises(ConfigurationError, match="image list is empty"):
            extract_firing_matrix(net, [], 0)

    def test_nan_rows_rejected(self):
        with pytest.raises(ValueError):
            FiringMatrix(np.array([[1.0, np.nan]]), np.array([0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_a_non_finite_error(self, bad):
        with pytest.raises(NonFiniteError, match="NaN or infinity"):
            FiringMatrix(np.array([[1.0, bad]]), np.array([0]))


class TestStandardize:
    def test_zero_mean_unit_population_std(self, small_mat):
        out = standardize(small_mat)
        np.testing.assert_allclose(out.values.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(out.values.std(axis=0), 1.0, atol=1e-12)
        assert out.standardized and not out.constant_cols.any()

    def test_constant_column_flagged_not_scaled(self):
        vals = np.column_stack([np.arange(6.0), np.full(6, 4.0)])
        out = standardize(FiringMatrix(vals, np.array([0, 0, 0, 1, 1, 1])))
        assert out.constant_cols.tolist() == [False, True]
        np.testing.assert_allclose(out.values[:, 1], 0.0, atol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ConfigurationError):
            standardize(FiringMatrix(np.ones((1, 2)), np.array([0])))


class TestScatter:
    def test_matches_outer_product_oracle(self, small_mat):
        pair = scatter_matrices(small_mat)
        sw, sb = oracles.scatter_loops(small_mat.values, small_mat.labels)
        np.testing.assert_allclose(pair.s_w, sw, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(pair.s_b, sb, rtol=1e-10, atol=1e-10)
        assert np.array_equal(pair.s_w, pair.s_w.T)

    def test_needs_both_classes(self, small_mat):
        ones = FiringMatrix(small_mat.values, np.ones_like(small_mat.labels))
        with pytest.raises(ConfigurationError):
            scatter_matrices(ones)

    def test_icc_diagonals_match_two_pass_stats(self, small_mat):
        pair = scatter_matrices(small_mat)
        ranking = icc_scores(pair)
        s2w, s2b = oracles.two_pass_column_stats(
            small_mat.values, small_mat.labels)
        np.testing.assert_allclose(ranking.s2w, s2w, rtol=1e-10)
        np.testing.assert_allclose(ranking.s2b, s2b, rtol=1e-10)
        np.testing.assert_allclose(ranking.icc, s2b / (s2b + s2w), rtol=1e-10)

    def test_dead_neuron_scores_zero(self):
        vals = np.column_stack([np.arange(8.0), np.zeros(8)])
        mat = FiringMatrix(vals, np.repeat([0, 1], 4))
        icc = icc_scores(scatter_matrices(mat)).icc
        assert icc[1] == 0.0
        assert 0.0 <= icc[0] <= 1.0


class TestRanking:
    def test_separating_column_wins(self, small_mat):
        ranking = rank_and_select(icc_scores(scatter_matrices(small_mat)), 2)
        assert ranking.order[0] == 0
        assert ranking.selected.tolist() == ranking.order[:2].tolist()

    def test_ties_broken_by_s2b_then_index(self):
        scores = firing.NeuronRanking(
            s2w=np.array([1.0, 1.0, 1.0]),
            s2b=np.array([1.0, 2.0, 2.0]),
            icc=np.array([0.5, 0.5, 0.5]),
        )
        # equal icc everywhere: richer between-class mass first, then index
        ranking = rank_and_select(scores, 3)
        assert ranking.order.tolist() == [1, 2, 0]

    def test_k_bounds(self, small_mat):
        scores = icc_scores(scatter_matrices(small_mat))
        with pytest.raises(ConfigurationError):
            rank_and_select(scores, 0)
        with pytest.raises(ConfigurationError):
            rank_and_select(scores, 4)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_k_must_be_an_int(self, small_mat, k):
        scores = icc_scores(scatter_matrices(small_mat))
        with pytest.raises(ConfigurationError, match="k must be an int"):
            rank_and_select(scores, k)

    def test_variance_baseline_prefers_loud_columns(self, small_mat):
        ranking = variance_ranking_baseline(small_mat, k=1)
        # column 2 is tiny-variance, so it must come last
        assert ranking.order[-1] == 2
        assert len(ranking.selected) == 1


class TestDiagonalDominance:
    def test_identity_is_fully_diagonal(self):
        assert diagonal_dominance(np.eye(5)) == 1.0

    def test_known_ratio(self):
        m = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert diagonal_dominance(m) == pytest.approx(4.0 / 6.0)

    def test_zero_matrix_counts_as_diagonal(self):
        assert diagonal_dominance(np.zeros((3, 3))) == 1.0


class TestFullLda:
    def make_pair(self, sw, sb):
        d = sw.shape[0]
        z = np.zeros(d)
        return firing.ScatterPair(sw, sb, z, z, z, 4, 4)

    def test_diagonal_case_reduces_to_per_neuron_ratios(self):
        s2w = np.array([4.0, 1.0, 9.0])
        s2b = np.array([2.0, 3.0, 1.0])
        evals, dirs = full_lda_directions(
            self.make_pair(np.diag(s2w), np.diag(s2b)), 3)
        np.testing.assert_allclose(np.sort(evals)[::-1],
                                   np.sort(s2b / s2w)[::-1], rtol=1e-5)
        # each direction is an axis vector: one dominant component
        for j in range(3):
            col = np.abs(dirs[:, j])
            assert np.partition(col, -2)[-2] <= 1e-8 * col.max()

    def test_generalized_residual_and_metric_norm(self):
        rng = np.random.default_rng(3)
        d = 6
        a = rng.normal(0, 1, (20, d))
        b = rng.normal(0, 1, (2, d))
        sw = a.T @ a
        sb = b.T @ b
        evals, dirs = full_lda_directions(self.make_pair(sw, sb), d)
        eps = max(1e-6 * np.trace(sw) / d, 1e-12)
        m = sw + eps * np.eye(d)
        scale = np.linalg.norm(sb)
        for j in range(d):
            v = dirs[:, j]
            resid = np.linalg.norm(sb @ v - evals[j] * (m @ v))
            assert resid <= 1e-6 * scale * max(np.linalg.norm(v), 1.0)
            assert v @ m @ v == pytest.approx(1.0, abs=1e-8)
        assert list(evals) == sorted(evals, reverse=True)
        # rank-2 S_b: at most two meaningful ratios
        assert np.all(np.asarray(evals[2:]) < 1e-8)

    def test_dimension_and_count_guards(self):
        big = np.eye(65)
        with pytest.raises(DimensionError):
            full_lda_directions(self.make_pair(big, big), 1)
        ok = np.eye(4)
        with pytest.raises(ConfigurationError):
            full_lda_directions(self.make_pair(ok, ok), 0)

    @pytest.mark.parametrize("m", [1.5, 1.0, True])
    def test_m_must_be_an_int(self, m):
        ok = np.eye(4)
        with pytest.raises(ConfigurationError, match="m must be an int"):
            full_lda_directions(self.make_pair(ok, ok), m)
