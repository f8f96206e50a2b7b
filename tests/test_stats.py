import hashlib
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import dualmem.stats
from dualmem.stats import (
    BackgroundStats,
    InsufficientSamplesError,
    LinearClassifier,
    MomentAccumulator,
    finalize_background,
    flapack,
    train_lda,
    whiten,
)

from conftest import random_bg, rel_err


def batch_moments(samples):
    """Two-pass oracle: plain mean and population covariance."""
    X = np.asarray(samples, dtype=np.float64)
    mean = X.mean(axis=0)
    centered = X - mean
    return mean, centered.T @ centered / len(X)


class TestAccumulate:
    def test_single_sample(self):
        acc = MomentAccumulator(2).add(np.array([1.0, 1.0]))
        assert acc.count == 1
        np.testing.assert_array_equal(acc.mean, [1.0, 1.0])
        np.testing.assert_array_equal(acc.m2, np.zeros((2, 2)))

    def test_symmetric_four_points_mean(self):
        acc = MomentAccumulator(2)
        for x in [(0, 0), (2, 0), (0, 2), (2, 2)]:
            acc.add(np.array(x, dtype=float))
        np.testing.assert_allclose(acc.mean, [1.0, 1.0], rtol=0, atol=1e-12)

    def test_four_points_population_covariance(self):
        samples = [(0, 0), (2, 0), (0, 2), (2, 2)]
        acc = MomentAccumulator(2).add_batch(np.array(samples, dtype=float))
        _, cov_oracle = batch_moments(samples)
        np.testing.assert_allclose(acc.m2 / acc.count, cov_oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cov_oracle, np.eye(2), rtol=0, atol=1e-12)

    def test_streaming_matches_batch_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((400, 6)) * 2.5 + rng.standard_normal(6)
        acc = MomentAccumulator(6).add_batch(X)
        mean_oracle, cov_oracle = batch_moments(X)
        assert rel_err(acc.mean, mean_oracle) < 1e-12
        assert rel_err(acc.m2 / acc.count, cov_oracle) < 1e-9

    def test_m2_stays_symmetric(self):
        rng = np.random.default_rng(3)
        acc = MomentAccumulator(5).add_batch(rng.standard_normal((200, 5)))
        np.testing.assert_array_equal(acc.m2, acc.m2.T)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), n=st.integers(1, 60), parts=st.integers(1, 4),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=100, deadline=None)
    def test_m2_is_exactly_symmetric_for_batch_row_by_row_and_merged_accumulators(self, seed, d, n, parts, scale):
        """``finalize_background`` symmetrises nothing: every way of accumulating leaves m2 equal to its transpose."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * scale + rng.standard_normal(d) * scale * 10
        batch = MomentAccumulator(d).add_batch(X)
        row_by_row = MomentAccumulator(d)
        for x in X:
            row_by_row.add(x)
        merged = MomentAccumulator(d)
        for p in range(parts):
            merged = merged.merge(MomentAccumulator(d).add_batch(X[p::parts]))
        for acc in (batch, row_by_row, merged):
            assert acc.m2.tobytes() == acc.m2.T.copy().tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            MomentAccumulator(2).add(np.array([1.0, np.nan]))

    def test_dimension_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            MomentAccumulator(0)

    def test_an_empty_batch_changes_nothing(self):
        acc = MomentAccumulator(3).add_batch(np.arange(6.0).reshape(2, 3))
        before = (acc.count, acc.mean.tobytes(), acc.m2.tobytes())
        assert acc.add_batch(np.zeros((0, 3))) is acc
        assert (acc.count, acc.mean.tobytes(), acc.m2.tobytes()) == before

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="shape"):
            MomentAccumulator(2).add(np.array([1.0, 2.0, 3.0]))


class TestMerge:
    def test_merge_matches_sequential(self):
        rng = np.random.default_rng(11)
        s1 = rng.standard_normal((100, 8))
        s2 = rng.standard_normal((100, 8)) + 3.0
        merged = MomentAccumulator(8).add_batch(s1).merge(MomentAccumulator(8).add_batch(s2))
        sequential = MomentAccumulator(8).add_batch(np.vstack([s1, s2]))
        assert rel_err(merged.mean, sequential.mean) < 1e-9
        assert rel_err(merged.m2, sequential.m2) < 1e-9

    def test_identity_element(self):
        rng = np.random.default_rng(2)
        a = MomentAccumulator(3).add_batch(rng.standard_normal((10, 3)))
        for merged in (MomentAccumulator(3).merge(a), a.merge(MomentAccumulator(3))):
            assert merged.count == a.count
            np.testing.assert_array_equal(merged.mean, a.mean)
            np.testing.assert_array_equal(merged.m2, a.m2)

    def test_associative_commutative_over_partitions(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((90, 4))
        parts = [MomentAccumulator(4).add_batch(X[i::3]) for i in range(3)]
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[2].merge(parts[0].merge(parts[1]))
        swapped = parts[1].merge(parts[2]).merge(parts[0])
        for other in (right, swapped):
            assert rel_err(left.mean, other.mean) < 1e-9
            assert rel_err(left.m2, other.m2) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            MomentAccumulator(2).merge(MomentAccumulator(3))


class TestFinalize:
    def test_ridge_floor_on_diagonal(self):
        rng = np.random.default_rng(1)
        acc = MomentAccumulator(4).add_batch(rng.standard_normal((50, 4)) * 0.01)
        bg = finalize_background(acc, ridge_lambda=1e-3)
        assert np.all(np.diag(bg.covariance) >= 1e-3)

    def test_d1_variance_by_hand(self):
        acc = MomentAccumulator(1).add(np.array([0.0])).add(np.array([2.0]))
        bg = finalize_background(acc, ridge_lambda=1e-12)
        assert bg.covariance[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_four_point_identity_covariance(self):
        acc = MomentAccumulator(2).add_batch(np.array([(0, 0), (2, 0), (0, 2), (2, 2)], dtype=float))
        bg = finalize_background(acc, ridge_lambda=1e-3)
        np.testing.assert_allclose(bg.covariance, np.eye(2) * (1 + 1e-3), rtol=0, atol=1e-12)
        assert bg.count == 4

    def test_insufficient_samples(self):
        acc = MomentAccumulator(2).add(np.zeros(2))
        with pytest.raises(InsufficientSamplesError):
            finalize_background(acc, 1e-3)

    def test_cholesky_diagonal_positive(self):
        rng = np.random.default_rng(9)
        acc = MomentAccumulator(6).add_batch(rng.standard_normal((30, 6)))
        bg = finalize_background(acc, 1e-3)
        assert np.all(np.diag(bg.chol_lower) > 0)

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        acc = MomentAccumulator(3).add_batch(rng.standard_normal((20, 3)))
        bg = finalize_background(acc, 1e-3)
        bg.save(tmp_path / "bg.bin")
        loaded = BackgroundStats.load(tmp_path / "bg.bin")
        np.testing.assert_array_equal(loaded.mean, bg.mean)
        np.testing.assert_array_equal(loaded.covariance, bg.covariance)
        assert loaded.count == bg.count

    @pytest.mark.parametrize("mean, covariance, message", [
        ([0.0, np.nan], np.eye(2), "background mean and covariance must be finite"),
        ([0.0, 0.0], [[1.0, 0.0], [0.0, np.inf]], "background mean and covariance must be finite"),
        ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], "covariance is not positive definite; increase ridge_lambda"),
    ])
    def test_moments_that_cannot_whiten_are_refused(self, mean, covariance, message):
        with pytest.raises(ValueError) as caught:
            BackgroundStats.from_moments(np.array(mean), np.array(covariance), 10)
        assert str(caught.value) == message

    @pytest.mark.parametrize("count", [0, -3])
    def test_a_sample_count_below_one_is_refused(self, tmp_path, count):
        with pytest.raises(ValueError, match=f"^background sample count must be positive, got {count}$"):
            BackgroundStats.from_moments(np.zeros(2), np.eye(2), count)
        path = tmp_path / "bg.bin"
        BackgroundStats.from_moments(np.zeros(2), np.eye(2), 1).save(path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<Q", 0))
        with pytest.raises(ValueError, match=f"^{path}: background sample count must be positive, got 0$"):
            BackgroundStats.load(path)

    def test_the_file_is_the_bytes_the_digest_hashes(self, tmp_path):
        """``bg.bin`` is magic, d, mean, covariance and count; a loaded copy has the same bytes and digest."""
        rng = np.random.default_rng(4)
        bg = finalize_background(MomentAccumulator(3).add_batch(rng.standard_normal((20, 3))), 1e-3)
        bg.save(tmp_path / "bg.bin")
        data = (tmp_path / "bg.bin").read_bytes()
        assert data == (
            struct.pack("<4sI", b"DMBG", 3) + bg.mean.astype("<f8").tobytes()
            + bg.covariance.astype("<f8").tobytes() + struct.pack("<Q", 20)
        )
        assert bg.digest == BackgroundStats.load(tmp_path / "bg.bin").digest == hashlib.sha256(data).digest()


class TestLda:
    def test_equal_means_and_priors_give_zero(self, bg2):
        clf = train_lda(bg2.mean, bg2.count, bg2)
        np.testing.assert_array_equal(clf.weights, np.zeros(2))
        assert clf.bias == 0.0

    def test_identity_covariance_example(self, bg2):
        clf = train_lda(np.array([2.0, 0.0]), bg2.count, bg2)
        np.testing.assert_allclose(clf.weights, [2.0, 0.0], rtol=0, atol=1e-12)
        assert clf.bias == pytest.approx(-2.0, abs=1e-12)

    def test_refuses_a_mean_of_another_shape_and_an_empty_class(self, bg2):
        with pytest.raises(ValueError, match=r"^mean has shape \(3,\), expected \(2,\)$"):
            train_lda(np.zeros(3), 1, bg2)
        with pytest.raises(ValueError, match="^positive count must be >= 1$"):
            train_lda(np.zeros(2), 0, bg2)

    def test_scaled_covariance_against_dense_solve(self):
        bg = BackgroundStats.from_moments(np.zeros(2), 2.0 * np.eye(2), 10)
        clf = train_lda(np.array([2.0, 0.0]), 10, bg)
        w_oracle = np.linalg.solve(bg.covariance, np.array([2.0, 0.0]))
        np.testing.assert_allclose(clf.weights, w_oracle, rtol=1e-12, atol=1e-12)
        assert clf.bias == pytest.approx(-1.0, abs=1e-9)

    def test_random_spd_against_dense_solve(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = int(rng.integers(2, 16))
            A = rng.standard_normal((d, d))
            sigma = A @ A.T / d + 0.1 * np.eye(d)
            mu_pos = rng.standard_normal(d)
            mu_neg = rng.standard_normal(d)
            bg = BackgroundStats.from_moments(mu_neg, sigma, 50)
            clf = train_lda(mu_pos, 50, bg)
            w_oracle = np.linalg.solve(sigma, mu_pos - mu_neg)
            assert rel_err(clf.weights, w_oracle) < 1e-10
            residual = sigma @ clf.weights - (mu_pos - mu_neg)
            assert np.abs(residual).max() <= 1e-8 * (1 + np.linalg.norm(mu_pos - mu_neg))

    def test_midpoint_scores_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = 6
            A = rng.standard_normal((d, d))
            sigma = A @ A.T / d + 0.2 * np.eye(d)
            mu_pos, mu_neg = rng.standard_normal(d), rng.standard_normal(d)
            bg = BackgroundStats.from_moments(mu_neg, sigma, 33)
            clf = train_lda(mu_pos, 33, bg)
            assert clf.score((mu_pos + mu_neg) / 2.0) == pytest.approx(0.0, abs=1e-8)

    def test_score_examples(self):
        clf = LinearClassifier(weights=np.array([2.0, 0.0]), bias=-2.0)
        assert clf.score(np.array([1.0, 0.0])) == 0.0
        assert clf.score(np.array([2.0, 0.0])) == 2.0
        zero = LinearClassifier(weights=np.zeros(2), bias=0.0)
        assert zero.score(np.array([5.0, -3.0])) == 0.0

    def test_score_dimension_mismatch(self):
        clf = LinearClassifier(weights=np.zeros(2), bias=0.0)
        with pytest.raises(ValueError):
            clf.score(np.zeros(3))


class TestWhiten:
    def test_rows_solve_against_the_factor(self):
        rng = np.random.default_rng(7)
        bg = random_bg(rng, 9)
        feats = rng.standard_normal((50, 9)) * 3
        z = whiten(feats, bg)
        assert z.shape == (50, 9) and z.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(bg.chol_lower @ z.T, (feats - bg.mean).T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(whiten(feats[3], bg), z[3], rtol=0, atol=1e-12)
        assert whiten(np.zeros((0, 9)), bg).shape == (0, 9)

    def test_whitened_score_equals_the_discriminant(self):
        """w.f + b == m.z - |m|^2 / 2 + log(n / N) with m and z whitened."""
        rng = np.random.default_rng(8)
        for d in (1, 4, 32):
            bg = random_bg(rng, d)
            mean, count = rng.standard_normal(d) * 3, int(rng.integers(1, 500))
            feats = rng.standard_normal((20, d)) * 3
            m = whiten(mean, bg)
            whitened = whiten(feats, bg) @ m - 0.5 * (m @ m) + np.log(count / bg.count)
            clf = train_lda(mean, count, bg)
            expected = [clf.score(f) for f in feats]
            np.testing.assert_allclose(whitened, expected, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 4))])
    def test_rejects_wrong_shape(self, bad):
        with pytest.raises(ValueError, match="shape"):
            whiten(bad, random_bg(np.random.default_rng(0), 4))

    def test_rejects_non_finite(self):
        feats = np.zeros((3, 4))
        feats[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            whiten(feats, random_bg(np.random.default_rng(0), 4))

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), n=st.sampled_from([None, 0, 1, 2, 17, 300]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy_solve_triangular_byte_for_byte(self, seed, d, n, scale):
        """A d-vector (n None) or an (n, d) matrix, n = 0 included, against a factor from ``from_moments`` (at
        d = 1 both C- and F-contiguous, so the untransposed call is taken) and against its Fortran-ordered copy."""
        rng = np.random.default_rng(seed)
        bg = random_bg(rng, d)
        assert bg.chol_lower.flags.f_contiguous == (d == 1)
        fortran = BackgroundStats(mean=bg.mean, covariance=bg.covariance, count=bg.count,
                                  chol_lower=np.asfortranarray(bg.chol_lower))
        feats = (rng.standard_normal(d if n is None else (n, d)) + rng.standard_normal(d)) * scale
        for stats in (bg, fortran):
            expected = solve_triangular(stats.chol_lower, (feats - stats.mean).T, lower=True).T
            z = whiten(feats, stats)
            assert z.shape == expected.shape and z.tobytes() == expected.tobytes()

    def test_the_loaded_extension_is_the_one_scipy_linalg_uses(self):
        assert flapack() is sys.modules["scipy.linalg._flapack"]
        assert scipy.linalg.lapack.dtrtrs is flapack().dtrtrs

    def test_scipy_linalg_imported_after_the_loader_reuses_its_module(self):
        """In a fresh process the loader adds one scipy module; ``import scipy.linalg`` then takes it over."""
        script = (
            "import json, sys\n"
            "from dualmem.stats import flapack\n"
            "loaded = flapack()\n"
            "names = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
            "import scipy.linalg\n"
            "print(json.dumps([names, scipy.linalg.lapack.dtrtrs is loaded.dtrtrs, flapack() is loaded]))\n"
        )
        src = str(Path(dualmem.stats.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [["scipy.linalg._flapack"], True, True]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_zero_on_the_factors_diagonal_is_a_singular_matrix(self, order):
        bg = random_bg(np.random.default_rng(2), 3)
        chol = np.array(bg.chol_lower, order=order)
        chol[1, 1] = 0.0
        singular = BackgroundStats(mean=bg.mean, covariance=bg.covariance, count=bg.count, chol_lower=chol)
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix: resolution failed at diagonal 1"):
            whiten(np.ones((2, 3)), singular)
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix: resolution failed at diagonal 1"):
            solve_triangular(chol, np.ones((3, 2)), lower=True)


def test_streaming_equivalence_is_fast():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2000, 32))
    start = time.perf_counter()
    acc = MomentAccumulator(32).add_batch(X)
    elapsed = time.perf_counter() - start
    mean_oracle, cov_oracle = batch_moments(X)
    assert rel_err(acc.mean, mean_oracle) < 1e-9
    assert rel_err(acc.m2 / acc.count, cov_oracle) < 1e-9
    assert elapsed < 5.0
