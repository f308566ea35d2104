"""Tests for graph smoothing, spectral embedding, Sinkhorn, and pooling."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from sfctok.core import SeededWeights, TokenMatrix, seeded_init
from sfctok.errors import (
    ConfigError,
    DimensionMismatch,
    InvalidMarginals,
    NonFiniteKernel,
    RankTooLarge,
)
from sfctok import merger
from sfctok.merger import (
    DENSE_SVD_ROWS,
    QR_BLOCK_ROWS,
    _fix_signs,
    _logsumexp_rows,
    _orthonormal_basis,
    importance_scores,
    project_logits,
    sinkhorn,
    smooth_features,
    soft_pool,
    spectral_embed,
)


def make_tokens(rng, m=20, d=8):
    return TokenMatrix(
        feats=rng.normal(size=(m, d)), centers=rng.uniform(size=(m, 3))
    )


def dense_sinkhorn(logits, mu, nu, tau, iters):
    """Reference solver in plain (non-log) arithmetic."""
    k = np.exp(logits / tau)
    u = np.ones(mu.shape[0])
    v = np.ones(nu.shape[0])
    for _ in range(iters):
        u = mu / (k @ v)
        v = nu / (k.T @ u)
    return u[:, None] * k * v[None, :]


class TestSmoothFeatures:
    def test_identity_adjacency_centers_columns(self, rng):
        s = make_tokens(rng)
        y = smooth_features(np.eye(20), s)
        assert np.allclose(y, s.feats - s.feats.mean(axis=0))
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-12)

    def test_dense_oracle(self, rng):
        s = make_tokens(rng, m=15)
        a = rng.uniform(size=(15, 15))
        centered = s.feats - s.feats.mean(axis=0, keepdims=True)
        expected = np.array(
            [[a[i] @ centered[:, j] for j in range(8)] for i in range(15)]
        )
        assert np.allclose(smooth_features(a, s), expected, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            smooth_features(np.eye(5), make_tokens(rng, m=6))

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_matches_centered_product_to_rounding(self, rng, kind):
        # the columns' means are large against their spread, so the rank-one
        # form A S - (A 1) mu^T cancels where A (S - mu) does not
        m, d = 300, 150
        s = make_tokens(rng, m=m, d=d)
        s = TokenMatrix(feats=s.feats + rng.uniform(0, 1e4, size=d), centers=s.centers)
        a_hat = scipy.sparse.random(m, m, density=0.02, format="csr", random_state=3)
        a_hat = a_hat + a_hat.T + scipy.sparse.identity(m, format="csr")
        n = int(np.diff(a_hat.indptr).max())
        if kind == "dense":
            a_hat, n = a_hat.toarray(), m
        mean = s.feats.mean(axis=0)
        want = a_hat @ (s.feats - mean)
        # a sum of n products rounds within n eps of the sum of their
        # magnitudes (Higham 2002, section 3.1): n terms on each side, and the
        # centering and the mean a few roundings more
        scale = abs(a_hat) @ np.abs(s.feats) + np.outer(np.abs(a_hat @ np.ones(m)), np.abs(mean))
        bound = 2 * (n + 2) * np.finfo(np.float64).eps * scale
        assert (np.abs(smooth_features(a_hat, s) - want) <= bound).all()

    def test_holds_only_vectors_besides_its_output(self, rng):
        m, d, nnz = 20_000, 64, 200_000
        s = make_tokens(rng, m=m, d=d)
        ends = rng.integers(0, m, size=(2, nnz))
        a_hat = scipy.sparse.csr_matrix((rng.uniform(size=nnz), tuple(ends)), shape=(m, m))
        # in float64 words: the output; a vector of ones, the row sums A 1 and
        # the mean (3 M); one block of the rank-one term and numpy's ufunc
        # buffers for its broadcast product (np.getbufsize() per operand)
        budget = 8 * (m * d + 3 * m + merger.SMOOTH_BLOCK_ENTRIES + 4 * np.getbufsize())
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            y = smooth_features(a_hat, s)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert y.shape == (m, d)
        assert peak <= budget, (peak / 2**20, budget / 2**20)


class TestSpectralEmbed:
    def test_matches_dense_svd(self, rng):
        y = rng.normal(size=(30, 12))
        emb = spectral_embed(y, r=5)
        u, s, _ = np.linalg.svd(y, full_matrices=False)
        assert np.allclose(emb.singular_values, s[:5], atol=1e-10)
        # compare up to the fixed sign convention
        assert np.allclose(np.abs(emb.u), np.abs(u[:, :5]), atol=1e-8)

    def test_randomized_matches_dense(self, rng):
        # low-rank plus small noise so the truncation is well conditioned;
        # 600 rows take the randomized path
        y = rng.normal(size=(600, 10)) @ rng.normal(size=(10, 40))
        y += 1e-9 * rng.normal(size=y.shape)
        assert y.shape[0] > DENSE_SVD_ROWS
        got = spectral_embed(y, r=8)
        u, s, _ = np.linalg.svd(y, full_matrices=False)
        u = _fix_signs(u[:, :8])
        assert np.allclose(got.singular_values, s[:8], rtol=1e-8)
        assert np.allclose(got.z_emb, u * s[:8], atol=1e-6)

    def test_orthonormal_columns(self, rng):
        emb = spectral_embed(rng.normal(size=(40, 16)), r=6)
        assert np.allclose(emb.u.T @ emb.u, np.eye(6), atol=1e-10)

    def test_embedding_is_u_scaled(self, rng):
        emb = spectral_embed(rng.normal(size=(25, 9)), r=4)
        assert np.allclose(emb.z_emb, emb.u * emb.singular_values, atol=1e-12)

    def test_rank_one_input(self):
        y = np.outer(np.arange(1.0, 7.0), np.ones(5))
        emb = spectral_embed(y, r=2)
        assert emb.singular_values[0] > 1.0
        assert emb.singular_values[1] < 1e-10

    def test_deterministic(self, rng):
        y = rng.normal(size=(700, 20))
        a = spectral_embed(y, r=4, seed=3)
        b = spectral_embed(y, r=4, seed=3)
        assert np.array_equal(a.z_emb, b.z_emb)

    def test_rank_too_large(self, rng):
        with pytest.raises(RankTooLarge):
            spectral_embed(rng.normal(size=(10, 4)), r=5)

    def test_randomized_branch_holds_gram_and_two_product_arrays(self, rng):
        m, d, r = 24 * QR_BLOCK_ROWS + 357, 64, 8
        y = rng.normal(size=(m, d))
        p, blocks = r + 8, -(-m // QR_BLOCK_ROWS)
        # in float64 words, besides y: the (M, r) product and its blocks' Q
        # factors (2 m r); the stacked R factors, np.linalg.qr's copy, work
        # and Q of them, and the result (5 blocks r^2); one block's copy, work
        # and Q (3 QR_BLOCK_ROWS r); G (d^2); the probe, G W, the Ritz
        # problem and its SVD (4 d p)
        budget = 8 * (
            2 * m * r + 5 * blocks * r**2 + 3 * QR_BLOCK_ROWS * r + d * d + 4 * d * p
        )
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            emb = spectral_embed(y, r)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert emb.u.shape == (m, r)
        assert peak <= budget, (peak / 2**20, budget / 2**20)

    def test_next_singular_value_exact_branch(self, rng):
        y = rng.normal(size=(300, 40))
        s = np.linalg.svd(y, compute_uv=False)
        emb = spectral_embed(y, r=8)
        assert abs(emb.next_singular_value - s[8]) <= 1e-12 * s[0]
        assert spectral_embed(y, r=40).next_singular_value == 0.0

    def test_next_singular_value_is_exact_ritz_value_at_low_rank(self, rng):
        # rank 12 <= r + 8: the Ritz problem holds Y's whole range
        y = rng.normal(size=(900, 12)) @ rng.normal(size=(12, 50))
        assert y.shape[0] > DENSE_SVD_ROWS
        s = np.linalg.svd(y, compute_uv=False)
        emb = spectral_embed(y, r=8)
        assert abs(emb.next_singular_value - s[8]) <= 1e-12 * s[0]
        # past Y's rank the Ritz value is dropped as rounding: reported as 0
        assert spectral_embed(y, r=12).next_singular_value == 0.0


def subspace_iteration_oracle(y, r, seed=0):
    """(z_emb, Ritz values): the randomized SVD in M-space, as
    ``spectral_embed`` computed it before it moved to G = Y^T Y: the same
    probe and power iterations, each basis from ``np.linalg.qr``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    q = y @ rng.standard_normal((y.shape[1], min(y.shape[1], r + 8)))
    for _ in range(2):
        q = np.linalg.qr(y @ (y.T @ q))[0]
    u_b, s, _ = np.linalg.svd(q.T @ y, full_matrices=False)
    return _fix_signs(q @ u_b[:, :r]) * s[:r], s


def oracle_case(case, rng):
    """(Y, r) of an input for the randomized branch, named by its spectrum."""
    if case == "flat":
        return rng.normal(size=(3000, 256)), 32
    if case == "low_rank_noise":
        y = rng.normal(size=(600, 10)) @ rng.normal(size=(10, 40))
        return y + 1e-9 * rng.normal(size=y.shape), 8
    if case == "rank_deficient":  # rank 5 below r = 8
        return rng.normal(size=(700, 5)) @ rng.normal(size=(5, 30)), 8
    return np.zeros((600, 20)), 8


# The errors seen stay within 13 of the units below (five seeds per case)
ORACLE_UNITS = 64


class TestRandomizedAgainstOracle:
    """The d-space branch against ``subspace_iteration_oracle``.

    Both compute the same Ritz values and vectors in exact arithmetic; they
    round differently. The Gram route rounds G = Y^T Y by about eps sigma_1^2,
    which moves sigma_j^2 by that much and u_j by that over its gap in
    sigma^2: |d sigma_j| ~ eps sigma_1 (1 + sigma_1 / sigma_j) and
    ||d z_j|| ~ eps sigma_1 (1 + sigma_1 / sigma_j + sigma_1 / gap_j). A Ritz
    value whose square is below G's rounding, max(M, d) eps ||Y||_F^2, is no
    resolvable direction of the Gram route, which reports it as 0: there
    both stay within eps sigma_1 of 0.
    """

    @pytest.mark.parametrize("case", ["flat", "low_rank_noise", "rank_deficient", "zero"])
    def test_matches_subspace_iteration(self, rng, case):
        y, r = oracle_case(case, rng)
        assert y.shape[0] > DENSE_SVD_ROWS
        got = spectral_embed(y, r)
        want_z, ritz = subspace_iteration_oracle(y, r)
        eps, s1 = np.finfo(np.float64).eps, ritz[0]
        s = ritz[:r]
        gap = np.minimum(np.r_[np.inf, s[:-1] - s[1:]], s - ritz[1 : r + 1])
        live = s**2 > max(y.shape) * eps * np.sum(y**2)
        with np.errstate(divide="ignore", invalid="ignore"):
            conditioning = np.where(live, s1 / s, 0.0)
            spacing = np.where(live, s1 / gap, 0.0)
        sigma_bound = ORACLE_UNITS * eps * s1 * (1 + conditioning)
        z_bound = ORACLE_UNITS * eps * s1 * (1 + conditioning + spacing)
        assert (np.abs(got.singular_values - s) <= sigma_bound).all()
        assert (np.linalg.norm(got.z_emb - want_z, axis=0) <= z_bound).all()
        assert np.abs(got.u.T @ got.u - np.eye(r)).max() <= 1e-12
        assert (got.singular_values[~live] == 0).all()


def qr_case(case, rng, n=24):
    """A tall input for the blocked basis, named by its row count or shape."""
    rows = {
        "one_block": QR_BLOCK_ROWS,
        "block_plus_one": QR_BLOCK_ROWS + 1,
        "ragged": 2 * QR_BLOCK_ROWS + 357,
        "rank_deficient": 3 * QR_BLOCK_ROWS,
        "zero": 2 * QR_BLOCK_ROWS + 5,
        "short": 40,
    }[case]
    if case == "rank_deficient":  # rank 7 of 24, and an exactly repeated column
        a = rng.normal(size=(rows, 7)) @ rng.normal(size=(7, n))
        a[:, 3] = a[:, 5]
        return a
    if case == "zero":
        return np.zeros((rows, n))
    return rng.normal(size=(rows, n)) * np.logspace(0, -8, n)


class TestOrthonormalBasis:
    """The blocked (TSQR) basis against ``np.linalg.qr``."""

    @pytest.mark.parametrize(
        "case",
        ["short", "one_block", "block_plus_one", "ragged", "rank_deficient", "zero"],
    )
    def test_matches_householder_span(self, rng, case):
        a = qr_case(case, rng)
        q = _orthonormal_basis(a.copy())  # the basis is written over its input
        assert q.shape == a.shape
        assert np.linalg.norm(q.T @ q - np.eye(a.shape[1]), 2) <= 1e-13
        # both bases hold the input's range: ||(I - Q Q^T) U||_2 is the sine
        # of the largest angle between that range and span(Q), so at full
        # rank it is the gap between the projectors Q Q^T and Q0 Q0^T
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        u = u[:, s > 1e-10 * max(s[0], 1e-300)]
        for basis in (q, np.linalg.qr(a)[0]):
            assert np.linalg.norm(u - basis @ (basis.T @ u), 2) <= 1e-12

    def test_embedding_moves_at_rounding_level(self, rng, monkeypatch):
        # a spectrum with distinct singular values, above one block
        y = rng.normal(size=(3 * QR_BLOCK_ROWS + 11, 32)) * np.logspace(0, -2, 32)
        got = spectral_embed(y, r=8)
        monkeypatch.setattr(merger, "_orthonormal_basis", lambda a: np.linalg.qr(a)[0])
        want = spectral_embed(y, r=8)
        assert np.abs(got.z_emb - want.z_emb).max() <= 1e-12 * np.abs(want.z_emb).max()


class TestLogSumExp:
    def test_matches_scipy(self, rng):
        a = rng.normal(scale=300.0, size=(40, 17)) - 400.0
        a[3, :5] = -np.inf
        a[7] = -np.inf  # a row with no mass
        a[9, 2] = 700.0  # exp would overflow without the shift
        with np.errstate(divide="ignore"):  # log 0 on the massless row
            got = _logsumexp_rows(a)
        want = scipy.special.logsumexp(a, axis=1)
        assert np.isneginf(got[7]) and np.isneginf(want[7])
        finite = np.isfinite(want)
        assert finite.sum() == 39
        err = np.abs(got[finite] - want[finite])
        assert (err <= 1e-14 * np.abs(want[finite])).all()


class TestImportance:
    def test_uniform_for_zero_weights(self, rng):
        s = make_tokens(rng, m=12, d=6)
        w = SeededWeights(shapes=((6, 3), (3, 1)), values=np.zeros(6 * 3 + 3 + 3 * 1 + 1))
        mu = importance_scores(s, w)
        assert np.allclose(mu, np.full(12, 1 / 12))

    def test_simplex(self, rng):
        s = make_tokens(rng, m=30, d=8)
        w = seeded_init(7, [(8, 4), (4, 1)])
        mu = importance_scores(s, w)
        assert (mu > 0).all()
        assert np.isclose(mu.sum(), 1.0)

    def test_deterministic(self, rng):
        s = make_tokens(rng, m=10, d=8)
        w = seeded_init(5, [(8, 4), (4, 1)])
        assert np.array_equal(importance_scores(s, w), importance_scores(s, w))

    @pytest.mark.parametrize("shapes", [[(8, 4), (4, 5)], [(8, 2)], []])
    def test_needs_one_output(self, rng, shapes):
        # column 0 of a wider MLP used to be read as the score
        w = seeded_init(5, shapes) if shapes else SeededWeights((), np.zeros(0))
        with pytest.raises(DimensionMismatch, match="fan-out 1"):
            importance_scores(make_tokens(rng, m=10, d=8), w)


class TestProjectLogits:
    def test_matmul_oracle(self, rng):
        z = rng.normal(size=(9, 4))
        w = seeded_init(2, [(4, 6)])
        mat, _ = w.layer(0)
        expected = np.array([[z[i] @ mat[:, j] for j in range(6)] for i in range(9)])
        assert np.allclose(project_logits(z, w), expected, atol=1e-12)

    def test_width_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            project_logits(rng.normal(size=(9, 5)), seeded_init(2, [(4, 6)]))

    @pytest.mark.parametrize("shapes", [[(4, 6), (6, 6)], []])
    def test_needs_one_layer(self, rng, shapes):
        # layer 0 of a deeper projection used to be applied alone
        w = seeded_init(2, shapes) if shapes else SeededWeights((), np.zeros(0))
        with pytest.raises(DimensionMismatch, match="exactly one"):
            project_logits(rng.normal(size=(9, 4)), w)


class TestSinkhorn:
    def test_uniform_everything(self):
        plan = sinkhorn(np.zeros((4, 4)), np.full(4, 0.25), np.full(4, 0.25), tau=1.0)
        assert np.allclose(plan.plan, np.full((4, 4), 1 / 16), atol=1e-10)

    def test_marginals_satisfied(self, rng):
        logits = rng.normal(size=(16, 6))
        mu = rng.uniform(0.5, 1.5, size=16)
        mu /= mu.sum()
        nu = np.full(6, 1 / 6)
        plan = sinkhorn(logits, mu, nu, tau=0.05)
        assert plan.residual <= 1e-9
        assert np.allclose(plan.plan.sum(axis=1), mu, atol=1e-8)
        assert np.allclose(plan.plan.sum(axis=0), nu, atol=1e-8)

    def test_matches_dense_reference(self, rng):
        logits = rng.normal(size=(12, 5))
        mu = np.full(12, 1 / 12)
        nu = np.full(5, 1 / 5)
        ours = sinkhorn(logits, mu, nu, tau=0.1, max_iters=200, residual_tol=0.0)
        ref = dense_sinkhorn(logits, mu, nu, tau=0.1, iters=200)
        assert np.abs(ours.plan - ref).max() <= 1e-7

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(10, 4))
        mu = np.full(10, 0.1)
        nu = np.full(4, 0.25)
        base = sinkhorn(logits, mu, nu, tau=0.05)
        shifted = sinkhorn(logits + 17.3, mu, nu, tau=0.05)
        assert np.abs(base.plan - shifted.plan).max() <= 1e-10

    def test_high_tau_limit_is_outer_product(self, rng):
        logits = rng.normal(size=(8, 3))
        mu = rng.uniform(0.5, 1.5, size=8)
        mu /= mu.sum()
        nu = np.full(3, 1 / 3)
        plan = sinkhorn(logits, mu, nu, tau=1e6)
        assert np.abs(plan.plan - np.outer(mu, nu)).max() <= 1e-4

    def test_residual_history_nonincreasing_tail(self, rng):
        logits = rng.normal(size=(20, 7))
        mu = np.full(20, 1 / 20)
        nu = np.full(7, 1 / 7)
        plan = sinkhorn(logits, mu, nu, tau=0.05)
        # the residual after each sweep, from runs capped at that sweep
        hist = np.array([
            sinkhorn(logits, mu, nu, tau=0.05, max_iters=k).residual
            for k in range(1, plan.iterations + 1)
        ])
        assert hist[-1] == plan.residual
        # after the first few sweeps the violation contracts monotonically
        assert (np.diff(hist[2:]) <= 1e-12).all()

    def test_converged_flag(self, rng):
        logits = rng.normal(size=(16, 6))
        mu = rng.uniform(0.5, 1.5, size=16)
        mu /= mu.sum()
        nu = np.full(6, 1 / 6)
        done = sinkhorn(logits, mu, nu, tau=0.05)
        assert done.converged and done.residual <= 1e-9
        capped = sinkhorn(logits, mu, nu, tau=0.05, max_iters=2, residual_tol=1e-9)
        assert capped.iterations == 2
        assert not capped.converged and capped.residual > 1e-9

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_zero_iterations_is_config_error(self, rng, max_iters):
        logits = rng.normal(size=(7, 3))
        with pytest.raises(ConfigError, match="max_iters"):
            sinkhorn(logits, np.full(7, 1 / 7), np.full(3, 1 / 3), tau=0.5,
                     max_iters=max_iters)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_tau_is_config_error(self, tau):
        # NaN used to pass the positivity check and fail as "plan overflowed"
        logits = np.zeros((3, 2))
        with pytest.raises(ConfigError, match="must be positive and finite"):
            sinkhorn(logits, np.full(3, 1 / 3), np.full(2, 1 / 2), tau=tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits(self, rng, bad):
        logits = rng.normal(size=(5, 3))
        logits[2, 1] = bad
        with pytest.raises(NonFiniteKernel, match="logits contain non-finite entries"):
            sinkhorn(logits, np.full(5, 1 / 5), np.full(3, 1 / 3), tau=0.5)

    def test_overflowing_logits_over_tau(self):
        # finite logits whose quotient by tau overflows float64 are named as
        # such before any sweep, without a numpy warning
        logits = np.array([[1e300, 0.0], [0.0, 1e300], [0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteKernel, match=r"logits / tau overflows"):
                sinkhorn(logits, np.full(3, 1 / 3), np.full(2, 1 / 2), tau=1e-10,
                         max_iters=3)

    def test_invalid_marginals(self):
        logits = np.zeros((3, 3))
        good = np.full(3, 1 / 3)
        with pytest.raises(InvalidMarginals):
            sinkhorn(logits, np.array([0.5, 0.5, 0.5]), good, tau=1.0)
        with pytest.raises(InvalidMarginals):
            sinkhorn(logits, np.array([0.0, 0.5, 0.5]), good, tau=1.0)
        with pytest.raises(InvalidMarginals):
            sinkhorn(logits, good, np.full(4, 0.25), tau=1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_residual_below_tol(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m, t = int(rng.integers(2, 30)), int(rng.integers(2, 10))
        logits = rng.normal(scale=2.0, size=(m, t))
        mu = rng.uniform(0.2, 1.0, size=m)
        mu /= mu.sum()
        nu = rng.uniform(0.2, 1.0, size=t)
        nu /= nu.sum()
        plan = sinkhorn(logits, mu, nu, tau=0.5)
        assert plan.residual <= 1e-9
        assert (plan.plan >= 0).all()


def absorbing_case(case):
    """(logits, mu, nu, tau) of the absorbing cases of ``test_acceptance.py``:
    ``test_sinkhorn_small_tau_matches_log_reference`` and
    ``test_sinkhorn_starved_row_matches_log_reference``."""
    if case == "small_tau":
        rng = np.random.Generator(np.random.PCG64(55))
        m, t, tau = 40, 6, 0.01
        logits = rng.normal(scale=3.0, size=(m, t))
        logits[:, 0] -= 30.0
        mu = rng.uniform(0.5, 1.5, size=m)
        mu /= mu.sum()
    else:  # "starved_row"
        rng = np.random.Generator(np.random.PCG64(56))
        m, t, tau = 7, 3, 0.5
        logits = rng.normal(size=(m, t))
        mu = rng.uniform(0.5, 1.5, size=m)
        mu[0] = 0.0
        mu /= mu.sum()
        mu[0] = 1e-310
    nu = rng.uniform(0.5, 1.5, size=t)
    nu /= nu.sum()
    return logits, mu, nu, tau


class TestSinkhornFunctionForm:
    """``sinkhorn`` given a function that returns fresh logits."""

    @pytest.mark.parametrize("case", ["small_tau", "starved_row"])
    @pytest.mark.parametrize("iters", [1, 3, 20, 200])
    def test_plan_equals_array_form(self, case, iters, monkeypatch):
        logits, mu, nu, tau = absorbing_case(case)
        kernels, calls = [], []
        build = merger._kernel

        def counting_kernel(*args):
            kernels.append(1)
            return build(*args)

        def fresh():
            calls.append(1)
            return logits.copy()

        monkeypatch.setattr(merger, "_kernel", counting_kernel)
        kw = dict(tau=tau, max_iters=iters, residual_tol=0.0)
        before = logits.copy()
        want = sinkhorn(logits, mu, nu, **kw)
        assert np.array_equal(logits, before)  # the array form divides a copy
        kernels.clear()
        got = sinkhorn(fresh, mu, nu, **kw)
        assert np.array_equal(got.plan, want.plan)
        assert (got.iterations, got.residual) == (want.iterations, want.residual)
        # the first kernel and one per absorption
        assert len(calls) == len(kernels)
        assert len(kernels) > 1 or iters == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits(self, rng, bad):
        logits = rng.normal(size=(5, 3))
        logits[2, 1] = bad
        with pytest.raises(NonFiniteKernel, match="logits contain non-finite entries"):
            sinkhorn(logits.copy, np.full(5, 1 / 5), np.full(3, 1 / 3), tau=0.5)

    def test_overflowing_logits_over_tau(self):
        logits = np.array([[1e300, 0.0], [0.0, 1e300], [0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteKernel, match=r"logits / tau overflows"):
                sinkhorn(logits.copy, np.full(3, 1 / 3), np.full(2, 1 / 2), tau=1e-10)


def whole_array_rows(log_k, g):
    """The absorption's row log-sum-exp over the whole (M, T) array at once."""
    return _logsumexp_rows(log_k + g)


def whole_array_columns(log_k, f):
    """The absorption's column log-sum-exp over the whole array at once."""
    return _logsumexp_rows(log_k.T + f)


class TestSinkhornBlockedAbsorption:
    """The absorption's log-sum-exp, taken a block of rows at a time."""

    @pytest.mark.parametrize(
        "shape", [(1, 3), (5, 1), (20000, 1), (300, 2), (257, 5), (1000, 64)]
    )
    @pytest.mark.parametrize("rows", [1, 3, 64, 1 << 18])
    def test_blocks_bit_equal_to_whole_array(self, rng, shape, rows, monkeypatch):
        log_k = rng.normal(size=shape)
        # a dominant first row: the order of the small additions sets the low bits
        log_k[0] += 30.0
        log_k[rng.integers(0, shape[0], 3), rng.integers(0, shape[1], 3)] = -np.inf
        f, g = rng.normal(size=shape[0]), rng.normal(size=shape[1])
        monkeypatch.setattr(merger, "LSE_BLOCK_ENTRIES", rows * shape[1])
        with np.errstate(divide="ignore"):  # a column of -inf sums to 0
            rows_lse = merger._row_logsumexp(log_k, g)
            assert np.array_equal(rows_lse, whole_array_rows(log_k, g))
            columns_lse = merger._column_logsumexp(log_k, f)
            assert np.array_equal(columns_lse, whole_array_columns(log_k, f))

    @pytest.mark.parametrize("case", ["small_tau", "starved_row"])
    @pytest.mark.parametrize("iters", [1, 3, 20, 200])
    def test_plan_equals_whole_array_oracle(self, case, iters, monkeypatch):
        logits, mu, nu, tau = absorbing_case(case)
        kw = dict(tau=tau, max_iters=iters, residual_tol=0.0)
        with monkeypatch.context() as mp:
            mp.setattr(merger, "_row_logsumexp", whole_array_rows)
            mp.setattr(merger, "_column_logsumexp", whole_array_columns)
            want = sinkhorn(logits, mu, nu, **kw)
        n_blocks = []
        row_blocks = merger._row_blocks

        def counting_blocks(log_k):
            blocks = row_blocks(log_k)
            n_blocks.append(len(blocks))
            return blocks

        # one row per block
        monkeypatch.setattr(merger, "LSE_BLOCK_ENTRIES", 1)
        monkeypatch.setattr(merger, "_row_blocks", counting_blocks)
        got = sinkhorn(logits, mu, nu, **kw)
        assert np.array_equal(got.plan, want.plan)
        assert (got.iterations, got.residual) == (want.iterations, want.residual)
        assert n_blocks and set(n_blocks) == {logits.shape[0]}

    def test_absorption_holds_one_kernel_array(self):
        m, t = 44_662, 256
        rng = np.random.Generator(np.random.PCG64(3))
        z, w = rng.normal(size=(m, 8)), rng.normal(size=(8, t))
        mu, nu = np.full(m, 1 / m), np.full(t, 1 / t)
        calls = []

        def fresh():
            calls.append(1)
            return z @ w

        # in float64 words: the kernel (m t); three blocks of at most
        # max(LSE_BLOCK_ENTRIES, t) entries, one row more in the column form
        # (a row block's sum, shifted copy and exp); and 16 vectors of m or t
        # (marginals, potentials, scalings, products, maxima, running sums)
        block = max(merger.LSE_BLOCK_ENTRIES, t) + t
        budget = 8 * (m * t + 3 * block + 16 * (m + t))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            plan = sinkhorn(fresh, mu, nu, tau=0.001, max_iters=2)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert len(calls) > 1, "no absorption: the check measures nothing"
        assert plan.plan.shape == (m, t)
        assert peak <= budget, (peak / (8 * m * t), budget / (8 * m * t))


class TestSoftPool:
    def test_independence_plan_gives_marginal_mix(self, rng):
        s = make_tokens(rng, m=6, d=4)
        mu = np.full(6, 1 / 6)
        nu = np.full(3, 1 / 3)
        plan = sinkhorn(np.zeros((6, 3)), mu, nu, tau=1.0)
        pooled = soft_pool(plan, s)
        expected = np.outer(nu, mu @ s.feats)
        assert np.allclose(pooled.feats, expected, atol=1e-10)

    def test_one_hot_normalized_selects_rows(self, rng):
        s = make_tokens(rng, m=4, d=5)
        p = np.zeros((4, 2))
        p[0, 0] = p[1, 0] = 0.25
        p[2, 1] = p[3, 1] = 0.25
        from sfctok.merger import TransportPlan

        plan = TransportPlan(plan=p, iterations=0, residual=0.0, converged=True)
        # dividing each output row by its column marginal gives the mean
        pooled = soft_pool(plan, s).feats / p.sum(axis=0)[:, None]
        assert np.allclose(pooled[0], s.feats[:2].mean(axis=0))
        assert np.allclose(pooled[1], s.feats[2:].mean(axis=0))

    def test_mass_conservation(self, rng):
        s = make_tokens(rng, m=25, d=7)
        mu = rng.uniform(0.5, 1.5, size=25)
        mu /= mu.sum()
        nu = np.full(5, 0.2)
        plan = sinkhorn(rng.normal(size=(25, 5)), mu, nu, tau=0.05)
        pooled = soft_pool(plan, s)
        assert np.allclose(pooled.feats.sum(axis=0), mu @ s.feats, atol=1e-9)
        assert np.allclose(pooled.centers.sum(axis=0), mu @ s.centers, atol=1e-9)

    def test_plan_row_mismatch(self, rng):
        s = make_tokens(rng, m=5)
        plan = sinkhorn(np.zeros((4, 2)), np.full(4, 0.25), np.full(2, 0.5), tau=1.0)
        with pytest.raises(DimensionMismatch):
            soft_pool(plan, s)
