"""Merging M enhanced tokens into T via spectral embedding and entropic OT.

Features are smoothed over the normalized vote graph, embedded by a
truncated SVD, projected to cluster logits, and softly assigned to T
output tokens by entropic optimal transport with importance-score row
marginals. The transport solver is Sinkhorn matrix scaling (two
matrix-vector products per sweep) on a row-shifted kernel, kept stable at
small temperatures by log-domain absorption of the scalings into the
potentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededWeights, TokenMatrix
from .errors import (
    ConfigError,
    DimensionMismatch,
    InvalidMarginals,
    NonFiniteKernel,
    RankTooLarge,
)


@dataclass(frozen=True)
class SpectralEmbedding:
    z_emb: np.ndarray  # (M, r) = U_r Sigma_r
    singular_values: np.ndarray  # (r,) nonincreasing
    # sigma_{r+1}, 0 when there is none: exact on the dense branch, the
    # largest Ritz value left out on the randomized one
    next_singular_value: float


@dataclass(frozen=True)
class TransportPlan:
    plan: np.ndarray  # (M, T), nonnegative
    iterations: int
    residual: float
    converged: bool  # residual <= the solver's residual_tol


# Entries per block of a blocked pass over rows: 256 rows at d = T = 256, so
# each block temporary takes 512 kB.
BLOCK_ENTRIES = 1 << 16


def _row_blocks(rows, width):
    """(lo, hi) bounds of consecutive blocks of ``rows`` rows of ``width``
    entries, each of about ``BLOCK_ENTRIES`` entries and at least one row."""
    step = max(1, BLOCK_ENTRIES // max(1, width))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def smooth_features(a_hat, tokens: TokenMatrix):
    """Y = A_hat (S - 1 mu^T) = A_hat S - (A_hat 1) mu^T, mu the column means of S.

    One product A_hat S over all d columns becomes the output, and the
    rank-one centering term is subtracted from it in place, one block of
    ``_row_blocks`` at a time. Besides the output the function holds
    O(M + d) and one block: no centered copy of S.
    """
    feats = tokens.feats
    if a_hat.shape[0] != feats.shape[0]:
        raise DimensionMismatch(
            f"adjacency {a_hat.shape} vs {feats.shape[0]} tokens"
        )
    ones = np.ones(feats.shape[0])
    mean = (ones @ feats) / feats.shape[0]
    row_sums = a_hat @ ones
    out = a_hat @ feats
    for lo, hi in _row_blocks(*out.shape):
        out[lo:hi] -= np.multiply.outer(row_sums[lo:hi], mean)
    return out


def _fix_signs(u):
    """Flip singular vectors so each u column's largest-|entry| is positive.

    Flips the columns of ``u`` in place and returns it. The magnitudes are
    taken into a transposed buffer, so the argmax needs no transposed copy.
    """
    idx = np.argmax(np.abs(u.T, out=np.empty(u.shape[::-1])), axis=1)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u *= signs
    return u


# Inputs up to this many rows take the exact SVD; taller ones the randomized one.
DENSE_SVD_ROWS = 512


def spectral_embed(y, r, seed=0) -> SpectralEmbedding:
    """Truncated SVD embedding Z_emb = U_r Sigma_r of the smoothed features.

    Dense SVD for up to ``DENSE_SVD_ROWS`` rows. Above that, randomized
    subspace iteration (Halko, Martinsson and Tropp 2011, sections 4.5 and
    5.1; 2 power iterations, oversampling 8): the Ritz vectors of Y on the
    span of Y G^2 P, with G = Y^T Y and P a seeded Gaussian probe, computed
    in d-space by ``_randomized_svd``. Each branch gives an (M, r) basis
    U_r; its signs are fixed, so the embedding is deterministic, and it is
    then scaled by Sigma_r in place. A caller that needs U_r divides the
    columns of ``z_emb`` with a nonzero singular value by it.

    ``next_singular_value`` is sigma_{r+1}: from the full SVD on the dense
    branch; on the randomized one a Ritz estimate, the largest Ritz value
    left out (the Ritz problem has r + 8 values).
    """
    y = np.asarray(y, dtype=np.float64)
    m, d = y.shape
    if r > min(m, d):
        raise RankTooLarge(f"rank {r} > min{(m, d)}")
    if m <= DENSE_SVD_ROWS:
        u, s, _ = np.linalg.svd(y, full_matrices=False)
        s_next = float(s[r]) if s.shape[0] > r else 0.0
        basis, s = u[:, :r].copy(), s[:r]
    else:
        basis, s, s_next = _randomized_svd(y, r, seed)
    z_emb = _fix_signs(basis)
    z_emb *= s
    return SpectralEmbedding(z_emb=z_emb, singular_values=s, next_singular_value=s_next)


def _randomized_svd(y, r, seed):
    """(U_r, Sigma_r, sigma_{r+1}) of ``spectral_embed``'s randomized branch.

    It works on G = Y^T Y, so Y is read twice: for G and for U. W <- qr(G W)
    from W = P twice spans G^2 P. With W^T G W = V Lambda V^T, the basis
    Q = Y W V Lambda^(-1/2) is orthonormal, Q^T Y = Lambda^(-1/2) V^T (G W)^T
    has the SVD U_B Sigma V_B^T, and U = Q U_B = Y (W V Lambda^(-1/2) U_B).

    A length-M sum rounds within M eps of the sum of its terms' magnitudes,
    so ||dG|| <= M eps trace(G) (Higham 2002, section 3.1). Eigenvalues
    below max(M, d) eps trace(G) are rounding: their directions are dropped,
    their singular values reported as 0 and their columns of U left 0 (all
    of them for a zero Y). U's columns are orthogonal only to about
    eps sigma_1^2 / (sigma_j sigma_k); scaled by Sigma they are orthogonal to
    G's rounding, which is all the embedding needs.

    Besides ``y`` it holds G, O(d (r + 8)) and U.
    """
    m, d = y.shape
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.standard_normal((d, min(d, r + 8)))
    g = y.T @ y
    for _ in range(2):
        w, _ = np.linalg.qr(g @ w)
    gw = g @ w
    lam, v = np.linalg.eigh(w.T @ gw)
    keep = lam > max(m, d) * np.finfo(np.float64).eps * np.trace(g)
    scale = v[:, keep] / np.sqrt(lam[keep])
    u_b, s_b, _ = np.linalg.svd(scale.T @ gw.T, full_matrices=False)
    k = min(r, s_b.shape[0])
    s = np.zeros(r)
    s[:k] = s_b[:k]
    coef = np.zeros((d, r))
    coef[:, :k] = w @ (scale @ u_b[:, :k])
    s_next = float(s_b[r]) if s_b.shape[0] > r else 0.0
    return y @ coef, s, s_next


def importance_scores(tokens: TokenMatrix, weights: SeededWeights):
    """Per-token scalar from the importance MLP, softmaxed onto the simplex."""
    from .tokenizer import mlp_project

    if not weights.shapes or weights.shapes[-1][1] != 1:
        raise DimensionMismatch(
            f"importance MLP layer shapes {list(weights.shapes)} must end in fan-out 1"
        )
    raw = mlp_project(tokens.feats, weights)[:, 0]
    raw = raw - raw.max()
    e = np.exp(raw)
    return e / e.sum()


def project_logits(z_emb, w_proj: SeededWeights):
    """Plain matrix product Z_emb @ W (the projection carries no bias)."""
    if w_proj.n_layers != 1:
        raise DimensionMismatch(
            f"projection has {w_proj.n_layers} layers; it must have exactly one"
        )
    w, _ = w_proj.layer(0)
    if z_emb.shape[1] != w.shape[0]:
        raise DimensionMismatch(
            f"embedding width {z_emb.shape[1]} != projection fan-in {w.shape[0]}"
        )
    return z_emb @ w


def sinkhorn(
    logits,
    mu,
    nu,
    tau,
    max_iters=500,
    residual_tol=1e-9,
) -> TransportPlan:
    """Sinkhorn scaling of the kernel exp(logits / tau) to marginals mu, nu.

    ``logits`` is an (M, T) array, or a function of no arguments that
    returns a fresh float64 (M, T) logits array each time it is called. The
    solver divides that array by tau in place and builds its kernel over
    it, so a caller that passes a function holds no logits of its own. The
    function is called once, then again only on each absorption (below) and
    on the error path, to tell non-finite logits from a ``logits / tau``
    that overflows. An array is copied once.

    Higher logit means more affinity (the cost is -logits). The plan is
    ``u K v`` with ``K = exp(logits / tau + f + g)``: the kernel is formed
    once, shifted per row so every row peaks at 1, with the shift held in
    the row potential ``f``. Each sweep is two matrix-vector products,
    ``u = mu / (K v)`` then ``v = nu / (K^T u)``; the row violation comes
    from the ``K v`` the next sweep needs anyway, and the plan is formed once
    when the sweeps stop.

    Stabilization stays in the same loop (log-domain absorption, Schmitzer
    2019): when a scaling leaves ``exp(+-200)`` or a product ``K v``
    / ``K^T u`` has a zero, subnormal or non-finite entry, the other side's
    scaling moves into its potential, this side takes the log-domain update
    ``f = log mu - LSE_j(logits / tau + g)`` (or
    ``g = log nu - LSE_i(logits / tau + f)``, over blocks of the kernel's rows),
    and ``K`` is rebuilt from fresh logits. Mathematically every sweep
    equals those two updates. Besides the caller's logits, the solver holds
    one (M, T) array, the sum's blocks and O(M + T).

    Sweeps stop when the worst marginal violation drops to ``residual_tol``
    or after ``max_iters`` (at least 1); ``converged`` reports which.
    """
    fresh = logits if callable(logits) else lambda: np.array(logits, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if not (np.isfinite(tau) and tau > 0):
        raise ConfigError(f"tau={tau} must be positive and finite")
    if max_iters < 1:
        raise ConfigError(f"max_iters={max_iters} must be >= 1")
    k = _log_kernel(fresh, tau)
    if not _all_finite(k):
        if not np.isfinite(fresh()).all():
            raise NonFiniteKernel("logits contain non-finite entries")
        raise NonFiniteKernel(f"logits / tau overflows float64 at tau={tau}")
    for name, marg, size in (("mu", mu, k.shape[0]), ("nu", nu, k.shape[1])):
        if marg.shape != (size,) or (marg <= 0).any() or abs(marg.sum() - 1.0) > 1e-8:
            raise InvalidMarginals(f"{name} must be a positive simplex vector")

    f = -k.max(axis=1)
    g = np.zeros(nu.shape[0])
    k, u, v = _kernel(k, f, g)
    kv = k @ v

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iterations in range(1, max_iters + 1):
            u = mu / kv
            if _needs_absorb(u, kv):
                g += np.log(v)
                del k  # rebuilt from fresh logits
                log_k = _log_kernel(fresh, tau)
                f = np.log(mu) - _row_logsumexp(log_k, g)
                k, u, v = _kernel(log_k, f, g)
            ktu = k.T @ u
            v = nu / ktu
            if _needs_absorb(v, ktu):
                f += np.log(u)
                del k
                log_k = _log_kernel(fresh, tau)
                g = np.log(nu) - _column_logsumexp(log_k, f)
                k, u, v = _kernel(log_k, f, g)
                ktu = k.T @ u
            kv = k @ v
            residual = max(np.abs(u * kv - mu).max(), np.abs(v * ktu - nu).max())
            if residual <= residual_tol:
                break
    plan = k
    plan *= u[:, None]
    plan *= v[None, :]
    if not _all_finite(plan):
        raise NonFiniteKernel("transport plan overflowed")
    return TransportPlan(
        plan=plan,
        iterations=iterations,
        residual=float(residual),
        converged=bool(residual <= residual_tol),
    )


def _all_finite(a):
    """``np.isfinite(a).all()`` without an ``a``-sized mask: min and max
    propagate NaN, and an empty ``a`` reads as 0."""
    return bool(np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)))


def _log_kernel(fresh, tau):
    """logits / tau, divided in place over the array ``fresh()`` returns."""
    log_k = np.asarray(fresh(), dtype=np.float64)
    with np.errstate(over="ignore"):
        log_k /= tau
    return log_k


# Between absorptions the scalings stay within exp(+-_ABSORB_NATS) of 1, so a
# kernel entry that underflowed (< exp(-745)) stands for a plan entry below
# exp(2 * _ABSORB_NATS - 745) = exp(-345): far under float64 resolution.
_ABSORB_NATS = 200.0
_SCALE_LO = np.exp(-_ABSORB_NATS)
_SCALE_HI = np.exp(_ABSORB_NATS)
_TINY = np.finfo(np.float64).tiny


def _needs_absorb(scale, prod):
    """True when a scaling left exp(+-_ABSORB_NATS) or its product starved."""
    return not (
        ((scale >= _SCALE_LO) & (scale <= _SCALE_HI)).all() and (prod >= _TINY).all()
    )


def _kernel(log_k, f, g):
    """``(K, u, v)``: the kernel exp(log_k + f_i + g_j), built in place over
    ``log_k``, and unit scalings."""
    log_k += f[:, None]
    if g.any():  # g is 0 for the first kernel: skip that pass over (M, T)
        log_k += g
    np.exp(log_k, out=log_k)
    return log_k, np.ones(f.shape[0]), np.ones(g.shape[0])


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)), each row shifted by its finite maximum."""
    top = a.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    return np.log(np.exp(a - top[:, None]).sum(axis=1)) + top


def _row_logsumexp(log_k, g):
    """``_logsumexp_rows(log_k + g)``, a block of rows at a time. Each row is
    whole in its block, so the result has the whole-array form's bits."""
    out = np.empty(log_k.shape[0])
    for lo, hi in _row_blocks(*log_k.shape):
        out[lo:hi] = _logsumexp_rows(log_k[lo:hi] + g)
    return out


def _column_logsumexp(log_k, f):
    """``_logsumexp_rows(log_k.T + f)``, over blocks of ``log_k``'s rows.

    The whole-array form sums a (T, M) array laid out as ``log_k``, which
    numpy does entry after entry along M when T > 1. So a first pass takes
    each column's maximum (exact in any order), and a second adds each
    block's exp onto the running sums, carried in as the block's first row:
    the same additions in the same order, so the result has the whole-array
    form's bits. At T = 1 numpy sums the one row pairwise, so that case
    takes the whole-array form, an O(M) array.
    """
    t = log_k.shape[1]
    if t == 1:
        return _logsumexp_rows(log_k.T + f)
    blocks = _row_blocks(*log_k.shape)
    top = np.full(t, -np.inf)
    for lo, hi in blocks:
        np.maximum(top, (log_k[lo:hi] + f[lo:hi, None]).max(axis=0), out=top)
    top[~np.isfinite(top)] = 0.0
    total = np.zeros(t)
    work = np.empty((blocks[0][1] + 1, t))
    for lo, hi in blocks:
        block = work[: hi - lo + 1]
        block[0] = total
        np.add(log_k[lo:hi], f[lo:hi, None], out=block[1:])
        block[1:] -= top
        np.exp(block[1:], out=block[1:])
        np.add.reduce(block, axis=0, out=total)
    return np.log(total) + top


def soft_pool(plan: TransportPlan, tokens: TokenMatrix) -> TokenMatrix:
    """Merged tokens Z' = P^T S and centers C' = P^T C."""
    p = plan.plan
    if p.shape[0] != tokens.n_tokens:
        raise DimensionMismatch(f"plan {p.shape} vs {tokens.n_tokens} tokens")
    feats = p.T @ tokens.feats
    centers = p.T @ tokens.centers
    return TokenMatrix(feats=feats, centers=centers)
