"""Acceptance suite: one test per release criterion, one pass/fail line each.

Each test prints "[PASS]"/"[FAIL] criterion N: ..." so a plain `pytest -s`
run doubles as the release checklist. Oracles here are independent
computations (dense DFT sums, dictionary coalescing, full sorts, non-log
Sinkhorn, brute-force kNN), never calls back into the code under test.
"""

import time

import numpy as np
from scipy.special import logsumexp

from sfctok.bench import boundary_knn_oracle, fit_loglog_slope, graph_recall
from sfctok.config import PipelineConfig
from sfctok.core import TokenMatrix, seeded_init
from sfctok.enhancer import EnhancerConfig, enhance, rfft_forward, rfft_inverse
from sfctok.gfm import GfmConfig, gfm_apply
from sfctok.graph import (
    candidate_pair_count,
    coalesce,
    rerank_topk,
    window_vote,
)
from sfctok import merger
from sfctok.io import write_token_file
from sfctok.merger import sinkhorn, smooth_features, soft_pool, spectral_embed
from sfctok.pipeline import build_vote_graph, run_pipeline
from sfctok.sfc import hilbert_encode, morton_encode, serialize_all
from sfctok.synth import make_scene
from sfctok.tokenizer import voxel_superpoints


def report(n, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {name}")
    assert ok, f"criterion {n}: {name}"


def full_grid(b):
    side = 1 << b
    axes = np.arange(side)
    return (
        np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), axis=-1)
        .reshape(-1, 3)
        .astype(np.int64)
    )


def test_criterion_1_sfc_bijectivity():
    t0 = time.perf_counter()
    ok = True
    for b in (1, 2, 3, 4):
        grid = full_grid(b)
        want = np.arange(1 << (3 * b))
        for g in (grid, grid[:, [1, 0, 2]]):  # plain and x/y-transposed curves
            morton = morton_encode(g, b)
            for keys in (morton, hilbert_encode(morton, b)):
                ok = ok and np.array_equal(np.sort(keys), want)
    for b in (1, 2, 3, 4):
        grid = full_grid(b)
        # the full grid quantizes onto itself; orders 2 and 3 are the Hilbert ones
        for perm in serialize_all(grid.astype(np.float64), b)[2:]:
            path = grid[perm]
            steps = np.abs(np.diff(path, axis=0)).sum(axis=1)
            ok = ok and (steps == 1).all()
    elapsed = time.perf_counter() - t0
    report(1, f"SFC bijectivity and Hilbert adjacency ({elapsed:.1f}s)", ok and elapsed < 10)


def test_criterion_2_enhancer_identity():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(0))
    ok = True
    for _ in range(100):
        k = int(rng.integers(1, 513))
        d = int(rng.integers(1, 65))
        tokens = TokenMatrix(
            feats=rng.normal(size=(k, d)), centers=rng.uniform(size=(k, 3))
        )
        hilbert = serialize_all(tokens.centers, b=8)[2]
        cfg = EnhancerConfig(window=64, stride=16, gate=np.ones(33), curves=(hilbert,))
        out = enhance(tokens, cfg)
        rel = np.abs(out.feats - 2 * tokens.feats).max() / max(
            np.abs(tokens.feats).max(), 1e-30
        )
        ok = ok and rel <= 1e-8
    x = rng.normal(size=257)
    ok = ok and np.abs(rfft_inverse(rfft_forward(x), n=257) - x).max() < 1e-10
    y = rng.normal(size=64)
    bins = rfft_forward(y)
    w = np.full(33, 2.0)
    w[0] = w[-1] = 1.0
    parseval = abs((w * np.abs(bins) ** 2).sum() / 64 - (y**2).sum()) / (y**2).sum()
    ok = ok and parseval <= 1e-10
    elapsed = time.perf_counter() - t0
    report(2, f"enhancer doubling, roundtrip, Parseval ({elapsed:.1f}s)", ok and elapsed < 30)


def _dict_coalesce(batch):
    """Votes per (src, dst) pair; a raw batch's records are one vote each."""
    votes = batch.votes if batch.coalesced else np.ones_like(batch.src)
    acc = {}
    for s, t, v in zip(batch.src, batch.dst, votes):
        acc[(int(s), int(t))] = acc.get((int(s), int(t)), 0) + int(v)
    return acc


def _fullsort_rerank(coalesced, centers, k):
    """Independent top-k + union symmetrization, via per-source full sorts."""
    per_src = {}
    for s, t, v in zip(coalesced.src, coalesced.dst, coalesced.votes):
        d2 = float(((centers[s] - centers[t]) ** 2).sum())
        per_src.setdefault(int(s), []).append((d2, -int(v), int(t)))
    kept = {}
    for s, cands in per_src.items():
        for d2, nv, t in sorted(cands)[:k]:
            kept[(s, t)] = max(kept.get((s, t), 0), -nv)
    out = {}
    for (s, t), v in kept.items():
        out[(s, t)] = max(out.get((s, t), 0), v)
        out[(t, s)] = max(out.get((t, s), 0), v)
    return out


def test_criterion_3_graph_oracle_equivalence():
    cfg = PipelineConfig(voxel_cell=1.0)
    recalls_4, recalls_1 = [], []
    ok = True
    for seed in range(20):
        cloud = make_scene(2000, seed=seed)
        part = voxel_superpoints(cloud, 1.0)
        curves = serialize_all(cloud.positions, b=cfg.bits)
        votes = window_vote(part.labels, curves, cfg.graph_stride, cfg.graph_window)
        co = coalesce(votes)
        ok = ok and _dict_coalesce(votes) == _dict_coalesce(co)
        g = rerank_topk(co, part.centers, cfg.graph_k)
        got = {
            (int(s), int(t)): int(v) for s, t, v in zip(g.src, g.dst, g.votes)
        }
        ok = ok and got == _fullsort_rerank(co, part.centers, cfg.graph_k)

        oracle = boundary_knn_oracle(
            cloud.positions, part.labels, part.n_superpoints, cfg.graph_k
        )
        recalls_4.append(graph_recall(g, oracle))
        votes1 = window_vote(
            part.labels, curves[:1], cfg.graph_stride, cfg.graph_window
        )
        g1 = rerank_topk(coalesce(votes1), part.centers, cfg.graph_k)
        recalls_1.append(graph_recall(g1, oracle))
    m4, m1 = float(np.mean(recalls_4)), float(np.mean(recalls_1))
    ok = ok and m4 >= m1
    report(3, f"graph oracles exact, recall 4-curve {m4:.3f} >= 1-curve {m1:.3f}", ok)


def test_criterion_4_complexity_scaling():
    t0 = time.perf_counter()
    cfg = PipelineConfig()
    ok = True
    build_sizes = [10_000, 20_000, 40_000, 80_000, 160_000]
    build_secs = []
    for n in build_sizes:
        cloud = make_scene(n, seed=0)
        part = voxel_superpoints(cloud, 0.4)
        best = np.inf
        for _ in range(3):
            s = time.perf_counter()
            build_vote_graph(cloud.positions, part.labels, part.centers, cfg)
            best = min(best, time.perf_counter() - s)
        build_secs.append(best)
        pairs = candidate_pair_count(n, cfg.graph_stride, cfg.graph_window)
        closed = 4 * (-(-n // cfg.graph_stride)) * (2 * cfg.graph_window + 1)
        ok = ok and abs(pairs - closed) / closed <= 0.02
    build_slope = fit_loglog_slope(build_sizes, build_secs)
    ok = ok and build_slope <= 1.3

    oracle_sizes = [2_000, 4_000, 8_000, 16_000]
    oracle_secs = []
    for n in oracle_sizes:
        cloud = make_scene(n, seed=0)
        # coarse cells keep points-per-superpoint high at every size, so the
        # segment reductions run at a uniform per-element cost and the
        # timing reflects the quadratic distance work
        part = voxel_superpoints(cloud, 0.8)
        best = np.inf
        for _ in range(3):
            s = time.perf_counter()
            boundary_knn_oracle(
                cloud.positions, part.labels, part.n_superpoints, cfg.graph_k
            )
            best = min(best, time.perf_counter() - s)
        oracle_secs.append(best)
    oracle_slope = fit_loglog_slope(oracle_sizes, oracle_secs)
    ok = ok and oracle_slope >= 1.8
    elapsed = time.perf_counter() - t0
    report(
        4,
        f"build slope {build_slope:.2f} <= 1.3, oracle slope {oracle_slope:.2f} >= 1.8,"
        f" candidates within 2% ({elapsed:.0f}s)",
        ok and elapsed < 300,
    )


def _log_reference_sinkhorn(logits, mu, nu, tau, iters):
    """Independent high-precision solver (potential form, log domain)."""
    log_k = np.asarray(logits, dtype=np.longdouble) / tau
    f = np.zeros(mu.shape[0], dtype=np.longdouble)
    g = np.zeros(nu.shape[0], dtype=np.longdouble)
    lmu = np.log(np.asarray(mu, dtype=np.longdouble))
    lnu = np.log(np.asarray(nu, dtype=np.longdouble))
    for _ in range(iters):
        f = lmu - logsumexp(log_k + g[None, :], axis=1)
        g = lnu - logsumexp(log_k + f[:, None], axis=0)
    return np.exp(log_k + f[:, None] + g[None, :]).astype(np.float64)


def test_criterion_5_sinkhorn():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(5))
    ok = True
    for _ in range(50):
        # moderate logit scale: unit-scale logits at tau = 0.05 produce
        # kernel contrasts near exp(160) where any solver stalls
        logits = rng.normal(scale=0.25, size=(128, 16))
        mu = rng.uniform(0.5, 1.5, size=128)
        mu /= mu.sum()
        nu = np.full(16, 1 / 16)
        plan = sinkhorn(logits, mu, nu, tau=0.05, max_iters=500, residual_tol=1e-9)
        ok = ok and plan.residual <= 1e-8
        ref = _log_reference_sinkhorn(logits, mu, nu, 0.05, plan.iterations)
        ok = ok and np.abs(plan.plan - ref).max() <= 1e-7
        # fixed iteration count so both runs stop at the same sweep
        base = sinkhorn(logits, mu, nu, tau=0.05, max_iters=60, residual_tol=0.0)
        shifted = sinkhorn(
            logits + 42.0, mu, nu, tau=0.05, max_iters=60, residual_tol=0.0
        )
        ok = ok and np.abs(base.plan - shifted.plan).max() <= 1e-10
        wide = sinkhorn(logits, mu, nu, tau=1e6, max_iters=500, residual_tol=1e-9)
        ok = ok and np.abs(wide.plan - np.outer(mu, nu)).max() <= 1e-4
    elapsed = time.perf_counter() - t0
    report(5, f"Sinkhorn residual, oracle, shift, wide-tau ({elapsed:.1f}s)", ok and elapsed < 60)


def test_sinkhorn_small_tau_matches_log_reference():
    # exp(logits / tau) overflows, and column 0 lies > 745 nats under every
    # row maximum, so it underflows to zero in the row-shifted kernel: plain
    # scaling cannot represent this plan without log-domain absorption
    rng = np.random.Generator(np.random.PCG64(55))
    m, t, tau = 40, 6, 0.01
    logits = rng.normal(scale=3.0, size=(m, t))
    logits[:, 0] -= 30.0
    log_k = logits / tau
    assert log_k.max() > 710
    assert (log_k[:, 0] - log_k.max(axis=1)).max() < -745
    mu = rng.uniform(0.5, 1.5, size=m)
    mu /= mu.sum()
    nu = rng.uniform(0.5, 1.5, size=t)
    nu /= nu.sum()
    for iters in (1, 3, 20, 200):
        plan = sinkhorn(logits, mu, nu, tau=tau, max_iters=iters, residual_tol=0.0)
        ref = _log_reference_sinkhorn(logits, mu, nu, tau, iters)
        assert plan.iterations == iters
        assert np.isfinite(plan.plan).all()
        assert np.abs(plan.plan - ref).max() <= 1e-7


def test_sinkhorn_starved_row_matches_log_reference(monkeypatch):
    # a subnormal row marginal: once the row is scaled to its mass, its
    # kernel product K v falls below the smallest normal float, so every
    # later row update has a starved row to take in the log domain
    starved = []
    needs_absorb = merger._needs_absorb

    def spy(scale, prod):
        if prod.shape[0] == m:
            starved.append(int((~(prod >= np.finfo(np.float64).tiny)).sum()))
        return needs_absorb(scale, prod)

    monkeypatch.setattr(merger, "_needs_absorb", spy)
    rng = np.random.Generator(np.random.PCG64(56))
    m, t, tau = 7, 3, 0.5
    logits = rng.normal(size=(m, t))
    mu = rng.uniform(0.5, 1.5, size=m)
    mu[0] = 0.0
    mu /= mu.sum()
    mu[0] = 1e-310
    nu = rng.uniform(0.5, 1.5, size=t)
    nu /= nu.sum()
    for iters in (1, 3, 20, 200):
        starved.clear()
        plan = sinkhorn(logits, mu, nu, tau=tau, max_iters=iters, residual_tol=0.0)
        ref = _log_reference_sinkhorn(logits, mu, nu, tau, iters)
        assert starved.count(1) == iters - 1
        assert np.isfinite(plan.plan).all()
        assert np.abs(plan.plan - ref).max() <= 1e-7
        # the starved row's own mass, which the absolute check cannot see
        assert abs(plan.plan[0].sum() / ref[0].sum() - 1.0) <= 1e-9


def test_criterion_6_mass_conservation():
    rng = np.random.Generator(np.random.PCG64(6))
    ok = True
    for _ in range(20):
        m, t, d = int(rng.integers(20, 200)), int(rng.integers(2, 16)), 8
        tokens = TokenMatrix(
            feats=rng.normal(size=(m, d)), centers=rng.uniform(size=(m, 3))
        )
        mu = rng.uniform(0.5, 1.5, size=m)
        mu /= mu.sum()
        nu = np.full(t, 1.0 / t)
        plan = sinkhorn(
            rng.normal(size=(m, t)), mu, nu, tau=0.05,
            max_iters=2000, residual_tol=1e-12,
        )
        pooled = soft_pool(plan, tokens)
        want = mu @ tokens.feats
        rel = np.abs(pooled.feats.sum(axis=0) - want).max() / max(
            np.abs(want).max(), 1e-30
        )
        ok = ok and rel <= 1e-9
    report(6, "soft-pool mass conservation 1'Z' = mu'S", ok)


def test_criterion_7_spectral_stage():
    rng = np.random.Generator(np.random.PCG64(7))
    ok = True
    for _ in range(10):
        m, d = int(rng.integers(10, 512)), int(rng.integers(8, 64))
        r = min(8, m, d)
        y = rng.normal(size=(m, d))
        emb = spectral_embed(y, r)
        s_true = np.linalg.svd(y, compute_uv=False)[:r]
        ok = ok and np.abs(emb.singular_values - s_true).max() / s_true[0] <= 1e-8
        ok = ok and np.abs(emb.u.T @ emb.u - np.eye(r)).max() <= 1e-8
    const = TokenMatrix(
        feats=np.full((40, 16), 3.7), centers=rng.uniform(size=(40, 3))
    )
    y0 = smooth_features(np.eye(40), const)
    emb0 = spectral_embed(y0, 4)
    ok = ok and np.abs(emb0.z_emb).max() <= 1e-10
    report(7, "truncated SVD vs dense oracle, orthogonality, constant input", ok)


def _naive_dft_filter(row, gains):
    n = row.shape[0]
    t_idx = np.arange(n)
    bins = np.array(
        [(row * np.exp(-2j * np.pi * f * t_idx / n)).sum() for f in range(n // 2 + 1)]
    )
    bins *= gains
    full = np.concatenate([bins, np.conj(bins[1 : (n + 1) // 2][::-1])])
    out = np.array(
        [(full * np.exp(2j * np.pi * np.arange(n) * t / n)).sum() / n for t in range(n)]
    )
    return out.real


def test_criterion_8_gfm():
    rng = np.random.Generator(np.random.PCG64(8))
    ok = True
    z = rng.normal(size=(8, 64))
    out = gfm_apply(z, GfmConfig.identity(64, heads=4))
    ok = ok and np.array_equal(out, z)

    d = 16
    gains = rng.uniform(0.0, 2.0, size=d // 2 + 1)
    cfg = GfmConfig(width=d, heads=1, filters=gains[None, :])
    for row in rng.normal(size=(4, d)):
        got = gfm_apply(row[None, :], cfg)[0]
        want = 0.5 * (row + _naive_dft_filter(row, gains))
        ok = ok and np.abs(got - want).max() <= 1e-9

    widths = [256, 512, 1024, 2048, 4096]
    secs = []
    for w in widths:
        zw = rng.normal(size=(256, w))
        # non-unit gains force the transform path (unit gains short-circuit)
        head_bins = (w // 4) // 2 + 1
        cfgw = GfmConfig(width=w, heads=4,
                         filters=rng.uniform(0.1, 0.9, size=(4, head_bins)))
        gfm_apply(zw, cfgw)  # warm up
        best = np.inf
        for _ in range(5):
            s = time.perf_counter()
            gfm_apply(zw, cfgw)
            best = min(best, time.perf_counter() - s)
        secs.append(best)
    slope = fit_loglog_slope(widths, secs)
    ok = ok and slope < 1.3
    report(8, f"identity exact, DFT oracle, width slope {slope:.2f} < 1.3", ok)


def test_criterion_9_end_to_end(tmp_path):
    t0 = time.perf_counter()
    cloud = make_scene(50_000, seed=0)
    cfg = PipelineConfig()
    a = run_pipeline(cloud, cfg)
    b = run_pipeline(cloud, cfg)
    elapsed = time.perf_counter() - t0
    ok = a.tokens.n_tokens == 256 and a.tokens.width == 256
    pa, pb = tmp_path / "a.tok", tmp_path / "b.tok"
    write_token_file(pa, a.tokens)
    write_token_file(pb, b.tokens)
    ok = ok and pa.read_bytes() == pb.read_bytes()
    ok = ok and elapsed / 2 < 30
    report(9, f"end-to-end 50k -> 256x256 tokens, byte-identical ({elapsed / 2:.1f}s/run)", ok)
