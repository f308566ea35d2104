"""The benchmark workloads: their inputs, one operation each, and checks.

Every workload is a closed loop with one client in one process: the next
scene or request starts only after the previous one has finished.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import sfctok.core
import sfctok.gfm
import sfctok.io
import sfctok.pipeline
from sfctok.config import PipelineConfig

import scenes
from tracing import Tracer

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Reference outputs are float64 throughout; BLAS thread count and summation
# order move them by far less than this share of their scale.
REFERENCE_RTOL = 1e-8
SERVE_FILES = 128  # distinct request files written before timing
CHECK = -1  # index of the fixed check input
CHECK_SEED = 0
CHECK_POINTS = 5000  # scene workloads: keeps the check op and rerun ~1 s
SERVE_LABEL_CELL = 0.65  # voxel side of the external labels: ~430 per 4k points
SERVE_GFM_HEADS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_points: int
    config: dict = field(default_factory=dict)  # PipelineConfig overrides
    serve: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-50k",
            "default config users get; superpoint layers (enhancer, sinkhorn, "
            "randomized SVD) do most of the work at M~0.89N",
            50_000,
        ),
        Workload(
            "coarse-200k",
            "200k points in coarse voxels (M~11k); point-level tokenizer, sfc "
            "and graph layers dominate",
            200_000,
            {"sample_n": 200_000, "voxel_cell": 0.2},
        ),
        Workload(
            "serve-4k",
            "stream of 4k-point PLY+label requests; per-call fixed costs, I/O, "
            "dense SVD, a real low-pass gate and gfm",
            4_000,
            {"tokens": 64, "k_low": 8},
            serve=True,
        ),
    )
}


@dataclass
class Setup:
    cfg: PipelineConfig
    weights: object = None  # PipelineWeights reused across scenes
    gfm: object = None  # GfmConfig for serve requests


def gfm_config(width, heads):
    """Fixed non-unit per-head gains: head h low-passes with scale 2h+2."""
    bins = (width // heads) // 2 + 1
    k = np.arange(bins)[None, :]
    h = np.arange(heads)[:, None]
    return sfctok.gfm.GfmConfig(
        width=width, heads=heads, filters=1.0 / (1.0 + (k / (2.0 * h + 2.0)) ** 2)
    )


def setup(workload: Workload) -> Setup:
    """What a user builds once before the first scene or request.

    setup_s times this (plus the imports) in fresh processes; set-up work a
    later change adds, such as caches or pools, belongs here.
    """
    cfg = PipelineConfig(**workload.config)
    if workload.serve:
        # requests build their weights per call: that cost is measured there
        return Setup(cfg=cfg, gfm=gfm_config(cfg.width, SERVE_GFM_HEADS))
    weights = sfctok.pipeline.PipelineWeights.from_seed(
        cfg.seed, 3, cfg.width, cfg.svd_rank, cfg.tokens
    )
    return Setup(cfg=cfg, weights=weights)


@dataclass
class Outcome:
    latency_s: float  # whole operation
    pipeline_s: float  # run_pipeline only: PointCloud in, TokenMatrix out
    n_points: int
    tokens: object  # TokenMatrix as delivered (after gfm for serve)
    result: object  # PipelineResult
    token_path: str


class Runner:
    """Holds one workload's set-up state and inputs and runs single ops.

    Input ``i >= 0`` is drawn from ``[seed, i]``. Input ``CHECK`` is the same
    for every seed: the untimed first op and its rerun use it, so the
    reference comparison and the residual metric do not depend on --seed.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.state = setup(workload)
        self._clouds = {}
        if workload.serve:
            for i in [CHECK] + list(range(SERVE_FILES)):
                self._write_request(i)

    # -- inputs --------------------------------------------------------------

    def _input(self, i):
        """(point count, generator seed) of input i."""
        if i == CHECK:
            n = self.workload.n_points if self.workload.serve else CHECK_POINTS
            return n, [CHECK_SEED, 10**6]
        return self.workload.n_points, [self.seed, i]

    def _paths(self, i):
        stem = os.path.join(self.work_dir, "check" if i == CHECK else f"req{i % SERVE_FILES:04d}")
        return stem + ".ply", stem + ".labels", stem + ".tok"

    def _write_request(self, i):
        ply, lab, _ = self._paths(i)
        n, seed = self._input(i)
        pos, feats = scenes.make_scene(n, seed)
        scenes.write_ply(ply, pos, feats)
        scenes.write_labels(lab, scenes.segment_labels(pos, SERVE_LABEL_CELL, seed))

    def prepare(self, i):
        """Make input i ready outside any timing; keeps the check input."""
        if self.workload.serve or i in self._clouds:
            return
        self._clouds = {k: v for k, v in self._clouds.items() if k == CHECK}
        n, seed = self._input(i)
        pos, feats = scenes.make_scene(n, seed)
        self._clouds[i] = sfctok.core.PointCloud(positions=pos, features=feats)

    # -- one operation ---------------------------------------------------------

    def op(self, i, tag="") -> Outcome:
        if self.workload.serve:
            return self._request(i, tag)
        cloud = self._clouds[i]
        t0 = time.perf_counter()
        result = sfctok.pipeline.run_pipeline(cloud, self.state.cfg, weights=self.state.weights)
        t1 = time.perf_counter()
        return Outcome(t1 - t0, t1 - t0, cloud.n_points, result.tokens, result, "")

    def _request(self, i, tag):
        ply, lab, tok = self._paths(i)
        tok = tok + tag
        io, core, pipeline = sfctok.io, sfctok.core, sfctok.pipeline
        t0 = time.perf_counter()
        cloud = io.load_ply(ply)
        labels = io.load_labels(lab, cloud.n_points)
        part = core.build_partition(labels, cloud.positions)
        p0 = time.perf_counter()
        result = pipeline.run_pipeline(cloud, self.state.cfg, partition=part)
        p1 = time.perf_counter()
        feats = sfctok.gfm.gfm_apply(result.tokens.feats, self.state.gfm)
        tokens = core.TokenMatrix(feats=feats, centers=result.tokens.centers)
        io.write_token_file(tok, tokens)
        t1 = time.perf_counter()
        return Outcome(t1 - t0, p1 - p0, cloud.n_points, tokens, result, tok)

    # -- checks ------------------------------------------------------------------

    def check(self, out: Outcome):
        """Problems with one op's output; an empty list means it passed."""
        cfg = self.state.cfg
        feats, centers = np.asarray(out.tokens.feats), np.asarray(out.tokens.centers)
        problems = []
        if feats.shape != (cfg.tokens, cfg.width):
            problems.append(f"feats shape {feats.shape} != {(cfg.tokens, cfg.width)}")
        if centers.shape != (cfg.tokens, 3):
            problems.append(f"centers shape {centers.shape} != {(cfg.tokens, 3)}")
        if not (np.isfinite(feats).all() and np.isfinite(centers).all()):
            problems.append("non-finite tokens")
        if out.token_path:
            size = os.path.getsize(out.token_path)
            expected = 14 + 8 * cfg.tokens * (cfg.width + 3) + 4
            if size != expected:
                problems.append(f"token file {size} bytes != {expected}")
        return problems

    def token_bytes(self, out: Outcome):
        """The token file for this op's output, as bytes."""
        path = out.token_path
        if not path:
            path = os.path.join(self.work_dir, "scene.tok")
            sfctok.io.write_token_file(path, out.tokens)
        with open(path, "rb") as fh:
            return fh.read()


# -- reference outputs ---------------------------------------------------------


def signature(out: Outcome):
    """Compact fingerprint of an output: exact counts plus float64 values.

    Features enter through a fixed random projection to 4 columns, which
    any change to a feature value moves.
    """
    feats = np.asarray(out.tokens.feats, dtype=np.float64)
    proj = np.random.Generator(np.random.PCG64(20260)).standard_normal((feats.shape[1], 4))
    r = out.result
    return {
        "n_superpoints": int(r.n_superpoints),
        "vote_count": int(r.vote_count),
        "edge_count": int(r.edge_count),
        "sinkhorn_iterations": int(r.sinkhorn_iterations),
        "sinkhorn_residual": float(r.sinkhorn_residual),
        "feats_proj": (feats @ proj).tolist(),
        "centers": np.asarray(out.tokens.centers, dtype=np.float64).tolist(),
    }


def compare_signature(sig, ref):
    problems = []
    for key, want in ref.items():
        got = sig.get(key)
        if isinstance(want, int):
            if got != want:
                problems.append(f"{key} {got} != reference {want}")
            continue
        a, b = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
        if a.shape != b.shape:
            problems.append(f"{key} shape {a.shape} != reference {b.shape}")
            continue
        tol = REFERENCE_RTOL * max(1.0, float(np.abs(b).max(initial=0.0)))
        err = float(np.abs(a - b).max(initial=0.0))
        if not err <= tol:
            problems.append(f"{key} differs from reference by {err:.3e} > {tol:.3e}")
    return problems


def load_reference(name):
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh).get(name)
    except FileNotFoundError:
        return None


# -- the timed loop -------------------------------------------------------------


def _percentile_tail(values):
    """(value, percentile, n): the highest rank with >= 10 samples above it."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def _run_guarded(runner, i, tag, log, tracer=None):
    """One op; returns (Outcome or None, problems). Exceptions are failures."""
    try:
        if tracer is None:
            out = runner.op(i, tag)
        else:
            tracer.begin_op()
            tracer.install()
            try:
                out = runner.op(i, tag)
            finally:
                tracer.uninstall()
    except Exception:  # the loop must keep going; the failure is counted
        log(f"op {i}{tag} raised:\n{traceback.format_exc()}")
        return None, ["exception"]
    return out, runner.check(out)


def run(workload: Workload, seed, seconds, trace, work_dir, log, reference=None):
    """Run the closed loop for at least ``seconds`` and summarize it.

    Ops start while less than ``seconds`` have passed, so every run times at
    least one op and finishes the op in flight. ``reference`` is the stored
    signature of the check input's output; None skips that comparison.
    """
    runner = Runner(workload, seed, work_dir)
    tracer = Tracer() if trace else None
    attempted = failed = 0

    def fail(what, problems):
        nonlocal failed
        failed += 1
        log(f"{what}: " + "; ".join(problems))

    # Untimed check op on the fixed input: lazy library set-up finishes here,
    # and the output is compared with the stored reference.
    runner.prepare(CHECK)
    attempted += 1
    check_out, problems = _run_guarded(runner, CHECK, ".check", log)
    if check_out is not None and reference is not None:
        problems += compare_signature(signature(check_out), reference)
    check_bytes = runner.token_bytes(check_out) if check_out is not None else None
    if problems:
        fail("check op", problems)

    outcomes, traced = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        runner.prepare(i)
        # traced runs execute each input twice, alternating which goes first;
        # the untraced twin gives the tracing overhead and a rerun check
        order = [None]
        if trace:
            order = [None, tracer] if i % 2 == 0 else [tracer, None]
        pair = []
        for t in order:
            attempted += 1
            out, problems = _run_guarded(runner, i, "" if t is None else ".traced", log, t)
            if problems:
                fail(f"op {i}", problems)
                continue
            (outcomes if t is None else traced).append(out)
            if trace:
                pair.append(runner.token_bytes(out))
        if len(pair) == 2 and pair[0] != pair[1]:
            fail(f"op {i}", ["traced and untraced token files differ"])
        i += 1

    # An untimed rerun of the check input must give a byte-identical file.
    attempted += 1
    out, problems = _run_guarded(runner, CHECK, ".rerun", log)
    if out is not None and runner.token_bytes(out) != check_bytes:
        problems.append("rerun token file differs from the check op's")
    if problems:
        fail("rerun of check op", problems)

    if trace:
        for msg in tracer.count_errors:
            fail("exact count", [msg])
    if not outcomes:
        return None
    lat = [o.latency_s for o in outcomes]
    tail, tail_pct, n = _percentile_tail(lat)
    residual_src = check_out if check_out is not None else max(
        outcomes, key=lambda o: o.result.sinkhorn_residual
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "ops": n,
        "tail_percentile": tail_pct,
        "tracer": tracer,
        "traced_outcomes": traced,
        "e2e": {
            "scene_s": statistics.median(o.pipeline_s for o in outcomes),
            "points_per_s": sum(o.n_points for o in outcomes) / sum(lat),
            "request_p50_ms": 1000.0 * statistics.median(lat),
            "request_tail_ms": 1000.0 * tail,
            "requests_per_s": n / sum(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "transport_residual": residual_src.result.sinkhorn_residual,
            "failed_frac": failed / attempted,
        },
    }
