"""In-memory span tracer over sfctok's public functions.

``Tracer.install`` replaces module attributes (``sfctok.graph.coalesce`` and
so on) with timing wrappers and ``Tracer.uninstall`` puts the originals
back, so only the traced operations of a traced run pay for it. Calls made
through a module's globals, such as ``tokenizer.point_tokens`` calling
``mlp_project``, see the wrappers too because globals are looked up at call
time.

A span is ``[op, name, start, end, parent]``; ``op`` numbers the scene or
request the span belongs to and ``parent`` indexes the enclosing span (-1 at
the top). Counts are recorded per op at the same boundaries.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import sfctok.core
import sfctok.enhancer
import sfctok.gfm
import sfctok.graph
import sfctok.io
import sfctok.merger
import sfctok.pipeline
import sfctok.sfc
import sfctok.tokenizer

# Span name (after context renaming) -> pipeline stage it runs in, for the
# cross-check against PipelineResult.stage_seconds. Weight init runs between
# stages and is left out of the check.
STAGE_OF = {
    "tokenizer.voxel_superpoints": "segment",
    "tokenizer.point_tokens": "tokenize",
    "tokenizer.superpoint_pool": "tokenize",
    "sfc.serialize_all.superpoints": "enhance",
    "enhancer.enhance": "enhance",
    "sfc.serialize_all.points": "graph",
    "graph.window_vote": "graph",
    "graph.coalesce": "graph",
    "graph.rerank_topk": "graph",
    "graph.normalized_adjacency": "graph",
    "merger.smooth_features": "merge",
    "merger.spectral_embed": "merge",
    "merger.importance_scores": "merge",
    "merger.project_logits": "merge",
    "merger.sinkhorn": "merge",
    "merger.soft_pool": "merge",
}

# Per-op timed spans reported as "<name>.s".
TIMED_SPANS = (
    "pipeline.run_pipeline",
    "pipeline.weights_init",
    "io.load_ply",
    "io.load_labels",
    "io.write_token_file",
    "core.build_partition",
    "tokenizer.voxel_superpoints",
    "tokenizer.point_tokens",
    "tokenizer.mlp_project",
    "tokenizer.fourier_embed",
    "tokenizer.superpoint_pool",
    "sfc.serialize_all.points",
    "sfc.serialize_all.superpoints",
    "sfc.hilbert_encode",
    "sfc.morton_encode",
    "enhancer.enhance",
    "enhancer.windowed_mix",
    "graph.window_vote",
    "graph.coalesce",
    "graph.rerank_topk",
    "graph.normalized_adjacency",
    "merger.smooth_features",
    "merger.spectral_embed",
    "merger.importance_scores",
    "merger.project_logits",
    "merger.sinkhorn",
    "merger.soft_pool",
    "gfm.gfm_apply",
)

# Per-op counts; "computed" byte counts follow from array shapes, not from
# hardware counters.
COUNTS = (
    "io.bytes_in",
    "io.bytes_out",
    "tokenizer.points",
    "tokenizer.superpoints",
    "enhancer.windows",
    "enhancer.fft_bytes_computed",
    "graph.candidate_pairs",
    "graph.votes_cast",
    "graph.votes_unique",
    "graph.edges",
    "merger.sinkhorn.iterations",
    "merger.plan_bytes_computed",
)


def candidate_pairs_closed_form(n_points, stride, radius, n_curves=4):
    """4 * ceil(N/r) * (2W+1) minus the window slots clipped at either end."""
    n_anchors = -(-n_points // stride)
    low = sum(radius - a for a in range(0, min(radius, n_points), stride))
    first_high = -(-max(0, n_points - radius) // stride) * stride
    high = sum(
        a + radius - (n_points - 1) for a in range(first_high, n_points, stride)
    )
    return n_curves * (n_anchors * (2 * radius + 1) - low - high)


class Tracer:
    """Spans and per-op counts of the traced ops of one run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = []
        self.gate_bins = []  # per op [passing bins, all bins]
        self.stage_seconds = {}  # op -> PipelineResult.stage_seconds
        self.count_errors = []
        self.own_seconds = []  # per op: time spent in the wrappers themselves
        self.current_m = None
        self._saved = []

    # -- recording ---------------------------------------------------------

    def begin_op(self):
        self.op += 1
        self.counts.append(defaultdict(int))
        self.gate_bins.append([0, 0])
        self.own_seconds.append(0.0)

    def _wrap(self, name, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            span_name = name(tracer, parent, args) if callable(name) else name
            idx = len(tracer.spans)
            span = [tracer.op, span_name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[2] = start
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            # the wrapper's own cost, so the stage cross-check can allow for it
            tracer.own_seconds[tracer.op] += (
                time.perf_counter() - entered - (span[3] - span[2])
            )
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attr, name, hook=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, hook))
        else:
            new = self._wrap(name, raw, hook)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function; a no-op if already installed."""
        if self._saved:
            return
        core, enh, gfm, graph, io, merger, pipeline, sfc, tok = (
            sfctok.core,
            sfctok.enhancer,
            sfctok.gfm,
            sfctok.graph,
            sfctok.io,
            sfctok.merger,
            sfctok.pipeline,
            sfctok.sfc,
            sfctok.tokenizer,
        )
        p = self._patch
        p(pipeline, "run_pipeline", "pipeline.run_pipeline", _on_pipeline)
        p(pipeline.PipelineWeights, "from_seed", "pipeline.weights_init")
        p(io, "load_ply", "io.load_ply", _on_read)
        p(io, "load_labels", "io.load_labels", _on_read)
        p(io, "write_token_file", "io.write_token_file", _on_write)
        p(core, "build_partition", "core.build_partition", _on_partition)
        p(tok, "voxel_superpoints", "tokenizer.voxel_superpoints", _on_partition)
        p(tok, "point_tokens", "tokenizer.point_tokens", _on_point_tokens)
        p(tok, "mlp_project", _mlp_name)
        p(tok, "fourier_embed", "tokenizer.fourier_embed")
        p(tok, "superpoint_pool", "tokenizer.superpoint_pool", _on_pool)
        p(sfc, "serialize_all", _serialize_name)
        p(sfc, "hilbert_encode", "sfc.hilbert_encode")
        p(sfc, "morton_encode", "sfc.morton_encode")
        p(enh, "enhance", "enhancer.enhance")
        p(enh, "windowed_mix", "enhancer.windowed_mix", _on_windowed_mix)
        p(graph, "window_vote", "graph.window_vote", _on_window_vote)
        p(graph, "coalesce", "graph.coalesce", _on_coalesce)
        p(graph, "rerank_topk", "graph.rerank_topk", _on_rerank)
        p(graph, "normalized_adjacency", "graph.normalized_adjacency")
        p(merger, "smooth_features", "merger.smooth_features")
        p(merger, "spectral_embed", "merger.spectral_embed")
        p(merger, "importance_scores", "merger.importance_scores")
        p(merger, "project_logits", "merger.project_logits")
        p(merger, "sinkhorn", "merger.sinkhorn", _on_sinkhorn)
        p(merger, "soft_pool", "merger.soft_pool")
        p(gfm, "gfm_apply", "gfm.gfm_apply")

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    # -- results -----------------------------------------------------------

    def op_totals(self):
        """Per op: {span name: summed seconds}, plus run_pipeline self time."""
        totals = [defaultdict(float) for _ in range(self.op + 1)]
        child_time = defaultdict(float)
        for span in self.spans:
            op, name, start, end, parent = span
            totals[op][name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (op, name, start, end, _) in enumerate(self.spans):
            if name == "pipeline.run_pipeline":
                totals[op]["pipeline.run_pipeline.self"] += (
                    end - start - child_time[idx]
                )
        return totals

    def stage_gaps(self):
        """(op, stage, stage_seconds minus the spans run inside that stage)."""
        covered = defaultdict(lambda: defaultdict(float))
        for _, name, start, end, parent in self.spans:
            if (
                parent >= 0
                and self.spans[parent][1] == "pipeline.run_pipeline"
                and name != "pipeline.weights_init"
            ):
                covered[parent][STAGE_OF.get(name, "unmapped")] += end - start
        gaps = []
        for idx, (op, name, _, _, _) in enumerate(self.spans):
            if name != "pipeline.run_pipeline" or op not in self.stage_seconds:
                continue
            for stage, secs in self.stage_seconds[op].items():
                gaps.append((op, stage, secs - covered[idx].get(stage, 0.0)))
            if "unmapped" in covered[idx]:
                gaps.append((op, "unmapped", covered[idx]["unmapped"]))
        return gaps

    def metrics(self):
        """Medians over ops of every per-op time and count."""
        totals = self.op_totals()
        out = {}
        for name in TIMED_SPANS:
            out[name + ".s"] = _median(t.get(name, 0.0) for t in totals)
        out["pipeline.run_pipeline.self_s"] = _median(
            t.get("pipeline.run_pipeline.self", 0.0) for t in totals
        )
        for name in COUNTS:
            out[name] = _median(c.get(name, 0) for c in self.counts)
        out["enhancer.gate_pass_frac"] = _median(
            passing / total if total else 0.0 for passing, total in self.gate_bins
        )
        out["trace.wrapper_s"] = _median(self.own_seconds)
        out["graph.edge_yield"] = _median(
            c["graph.edges"] / c["graph.votes_cast"] if c.get("graph.votes_cast") else 0.0
            for c in self.counts
        )
        return out

    def module_shares(self):
        """Share of run_pipeline time spent in each module's top-level calls."""
        per_module = defaultdict(float)
        total = 0.0
        for idx, (op, name, start, end, parent) in enumerate(self.spans):
            if name == "pipeline.run_pipeline":
                total += end - start
            elif parent >= 0 and self.spans[parent][1] == "pipeline.run_pipeline":
                per_module[name.split(".")[0]] += end - start
        return {m: secs / total for m, secs in sorted(per_module.items())} if total else {}

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def _median(values):
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# -- context-dependent span names -------------------------------------------


def _mlp_name(tracer, parent, args):
    # the importance MLP reuses tokenizer.mlp_project; bill it to merger
    if parent >= 0 and tracer.spans[parent][1] == "merger.importance_scores":
        return "merger.importance_scores.mlp_project"
    return "tokenizer.mlp_project"


def _serialize_name(tracer, parent, args):
    # serialize_all runs once over superpoint centers, once over points
    rows = len(args[0])
    if tracer.current_m is not None and rows == tracer.current_m:
        return "sfc.serialize_all.superpoints"
    return "sfc.serialize_all.points"


# -- count hooks --------------------------------------------------------------


def _count(tracer, key, value):
    tracer.counts[tracer.op][key] += int(value)


def _on_pipeline(tracer, args, kwargs, out):
    tracer.stage_seconds[tracer.op] = dict(out.stage_seconds)


def _on_read(tracer, args, kwargs, out):
    _count(tracer, "io.bytes_in", os.path.getsize(args[0]))


def _on_write(tracer, args, kwargs, out):
    _count(tracer, "io.bytes_out", os.path.getsize(args[0]))


def _on_partition(tracer, args, kwargs, out):
    tracer.current_m = out.n_superpoints


def _on_point_tokens(tracer, args, kwargs, out):
    _count(tracer, "tokenizer.points", out.shape[0])


def _on_pool(tracer, args, kwargs, out):
    _count(tracer, "tokenizer.superpoints", out.n_tokens)


def _on_windowed_mix(tracer, args, kwargs, out):
    seq, cfg = args[0], args[1]
    k, d = seq.shape
    n = np.minimum(cfg.window, k - np.arange(0, k, cfg.stride))  # window lengths
    bins = n // 2 + 1  # clipped windows use a truncated gate
    passing = np.concatenate(([0], np.cumsum(cfg.gate > 0)))[bins]
    _count(tracer, "enhancer.windows", n.size)
    # forward rFFT reads n reals and writes bins complex values; inverse too
    _count(tracer, "enhancer.fft_bytes_computed", (2 * (n * 8 + bins * 16) * d).sum())
    tracer.gate_bins[tracer.op][0] += int(passing.sum())
    tracer.gate_bins[tracer.op][1] += int(bins.sum())


def _on_window_vote(tracer, args, kwargs, out):
    labels, curves, stride, radius = args[:4]
    n = len(labels)
    pairs = sfctok.graph.candidate_pair_count(n, stride, radius, n_curves=len(curves))
    expected = candidate_pairs_closed_form(n, stride, radius, n_curves=len(curves))
    if pairs != expected:
        tracer.count_errors.append(
            f"op {tracer.op}: candidate_pair_count={pairs} != closed form {expected}"
        )
    _count(tracer, "graph.candidate_pairs", pairs)
    _count(tracer, "graph.votes_cast", out.n_edges)


def _on_coalesce(tracer, args, kwargs, out):
    _count(tracer, "graph.votes_unique", out.n_edges)


def _on_rerank(tracer, args, kwargs, out):
    _count(tracer, "graph.edges", out.dst.shape[0])


def _on_sinkhorn(tracer, args, kwargs, out):
    m, t = out.plan.shape
    _count(tracer, "merger.sinkhorn.iterations", out.iterations)
    _count(tracer, "merger.plan_bytes_computed", m * t * 8)
