"""Command line interface: tokenize, bench, graph-dump, inspect."""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import io
from .bench import BENCH_CSV_COLUMNS, fit_loglog_slope, run_bench
from .config import PipelineConfig, config_from_sources, parse_config_file
from .core import build_partition
from .errors import ConfigError, InvalidWeights, SfcTokError
from .graph import ranked_edges
from .pipeline import PipelineWeights, build_vote_graph, check_partition
from .pipeline import run_pipeline, subsample
from .tokenizer import voxel_superpoints


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key=value config file")
    for f in dataclasses.fields(PipelineConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, default=None)


def _build_config(args):
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {
        f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig)
    }
    return config_from_sources(file_values, overrides)


def _load_scene(args):
    """(cloud, partition of it from ``--labels``, or None)."""
    cloud = io.load_ply(args.cloud)
    if not args.labels:
        return cloud, None
    labels = io.load_labels(args.labels, cloud.n_points)
    return cloud, build_partition(labels, cloud.positions)


def _cmd_tokenize(args):
    cfg = _build_config(args)
    cloud, partition = _load_scene(args)
    weights = None
    if args.weights:
        named = io.load_weights(args.weights)
        names = [f.name for f in dataclasses.fields(PipelineWeights)]
        missing = [name for name in names if name not in named]
        if missing:
            raise InvalidWeights(f"{args.weights}: no {', '.join(missing)} weights")
        weights = PipelineWeights(**{name: named[name] for name in names})
    result = run_pipeline(cloud, cfg, partition=partition, weights=weights)
    io.write_token_file(args.out, result.tokens)
    for line in result.summary_lines():
        print(line)
    print(f"out={args.out}")
    return 0


def _cmd_bench(args):
    cfg = _build_config(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ConfigError(
            f"--sizes {args.sizes!r} is not a comma-separated list of integers"
        ) from None
    if sizes != sorted(sizes) or sizes[0] < 1:
        raise ConfigError(f"--sizes {args.sizes!r} must be positive and ascending")
    if args.trials < 1:
        raise ConfigError(f"--trials {args.trials} must be at least 1")
    rows = run_bench(sizes, args.trials, cfg, oracle_cap=args.oracle_cap)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write(",".join(BENCH_CSV_COLUMNS) + "\n")
        for row in rows:
            out.write(row.csv() + "\n")
    finally:
        if args.out:
            out.close()
    for name in ("build_seconds", "oracle_seconds"):
        per_n = {}
        for row in rows:
            secs = getattr(row, name)
            if np.isfinite(secs):
                per_n.setdefault(row.n_points, []).append(secs)
        if len(per_n) >= 2:
            ns = sorted(per_n)
            slope = fit_loglog_slope(ns, [np.mean(per_n[n]) for n in ns])
            print(f"{name.removesuffix('_seconds')}_slope={slope:.3f}")
    return 0


def _cmd_graph_dump(args):
    cfg = _build_config(args)
    scene, partition = _load_scene(args)
    if partition is None:
        scene = subsample(scene, cfg.sample_n, cfg.seed)
        partition = voxel_superpoints(scene, cfg.voxel_cell)
    else:  # the partition labels the whole cloud, which subsampling keeps
        check_partition(partition, scene.n_points, cfg)
    vote_graph, _ = build_vote_graph(
        scene.positions, partition.labels, partition.centers, cfg
    )
    with open(args.out, "w") as fh:
        fh.write("src,dst,dist2,votes\n")
        src, dst, votes, dist2 = ranked_edges(vote_graph, partition.centers)
        for s, t, d2, v in zip(src, dst, dist2, votes):
            fh.write(f"{s},{t},{d2:.9g},{v}\n")
    print(f"edges={vote_graph.dst.shape[0]}")
    print(f"out={args.out}")
    return 0


def _cmd_inspect(args):
    version, t, d = io.read_token_header(args.token_file)
    print(f"magic={io.TOKENFILE_MAGIC.decode()}")
    print(f"version={version}")
    print(f"n_tokens={t}")
    print(f"width={d}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sfctok",
        description="Point cloud to context-rich 3D tokens via SFC serialization, "
        "windowed FFT mixing, vote-graph merging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="run the full pipeline on a PLY scene")
    p.add_argument("cloud", help="input .ply file")
    p.add_argument("--labels", help="superpoint label file (text or binary i32)")
    p.add_argument("--weights", help="weights .npz (default: seeded init)")
    p.add_argument("--out", required=True, help="output token file")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("bench", help="graph-build scaling benchmark")
    p.add_argument("--sizes", default="10000,20000,40000",
                   help="comma-separated ascending point counts")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--oracle-cap", type=int, default=20000,
                   help="skip the brute-force oracle above this size")
    p.add_argument("--out", help="CSV path (default: stdout)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("graph-dump", help="write the superpoint edge list as CSV")
    p.add_argument("cloud", help="input .ply file")
    p.add_argument("--labels")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_graph_dump)

    p = sub.add_parser("inspect", help="print a token file header")
    p.add_argument("token_file")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SfcTokError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
