"""End-to-end command line and pipeline tests on small synthetic scenes."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfctok
from sfctok.bench import BenchRow
from sfctok.cli import main
from sfctok.config import PipelineConfig
from sfctok import merger, pipeline
from sfctok.core import PointCloud, build_partition, seeded_init
from sfctok.errors import (
    EmptySuperpoint,
    InvalidPartition,
    LengthMismatch,
    NonFiniteCoordinate,
    NonFiniteFeature,
    SfcTokError,
    ShapeMismatch,
    StageError,
    SuggestLowerT,
)
from sfctok.io import read_token_file, save_ply, save_weights
from sfctok.pipeline import PipelineWeights, run_pipeline, subsample
from sfctok.synth import make_scene
from sfctok.tokenizer import voxel_superpoints

SMALL = [
    "--sample-n", "3000",
    "--tokens", "24",
    "--width", "32",
    "--svd-rank", "16",
    "--voxel-cell", "0.5",
]


@pytest.fixture
def no_stage_runs(monkeypatch):
    """Fail the test if run_pipeline enters any stage."""
    def enter(stage):
        raise AssertionError(f"stage {stage.name} ran")

    monkeypatch.setattr(pipeline._Stage, "__enter__", enter)


@pytest.fixture(scope="module")
def scene_ply(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "scene.ply"
    save_ply(path, make_scene(4000, seed=1))
    return path


class TestPipeline:
    def test_small_scene_shapes(self):
        cloud = make_scene(2500, seed=2)
        cfg = PipelineConfig(
            sample_n=2500, tokens=16, width=32, svd_rank=8, voxel_cell=0.5
        )
        result = run_pipeline(cloud, cfg)
        assert result.tokens.n_tokens == 16
        assert result.tokens.width == 32
        assert np.isfinite(result.tokens.feats).all()
        assert result.n_superpoints >= 16
        assert result.edge_count > 0

    def test_deterministic(self):
        cloud = make_scene(2000, seed=3)
        cfg = PipelineConfig(
            sample_n=2000, tokens=12, width=32, svd_rank=8, voxel_cell=0.5
        )
        a = run_pipeline(cloud, cfg)
        b = run_pipeline(cloud, cfg)
        assert np.array_equal(a.tokens.feats, b.tokens.feats)
        assert np.array_equal(a.tokens.centers, b.tokens.centers)

    def test_token_budget_above_superpoints(self):
        cloud = make_scene(500, seed=4)
        cfg = PipelineConfig(
            sample_n=500, tokens=10_000, width=32, svd_rank=8, voxel_cell=0.5
        )
        with pytest.raises(Exception) as err:
            run_pipeline(cloud, cfg)
        # stage wrapper keeps the suggestion reachable
        cause = err.value
        assert isinstance(cause, SuggestLowerT) or isinstance(
            getattr(cause, "cause", None), SuggestLowerT
        )

    def test_result_reports_convergence(self):
        cloud = make_scene(2000, seed=3)
        cfg = PipelineConfig(
            sample_n=2000, tokens=12, width=32, svd_rank=8, voxel_cell=0.5
        )
        result = run_pipeline(cloud, cfg)
        assert result.sinkhorn_converged == (result.sinkhorn_residual <= cfg.sinkhorn_tol)
        assert f"sinkhorn_converged={result.sinkhorn_converged}" in result.summary_lines()

    @pytest.mark.parametrize("zero", [False, True])
    def test_result_reports_spectral_gap(self, monkeypatch, zero):
        # M <= DENSE_SVD_ROWS: the exact branch, checked against the full SVD
        seen = []
        smooth = merger.smooth_features

        def keep_y(a_hat, tokens):
            y = smooth(a_hat, tokens)
            seen.append(np.zeros_like(y) if zero else y.copy())
            return seen[-1]

        monkeypatch.setattr(merger, "smooth_features", keep_y)
        cfg = PipelineConfig(sample_n=1500, tokens=12, width=32, svd_rank=8, voxel_cell=0.5)
        result = run_pipeline(make_scene(1500, seed=3), cfg)
        (y,) = seen
        assert y.shape[0] <= merger.DENSE_SVD_ROWS
        s = np.linalg.svd(y, compute_uv=False)
        want = 0.0 if zero else (s[7] - s[8]) / s[0]
        assert abs(result.spectral_gap - want) <= 1e-12
        assert f"spectral_gap={result.spectral_gap:.6e}" in result.summary_lines()

    @pytest.mark.parametrize("array, row, error", [
        ("positions", 17, NonFiniteCoordinate),
        ("features", 1234, NonFiniteFeature),
    ])
    def test_non_finite_input_rejected_at_entry(self, array, row, error):
        cloud = make_scene(2000, seed=3)
        bad = getattr(cloud, array).copy()
        bad[row, 0] = np.nan if array == "positions" else np.inf
        cloud = dataclasses.replace(cloud, **{array: bad})
        cfg = PipelineConfig(
            sample_n=2000, tokens=12, width=32, svd_rank=8, voxel_cell=0.5
        )
        with pytest.raises(error) as err:
            run_pipeline(cloud, cfg)
        assert not isinstance(err.value, StageError)
        assert err.value.index == row

    def test_partition_for_other_point_count_rejected(self):
        cfg = PipelineConfig(
            sample_n=3000, tokens=12, width=32, svd_rank=8, voxel_cell=0.5
        )
        other = make_scene(2000, seed=3)
        labels = np.arange(2000) % 40
        partition = build_partition(labels, other.positions)
        with pytest.raises(LengthMismatch, match="2000 labels for a 3000-point"):
            run_pipeline(make_scene(3000, seed=3), cfg, partition=partition)

    @pytest.mark.parametrize("n_labeled", [2000, 3000], ids=["other_scene", "same_scene"])
    def test_partition_of_cloud_above_sample_n_rejected(self, no_stage_runs, n_labeled):
        # the subsample would drop labeled points, whichever cloud the
        # partition was made for
        cfg = PipelineConfig(
            sample_n=2000, tokens=12, width=32, svd_rank=8, voxel_cell=0.5
        )
        other = make_scene(n_labeled, seed=3)
        partition = build_partition(np.arange(n_labeled) % 40, other.positions)
        with pytest.raises(LengthMismatch, match="3000-point cloud .* sample_n=2000"):
            run_pipeline(make_scene(3000, seed=3), cfg, partition=partition)

    @pytest.mark.parametrize("edit, match", [
        (lambda p, m: {"labels": np.where(p.labels == 5, m, p.labels)},
         r"partition labels span \[0, {m}\], not \[-1, {m1}\]"),
        (lambda p, m: {"labels": np.where(p.labels == 5, -3, p.labels)},
         r"partition labels span \[-3, {m1}\], not \[-1, {m1}\]"),
        (lambda p, m: {"labels": p.labels[:, None]},
         r"partition labels are int64 \(3000, 1\), not 1-D integers"),
        (lambda p, m: {"labels": p.labels + 0.5},
         r"partition labels are float64 \(3000,\), not 1-D integers"),
        (lambda p, m: {"centers": p.centers[:, :2]},
         r"partition centers of shape \({m}, 2\) are not finite \(M, 3\)"),
        (lambda p, m: {"centers": np.where(np.arange(m)[:, None] == 7, np.nan, p.centers)},
         r"partition centers of shape \({m}, 3\) are not finite \(M, 3\)"),
    ], ids=["label_m", "label_below_sentinel", "labels_2d", "labels_float",
            "centers_2_columns", "center_nan"])
    def test_unusable_partition_rejected_at_entry(self, no_stage_runs, edit, match):
        cloud = make_scene(3000, seed=3)
        cfg = PipelineConfig(sample_n=3000, tokens=16, voxel_cell=0.5)
        partition = voxel_superpoints(cloud, cfg.voxel_cell)
        m = partition.n_superpoints
        partition = dataclasses.replace(partition, **edit(partition, m))
        with pytest.raises(InvalidPartition, match=match.format(m=m, m1=m - 1)):
            run_pipeline(cloud, cfg, partition=partition)

    def test_empty_superpoint_rejected_at_entry(self, no_stage_runs):
        cloud = make_scene(3000, seed=3)
        cfg = PipelineConfig(sample_n=3000, tokens=16, voxel_cell=0.5)
        partition = voxel_superpoints(cloud, cfg.voxel_cell)
        labels = np.where(partition.labels == 50, -1, partition.labels)
        partition = dataclasses.replace(partition, labels=labels)
        with pytest.raises(EmptySuperpoint, match="superpoint 50 has no points"):
            run_pipeline(cloud, cfg, partition=partition)

    @pytest.mark.parametrize("name, shapes", [
        ("point_mlp", [(4, 32), (32, 32)]),  # fan-in is not the 3 channels
        ("point_mlp", [(3, 32), (32, 24)]),  # fan-out is not the width
        ("importance_mlp", [(32, 16), (16, 5)]),
        ("importance_mlp", [(24, 16), (16, 1)]),
        ("projection", [(8, 8)]),
        ("projection", [(8, 12), (12, 12)]),
    ])
    def test_weights_that_do_not_fit_rejected_at_entry(self, no_stage_runs, name, shapes):
        cfg = PipelineConfig(
            sample_n=2000, tokens=12, width=32, svd_rank=8, voxel_cell=0.5
        )
        weights = PipelineWeights.from_seed(0, 3, 32, 8, 12)
        setattr(weights, name, seeded_init(5, shapes))
        with pytest.raises(ShapeMismatch, match=f"^{name} has layer shapes"):
            run_pipeline(make_scene(2000, seed=3), cfg, weights=weights)

    def test_one_layer_point_mlp_accepted(self):
        cfg = PipelineConfig(
            sample_n=2000, tokens=12, width=32, svd_rank=8, voxel_cell=0.5
        )
        weights = PipelineWeights.from_seed(0, 3, 32, 8, 12)
        weights.point_mlp = seeded_init(5, [(3, 32)])
        result = run_pipeline(make_scene(2000, seed=3), cfg, weights=weights)
        assert result.tokens.feats.shape == (12, 32)
        assert np.isfinite(result.tokens.feats).all()

    def test_subsample(self):
        cloud = make_scene(1000, seed=5)
        small = subsample(cloud, 300, seed=0)
        assert small.n_points == 300
        assert subsample(cloud, 5000, seed=0) is cloud
        again = subsample(cloud, 300, seed=0)
        assert np.array_equal(small.positions, again.positions)


def degenerate_cloud(kind, n, seed):
    """n points (one or two for those kinds) of one degenerate shape."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pos = rng.uniform(0.0, 4.0, size=(n, 3))
    if kind == "one_point":
        pos = pos[:1]
    elif kind == "two_points":
        pos = pos[:2]
    elif kind == "identical":
        pos[:] = pos[0]
    elif kind == "duplicated":
        pos = pos[np.arange(n) // 3]
    elif kind == "flat_axis":
        pos[:, 1] = 1.5
    elif kind == "collinear":
        pos = pos[:, :1] * np.array([[1.0, -2.0, 3.0]])
    elif kind == "scaled_1e300":
        pos *= 1e300
    else:  # "span_1e-300"
        pos *= 0.25e-300
    return PointCloud(positions=pos, features=rng.normal(size=(len(pos), 3)))


class TestFuzzPipeline:
    """Degenerate clouds give finite (T, d) tokens or a typed error."""

    @pytest.mark.parametrize("tokens", [1, 4])
    @pytest.mark.parametrize("kind", [
        "one_point", "two_points", "identical", "duplicated", "flat_axis",
        "collinear", "scaled_1e300", "span_1e-300",
    ])
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 1000),
           cell=st.sampled_from([0.5, 1e-3]))
    def test_degenerate_cloud(self, kind, tokens, n, seed, cell):
        cfg = PipelineConfig(tokens=tokens, width=32, svd_rank=8, voxel_cell=cell)
        try:
            result = run_pipeline(degenerate_cloud(kind, n, seed), cfg)
        except StageError as err:  # a stage wraps any error: the cause is typed
            assert isinstance(err.cause, SfcTokError), repr(err.cause)
            return
        except SfcTokError:
            return
        assert result.tokens.feats.shape == (tokens, 32)
        assert np.isfinite(result.tokens.feats).all()
        assert np.isfinite(result.tokens.centers).all()


class TestCli:
    def test_tokenize_writes_token_file(self, scene_ply, tmp_path, capsys):
        out = tmp_path / "out.tok"
        rc = main(["tokenize", str(scene_ply), "--out", str(out), *SMALL])
        assert rc == 0
        tokens = read_token_file(out)
        assert tokens.n_tokens == 24
        assert tokens.width == 32
        printed = capsys.readouterr().out
        assert "n_tokens=24" in printed
        assert "\nspectral_gap=" in printed
        assert f"out={out}" in printed

    def test_tokenize_byte_identical_reruns(self, scene_ply, tmp_path, monkeypatch):
        monkeypatch.delenv("SFCTOK_SEED", raising=False)
        a = tmp_path / "a.tok"
        b = tmp_path / "b.tok"
        assert main(["tokenize", str(scene_ply), "--out", str(a), *SMALL]) == 0
        assert main(["tokenize", str(scene_ply), "--out", str(b), *SMALL]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_changes_output(self, scene_ply, tmp_path, monkeypatch):
        a = tmp_path / "a.tok"
        b = tmp_path / "b.tok"
        monkeypatch.setenv("SFCTOK_SEED", "0")
        main(["tokenize", str(scene_ply), "--out", str(a), *SMALL])
        monkeypatch.setenv("SFCTOK_SEED", "123")
        main(["tokenize", str(scene_ply), "--out", str(b), *SMALL])
        assert a.read_bytes() != b.read_bytes()

    def test_config_file_applied(self, scene_ply, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "sample_n=3000\ntokens=8\nwidth=32\nsvd_rank=16\nvoxel_cell=0.5\n"
        )
        out = tmp_path / "o.tok"
        rc = main(["tokenize", str(scene_ply), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 0
        assert read_token_file(out).n_tokens == 8

    def test_flag_overrides_config_file(self, scene_ply, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "sample_n=3000\ntokens=8\nwidth=32\nsvd_rank=16\nvoxel_cell=0.5\n"
        )
        out = tmp_path / "o.tok"
        rc = main(["tokenize", str(scene_ply), "--config", str(cfg),
                   "--tokens", "12", "--out", str(out)])
        assert rc == 0
        assert read_token_file(out).n_tokens == 12

    def test_oversized_budget_fails_cleanly(self, scene_ply, tmp_path, capsys):
        out = tmp_path / "o.tok"
        rc = main(["tokenize", str(scene_ply), "--out", str(out),
                   "--sample-n", "3000", "--tokens", "100000",
                   "--width", "32", "--voxel-cell", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "segment" in err or "lower" in err

    def test_external_labels(self, tmp_path, capsys):
        cloud = make_scene(1500, seed=6)
        ply = tmp_path / "s.ply"
        save_ply(ply, cloud)
        # labels by x-coordinate bands, aligned with the full cloud
        bands = np.digitize(cloud.positions[:, 0], np.linspace(-4, 4, 40))
        lab = tmp_path / "lab.txt"
        lab.write_text("\n".join(str(int(v)) for v in bands) + "\n")
        out = tmp_path / "o.tok"
        rc = main(["tokenize", str(ply), "--labels", str(lab), "--out", str(out),
                   "--sample-n", "1500", "--tokens", "8", "--width", "32",
                   "--svd-rank", "8"])
        assert rc == 0
        assert read_token_file(out).n_tokens == 8

    @pytest.mark.parametrize("command", ["tokenize", "graph-dump"])
    def test_labels_of_cloud_above_sample_n_rejected(self, scene_ply, tmp_path, capsys, command):
        lab = tmp_path / "lab.txt"
        lab.write_text("\n".join(str(i % 50) for i in range(4000)) + "\n")
        rc = main([command, str(scene_ply), "--labels", str(lab),
                   "--out", str(tmp_path / "out"), *SMALL])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sample_n=3000" in err
        assert not (tmp_path / "out").exists()

    def test_graph_dump(self, scene_ply, tmp_path, capsys):
        out = tmp_path / "edges.csv"
        rc = main(["graph-dump", str(scene_ply), "--out", str(out),
                   "--sample-n", "3000", "--voxel-cell", "0.5"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "src,dst,dist2,votes"
        assert len(lines) > 1
        src, dst, d2, votes = lines[1].split(",")
        assert int(src) >= 0 and int(dst) >= 0
        assert float(d2) >= 0 and int(votes) >= 1

    def test_graph_dump_rank_order_with_labels(self, scene_ply, tmp_path, capsys):
        lab = tmp_path / "lab.txt"
        lab.write_text("\n".join(str(i % 60) for i in range(4000)) + "\n")
        out = tmp_path / "edges.csv"
        rc = main(["graph-dump", str(scene_ply), "--labels", str(lab), "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert capsys.readouterr().out.startswith(f"edges={len(rows)}\n") and rows
        edges = {(s, t) for s, t, _, _ in rows}
        assert all((t, s) in edges for s, t in edges)
        for (s, _, d2, _), (s_next, _, d2_next, _) in zip(rows, rows[1:]):
            assert int(s) < int(s_next) or (s == s_next and float(d2) <= float(d2_next))

    def test_inspect(self, scene_ply, tmp_path, capsys):
        out = tmp_path / "o.tok"
        main(["tokenize", str(scene_ply), "--out", str(out), *SMALL])
        capsys.readouterr()
        rc = main(["inspect", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "magic=FAS3" in printed
        assert "n_tokens=24" in printed
        assert "width=32" in printed

    def test_bench_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--sizes", "1000,2000", "--trials", "1",
                   "--oracle-cap", "2000", "--out", str(out),
                   "--voxel-cell", "0.5"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) >= 3
        printed = capsys.readouterr().out
        assert "build_slope=" in printed

    def test_bench_row_csv_formats(self):
        row = BenchRow(1000, 0, 474, 0.0024471, np.nan, 16052, 16380, 2556, np.nan)
        assert row.csv() == "1000,0,474,0.002447,nan,16052,16380,2556,nan"

    def test_bench_header_and_build_slope_only_below_oracle_cap(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--sizes", "1000,2000", "--trials", "1",
                   "--oracle-cap", "999", "--out", str(out),
                   "--voxel-cell", "0.5"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("n_points,trial,n_superpoints,build_seconds,oracle_seconds,"
                            "candidate_pairs,candidate_pairs_closed_form,edge_count,recall")
        assert len(lines) == 3
        assert all(line.split(",")[4] == line.split(",")[8] == "nan" for line in lines[1:])
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1 and printed[0].startswith("build_slope=")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tokens", "abc"],
            ["--tokens", "-1"],
            ["--tau", "nan"],
            ["--seed", "-3"],
            ["--bits", "17"],
            ["--width", "5"],
        ],
    )
    def test_bad_flag_value_reports_error(self, scene_ply, tmp_path, capsys, flags):
        rc = main(["tokenize", str(scene_ply), "--out", str(tmp_path / "o.tok"), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flags[0][2:] in err

    def test_bad_bench_sizes_reports_error(self, capsys):
        assert main(["bench", "--sizes", "abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--sizes 'abc'" in err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_bench_trials_below_one_reports_error(self, tmp_path, capsys, trials):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--sizes", "1000", "--trials", trials, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"--trials {trials}" in err
        assert not out.exists()

    def test_interrupt_in_a_stage_is_not_an_error(self, scene_ply, tmp_path, monkeypatch):
        # Ctrl-C inside a stage reaches the caller as itself, not as StageError
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline.tokenizer, "superpoint_pool", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["tokenize", str(scene_ply), "--out", str(tmp_path / "o.tok"), *SMALL])

    def test_saved_seeded_weights_match_default(self, scene_ply, tmp_path):
        path = tmp_path / "w.npz"
        weights = PipelineWeights.from_seed(0, 3, 32, 16, 24)
        save_weights(path, vars(weights))
        default, loaded = tmp_path / "a.tok", tmp_path / "b.tok"
        assert main(["tokenize", str(scene_ply), "--out", str(default), *SMALL]) == 0
        assert main(["tokenize", str(scene_ply), "--out", str(loaded),
                     "--weights", str(path), *SMALL]) == 0
        assert default.read_bytes() == loaded.read_bytes()

    @pytest.mark.parametrize("fault, named", [
        ("missing", "importance_mlp"),
        ("values_length", "point_mlp.values"),
        ("unchained", "point_mlp.shapes"),
    ])
    def test_bad_weights_file_reports_error(self, scene_ply, tmp_path, capsys, fault, named):
        # the bad stacks are written as raw arrays: SeededWeights refuses them
        path = tmp_path / "w.npz"
        save_weights(path, vars(PipelineWeights.from_seed(0, 3, 32, 16, 24)))
        arrays = dict(np.load(path))
        if fault == "missing":
            del arrays["importance_mlp.values"], arrays["importance_mlp.shapes"]
        elif fault == "values_length":
            arrays["point_mlp.values"] = arrays["point_mlp.values"][:-1]
        else:
            arrays["point_mlp.shapes"] = np.array([(3, 32), (31, 32)])
        np.savez(path, **arrays)
        rc = main(["tokenize", str(scene_ply), "--out", str(tmp_path / "o.tok"),
                   "--weights", str(path), *SMALL])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("fault, named", [
        ("text", "w.npz is not an .npz archive"),
        ("corrupt_zip", "w.npz is not a readable .npz"),
        ("float_shapes", "w.npz: point_mlp.shapes"),
        ("nan", "w.npz: projection.values"),
        ("str", "w.npz: projection.values"),
        ("complex", "w.npz: projection.values"),
        ("five_outputs", "importance_mlp"),
        ("narrow_projection", "projection"),
    ])
    def test_unusable_weights_file_exits_before_any_stage(
        self, scene_ply, tmp_path, capsys, no_stage_runs, fault, named
    ):
        arrays = {}
        for name, w in vars(PipelineWeights.from_seed(0, 3, 32, 16, 24)).items():
            arrays[f"{name}.values"] = w.values
            arrays[f"{name}.shapes"] = np.array(w.shapes)
        values = arrays["projection.values"]
        if fault == "float_shapes":
            arrays["point_mlp.shapes"] = np.array([[3.5, 32], [32, 32]])
        elif fault == "nan":
            arrays["projection.values"] = np.where(np.arange(values.size) == 5, np.nan, values)
        elif fault in ("str", "complex"):
            arrays["projection.values"] = values.astype(fault)
        elif fault == "five_outputs":
            w = seeded_init(1, [(32, 16), (16, 5)])
            arrays["importance_mlp.values"] = w.values
            arrays["importance_mlp.shapes"] = np.array(w.shapes)
        elif fault == "narrow_projection":
            w = seeded_init(2, [(16, 8)])
            arrays["projection.values"] = w.values
            arrays["projection.shapes"] = np.array(w.shapes)
        path = tmp_path / "w.npz"
        np.savez(path, **arrays)
        if fault == "text":
            path.write_text("not weights\n")
        elif fault == "corrupt_zip":
            path.write_bytes(b"PK\x03\x04" + bytes(64))
        rc = main(["tokenize", str(scene_ply), "--out", str(tmp_path / "o.tok"),
                   "--weights", str(path), *SMALL])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_unknown_config_key_reports_error(self, scene_ply, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tokens = 12\nbogus = 1\n")
        rc = main(["tokenize", str(scene_ply), "--config", str(cfg),
                   "--out", str(tmp_path / "o.tok")])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown config key: bogus\n"

    def test_bad_env_seed_reports_error(self, scene_ply, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SFCTOK_SEED", "x1")
        rc = main(["tokenize", str(scene_ply), "--out", str(tmp_path / "o.tok"), *SMALL])
        assert rc == 1
        assert "SFCTOK_SEED" in capsys.readouterr().err

    def test_missing_file_reports_error(self, tmp_path, capsys):
        rc = main(["inspect", str(tmp_path / "nope.tok")])
        assert rc != 0 or capsys.readouterr().err


def test_import_loads_no_scipy_special_or_linalg():
    # every process that tokenizes pays for what the package imports
    code = (
        "import sys, sfctok.pipeline, sfctok.io, sfctok.gfm, sfctok.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sfctok.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "numpy" in loaded  # the probe sees what the package imported
    for heavy in ("scipy.special", "scipy.linalg"):
        assert heavy not in loaded
