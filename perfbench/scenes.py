"""Seeded blob scenes and their on-disk request files.

The generator is deliberately independent of ``sfctok.synth``: a change to
the program's own synthetic scenes must not move the benchmark's inputs.

Blob centers are stratified on a jittered 5 x 4 x 2 grid and every blob gets
the same number of points, so scenes drawn from different seeds have nearly
the same superpoint count. Seed-to-seed spread in the timings then comes from
the machine, not from the inputs.
"""

from __future__ import annotations

import numpy as np

ROOM = np.array([8.0, 8.0, 3.0])
GRID = (5, 4, 2)  # 40 blobs
SIGMA = 0.25


def make_scene(n_points, seed):
    """(positions (N, 3), rgb features (N, 3) in [0, 1]) for one seeded scene."""
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = np.array(GRID)
    cells = np.stack(
        np.meshgrid(*[np.arange(k) for k in GRID], indexing="ij"), axis=-1
    ).reshape(-1, 3)
    centers = (cells + rng.uniform(0.15, 0.85, size=cells.shape)) / grid * ROOM
    assign = np.arange(n_points) % cells.shape[0]
    rng.shuffle(assign)
    positions = centers[assign] + rng.normal(0.0, SIGMA, size=(n_points, 3))
    positions = np.clip(positions, 0.0, ROOM)
    features = rng.uniform(0.0, 1.0, size=(n_points, 3))
    return positions, features


def segment_labels(positions, cell, seed, sentinel_frac=0.01):
    """Labels as an external segmenter would hand them over.

    Points sharing a voxel of side ``cell`` share a label; label ids are
    sparse and shuffled (not 0..M-1), and ``sentinel_frac`` of the points are
    left unlabeled (-1), so the reader's compaction and sentinel paths run.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    keys = np.floor(positions / cell).astype(np.int64)
    _, dense = np.unique(keys, axis=0, return_inverse=True)
    dense = dense.reshape(-1)
    m = int(dense.max()) + 1
    ids = rng.choice(10 * m, size=m, replace=False)
    labels = ids[dense]
    unlabeled = rng.random(positions.shape[0]) < sentinel_frac
    labels[unlabeled] = -1
    return labels


def write_ply(path, positions, features):
    """Binary little-endian PLY: float32 x, y, z and uchar red, green, blue."""
    n = positions.shape[0]
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    rec = np.empty(
        n,
        dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
               ("r", "u1"), ("g", "u1"), ("b", "u1")],
    )
    rec["x"], rec["y"], rec["z"] = positions.astype(np.float32).T
    rgb = np.clip(np.round(features * 255.0), 0, 255).astype(np.uint8)
    rec["r"], rec["g"], rec["b"] = rgb.T
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(rec.tobytes())


def write_labels(path, labels):
    """One integer label per line."""
    with open(path, "w") as fh:
        fh.write("\n".join(str(int(v)) for v in labels))
        fh.write("\n")
