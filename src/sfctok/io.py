"""File formats: PLY point clouds, label arrays, token files, weights.

TokenFile layout (little endian): magic b"FAS3", version u16, T u32, d u32,
row-major float64 feats (T*d) then centers (T*3), then a CRC32 of the
payload bytes.

Weight files are .npz archives with two arrays per layer stack:
``<name>.values`` (flat parameters) and ``<name>.shapes`` (one integer
(fan_in, fan_out) row per layer). ``load_weights`` ignores every other
array and raises ``InvalidWeights`` for a file or stack it cannot use.
"""

from __future__ import annotations

import struct
import zipfile
import zlib

import numpy as np

from .core import PointCloud, SeededWeights, TokenMatrix, validate_cloud
from .errors import (
    InvalidShape,
    InvalidWeights,
    LengthMismatch,
    NoValidSuperpoints,
    ParseError,
    UnsupportedProperty,
)

TOKENFILE_MAGIC = b"FAS3"
TOKENFILE_VERSION = 1

_PLY_TYPES = {
    "float": "f4",
    "float32": "f4",
    "double": "f8",
    "float64": "f8",
    "uchar": "u1",
    "uint8": "u1",
    "char": "i1",
    "int8": "i1",
    "short": "i2",
    "int16": "i2",
    "ushort": "u2",
    "uint16": "u2",
    "int": "i4",
    "int32": "i4",
    "uint": "u4",
    "uint32": "u4",
}
# Fields a header line of each keyword needs before its values can be read.
_PLY_MIN_FIELDS = {"format": 2, "element": 3, "property": 3}


def _parse_ply_header(data):
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        raise ParseError("not a PLY file", offset=0)
    header = data[: end + len(b"end_header\n")]
    body_off = len(header)
    fmt = None
    n_vertices = None
    props = []
    in_vertex = False
    for line in header.decode("ascii", errors="replace").splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) < _PLY_MIN_FIELDS.get(parts[0], 1):
            raise ParseError(f"malformed header line {line!r}", offset=0)
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            # the vertex data is read from the start of the body, so no
            # element's data may come before it
            if n_vertices is None and parts[1] != "vertex":
                raise UnsupportedProperty(f"element {parts[1]} before the vertex element")
            in_vertex = parts[1] == "vertex"
            if in_vertex:
                if n_vertices is not None:
                    raise ParseError("more than one vertex element", offset=0)
                if not parts[2].isdigit():
                    raise ParseError(
                        f"vertex count {parts[2]!r} is not a nonnegative integer",
                        offset=0,
                    )
                n_vertices = int(parts[2])
        elif parts[0] == "property" and in_vertex:
            if parts[1] == "list":
                raise UnsupportedProperty("list properties on vertices")
            if parts[1] not in _PLY_TYPES:
                raise UnsupportedProperty(parts[1])
            if any(name == parts[2] for name, _ in props):
                raise ParseError(f"duplicate vertex property {parts[2]}", offset=0)
            props.append((parts[2], parts[1]))
    if fmt not in ("ascii", "binary_little_endian"):
        raise UnsupportedProperty(f"format {fmt}")
    if n_vertices is None:
        raise ParseError("no vertex element", offset=0)
    # in_vertex: no element follows vertex, so the body holds only its data
    return fmt, n_vertices, props, body_off, in_vertex


def load_ply(path) -> PointCloud:
    """Read an ASCII or binary-little-endian PLY with x,y,z and optional
    red,green,blue (uchar, scaled to [0,1]) and nx,ny,nz properties.

    Missing colors fill 0.5; a color of another type raises
    ``UnsupportedProperty``. When ``vertex`` is the last element, the body
    must hold exactly its data.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fmt, n, props, body_off, exact = _parse_ply_header(data)
    names = [p for p, _ in props]
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise ParseError(f"missing vertex property {axis}", offset=0)
    for name, typ in props:
        if name in ("red", "green", "blue") and _PLY_TYPES[typ] != "u1":
            raise UnsupportedProperty(f"color property {name} of type {typ}, not uchar")

    if fmt == "ascii":
        rows = data[body_off:].decode("ascii", errors="replace").split()
        expected = n * len(props)
        if len(rows) < expected or (exact and len(rows) > expected):
            raise ParseError(
                f"expected {expected} ascii values, got {len(rows)}",
                offset=body_off,
            )
        try:
            table = np.array(rows[:expected], dtype=np.float64).reshape(n, len(props))
        except ValueError as exc:
            raise ParseError(str(exc), offset=body_off) from None
        cols = {name: table[:, i] for i, (name, _) in enumerate(props)}
    else:
        dtype = np.dtype([(name, "<" + _PLY_TYPES[typ]) for name, typ in props])
        needed = n * dtype.itemsize
        payload = len(data) - body_off
        if payload < needed or (exact and payload > needed):
            raise ParseError(
                f"payload of {payload} bytes, vertex data needs {needed}",
                offset=body_off + min(payload, needed),
            )
        table = np.frombuffer(data, dtype=dtype, count=n, offset=body_off)
        cols = {name: table[name].astype(np.float64) for name, _ in props}

    positions = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    feats = []
    if all(c in cols for c in ("red", "green", "blue")):
        rgb = np.stack([cols["red"], cols["green"], cols["blue"]], axis=1)
        feats.append(rgb / 255.0)
    else:
        feats.append(np.full((n, 3), 0.5))
    if all(c in cols for c in ("nx", "ny", "nz")):
        feats.append(np.stack([cols["nx"], cols["ny"], cols["nz"]], axis=1))
    cloud = PointCloud(positions=positions, features=np.hstack(feats))
    validate_cloud(cloud)
    return cloud


def save_ply(path, cloud: PointCloud, binary=True):
    """Write positions (float32) and RGB (u8) for round-trip tests and dumps."""
    n = cloud.n_points
    rgb = np.clip(cloud.features[:, :3] * 255.0, 0, 255).astype(np.uint8)
    header = (
        "ply\n"
        f"format {'binary_little_endian' if binary else 'ascii'} 1.0\n"
        f"element vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            rec = np.empty(
                n, dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                          ("r", "u1"), ("g", "u1"), ("b", "u1")]
            )
            rec["x"], rec["y"], rec["z"] = cloud.positions.astype(np.float32).T
            rec["r"], rec["g"], rec["b"] = rgb.T
            fh.write(rec.tobytes())
        else:
            for p, c in zip(cloud.positions, rgb):
                fh.write(
                    f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {c[0]} {c[1]} {c[2]}\n".encode()
                )


def _looks_like_text(data):
    sample = data[:4096]
    return len(sample) > 0 and not sample.translate(None, b"0123456789-+ \t\r\n")


def load_labels(path, n_points):
    """Read length-N superpoint labels (text lines or binary i32), compact
    them to dense {0..M-1} with -1 kept as the sentinel.

    A label below -1 raises ``ParseError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if _looks_like_text(data):
        try:
            raw = np.array(data.split(), dtype=np.int64)
        except (ValueError, OverflowError):
            raise ParseError("text label file holds a non-int64 token", offset=0) from None
    else:
        if len(data) % 4 != 0:
            raise ParseError("binary label file not a multiple of 4 bytes", offset=len(data))
        raw = np.frombuffer(data, dtype="<i4").astype(np.int64)
    below = np.flatnonzero(raw < -1)
    if below.size:
        i = below[0]
        raise ParseError(f"label {raw[i]} of point {i} is below the sentinel -1")
    if raw.shape[0] != n_points:
        raise LengthMismatch(f"{raw.shape[0]} labels for {n_points} points")
    valid = raw >= 0
    if not valid.any():
        raise NoValidSuperpoints("all labels are sentinel")
    uniq, dense = np.unique(raw[valid], return_inverse=True)
    labels = np.full(n_points, -1, dtype=np.int64)
    labels[valid] = dense
    return labels


def write_token_file(path, tokens: TokenMatrix):
    feats = np.ascontiguousarray(tokens.feats, dtype="<f8")
    centers = np.ascontiguousarray(tokens.centers, dtype="<f8")
    payload = feats.tobytes() + centers.tobytes()
    header = TOKENFILE_MAGIC + struct.pack(
        "<HII", TOKENFILE_VERSION, tokens.n_tokens, tokens.width
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _parse_token_header(data):
    """(version, T, d) from the first 14 bytes of a token file."""
    if len(data) < 14 or data[:4] != TOKENFILE_MAGIC:
        raise ParseError("bad token file magic", offset=0)
    version, t, d = struct.unpack("<HII", data[4:14])
    if version != TOKENFILE_VERSION:
        raise ParseError(
            f"token file version {version}, expected {TOKENFILE_VERSION}", offset=4
        )
    return version, t, d


def read_token_header(path):
    """Return (version, T, d) without reading the payload."""
    with open(path, "rb") as fh:
        return _parse_token_header(fh.read(14))


def read_token_file(path) -> TokenMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    _, t, d = _parse_token_header(data)
    body = data[14:]
    expected = t * d * 8 + t * 3 * 8
    if len(body) != expected + 4:
        raise ParseError(
            f"payload length {len(body) - 4} != declared {expected}", offset=14
        )
    payload, crc_bytes = body[:expected], body[expected:]
    (crc,) = struct.unpack("<I", crc_bytes)
    if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise ParseError("checksum mismatch", offset=14 + expected)
    feats = np.frombuffer(payload, dtype="<f8", count=t * d).reshape(t, d)
    centers = np.frombuffer(payload, dtype="<f8", count=t * 3, offset=t * d * 8)
    return TokenMatrix(feats=feats.copy(), centers=centers.reshape(t, 3).copy())


def save_weights(path, named_weights):
    """Persist SeededWeights as .npz: ``<name>.values`` and ``<name>.shapes``."""
    payload = {}
    for name, w in named_weights.items():
        payload[f"{name}.values"] = w.values
        payload[f"{name}.shapes"] = np.array(w.shapes, dtype=np.int64)
    np.savez(path, **payload)


# What np.load and reading an entry raise on a damaged .npz: a bad .npy
# header or an array that needs pickle (ValueError), an entry offset outside
# the file (OSError), short or corrupt compressed data (EOFError, zlib.error),
# an encrypted entry or unknown compression method (RuntimeError), a header
# declaring more elements than can be allocated (MemoryError), and a bad zip
# directory or CRC (BadZipFile).
_NPZ_READ_ERRORS = (
    ValueError, OSError, EOFError, RuntimeError, MemoryError, zipfile.BadZipFile, zlib.error
)


def load_weights(path):
    """Inverse of save_weights: a dict of SeededWeights by name.

    Every ``<name>.values`` array names a stack; other arrays are ignored.
    Raises ``InvalidWeights`` naming the file when it is not an .npz that
    numpy can read without pickle, and naming the array when a stack's
    ``.shapes`` is missing or ``SeededWeights`` refuses the stack.
    """
    with open(path, "rb") as fh:
        if fh.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):  # np.load's zip test
            raise InvalidWeights(f"{path} is not an .npz archive")
        fh.seek(0)
        try:
            data = np.load(fh)
            stems = sorted(k[: -len(".values")] for k in data.files if k.endswith(".values"))
            keys = [f"{stem}.{suffix}" for stem in stems for suffix in ("values", "shapes")]
            arrays = {key: data[key] for key in keys if key in data.files}
        except _NPZ_READ_ERRORS as exc:
            raise InvalidWeights(f"{path} is not a readable .npz of arrays ({exc})") from None
    return {stem: _weight_stack(arrays, stem, path) for stem in stems}


def _weight_stack(arrays, stem, path):
    """The SeededWeights stored under ``stem``; the type checks the stack."""
    if f"{stem}.shapes" not in arrays:
        raise InvalidWeights(f"{path}: {stem}.shapes is missing")
    try:
        return SeededWeights(arrays[f"{stem}.shapes"], arrays[f"{stem}.values"])
    except InvalidShape as exc:
        raise InvalidWeights(f"{path}: {stem}.{exc}") from None
