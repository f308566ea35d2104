"""Tests for PLY parsing, label files, token files, weights, and config."""

import dataclasses
import io as io_module
import struct
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfctok.config import PipelineConfig, config_from_sources, parse_config_file
from sfctok.core import PointCloud, TokenMatrix, seeded_init
from sfctok.errors import (
    ConfigError,
    InvalidWeights,
    LengthMismatch,
    NoValidSuperpoints,
    ParseError,
    SfcTokError,
    UnsupportedProperty,
)
from sfctok.io import (
    TOKENFILE_MAGIC,
    load_labels,
    load_ply,
    load_weights,
    read_token_file,
    read_token_header,
    save_ply,
    save_weights,
    write_token_file,
)
from sfctok.pipeline import PipelineWeights


def make_cloud(rng, n=50):
    return PointCloud(
        positions=rng.uniform(-2.0, 2.0, size=(n, 3)),
        features=rng.uniform(size=(n, 3)),
    )


class TestPly:
    def test_ascii_two_vertices_no_color(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
            "0 0 0\n1.5 2.5 3.5\n"
        )
        path = tmp_path / "a.ply"
        path.write_text(text)
        cloud = load_ply(path)
        assert cloud.n_points == 2
        assert np.allclose(cloud.positions[1], [1.5, 2.5, 3.5])
        # missing colors fill mid-gray
        assert np.allclose(cloud.features, 0.5)

    def test_ascii_with_colors(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
            "1 2 3 255 0 51\n"
        )
        path = tmp_path / "c.ply"
        path.write_text(text)
        cloud = load_ply(path)
        assert np.allclose(cloud.features[0], [1.0, 0.0, 0.2])

    @staticmethod
    def colored(binary, typ, value):
        """One vertex at the origin with all three colors of PLY type ``typ``."""
        header = (
            f"ply\nformat {'binary_little_endian' if binary else 'ascii'} 1.0\n"
            "element vertex 1\nproperty float x\nproperty float y\nproperty float z\n"
            + "".join(f"property {typ} {c}\n" for c in ("red", "green", "blue"))
            + "end_header\n"
        ).encode()
        if not binary:
            return header + f"0 0 0 {value} {value} {value}\n".encode()
        code = {"uint8": "u1", "float": "<f4", "ushort": "<u2", "double": "<f8"}[typ]
        return header + bytes(12) + np.full(3, value, dtype=code).tobytes()

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize(
        "typ, value", [("float", 1.0), ("ushort", 65535), ("double", 0.5)]
    )
    def test_color_not_uchar_rejected(self, tmp_path, binary, typ, value):
        path = tmp_path / "c.ply"
        path.write_bytes(self.colored(binary, typ, value))
        with pytest.raises(UnsupportedProperty, match=f"red of type {typ}"):
            load_ply(path)

    @pytest.mark.parametrize("binary", [False, True])
    def test_uint8_color_loads(self, tmp_path, binary):
        path = tmp_path / "c.ply"
        path.write_bytes(self.colored(binary, "uint8", 51))
        assert np.allclose(load_ply(path).features, 0.2)

    @pytest.mark.parametrize("binary", [False, True])
    def test_int16_and_uint16_properties(self, tmp_path, binary):
        pos = np.array([[-32768, 0, 7], [32767, -5, 1]])
        intensity = np.array([65535, 3])
        header = (
            "ply\nformat {} 1.0\nelement vertex 2\n"
            "property int16 x\nproperty int16 y\nproperty int16 z\n"
            "property uint16 intensity\nend_header\n"
        ).format("binary_little_endian" if binary else "ascii")
        if binary:
            rec = np.empty(2, dtype=[("p", "<i2", 3), ("i", "<u2")])
            rec["p"], rec["i"] = pos, intensity
            body = rec.tobytes()
        else:
            body = "".join(
                f"{x} {y} {z} {i}\n" for (x, y, z), i in zip(pos, intensity)
            ).encode()
        path = tmp_path / "i16.ply"
        path.write_bytes(header.encode() + body)
        cloud = load_ply(path)
        assert np.array_equal(cloud.positions, pos.astype(np.float64))
        assert np.allclose(cloud.features, 0.5)

    def test_binary_roundtrip_bit_identical(self, rng, tmp_path):
        cloud = make_cloud(rng)
        path = tmp_path / "r.ply"
        save_ply(path, cloud, binary=True)
        back = load_ply(path)
        # float32 storage: compare at float32 resolution, exactly
        assert np.array_equal(
            back.positions.astype(np.float32), cloud.positions.astype(np.float32)
        )
        u8 = np.clip(cloud.features * 255.0, 0, 255).astype(np.uint8)
        assert np.array_equal((back.features * 255.0).round().astype(np.uint8), u8)

    def test_ascii_roundtrip(self, rng, tmp_path):
        cloud = make_cloud(rng, n=10)
        path = tmp_path / "t.ply"
        save_ply(path, cloud, binary=False)
        back = load_ply(path)
        assert np.allclose(back.positions, cloud.positions, atol=1e-6)

    def test_truncated_binary_payload(self, rng, tmp_path):
        cloud = make_cloud(rng, n=20)
        path = tmp_path / "x.ply"
        save_ply(path, cloud, binary=True)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ParseError) as err:
            load_ply(path)
        assert err.value.offset > 0

    def test_not_a_ply(self, tmp_path):
        path = tmp_path / "n.ply"
        path.write_bytes(b"obj\nnothing here\n")
        with pytest.raises(ParseError):
            load_ply(path)

    def test_list_property_rejected(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property list uchar int vertex_indices\n"
            "end_header\n0\n"
        )
        path = tmp_path / "l.ply"
        path.write_text(text)
        with pytest.raises(UnsupportedProperty):
            load_ply(path)

    def test_big_endian_rejected(self, tmp_path):
        text = (
            "ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        path = tmp_path / "b.ply"
        path.write_text(text)
        with pytest.raises(UnsupportedProperty):
            load_ply(path)


    @pytest.mark.parametrize(
        "vertex_line",
        ["element vertex two", "element vertex -1", "element vertex 1.5", "element vertex"],
    )
    def test_bad_vertex_count_rejected(self, tmp_path, vertex_line):
        text = (
            f"ply\nformat ascii 1.0\n{vertex_line}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        path = tmp_path / "v.ply"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_ply(path)

    def test_duplicate_property_rejected(self, tmp_path):
        text = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float x\nend_header\n"
        )
        path = tmp_path / "d.ply"
        path.write_bytes(text.encode() + bytes(16))
        with pytest.raises(ParseError, match="duplicate"):
            load_ply(path)


    @staticmethod
    def two_elements(binary, first, second):
        """Vertices (1, 2, 3), (4, 5, 6) and one two-float ``camera`` row,
        declared as elements ``first`` then ``second``."""
        decl = {
            "vertex": "element vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n",
            "camera": "element camera 1\nproperty float a\nproperty float b\n",
        }
        rows = {"vertex": [1, 2, 3, 4, 5, 6], "camera": [9, 9]}
        header = (
            f"ply\nformat {'binary_little_endian' if binary else 'ascii'} 1.0\n"
            + decl[first] + decl[second] + "end_header\n"
        ).encode()
        values = rows[first] + rows[second]
        if binary:
            return header + np.array(values, dtype="<f4").tobytes()
        return header + " ".join(map(str, values)).encode() + b"\n"

    @pytest.mark.parametrize("binary", [False, True])
    def test_element_before_vertex_rejected(self, tmp_path, binary):
        # its data used to be read as the first vertex coordinates
        path = tmp_path / "e.ply"
        path.write_bytes(self.two_elements(binary, "camera", "vertex"))
        with pytest.raises(UnsupportedProperty, match="element camera before"):
            load_ply(path)

    @pytest.mark.parametrize("binary", [False, True])
    def test_element_after_vertex_loads(self, tmp_path, binary):
        path = tmp_path / "e.ply"
        path.write_bytes(self.two_elements(binary, "vertex", "camera"))
        assert np.array_equal(load_ply(path).positions, [[1, 2, 3], [4, 5, 6]])

    def test_second_vertex_element_rejected(self, tmp_path):
        # its count and properties used to replace and extend the first's
        path = tmp_path / "e.ply"
        data = self.two_elements(False, "vertex", "camera")
        path.write_bytes(data.replace(b"element camera", b"element vertex"))
        with pytest.raises(ParseError, match="more than one vertex element"):
            load_ply(path)


    @pytest.mark.parametrize(
        "binary, edit",
        [
            (False, lambda d: d.replace(b" ascii ", b" binary_little_endian ")),
            (True, lambda d: d + b"\x00"),
            (False, lambda d: d + b"7\n"),
        ],
        ids=["ascii_declared_binary", "binary_extra_byte", "ascii_extra_value"],
    )
    def test_undeclared_body_data_rejected(self, rng, tmp_path, binary, edit):
        # with vertex the last element, the body is exactly the vertex data;
        # read as binary, the text of 6 vertices used to load as positions
        path = tmp_path / "u.ply"
        save_ply(path, make_cloud(rng, n=6), binary=binary)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ParseError):
            load_ply(path)


class TestLabels:
    def test_text_labels_compacted(self, tmp_path):
        path = tmp_path / "lab.txt"
        path.write_text("7\n7\n42\n")
        labels = load_labels(path, 3)
        assert np.array_equal(labels, [0, 0, 1])

    def test_binary_labels_with_sentinel(self, tmp_path):
        raw = np.array([5, -1, 5, 9], dtype="<i4")
        path = tmp_path / "lab.bin"
        path.write_bytes(raw.tobytes())
        labels = load_labels(path, 4)
        assert np.array_equal(labels, [0, -1, 0, 1])

    def test_all_sentinel(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1\n-1\n")
        with pytest.raises(NoValidSuperpoints):
            load_labels(path, 2)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("0\n1\n")
        with pytest.raises(LengthMismatch):
            load_labels(path, 5)

    @pytest.mark.parametrize("text", ["0\n-\n", "0\n99999999999999999999999\n"])
    def test_non_integer_text_label_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_labels(path, 2)

    @pytest.mark.parametrize("binary", [False, True])
    def test_label_below_sentinel_rejected(self, tmp_path, binary):
        # -5 used to load as the sentinel
        path = tmp_path / "lab"
        if binary:
            path.write_bytes(np.array([3, -5, 7], dtype="<i4").tobytes())
        else:
            path.write_text("3 -5 7\n")
        with pytest.raises(ParseError, match="label -5 of point 1"):
            load_labels(path, 3)

    def test_stray_byte_at_end_of_sniffed_prefix(self, tmp_path):
        # the text sniff reads 4096 bytes: a stray byte at offset 4095 makes
        # the file binary i32, b"7\n7\n" 1023 times and then b"7\n7\x00"
        data = bytearray(b"7\n" * 2048)
        data[4095] = 0
        path = tmp_path / "lab"
        path.write_bytes(bytes(data))
        labels = load_labels(path, 1024)
        assert np.array_equal(labels, [1] * 1023 + [0])

    def test_binary_misaligned(self, tmp_path):
        path = tmp_path / "odd.bin"
        path.write_bytes(b"\x01\x00\x00")
        with pytest.raises(ParseError):
            load_labels(path, 1)


class TestTokenFile:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        tokens = TokenMatrix(
            feats=rng.normal(size=(16, 8)), centers=rng.uniform(size=(16, 3))
        )
        path = tmp_path / "t.tok"
        write_token_file(path, tokens)
        back = read_token_file(path)
        assert np.array_equal(back.feats, tokens.feats)
        assert np.array_equal(back.centers, tokens.centers)

    def test_header(self, rng, tmp_path):
        tokens = TokenMatrix(
            feats=rng.normal(size=(5, 4)), centers=rng.uniform(size=(5, 3))
        )
        path = tmp_path / "h.tok"
        write_token_file(path, tokens)
        version, t, d = read_token_header(path)
        assert (version, t, d) == (1, 5, 4)
        assert path.read_bytes()[:4] == TOKENFILE_MAGIC

    def test_checksum_detects_corruption(self, rng, tmp_path):
        tokens = TokenMatrix(
            feats=rng.normal(size=(4, 4)), centers=rng.uniform(size=(4, 3))
        )
        path = tmp_path / "c.tok"
        write_token_file(path, tokens)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError):
            read_token_file(path)

    def test_truncated_payload(self, rng, tmp_path):
        tokens = TokenMatrix(
            feats=rng.normal(size=(4, 4)), centers=rng.uniform(size=(4, 3))
        )
        path = tmp_path / "s.tok"
        write_token_file(path, tokens)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            read_token_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.tok"
        path.write_bytes(b"NOPE" + struct.pack("<HII", 1, 0, 0))
        with pytest.raises(ParseError):
            read_token_header(path)

    @pytest.mark.parametrize("version", [0, 2, 0xFFFF])
    def test_other_version_rejected(self, rng, tmp_path, version):
        tokens = TokenMatrix(
            feats=rng.normal(size=(2, 3)), centers=rng.uniform(size=(2, 3))
        )
        path = tmp_path / "v.tok"
        write_token_file(path, tokens)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", version)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="version"):
            read_token_file(path)
        with pytest.raises(ParseError, match="version"):
            read_token_header(path)

    def test_crc_matches_zlib(self, rng, tmp_path):
        tokens = TokenMatrix(
            feats=rng.normal(size=(2, 3)), centers=rng.uniform(size=(2, 3))
        )
        path = tmp_path / "z.tok"
        write_token_file(path, tokens)
        data = path.read_bytes()
        payload = data[14:-4]
        (stored,) = struct.unpack("<I", data[-4:])
        assert stored == (zlib.crc32(payload) & 0xFFFFFFFF)


class TestWeights:
    def test_roundtrip(self, tmp_path):
        a = seeded_init(3, [(4, 8), (8, 1)])
        b = seeded_init(9, [(2, 2)])
        path = tmp_path / "w.npz"
        save_weights(path, {"alpha": a, "beta": b})
        assert set(np.load(path).files) == {
            "alpha.values", "alpha.shapes", "beta.values", "beta.shapes"
        }
        named = load_weights(path)
        assert set(named) == {"alpha", "beta"}
        assert named["alpha"].shapes == ((4, 8), (8, 1))
        assert np.array_equal(named["alpha"].values, a.values)
        assert np.array_equal(named["beta"].values, b.values)

    @pytest.mark.parametrize("seed", [np.array(3), np.array([3, 4])])
    def test_seed_and_other_arrays_ignored(self, tmp_path, seed):
        # files written with a per-stack ``.seed`` (of any shape) and arrays
        # that name no stack still load
        a = seeded_init(3, [(4, 8), (8, 1)])
        path = tmp_path / "w.npz"
        np.savez(path, **{
            "alpha.values": a.values,
            "alpha.shapes": np.array(a.shapes),
            "alpha.seed": seed,
            "gamma": np.eye(2),
        })
        named = load_weights(path)
        assert set(named) == {"alpha"}
        assert named["alpha"].shapes == a.shapes
        assert np.array_equal(named["alpha"].values, a.values)

    def test_values_length_rejected(self, tmp_path):
        a = seeded_init(3, [(4, 8), (8, 1)])
        path = self.npz(tmp_path / "w.npz", **{"alpha.values": a.values[1:]})
        with pytest.raises(InvalidWeights, match=r"alpha\.values"):
            load_weights(path)

    def test_unchained_shapes_rejected(self, tmp_path):
        path = self.npz(tmp_path / "w.npz", **{"alpha.shapes": np.array([(4, 8), (7, 1)])})
        with pytest.raises(InvalidWeights, match=r"alpha\.shapes: layer 1 fan-in 7"):
            load_weights(path)

    def test_missing_shapes_rejected(self, tmp_path):
        path = tmp_path / "w.npz"
        np.savez(path, **{"alpha.values": np.zeros(3), "alpha.seed": np.array(0)})
        with pytest.raises(InvalidWeights, match=r"alpha\.shapes is missing"):
            load_weights(path)


    def npz(self, path, **over):
        """A valid two-stack weights file, with arrays replaced or added."""
        a = seeded_init(3, [(4, 8), (8, 1)])
        arrays = {"alpha.values": a.values, "alpha.shapes": np.array(a.shapes)}
        arrays.update(over)
        np.savez(path, **arrays)
        return path

    @pytest.mark.parametrize("content", [
        b"not weights\n",
        b"",
        b"PK\x03\x04" + bytes(64),
        "truncated",
        "spliced",
        "huge_header",
        "npy",
        "pickled",
    ])
    def test_unreadable_file_rejected(self, tmp_path, content):
        path = tmp_path / "w.npz"
        if content == "truncated":
            data = self.npz(path).read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif content == "spliced":  # entry offsets now point past the end
            data = self.npz(path).read_bytes()
            path.write_bytes(data[:550] + data[587:])
        elif content == "huge_header":  # an entry declaring ~7 TiB of float64
            buf = io_module.BytesIO()
            np.save(buf, np.zeros(49))
            npy = buf.getvalue().replace(b"(49,), }" + b" " * 10, b"(999999999999,), }")
            with zipfile.ZipFile(path, "w") as archive:
                archive.writestr("alpha.values.npy", npy)
        elif content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        elif content == "pickled":
            self.npz(path, **{"alpha.values": np.array([1.0, "x"], dtype=object)})
        else:
            path.write_bytes(content)
        with pytest.raises(InvalidWeights, match=r"w\.npz is not a(n| readable) \.npz"):
            load_weights(path)

    def test_non_integer_shapes_rejected(self, tmp_path):
        # 3.5 used to be truncated to 3
        path = self.npz(tmp_path / "w.npz", **{"alpha.shapes": np.array([[3.5, 8], [8, 1]])})
        with pytest.raises(InvalidWeights, match=r"w\.npz: alpha\.shapes must be integer"):
            load_weights(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        values = seeded_init(3, [(4, 8), (8, 1)]).values.copy()
        values[7] = bad
        path = self.npz(tmp_path / "w.npz", **{"alpha.values": values})
        with pytest.raises(InvalidWeights, match=r"w\.npz: alpha\.values holds a NaN or inf"):
            load_weights(path)

    @pytest.mark.parametrize("dtype", [str, complex, bool])
    def test_non_real_values_rejected(self, tmp_path, dtype):
        values = seeded_init(3, [(4, 8), (8, 1)]).values.astype(dtype)
        path = self.npz(tmp_path / "w.npz", **{"alpha.values": values})
        with pytest.raises(InvalidWeights, match=r"alpha\.values has dtype .*not real numbers"):
            load_weights(path)

    def test_integer_values_load_as_float64(self, tmp_path):
        path = self.npz(tmp_path / "w.npz", **{"alpha.values": np.arange(49)})
        values = load_weights(path)["alpha"].values
        assert values.dtype == np.float64 and np.array_equal(values, np.arange(49.0))


def _weights_file(data, action, key, dtype, cut):
    """An .npz of the ``data`` arrays, one of them changed."""
    arrays = dict(data)
    if action == "drop":
        del arrays[key]
    elif action == "dtype":
        arrays[key] = arrays[key].astype(dtype)
    elif action == "nan":
        arrays[key] = arrays[key].astype(np.float64)
        arrays[key].flat[:: max(1, arrays[key].size // 3)] = np.nan
    buf = io_module.BytesIO()
    np.savez(buf, **arrays)
    return _cut(buf.getvalue(), action, cut)


def _cut(raw, action, cut):
    """``raw`` ended at ``cut``, or with 37 bytes from ``cut`` on taken out."""
    if action == "truncate":
        return raw[:cut]
    if action == "splice":
        return raw[:cut] + raw[cut + 37 :]
    return raw


def _token_file(tokens, action, part, dtype, cut):
    """A token file of ``tokens`` with one part dropped, retyped or NaN-filled."""
    feats, centers = tokens.feats, tokens.centers
    if action == "nan":
        feats = feats.copy()
        feats.flat[::3] = np.nan
    if action == "dtype":
        feats = feats.astype(dtype)
    payload = feats.tobytes() + centers.tobytes()
    parts = {
        "magic": TOKENFILE_MAGIC,
        "header": struct.pack("<HII", 1, tokens.n_tokens, tokens.width),
        "feats": feats.tobytes(),
        "centers": centers.tobytes(),
        "crc": struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF),
    }
    if action == "drop":
        del parts[part]
    return _cut(b"".join(parts.values()), action, cut)


# Header edits that mis-declare a PLY written by save_ply (6 vertices): a
# wrong or malformed count, a changed, dropped, unknown or list-typed
# property, the other format, an element before or after the vertex element,
# and no magic line.
PLY_HEADER_EDITS = [
    (b"element vertex 6\n", b"element vertex 7\n"),
    (b"element vertex 6\n", b"element vertex 5\n"),
    (b"element vertex 6\n", b"element vertex 6e0\n"),
    (b"property float x\n", b"property double x\n"),
    (b"property float z\n", b""),
    (b"property uchar red\n", b"property list uchar int red\n"),
    (b"property uchar blue\n", b"property half blue\n"),
    (b" ascii ", b" binary_little_endian "),
    (b" binary_little_endian ", b" ascii "),
    (b"element vertex", b"element camera 1\nproperty float a\nelement vertex"),
    (b"end_header\n", b"element face 1\nproperty list uchar int idx\nend_header\n"),
    (b"ply\n", b""),
]


def _ply_file(path, binary, action, pick, cut):
    """A 6-point PLY as save_ply writes it, then damaged by ``action``; also
    the undamaged bytes and the positions written."""
    cloud = make_cloud(np.random.Generator(np.random.PCG64(3)), n=6)
    if action in ("nan", "inf"):
        cloud.positions.flat[pick % 18] = np.nan if action == "nan" else np.inf
    save_ply(path, cloud, binary=binary)
    intact = path.read_bytes()
    raw = intact
    if action == "header":
        raw = raw.replace(*PLY_HEADER_EDITS[pick % len(PLY_HEADER_EDITS)], 1)
    path.write_bytes(_cut(raw, action, cut))
    return intact, cloud.positions


def _label_file(binary, action, pick, cut):
    """Eight labels with two sentinels, as text lines or binary i32, then
    emptied, made all-sentinel, given a stray byte, or cut."""
    raw = np.array([3, 3, -1, 7, 0, 7, 3, -1])
    if action == "sentinel":
        raw[:] = -1
    if binary:
        data = raw.astype("<i4").tobytes()
    else:
        data = "\n".join(map(str, raw)).encode() + b"\n"
    if action == "empty":
        return b""
    if action == "stray":
        at = pick % (len(data) + 1)
        return data[:at] + [b"x", b"-", b"9", b" ", b"\xff"][pick % 5] + data[at:]
    return _cut(data, action, cut)


class TestFuzzBoundary:
    """Damaged input files raise a typed error, nothing else."""

    ACTIONS = st.sampled_from(["truncate", "splice", "dtype", "nan", "drop", "none"])
    DTYPES = st.sampled_from(
        [np.float32, np.float16, np.int64, np.uint8, np.int8, bool, complex, "<U4", object]
    )

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        action=ACTIONS,
        key=st.integers(0, 5),
        dtype=DTYPES,
        cut=st.integers(0, 4000),
    )
    def test_load_weights(self, tmp_path_factory, action, key, dtype, cut):
        data = {}
        for name, w in vars(PipelineWeights.from_seed(0, 3, 8, 4, 4)).items():
            data[f"{name}.values"] = w.values
            data[f"{name}.shapes"] = np.array(w.shapes)
        raw = _weights_file(data, action, sorted(data)[key], dtype, cut)
        path = tmp_path_factory.mktemp("fuzz") / "w.npz"
        path.write_bytes(raw)
        try:
            named = load_weights(path)
        except InvalidWeights:
            return
        for w in named.values():
            assert w.values.dtype == np.float64 and np.isfinite(w.values).all()

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        action=ACTIONS,
        part=st.sampled_from(["magic", "header", "feats", "centers", "crc"]),
        dtype=st.sampled_from([np.float32, np.int64, np.int32, np.float16]),
        cut=st.integers(0, 600),
    )
    def test_read_token_file(self, tmp_path_factory, action, part, dtype, cut):
        rng = np.random.Generator(np.random.PCG64(7))
        tokens = TokenMatrix(feats=rng.normal(size=(4, 6)), centers=rng.normal(size=(4, 3)))
        path = tmp_path_factory.mktemp("fuzz") / "t.tok"
        path.write_bytes(_token_file(tokens, action, part, dtype, cut))
        try:
            got = read_token_file(path)
        except ParseError:
            return
        assert got.feats.shape == (4, 6) and got.centers.shape == (4, 3)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        binary=st.booleans(),
        action=st.sampled_from(["truncate", "splice", "header", "nan", "inf", "none"]),
        pick=st.integers(0, 200),
        cut=st.integers(0, 400),
    )
    def test_load_ply(self, tmp_path_factory, binary, action, pick, cut):
        path = tmp_path_factory.mktemp("fuzz") / "p.ply"
        intact, positions = _ply_file(path, binary, action, pick, cut)
        try:
            cloud = load_ply(path)
        except SfcTokError:
            return
        assert np.isfinite(cloud.positions).all() and np.isfinite(cloud.features).all()
        assert cloud.features.shape[0] == cloud.n_points
        if path.read_bytes() == intact:  # stored as float32 or 9 digits
            assert np.allclose(cloud.positions, positions, rtol=1e-7, atol=0.0)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        binary=st.booleans(),
        action=st.sampled_from(["truncate", "splice", "stray", "empty", "sentinel", "none"]),
        pick=st.integers(0, 100),
        cut=st.integers(0, 40),
        n_points=st.integers(0, 9),
    )
    def test_load_labels(self, tmp_path_factory, binary, action, pick, cut, n_points):
        path = tmp_path_factory.mktemp("fuzz") / "labels"
        path.write_bytes(_label_file(binary, action, pick, cut))
        try:
            labels = load_labels(path, n_points)
        except SfcTokError:
            return
        assert labels.shape == (n_points,) and labels.dtype == np.int64
        used = np.unique(labels[labels >= 0])
        assert (labels >= -1).all() and np.array_equal(used, np.arange(used.size))
        assert used.size > 0


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.tokens == 256 and cfg.window == 64 and cfg.stride == 16

    def test_parse_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("tokens = 32  # small\n\nvoxel_cell=0.4\n")
        values = parse_config_file(path)
        assert values == {"tokens": "32", "voxel_cell": "0.4"}

    def test_file_then_override(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SFCTOK_SEED", raising=False)
        cfg = config_from_sources({"tokens": "32"}, {"tokens": "64", "tau": "0.1"})
        assert cfg.tokens == 64
        assert cfg.tau == 0.1
        assert cfg.seed == 0

    def test_env_seed_wins(self, monkeypatch):
        monkeypatch.setenv("SFCTOK_SEED", "77")
        cfg = config_from_sources({}, {"seed": "3"})
        assert cfg.seed == 77

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            config_from_sources({"bogus": "1"}, {})

    def test_positive_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(window=0)

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"bits": 17}, "bits=17"),
            ({"bits": 0}, "bits=0"),
            ({"stride": 100}, "stride=100"),
            ({"window": 8, "stride": 9}, "stride=9"),
            ({"tau": float("inf")}, "tau=inf"),
            ({"voxel_cell": float("nan")}, "voxel_cell=nan"),
            ({"sinkhorn_tol": float("inf")}, "sinkhorn_tol=inf"),
            ({"width": 5}, "width=5"),
            ({"width": 1}, "width=1"),
            # int fields take integers only: no fractions, floats, bools or strings
            ({"seed": 1.5}, "seed=1.5 must be an integer"),
            ({"graph_k": 2.5}, "graph_k=2.5 must be an integer"),
            ({"tokens": 16.5}, "tokens=16.5 must be an integer"),
            ({"window": 64.0}, "window=64.0 must be an integer"),
            ({"bits": 9.5}, "bits=9.5 must be an integer"),
            ({"svd_rank": 8.5}, "svd_rank=8.5 must be an integer"),
            ({"sample_n": 2500.5}, "sample_n=2500.5 must be an integer"),
            ({"stride": True}, "stride=True must be an integer"),
            ({"seed": False}, "seed=False must be an integer"),
            ({"tokens": "16"}, "tokens='16' must be an integer"),
            # float fields take real numbers only: no strings, None, complex or bools
            ({"tau": "0.1"}, "tau='0.1' must be a real number"),
            ({"voxel_cell": None}, "voxel_cell=None must be a real number"),
            ({"voxel_cell": 1 + 0j}, r"voxel_cell=\(1\+0j\) must be a real number"),
            ({"tau": True}, "tau=True must be a real number"),
            ({"sinkhorn_tol": np.bool_(False)}, "sinkhorn_tol=.*False_? must be a real"),
        ],
    )
    def test_rejected_at_construction(self, fields, named):
        with pytest.raises(ConfigError, match=named):
            PipelineConfig(**fields)

    def test_edge_values_allowed(self):
        cfg = PipelineConfig(bits=16, window=8, stride=8)
        assert (cfg.bits, cfg.stride) == (16, 8)
        assert PipelineConfig(bits=1).bits == 1
        assert PipelineConfig(width=6).width == 6
        cfg = PipelineConfig(tokens=np.int64(32), seed=np.uint8(3))
        assert (cfg.tokens, cfg.seed) == (32, 3)

    def test_seed_zero_allowed(self):
        assert PipelineConfig(seed=0).seed == 0
        fields = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert "tokens" in fields
