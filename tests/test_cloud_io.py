import numpy as np
import pytest

from flowcomplete import cloud_io


def random_cloud(rng, n):
    return rng.uniform(-10, 10, size=(n, 3))


class TestXyz:
    def test_literal_three_lines(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n1 2 3\n-1 0.5 2\n")
        cloud = cloud_io.read_cloud(path)
        assert cloud.tolist() == [[0, 0, 0], [1, 2, 3], [-1, 0.5, 2]]

    def test_round_trip_within_print_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, 50)
        path = tmp_path / "cloud.xyz"
        cloud_io.write_cloud(cloud, path)
        back = cloud_io.read_cloud(path)
        assert np.allclose(back, cloud, rtol=1e-8, atol=1e-12)

    def test_second_write_stable(self, tmp_path):
        # printing at 9 significant digits is idempotent after one trip
        rng = np.random.default_rng(1)
        a = tmp_path / "a.xyz"
        b = tmp_path / "b.xyz"
        cloud_io.write_cloud(random_cloud(rng, 20), a)
        cloud_io.write_cloud(cloud_io.read_cloud(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 2\n")
        with pytest.raises(ValueError, match="line 2"):
            cloud_io.read_cloud(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 zero 0\n")
        with pytest.raises(ValueError, match="line 1"):
            cloud_io.read_cloud(path)

    def test_non_ascii_byte(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_bytes(b"0 0 0\n\xff 1 1\n")
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == f"{path}: line 2: bad coordinate in '\ufffd 1 1'"

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "nan.xyz"
        path.write_text("0 0 0\ninf 1 1\n")
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == f"{path}: point cloud contains non-finite coordinates"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("# header\n\n1 1 1\n")
        assert cloud_io.read_cloud(path).tolist() == [[1, 1, 1]]


class TestPlyBinary:
    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 100)
        a = tmp_path / "a.ply"
        b = tmp_path / "b.ply"
        cloud_io.write_cloud(cloud, a, "ply-binary")
        back = cloud_io.read_cloud(a)
        cloud_io.write_cloud(back, b, "ply-binary")
        assert a.read_bytes() == b.read_bytes()

    def test_read_preserves_stored_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 40)
        path = tmp_path / "cloud.ply"
        cloud_io.write_cloud(cloud, path, "ply-binary")
        back = cloud_io.read_cloud(path)
        # storage is float32; the read must match that rounding exactly
        assert np.array_equal(back, cloud.astype("<f4").astype(np.float64))

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        cloud_io.write_cloud(np.empty((0, 3)), path, "ply-binary")
        assert cloud_io.read_cloud(path).shape == (0, 3)

    def test_truncated_body(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "cloud.ply"
        cloud_io.write_cloud(random_cloud(rng, 10), path, "ply-binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            cloud_io.read_cloud(path)

    def test_missing_vertex_element(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nend_header\n")
        with pytest.raises(ValueError, match="element vertex"):
            cloud_io.read_cloud(path)

    def test_missing_property(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nend_header\n0 0\n"
        )
        with pytest.raises(ValueError, match="property 'z'"):
            cloud_io.read_cloud(path)

    def test_not_a_ply(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"garbage")
        with pytest.raises(ValueError, match="missing header"):
            cloud_io.read_cloud(path)

    @pytest.mark.parametrize("header, reason", [
        ("element vertex -1", "negative PLY vertex count -1"),
        ("element vertex abc", "bad PLY vertex count 'abc'"),
        ("element vertex", "PLY element line needs a name and a count"),
    ])
    def test_bad_vertex_count(self, tmp_path, header, reason):
        # 24 body bytes: enough for the old reader to load one point from a
        # count of -1 (it kept all but the last 12 bytes)
        path = tmp_path / "bad.ply"
        path.write_bytes(
            f"ply\nformat binary_little_endian 1.0\n{header}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n".encode("ascii") + bytes(24)
        )
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == f"{path}: {reason}"

    def test_format_without_value(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat\nelement vertex 0\nend_header\n")
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == f"{path}: PLY format line has no value"

    @pytest.mark.parametrize("fmt", ["binary_little_endian", "ascii"])
    def test_non_finite_body(self, tmp_path, fmt):
        path = tmp_path / "nan.ply"
        cloud = np.array([[0.0, 1.0, 2.0], [np.nan, 0.0, 0.0]], dtype="<f4")
        body = (cloud.tobytes() if fmt != "ascii"
                else b"0 1 2\nnan 0 0\n")
        path.write_bytes(
            f"ply\nformat {fmt} 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n".encode("ascii") + body
        )
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == f"{path}: point cloud contains non-finite coordinates"


class TestPlyAscii:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 30)
        path = tmp_path / "cloud.ply"
        cloud_io.write_cloud(cloud, path, "ply")
        back = cloud_io.read_cloud(path)
        assert np.allclose(back, cloud, rtol=1e-8, atol=1e-12)

    def test_binary_and_ascii_agree(self, tmp_path):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 25).astype("<f4").astype(np.float64)
        pa = tmp_path / "a.ply"
        pb = tmp_path / "b.ply"
        cloud_io.write_cloud(cloud, pa, "ply")
        cloud_io.write_cloud(cloud, pb, "ply-binary")
        ascii_back = cloud_io.read_cloud(pa)
        binary_back = cloud_io.read_cloud(pb)
        assert np.allclose(ascii_back, binary_back, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("row, shown", [(b"0 x 0", "0 x 0"),
                                            (b"0 \xff 0", "0 \ufffd 0")])
    def test_bad_coordinate(self, tmp_path, row, shown):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 1\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n" + row + b"\n")
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == f"{path}: line 8: bad coordinate in {shown!r}"


class TestFormatGuessing:
    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError, match="guess"):
            cloud_io.read_cloud(tmp_path / "cloud.bin")

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cloud format"):
            cloud_io.write_cloud(np.zeros((1, 3)), tmp_path / "c.xyz", "npz")


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            cloud_io.ManifestEntry("case-000", "scenes/000.ply", "scans/000.ply", 12),
            cloud_io.ManifestEntry("case-001", "scenes/001.ply", "scans/001.ply", 13),
        ]
        path = tmp_path / "manifest.tsv"
        cloud_io.write_manifest(entries, path)
        assert cloud_io.read_manifest(path) == entries

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("case-0\tscene.ply\n")
        with pytest.raises(ValueError, match="line 1"):
            cloud_io.read_manifest(path)

    def test_bad_seed(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("case-0\ta.ply\tb.ply\ttwelve\n")
        with pytest.raises(ValueError, match="bad seed"):
            cloud_io.read_manifest(path)
