import warnings

import numpy as np
import pytest

from flowcomplete import cloud_io, config, metrics


def random_cloud(rng, n):
    return rng.uniform(-10, 10, size=(n, 3))


def ascii_ply(cloud) -> str:
    """An ASCII PLY file of the cloud, as outside tools write it."""
    rows = "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in cloud)
    return ("ply\nformat ascii 1.0\n"
            f"element vertex {len(cloud)}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n" + rows)


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
        assert str(err.value) == f"{path}: line 2: bad coordinate in 'inf 1 1'"

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
        cloud_io.write_cloud(cloud, a)
        back = cloud_io.read_cloud(a)
        cloud_io.write_cloud(back, b)
        assert a.read_bytes() == b.read_bytes()

    def test_read_preserves_stored_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 40)
        path = tmp_path / "cloud.ply"
        cloud_io.write_cloud(cloud, path)
        back = cloud_io.read_cloud(path)
        # storage is float32; the read must match that rounding exactly
        assert np.array_equal(back, cloud.astype("<f4").astype(np.float64))

    @pytest.mark.parametrize("value", [1e160, -3.5e38, np.finfo(np.float64).max])
    def test_coordinate_beyond_float32_range(self, tmp_path, value):
        path = tmp_path / "far.ply"
        cloud = np.zeros((5, 3))
        cloud[3, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                cloud_io.write_cloud(cloud, path)
        assert str(err.value) == (f"{path}: coordinates beyond the float32 "
                                  "range of binary PLY")
        assert not path.exists()

    def test_float32_extremes_round_trip(self, tmp_path):
        # the largest float32, and a float64 just above it that rounds to it
        top = float(np.finfo(np.float32).max)
        cloud = np.array([[top, -top, 0.0], [np.nextafter(top, np.inf), 1.0, 2.0]])
        path = tmp_path / "edge.ply"
        cloud_io.write_cloud(cloud, path)
        assert cloud_io.read_cloud(path).tolist() == [[top, -top, 0.0], [top, 1.0, 2.0]]

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        cloud_io.write_cloud(np.empty((0, 3)), path)
        assert cloud_io.read_cloud(path).shape == (0, 3)

    def test_truncated_body(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "cloud.ply"
        cloud_io.write_cloud(random_cloud(rng, 10), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            cloud_io.read_cloud(path)

    def test_bytes_after_the_last_element(self, tmp_path):
        # 12 stray bytes used to load as the 2 declared points
        path = tmp_path / "cloud.ply"
        cloud_io.write_cloud(np.zeros((2, 3)), path)
        path.write_bytes(path.read_bytes() + bytes(12))
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == (
            f"{path}: 12 bytes after the 2 PLY vertices, the last element")

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
        # a text row names its line; a binary body has no lines
        reason = ("line 9: bad coordinate in 'nan 0 0'" if fmt == "ascii"
                  else "point cloud contains non-finite coordinates")
        assert str(err.value) == f"{path}: {reason}"


class TestPlyAscii:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 30)
        path = tmp_path / "cloud.ply"
        path.write_text(ascii_ply(cloud))
        back = cloud_io.read_cloud(path)
        assert np.allclose(back, cloud, rtol=1e-8, atol=1e-12)

    def test_binary_and_ascii_agree(self, tmp_path):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 25).astype("<f4").astype(np.float64)
        pa = tmp_path / "a.ply"
        pb = tmp_path / "b.ply"
        pa.write_text(ascii_ply(cloud))
        cloud_io.write_cloud(cloud, pb)
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


    def test_rows_after_the_last_element(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(ascii_ply(np.ones((2, 3))) + "\n  \n")
        assert cloud_io.read_cloud(path).tolist() == [[1, 1, 1], [1, 1, 1]]
        # a third row and a word used to load as the 2 declared points
        path.write_text(ascii_ply(np.zeros((2, 3))) + "1 2 3\n\nhello\n")
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == (
            f"{path}: 2 rows after the 2 PLY vertices, the last element")


class TestPlyLimits:
    def test_binary_double_coordinates_rejected(self, tmp_path):
        # read as float32, these bytes used to load as [[0, 1.875, 0], ...]
        path = tmp_path / "double.ply"
        path.write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            b"property double x\nproperty double y\nproperty double z\n"
            b"end_header\n" + np.array([[1, 2, 3], [4, 5, 6]], "<f8").tobytes()
        )
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == (f"{path}: binary PLY coordinates must be "
                                  "float or float32, got ['double', 'double', 'double']")

    def test_binary_float32_name_accepted(self, tmp_path):
        path = tmp_path / "f32.ply"
        path.write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            b"property float32 x\nproperty float32 y\nproperty float32 z\n"
            b"end_header\n" + np.array([[1, 2, 3]], "<f4").tobytes()
        )
        assert cloud_io.read_cloud(path).tolist() == [[1, 2, 3]]

    @pytest.mark.parametrize("fmt", ["binary_little_endian", "ascii"])
    def test_bare_property_line_rejected(self, tmp_path, fmt):
        path = tmp_path / "bare.ply"
        path.write_text(f"ply\nformat {fmt} 1.0\nelement vertex 0\n"
                        "property float x\nproperty float y\nproperty\n"
                        "end_header\n")
        with pytest.raises(ValueError, match="missing property 'z'"):
            cloud_io.read_cloud(path)

    def test_ascii_double_coordinates_accepted(self, tmp_path):
        path = tmp_path / "double.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property double x\nproperty double y\n"
                        "property double z\nend_header\n0.1 0.2 0.3\n")
        assert cloud_io.read_cloud(path).tolist() == [[0.1, 0.2, 0.3]]

    @pytest.mark.parametrize("fmt, face", [
        ("binary_little_endian", b"\x03" + bytes(12)),
        ("ascii", b"3 0 0 0\n"),
    ], ids=["binary", "ascii"])
    def test_element_before_vertex_rejected(self, tmp_path, fmt, face):
        # the face row used to be read as the first vertex
        path = tmp_path / "face-first.ply"
        vertex = (np.array([[1, 2, 3]], "<f4").tobytes() if fmt != "ascii"
                  else b"1 2 3\n")
        path.write_bytes(
            f"ply\nformat {fmt} 1.0\nelement face 1\n"
            "property list uchar int vertex_indices\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n".encode("ascii") + face + vertex
        )
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == (f"{path}: PLY element 'face' comes before "
                                  "vertex; vertex must be the first element")

    def test_element_after_vertex_ignored(self, tmp_path):
        path = tmp_path / "face-last.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "element face 1\nproperty list uchar int vertex_indices\n"
                        "end_header\n1 2 3\n3 0 0 0\n")
        assert cloud_io.read_cloud(path).tolist() == [[1, 2, 3]]

    @pytest.mark.parametrize("fmt, eol", [
        ("binary_little_endian", "\n"), ("ascii", "\n"), ("ascii", "\r\n"),
    ], ids=["binary", "ascii", "ascii-crlf"])
    def test_end_header_ends_only_a_whole_line(self, tmp_path, fmt, eol):
        # a comment line ending in end_header does not end the header;
        # if it did, a binary body would start inside the header text
        vertex = (np.array([[1, 2, 3]], "<f4").tobytes() if fmt != "ascii"
                  else b"1 2 3\n")
        header = ["ply", f"format {fmt} 1.0", "element vertex 1",
                  "property float x", "property float y", "property float z",
                  "element face 0", "comment faces follow end_header",
                  "end_header", ""]
        path = tmp_path / "comment.ply"
        path.write_bytes(eol.join(header).encode("ascii") + vertex)
        assert cloud_io.read_cloud(path).tolist() == [[1, 2, 3]]

    @pytest.mark.parametrize("name, text, reason", [
        ("cloud.xyz", "1 2 3\x0c4 5 6\n", "line 1: expected 3 coordinates, got 6"),
        ("cloud.ply", ascii_ply(np.zeros((2, 3)))[:-len("0 0 0\n0 0 0\n")]
         + "1 2 3\x0c4 5 6\n", "truncated PLY body: 1 rows, expected 2"),
    ], ids=["xyz", "ascii-ply"])
    def test_form_feed_does_not_end_a_line(self, tmp_path, name, text, reason):
        # one line rule for every text format: \n, \r\n or \r end a line
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == f"{path}: {reason}"

    def test_carriage_returns_end_ascii_rows(self, tmp_path):
        path = tmp_path / "cr.ply"
        path.write_bytes(ascii_ply(np.zeros((0, 3))).encode("ascii")
                         .replace(b"element vertex 0", b"element vertex 2")
                         + b"1 2 3\r4 5 6\r\n")
        assert cloud_io.read_cloud(path).tolist() == [[1, 2, 3], [4, 5, 6]]


class TestPlyLineEnds:
    def test_crlf_ascii_reads_as_lf(self, tmp_path):
        cloud = np.array([[1.5, -2.0, 3.25], [0.0, 4.0, -5.5]])
        path = tmp_path / "crlf.ply"
        path.write_bytes(ascii_ply(cloud).replace("\n", "\r\n").encode("ascii"))
        assert cloud_io.read_cloud(path).tolist() == cloud.tolist()

    def test_crlf_body_error_counts_lines_as_lf(self, tmp_path):
        text = ascii_ply(np.zeros((2, 3))).replace("0 0 0\n0 0 0", "0 0 0\n0 x 0")
        lf, crlf = tmp_path / "lf.ply", tmp_path / "crlf.ply"
        lf.write_text(text)
        crlf.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        errors = []
        for path in (lf, crlf):
            with pytest.raises(ValueError) as err:
                cloud_io.read_cloud(path)
            errors.append(str(err.value).replace(str(path), "FILE"))
        assert errors[0] == errors[1] == "FILE: line 9: bad coordinate in '0 x 0'"

    @pytest.mark.parametrize("header, reason", [
        ("ply\r\nformat binary_little_endian 1.0\r\nelement vertex 1\r\n"
         "property float x\r\nproperty float y\r\nproperty float z\r\n"
         "end_header\r\n", "binary PLY with \\r\\n header line ends"),
        ("ply\r\nformat ascii 1.0\nelement vertex 1\r\nproperty float x\r\n"
         "property float y\r\nproperty float z\r\nend_header\r\n",
         "PLY header lines must all end in \\r\\n"),
        ("ply\r\nformat ascii 1.0\r\nelement vertex 1\r\r\nproperty float x\r\n"
         "property float y\r\nproperty float z\r\nend_header\r\n",
         "PLY header lines must all end in \\r\\n"),
        # \r alone does not end a header line
        ("ply\rformat ascii 1.0\relement vertex 1\rproperty float x\r"
         "property float y\rproperty float z\rend_header\r", "missing header"),
    ], ids=["crlf-binary", "crlf-then-lf", "crlf-then-cr", "cr-only"])
    def test_rejected_header_line_ends(self, tmp_path, header, reason):
        path = tmp_path / "bad.ply"
        path.write_bytes(header.encode("ascii") + bytes(12))
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value).startswith(f"{path}: ")
        assert reason in str(err.value)


class TestFormatGuessing:
    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError, match="guess"):
            cloud_io.read_cloud(tmp_path / "cloud.bin")

    def test_unknown_format_name(self, tmp_path):
        # the extension names the format
        with pytest.raises(ValueError, match="cannot guess cloud format"):
            cloud_io.write_cloud(np.zeros((1, 3)), tmp_path / "cloud.npz")
        assert not (tmp_path / "cloud.npz").exists()

    @pytest.mark.parametrize("name, start", [
        ("cloud.xyz", b"1 2 3\n"), ("cloud.txt", b"1 2 3\n"),
        ("CLOUD.XYZ", b"1 2 3\n"),
        ("cloud.ply", b"ply\nformat binary_little_endian 1.0\n"),
        ("CLOUD.PLY", b"ply\nformat binary_little_endian 1.0\n"),
    ])
    def test_extension_picks_format(self, tmp_path, name, start):
        path = tmp_path / name
        cloud_io.write_cloud([[1.0, 2.0, 3.0]], path)
        assert path.read_bytes().startswith(start)
        assert cloud_io.read_cloud(path).tolist() == [[1.0, 2.0, 3.0]]


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            cloud_io.ManifestEntry("case-000", "scenes/000.ply", "scans/000.ply", 12),
            cloud_io.ManifestEntry("case-001", "scenes/001.ply", "scans/001.ply", 13),
        ]
        path = tmp_path / "manifest.tsv"
        cloud_io.write_manifest(entries, path)
        assert cloud_io.read_manifest(path) == entries

    def test_unicode_line_separators_round_trip(self, tmp_path):
        # Only \n, \r\n and \r end a line, so these stay inside a field.
        entries = [cloud_io.ManifestEntry(f"case{sep}0", "scenes/é.ply",
                                          "scans/000.ply", 3)
                   for sep in ("\u2028", "\u0085", "\x0b", "\x0c", "\x1e")]
        path = tmp_path / "manifest.tsv"
        cloud_io.write_manifest(entries, path)
        assert path.read_bytes().decode("utf-8").count("\n") == len(entries)
        assert cloud_io.read_manifest(path) == entries

    @pytest.mark.parametrize("field", ["case_id", "scene_path", "scan_path"])
    @pytest.mark.parametrize("bad", ["\t", "\n", "\r"])
    def test_write_rejects_tab_and_line_breaks(self, tmp_path, field, bad):
        values = {"case_id": "case-0", "scene_path": "a.ply",
                  "scan_path": "b.ply", "seed": 1}
        values[field] += bad
        path = tmp_path / "manifest.tsv"
        with pytest.raises(ValueError, match=field):
            cloud_io.write_manifest([cloud_io.ManifestEntry(**values)], path)
        assert not path.exists()

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

    # A manifest may only name clouds inside the dataset directory, since
    # the loader joins each path onto that directory and reads the file.
    @pytest.mark.parametrize("scene, scan", [
        ("/etc/scene.ply", "scans/000.ply"),
        ("scenes/000.ply", "/tmp/scan.ply"),
    ])
    def test_absolute_path_rejected(self, tmp_path, scene, scan):
        path = tmp_path / "manifest.tsv"
        path.write_text(f"case-0\tscenes/a.ply\tscans/a.ply\t1\n"
                        f"case-1\t{scene}\t{scan}\t2\n")
        with pytest.raises(ValueError, match="line 2") as err:
            cloud_io.read_manifest(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("scene, scan", [
        ("../outside.ply", "scans/000.ply"),
        ("scenes/000.ply", "scans/../../outside.ply"),
        ("scenes/..", "scans/000.ply"),
    ])
    def test_parent_part_rejected(self, tmp_path, scene, scan):
        path = tmp_path / "manifest.tsv"
        path.write_text(f"case-0\t{scene}\t{scan}\t1\n")
        with pytest.raises(ValueError, match=r"line 1: .*'\.\.'") as err:
            cloud_io.read_manifest(path)
        assert str(path) in str(err.value)

    def test_non_utf8_body_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"case-0\ta.ply\tb.ply\t1\n"
                         b"case-1\tscenes/\xff.ply\tb.ply\t2\n")
        with pytest.raises(ValueError, match="line 2: not valid UTF-8") as err:
            cloud_io.read_manifest(path)
        assert str(path) in str(err.value)

    def test_non_utf8_line_after_carriage_return(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"case-0\ta.ply\tb.ply\t1\r"
                         b"case-1\tscenes/\xff.ply\tb.ply\t2\r")
        with pytest.raises(ValueError, match="line 2: not valid UTF-8"):
            cloud_io.read_manifest(path)


# Hand-typed forms that every text reader takes, with the value each reads
# as: the same value Python's float() or int() gives.
STILL_READ_FLOATS = [(".25", 0.25), ("1e-3", 0.001), ("+3", 3.0), ("-0.0", -0.0),
                     ("007", 7.0), (" 3 ", 3.0)]
STILL_READ_INTS = [("+3", 3), ("007", 7), (" 3 ", 3)]


def same_number(value, want) -> bool:
    """Equal with the same type and sign, so -0.0 is not 0.0."""
    return type(value) is type(want) and repr(value) == repr(want)


def ascii_ply_text(count: str, row: str) -> str:
    """An ASCII PLY file with the given vertex count text and one body row."""
    return ("ply\nformat ascii 1.0\n"
            f"element vertex {count}\n"
            "property float x\nproperty float y\nproperty float z\n"
            f"end_header\n{row}\n")


class TestNumberRule:
    """Every text reader takes a number only in an ASCII spelling without an
    underscore, and only a finite one, and names the file or line of a
    number it rejects. The cloud readers decode non-ASCII bytes to U+FFFD,
    which no number holds, so their tables test `1_0` and non-finite text."""

    @pytest.mark.parametrize("text", ["1_0", "٣", "1e400", "nan", "-inf",
                                      "0x10", "", "3 4"])
    def test_parse_number_rejects(self, text):
        assert cloud_io.parse_number(text) is None
        assert cloud_io.parse_number(text, int) is None

    @pytest.mark.parametrize("bad", ["1_0", "nan", "1e400"])
    @pytest.mark.parametrize("name", ["cloud.xyz", "cloud.ply"])
    def test_row_rejects(self, tmp_path, name, bad):
        path = tmp_path / name
        row = f"{bad} 2 3"
        path.write_text(ascii_ply_text("1", row) if name.endswith(".ply")
                        else f"0 0 0\n{row}\n")
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        lineno = 8 if name.endswith(".ply") else 2
        assert str(err.value) == f"{path}: line {lineno}: bad coordinate in {row!r}"

    @pytest.mark.parametrize("text, want", STILL_READ_FLOATS)
    @pytest.mark.parametrize("name", ["cloud.xyz", "cloud.ply"])
    def test_row_still_reads(self, tmp_path, name, text, want):
        path = tmp_path / name
        row = f"{text} 2 3"
        path.write_text(ascii_ply_text("1", row) if name.endswith(".ply") else row)
        assert same_number(float(cloud_io.read_cloud(path)[0, 0]), want)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_vertex_count_rejects(self, tmp_path, fmt):
        path = tmp_path / "cloud.ply"
        path.write_bytes(f"ply\nformat {fmt} 1.0\nelement vertex 1_0\n"
                         "property float x\nproperty float y\nproperty float z\n"
                         "end_header\n".encode("ascii") + bytes(120))
        with pytest.raises(ValueError) as err:
            cloud_io.read_cloud(path)
        assert str(err.value) == f"{path}: bad PLY vertex count '1_0'"

    @pytest.mark.parametrize("count", ["+1", "001"])
    def test_vertex_count_still_reads(self, tmp_path, count):
        path = tmp_path / "cloud.ply"
        path.write_text(ascii_ply_text(count, "1 2 3"))
        assert cloud_io.read_cloud(path).tolist() == [[1, 2, 3]]

    @pytest.mark.parametrize("seed", ["1_0", "٣"])
    def test_manifest_seed_rejects(self, tmp_path, seed):
        path = tmp_path / "manifest.tsv"
        path.write_text(f"case-0\ta.ply\tb.ply\t1\ncase-1\ta.ply\tb.ply\t{seed}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as err:
            cloud_io.read_manifest(path)
        assert str(err.value) == f"{path}: line 2: bad seed {seed!r}"

    @pytest.mark.parametrize("seed, want", STILL_READ_INTS)
    def test_manifest_seed_still_reads(self, tmp_path, seed, want):
        path = tmp_path / "manifest.tsv"
        path.write_text(f"case-0\ta.ply\tb.ply\t{seed}\n")
        assert same_number(cloud_io.read_manifest(path)[0].seed, want)

    @pytest.mark.parametrize("key, text, expected", [
        ("epochs", "1_0", "an integer"),
        ("epochs", "٣", "an integer"),
        ("guidance", "1_0", "a finite number"),
        ("guidance", "٣", "a finite number"),
        ("hidden_widths", "6_4,32", "comma-separated integers"),
        ("hidden_widths", "64,٣2", "comma-separated integers"),
    ])
    def test_config_value_rejects(self, tmp_path, key, text, expected):
        path = tmp_path / "run.cfg"
        path.write_text(f"cases = 2\n{key} = {text}\n", encoding="utf-8")
        flag = f"flag --{key.replace('_', '-')}"
        for entries, where in ((config.read_config_file(path), f"{path}: line 2"),
                               ([(key, text, flag)], flag)):
            with pytest.raises(ValueError) as err:
                config.build_config(entries)
            assert str(err.value) == (
                f"{where}: config key {key!r}: expected {expected}, got {text!r}")

    @pytest.mark.parametrize("key, text, want", [
        *(("chamfer_weight", text, want) for text, want in STILL_READ_FLOATS),
        *(("epochs", text, want) for text, want in STILL_READ_INTS),
        ("hidden_widths", " +16 , 016 ", (16, 16)),
    ])
    def test_config_value_still_reads(self, key, text, want):
        cfg = config.build_config([(key, text, "run.cfg: line 1")])
        assert same_number(getattr(cfg, key), want)

    @pytest.mark.parametrize("text", ["1_0", "٣", "1e400"])
    def test_report_value_rejects(self, text):
        report = f"cd_m = 0.5\njsd = {text}\n"
        with pytest.raises(ValueError) as err:
            metrics.parse_report(report)
        assert str(err.value) == f"line 2: jsd is not a finite number: {text!r}"

    @pytest.mark.parametrize("text, want", STILL_READ_FLOATS)
    def test_report_value_still_reads(self, text, want):
        report = (f"cd_m ={text}\njsd = 0.125\nvoxel_iou@0.5 = 0.75\n"
                  "voxel_iou@0.2 = 0.5\nvoxel_iou@0.1 = 0.25\nwall_time_s = 0.01\n")
        assert same_number(metrics.parse_report(report).cd_m, want)
