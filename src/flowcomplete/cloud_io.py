"""Point-cloud file formats and the dataset manifest.

The file extension alone picks the format. `.ply` is binary
little-endian PLY with float32 coordinates, the lossless workhorse
(write/read/write reproduces identical bytes); the reader also accepts
ASCII PLY, which outside tools may write. `.xyz` and `.txt` are
whitespace XYZ text, which round-trips through 9 significant digits. The
manifest is a tab-separated index of dataset cases.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePath

import numpy as np

from .geometry import as_cloud

_TEXT_EXTENSIONS = (".xyz", ".txt")


def _is_text(path) -> bool:
    """True for XYZ text, False for PLY; any other extension is an error."""
    suffix = PurePath(path).suffix.lower()
    if suffix not in (".ply", *_TEXT_EXTENSIONS):
        raise ValueError(f"cannot guess cloud format from {path!r}")
    return suffix in _TEXT_EXTENSIONS


def write_cloud(cloud, path) -> None:
    """Write a cloud in the format its extension names.

    Binary PLY stores float32 coordinates, so a float64 cloud is rounded
    once on write and stable thereafter.

    Raises:
        ValueError: on an invalid cloud or an unknown extension, and,
            naming the file before it is opened, on a PLY coordinate
            beyond the float32 range.
    """
    cloud = as_cloud(cloud)
    if _is_text(path):
        _write_xyz(cloud, path)
    else:
        _write_ply(cloud, path)


def read_cloud(path) -> np.ndarray:
    """Read a cloud in the format its extension names (PLY: binary or ASCII)."""
    return _read_xyz(path) if _is_text(path) else _read_ply(path)


def _write_xyz(cloud: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for x, y, z in cloud:
            fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")


def _parse_row(line: str, path, lineno: int) -> list:
    """The three coordinates of one `x y z` text row."""
    parts = line.split()
    if len(parts) != 3:
        raise ValueError(
            f"{path}: line {lineno}: expected 3 coordinates, got {len(parts)}"
        )
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(
            f"{path}: line {lineno}: bad coordinate in {line!r}"
        ) from None


def _read_xyz(path) -> np.ndarray:
    with open(path, "rb") as fh:
        text = fh.read().decode("ascii", errors="replace")
    points = []
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            points.append(_parse_row(line, path, lineno))
    return _checked_cloud(points, path)


def _write_ply(cloud: np.ndarray, path) -> None:
    # a coordinate beyond the float32 range would be written as inf, which
    # read_cloud rejects, so it fails here, before the file is opened
    with np.errstate(over="ignore"):
        body = np.ascontiguousarray(cloud, dtype="<f4")
    if not np.all(np.isfinite(body)):
        raise ValueError(f"{path}: coordinates beyond the float32 range "
                         "of binary PLY")
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(body.tobytes())


def _read_ply(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    # Header lines end in \n, or all of them in \r\n, as an ASCII file
    # written with Windows line ends has them. A \r-only rule would make
    # the end of the header ambiguous in front of a binary body.
    eol = b"\r\n" if data.startswith(b"ply\r\n") else b"\n"
    end = data.find(b"end_header" + eol)
    if not data.startswith(b"ply" + eol) or end < 0:
        raise ValueError(f"{path}: not a PLY file (missing header)")
    if eol == b"\r\n":
        stray = data[:end].replace(eol, b"")
        if b"\r" in stray or b"\n" in stray:
            raise ValueError(f"{path}: PLY header lines must all end in "
                             "\\r\\n once the first does")
    header_lines = split_lines(data[:end].decode("ascii", errors="replace"))
    body = data[end + len(b"end_header" + eol):]

    fmt = None
    vertex_count = None
    properties = []
    types = []
    in_vertex = False
    for line in header_lines[1:]:
        words = line.split()
        if not words or words[0] == "comment":
            continue
        if words[0] == "format":
            if len(words) < 2:
                raise ValueError(f"{path}: PLY format line has no value")
            fmt = words[1]
        elif words[0] == "element":
            if len(words) < 3:
                raise ValueError(f"{path}: PLY element line needs a name and a count")
            in_vertex = words[1] == "vertex"
            if not in_vertex and vertex_count is None:
                # the body's first rows or bytes are read as the vertices
                raise ValueError(f"{path}: PLY element {words[1]!r} comes "
                                 "before vertex; vertex must be the first element")
            if in_vertex:
                try:
                    vertex_count = int(words[2])
                except ValueError:
                    raise ValueError(
                        f"{path}: bad PLY vertex count {words[2]!r}"
                    ) from None
                if vertex_count < 0:
                    raise ValueError(f"{path}: negative PLY vertex count {vertex_count}")
        elif words[0] == "property" and in_vertex:
            types.append(" ".join(words[1:-1]))
            properties.append(words[-1])
    if fmt not in ("ascii", "binary_little_endian"):
        raise ValueError(f"{path}: unsupported PLY format {fmt!r}")
    if fmt != "ascii" and eol == b"\r\n":
        # a text-mode copy turns the body's \n bytes into \r\n as well
        raise ValueError(f"{path}: binary PLY with \\r\\n header line ends; "
                         "the file was probably converted as text")
    if vertex_count is None:
        raise ValueError(f"{path}: PLY header missing element vertex")
    for axis in ("x", "y", "z"):
        if axis not in properties:
            raise ValueError(f"{path}: PLY vertex element missing property {axis!r}")
    if properties != ["x", "y", "z"]:
        raise ValueError(f"{path}: only plain x/y/z vertices are supported")

    if fmt == "binary_little_endian":
        if any(t not in ("float", "float32") for t in types):
            raise ValueError(f"{path}: binary PLY coordinates must be "
                             f"float or float32, got {types}")
        want = vertex_count * 12
        if len(body) < want:
            raise ValueError(
                f"{path}: truncated PLY body: {len(body)} bytes, expected {want}"
            )
        flat = np.frombuffer(body[:want], dtype="<f4").astype(np.float64)
        return _checked_cloud(flat.reshape(vertex_count, 3), path)

    rows = split_lines(body.decode("ascii", errors="replace"))
    if rows[-1] == "":
        rows.pop()  # the end of the last row starts no new one
    if len(rows) < vertex_count:
        raise ValueError(
            f"{path}: truncated PLY body: {len(rows)} rows, expected {vertex_count}"
        )
    # the last of header_lines is the line that end_header stands on
    first = len(header_lines) + 1
    points = [_parse_row(line, path, lineno)
              for lineno, line in enumerate(rows[:vertex_count], start=first)]
    return _checked_cloud(points, path)


def _checked_cloud(points, path) -> np.ndarray:
    try:
        return as_cloud(points)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ManifestEntry:
    case_id: str
    scene_path: str
    scan_path: str
    seed: int


def write_manifest(entries, path) -> None:
    """Tab-separated index: case-id, scene-path, scan-path, seed.

    Raises:
        ValueError: before anything is written, on a field that holds a
            tab or a line break, which would split the entry's row.
    """
    entries = list(entries)
    for e in entries:
        for name in ("case_id", "scene_path", "scan_path"):
            value = getattr(e, name)
            if any(ch in value for ch in "\t\n\r"):
                raise ValueError(
                    f"manifest {name} {value!r} holds a tab or a line break")
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(f"{e.case_id}\t{e.scene_path}\t{e.scan_path}\t{e.seed}\n")


def split_lines(text: str) -> list:
    """The lines of `text` without their ends. A line ends at \\n, \\r\\n
    or \\r, as when reading a file in text mode, and at nothing else."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_utf8(path) -> str:
    """The file's text; a body that is not UTF-8 raises a ValueError
    naming the file and the line (counted by :func:`split_lines`)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(split_lines(raw[:exc.start].decode("utf-8")))
        raise ValueError(f"{path}: line {lineno}: not valid UTF-8") from None


def read_manifest(path):
    """Parse a manifest written by write_manifest; lines end as
    :func:`split_lines` says.

    Raises:
        ValueError: naming the file and the line, on a body that is not
            UTF-8, a wrong field count, a bad seed, or a cloud path that
            could leave the dataset directory (absolute, or with a `..`
            part).
    """
    entries = []
    for lineno, line in enumerate(split_lines(read_utf8(path)), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(
                f"{path}: line {lineno}: expected 4 tab-separated fields"
            )
        for kind, rel in (("scene", parts[1]), ("scan", parts[2])):
            # the loader joins these onto the dataset directory
            if PurePath(rel).is_absolute() or ".." in PurePath(rel).parts:
                raise ValueError(
                    f"{path}: line {lineno}: {kind} path {rel!r} must be "
                    "relative, without '..' parts"
                )
        try:
            seed = int(parts[3])
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: bad seed {parts[3]!r}"
            ) from None
        entries.append(ManifestEntry(parts[0], parts[1], parts[2], seed))
    return entries
