"""Point-cloud file formats and the dataset manifest.

Three interchange formats: whitespace XYZ text, ASCII PLY, and binary
little-endian PLY with float32 coordinates. Binary PLY is the lossless
workhorse (write/read/write reproduces identical bytes); the text formats
round-trip through 9 significant digits. The manifest is a tab-separated
index of dataset cases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import as_cloud

FORMATS = ("xyz", "ply", "ply-binary")

_EXTENSIONS = {".xyz": "xyz", ".txt": "xyz", ".ply": "ply-binary"}


def _guess_format(path) -> str:
    from pathlib import Path

    suffix = Path(path).suffix.lower()
    if suffix not in _EXTENSIONS:
        raise ValueError(f"cannot guess cloud format from {path!r}")
    return _EXTENSIONS[suffix]


def write_cloud(cloud, path, format: str | None = None) -> None:
    """Write a cloud; format inferred from the extension when omitted.

    Binary PLY stores float32 coordinates, so a float64 cloud is rounded
    once on write and stable thereafter.
    """
    cloud = as_cloud(cloud)
    fmt = format or _guess_format(path)
    if fmt == "xyz":
        _write_xyz(cloud, path)
    elif fmt == "ply":
        _write_ply(cloud, path, binary=False)
    elif fmt == "ply-binary":
        _write_ply(cloud, path, binary=True)
    else:
        raise ValueError(f"unknown cloud format {fmt!r}")


def read_cloud(path, format: str | None = None) -> np.ndarray:
    """Read a cloud written by write_cloud (or compatible files)."""
    fmt = format or _guess_format(path)
    if fmt == "xyz":
        return _read_xyz(path)
    if fmt in ("ply", "ply-binary"):
        return _read_ply(path)
    raise ValueError(f"unknown cloud format {fmt!r}")


def _write_xyz(cloud: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for x, y, z in cloud:
            fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")


def _read_xyz(path) -> np.ndarray:
    points = []
    with open(path, encoding="ascii", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 coordinates, got {len(parts)}"
                )
            try:
                points.append([float(p) for p in parts])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: bad coordinate in {line!r}"
                ) from None
    return _checked_cloud(points, path)


def _write_ply(cloud: np.ndarray, path, binary: bool) -> None:
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
    )
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(np.ascontiguousarray(cloud, dtype="<f4").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(header)
            for x, y, z in cloud:
                fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")


def _read_ply(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply\n") or end < 0:
        raise ValueError(f"{path}: not a PLY file (missing header)")
    header_lines = data[:end].decode("ascii", errors="replace").splitlines()
    body = data[end + len(b"end_header\n"):]

    fmt = None
    vertex_count = None
    properties = []
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
            properties.append(words[-1])
    if fmt not in ("ascii", "binary_little_endian"):
        raise ValueError(f"{path}: unsupported PLY format {fmt!r}")
    if vertex_count is None:
        raise ValueError(f"{path}: PLY header missing element vertex")
    for axis in ("x", "y", "z"):
        if axis not in properties:
            raise ValueError(f"{path}: PLY vertex element missing property {axis!r}")
    if properties != ["x", "y", "z"]:
        raise ValueError(f"{path}: only plain x/y/z vertices are supported")

    if fmt == "binary_little_endian":
        want = vertex_count * 12
        if len(body) < want:
            raise ValueError(
                f"{path}: truncated PLY body: {len(body)} bytes, expected {want}"
            )
        flat = np.frombuffer(body[:want], dtype="<f4").astype(np.float64)
        return _checked_cloud(flat.reshape(vertex_count, 3), path)

    rows = body.decode("ascii", errors="replace").splitlines()
    if len(rows) < vertex_count:
        raise ValueError(
            f"{path}: truncated PLY body: {len(rows)} rows, expected {vertex_count}"
        )
    points = []
    for lineno, line in enumerate(rows[:vertex_count], start=len(header_lines) + 2):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"{path}: line {lineno}: expected 3 coordinates, got {len(parts)}"
            )
        try:
            points.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: bad coordinate in {line!r}"
            ) from None
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
    """Tab-separated index: case-id, scene-path, scan-path, seed."""
    with open(path, "w") as fh:
        for e in entries:
            fh.write(f"{e.case_id}\t{e.scene_path}\t{e.scan_path}\t{e.seed}\n")


def read_manifest(path):
    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 tab-separated fields"
                )
            try:
                seed = int(parts[3])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: bad seed {parts[3]!r}"
                ) from None
            entries.append(ManifestEntry(parts[0], parts[1], parts[2], seed))
    return entries
