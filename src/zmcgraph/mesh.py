"""Triangulated grid meshes with causal vertex colors, PLY and OBJ export.

Vertices carry (x, y, t, r, g, b); the color encodes the causal verdict at
the vertex: space-like blue, time-like red, null white.  A regular NX x NY
grid triangulates into 2 (NX-1)(NY-1) faces.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lorentz import Causal

CAUSAL_COLORS = {
    Causal.SPACELIKE: (0, 0, 255),
    Causal.TIMELIKE: (255, 0, 0),
    Causal.NULL: (255, 255, 255),
}
# the same table as two aligned arrays, for lookups on whole kind arrays
_KIND_KEYS = np.array(list(CAUSAL_COLORS), dtype=object)
_KIND_RGB = np.array(list(CAUSAL_COLORS.values()), dtype=float)

# rows per % operation of the ASCII writers; larger chunks are no faster and
# hold more Python floats at once (about 1.2 MB at 4096 rows of a vertex)
ASCII_CHUNK = 256


@dataclass
class Mesh:
    """vertices: (n, 6) float array of x, y, t, r, g, b; faces: (m, 3) ints."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 6)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if len(self.faces) and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise ValueError("face indices out of range")


def build_grid_mesh(
    evaluate: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, Sequence]],
    us: np.ndarray,
    vs: np.ndarray,
) -> Mesh:
    """Mesh a grid function over us x vs with one ``evaluate`` call.

    ``evaluate(U, V)`` takes ``np.meshgrid(us, vs, indexing="ij")`` and returns
    the points (x, y, t), shaped U.shape + (3,), and the rows of causal kinds.
    Vertex i * len(vs) + j is the sample at (us[i], vs[j]).
    """
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    nv = len(vs)
    points, kinds = evaluate(*np.meshgrid(us, vs, indexing="ij"))
    match = np.reshape(kinds, (-1, 1)) == _KIND_KEYS
    if not match.any(axis=1).all():
        raise ValueError("causal kinds must be lorentz.Causal members")
    colors = _KIND_RGB[match.argmax(axis=1)]
    verts = np.column_stack([np.reshape(points, (-1, 3)), colors])
    # each grid cell (a = i nv + j) splits into (a, b, a+1) and (a+1, b, b+1)
    a = (np.arange(len(us) - 1)[:, None] * nv + np.arange(nv - 1)).ravel()
    b = a + nv
    faces = np.stack([a, b, a + 1, a + 1, b, b + 1], axis=1)
    return Mesh(verts, faces)


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------


def _ply_header(n_verts: int, n_faces: int, binary: bool) -> str:
    fmt = "binary_little_endian" if binary else "ascii"
    return (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {n_verts}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property uchar red\n"
        "property uchar green\n"
        "property uchar blue\n"
        f"element face {n_faces}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    )


# binary_little_endian layouts of one vertex and one triangle
_PLY_VERTEX = np.dtype([("xyz", "<f4", (3,)), ("rgb", "u1", (3,))])
_PLY_FACE = np.dtype([("n", "u1"), ("idx", "<i4", (3,))])


def _ply_binary_body(mesh: Mesh) -> bytes:
    xyz = mesh.vertices[:, :3]
    with np.errstate(over="ignore"):
        xyz32 = xyz.astype("<f4")
    bad = np.isinf(xyz32) & ~np.isinf(xyz)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(
            f"vertex {i} coordinate {'xyz'[k]} = {xyz[i, k]:g} is out of "
            "float32 range for binary PLY"
        )
    rgb = mesh.vertices[:, 3:]
    if not ((rgb >= 0) & (rgb < 256)).all():
        raise ValueError("vertex colors must lie in 0..255")
    verts = np.empty(len(xyz), dtype=_PLY_VERTEX)
    verts["xyz"], verts["rgb"] = xyz32, rgb
    faces = np.empty(len(mesh.faces), dtype=_PLY_FACE)
    faces["n"], faces["idx"] = 3, mesh.faces
    return verts.tobytes() + faces.tobytes()


def _write_rows(fh, fmt: str, rows: np.ndarray) -> None:
    """Writes ``fmt % row`` for each row of a 2-D array, one % per chunk.

    ``%.17g`` and ``%d`` format Python floats and ints as ``format`` does
    (``%d`` truncates a float as ``int()`` does), so the text is that of a
    per-row f-string.
    """
    for i in range(0, len(rows), ASCII_CHUNK):
        chunk = rows[i : i + ASCII_CHUNK]
        fh.write(fmt * len(chunk) % tuple(chunk.ravel().tolist()))


def write_ply(mesh: Mesh, path: str, binary: bool = False) -> None:
    header = _ply_header(len(mesh.vertices), len(mesh.faces), binary)
    if binary:
        body = _ply_binary_body(mesh)
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(body)
        return
    with open(path, "w") as fh:
        fh.write(header)
        _write_rows(fh, "%.17g %.17g %.17g %d %d %d\n", mesh.vertices)
        _write_rows(fh, "3 %d %d %d\n", mesh.faces)


def read_ply(path: str) -> Mesh:
    """Reader for the PLY subset this package writes, one array op per block."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.index(b"end_header\n") + len(b"end_header\n")
    header = raw[:end].decode("ascii").splitlines()
    if header[0] != "ply":
        raise ValueError("not a PLY file")
    binary = any("binary_little_endian" in line for line in header)
    n_verts = n_faces = 0
    for line in header:
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            n_verts = int(parts[2])
        elif parts[:2] == ["element", "face"]:
            n_faces = int(parts[2])
    if binary:
        v = np.frombuffer(raw, _PLY_VERTEX, n_verts, end)
        f = np.frombuffer(raw, _PLY_FACE, n_faces, end + v.nbytes)
        verts = np.column_stack([v["xyz"], v["rgb"]])
        counts, faces = f["n"], f["idx"]
    else:  # 6 numbers per vertex, then 4 per face; indices are exact floats
        values = np.fromstring(raw[end:].decode("ascii"), sep=" ")
        # a face of another size shifts every later row off its count
        if len(values) != 6 * n_verts + 4 * n_faces:
            raise ValueError("non-triangle face or malformed vertex")
        verts = values[: 6 * n_verts]
        f = values[6 * n_verts :].reshape(-1, 4).astype(np.int64)
        counts, faces = f[:, 0], f[:, 1:]
    if (counts != 3).any():
        raise ValueError("non-triangle face")
    return Mesh(verts, faces)


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------


def write_obj(mesh: Mesh, path: str) -> None:
    """OBJ export; positions only, indices are 1-based."""
    with open(path, "w") as fh:
        _write_rows(fh, "v %.17g %.17g %.17g\n", mesh.vertices[:, :3])
        _write_rows(fh, "f %d %d %d\n", mesh.faces + 1)
