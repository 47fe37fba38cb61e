"""Triangulated grid meshes with causal vertex colors, PLY and OBJ export.

Vertices carry (x, y, t, r, g, b); the color encodes the causal verdict at
the vertex: space-like blue, time-like red, null white, looked up from the
sign of B.  A regular NX x NY grid triangulates into 2 (NX-1)(NY-1) faces.
ASCII PLY and OBJ are written a chunk of rows per string operation, and
each chunk formats each distinct coordinate once.
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
# the same colours indexed by the sign of B: 0, 1, -1
_SIGN_RGB = np.array(
    [CAUSAL_COLORS[k] for k in (Causal.NULL, Causal.SPACELIKE, Causal.TIMELIKE)],
    dtype=float,
)

# rows per % operation of the ASCII writers.  A chunk of vertices formats
# each distinct value once, and a grid repeats its x and y values from row to
# row, so a chunk this size formats about 40% of its values; larger chunks
# save little more and hold more strings at once
ASCII_CHUNK = 1024


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
    the points (x, y, t), shaped U.shape + (3,), and the sign of B at each as
    integers: 1 space-like, -1 time-like, 0 null.  Vertex i * len(vs) + j is
    the sample at (us[i], vs[j]).
    """
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    nv = len(vs)
    points, signs = evaluate(*np.meshgrid(us, vs, indexing="ij"))
    signs = np.ravel(signs)
    if signs.dtype.kind not in "iu" or ((signs < -1) | (signs > 1)).any():
        raise ValueError("causal signs must be integers in -1..1")
    colors = _SIGN_RGB[signs]
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
    """Writes ``fmt % row`` for each row of an integer array, one % per chunk.

    ``%d`` formats Python ints as ``format`` does, so the text is that of a
    per-row f-string.
    """
    for i in range(0, len(rows), ASCII_CHUNK):
        chunk = rows[i : i + ASCII_CHUNK]
        fh.write(fmt * len(chunk) % tuple(chunk.ravel().tolist()))


def _distinct_text(block: np.ndarray, fmt: str) -> tuple[list[str], np.ndarray]:
    """``fmt % v`` for each distinct value v of a float block, and the index of
    each element's text, shaped like the block.

    Values are told apart by their bits, so -0.0 and 0.0 get their own texts.
    """
    bits, index = np.unique(block.view(np.int64), return_inverse=True)
    text = "\n".join([fmt] * len(bits)) % tuple(bits.view(float).tolist())
    return text.split("\n"), index.reshape(block.shape)


def _write_vertices(fh, head: str, vertices: np.ndarray, colors: bool) -> None:
    """Writes ``head``, x y t with ``%.17g`` and, if ``colors``, r g b with
    ``%d`` for each vertex: the text of a per-row f-string (``%d`` truncates
    a float as ``int()`` does).

    One % per chunk fills the lines with ``%s`` from the chunk's texts of
    its distinct values.
    """
    line = head + ("%s %s %s %s %s %s\n" if colors else "%s %s %s\n")
    for i in range(0, len(vertices), ASCII_CHUNK):
        chunk = vertices[i : i + ASCII_CHUNK]
        text, index = _distinct_text(chunk[:, :3], "%.17g")
        if colors:
            rgb_text, rgb_index = _distinct_text(chunk[:, 3:], "%d")
            index = np.hstack([index, rgb_index + len(text)])
            text += rgb_text
        texts = np.array(text, dtype=object)[index]
        fh.write(line * len(chunk) % tuple(texts.ravel().tolist()))


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
        _write_vertices(fh, "", mesh.vertices, colors=True)
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
        _write_vertices(fh, "v ", mesh.vertices, colors=False)
        _write_rows(fh, "f %d %d %d\n", mesh.faces + 1)
