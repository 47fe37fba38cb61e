"""Mesh export formats and the command-line interface contract."""
import argparse
import contextlib
import io
import json
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmcgraph import catalog
from zmcgraph.bounds import u_halfwidth
from zmcgraph.cli import MAX_GRID_POINTS, _grid, build_parser, main
from zmcgraph.lorentz import Causal
from zmcgraph.mesh import (
    ASCII_CHUNK,
    CAUSAL_COLORS,
    Mesh,
    build_grid_mesh,
    read_ply,
    write_obj,
    write_ply,
)
from zmcgraph.series import (
    SeedCondition,
    SeriesCase,
    causal_signs,
    psi_jet,
    series_from_expansion,
    series_from_json,
    series_to_json,
)


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def coeffs_ii(tmp_path_factory):
    path = tmp_path_factory.mktemp("coeffs") / "ii.json"
    assert run("construct", "--case", "ii", "--c", "-1", "--order", "12",
               "--out", str(path)) == 0
    return str(path)


@pytest.fixture(scope="module")
def coeffs_i(tmp_path_factory):
    path = tmp_path_factory.mktemp("coeffs") / "i.json"
    assert run("construct", "--case", "i", "--c", "1", "--order", "6",
               "--out", str(path)) == 0
    return str(path)


class TestMeshFormats:
    @pytest.fixture()
    def small_mesh(self):
        def evaluate(U, V):
            signs = np.where(U > 0, 1, 0).astype(np.int8)
            return np.stack([U, V, U * V], axis=-1), signs

        return build_grid_mesh(evaluate, np.linspace(-1, 1, 5), np.linspace(0, 1, 4))

    def test_grid_counts(self, small_mesh):
        assert len(small_mesh.vertices) == 5 * 4
        assert len(small_mesh.faces) == 2 * 4 * 3

    def test_face_indices_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            Mesh(np.zeros((2, 6)), np.array([[0, 1, 5]]))

    def test_ply_ascii_round_trip(self, small_mesh, tmp_path):
        path = tmp_path / "m.ply"
        write_ply(small_mesh, str(path))
        back = read_ply(str(path))
        assert np.allclose(back.vertices, small_mesh.vertices)
        assert np.array_equal(back.faces, small_mesh.faces)

    def test_ply_binary_round_trip(self, small_mesh, tmp_path):
        path = tmp_path / "m.ply"
        write_ply(small_mesh, str(path), binary=True)
        back = read_ply(str(path))
        # positions are float32 in the binary layout
        assert np.allclose(back.vertices[:, :3], small_mesh.vertices[:, :3], atol=1e-6)
        assert np.array_equal(back.vertices[:, 3:], small_mesh.vertices[:, 3:])
        assert np.array_equal(back.faces, small_mesh.faces)

    def test_obj_layout(self, small_mesh, tmp_path):
        path = tmp_path / "m.obj"
        write_obj(small_mesh, str(path))
        lines = path.read_text().strip().splitlines()
        vs = [l for l in lines if l.startswith("v ")]
        fs = [l for l in lines if l.startswith("f ")]
        assert len(vs) == 20 and len(fs) == 24
        assert min(int(t) for l in fs for t in l.split()[1:]) == 1


class TestConstructCommand:
    def test_round_trip_identical_strings(self, coeffs_ii, tmp_path):
        again = tmp_path / "again.json"
        assert run("construct", "--case", "ii", "--c", "-1", "--order", "12",
                   "--out", str(again)) == 0
        assert json.loads(Path(coeffs_ii).read_text()) == json.loads(again.read_text())

    def test_sign_violations_exit_2(self, capsys):
        assert run("construct", "--case", "ii", "--c", "1") == 2
        assert "c < 0" in capsys.readouterr().err
        assert run("construct", "--case", "iii", "--c", "-2") == 2
        assert run("construct", "--case", "i", "--c", "-1") == 2
        assert run("construct", "--case", "iii", "--c", "0") == 2

    def test_mixed_case_emits_cubic_seed(self, coeffs_i):
        data = json.loads(Path(coeffs_i).read_text())
        assert data["betas"]["3"] == ["0", "3"]
        assert data["case"] == "i"

    def test_quartic_table(self, coeffs_ii):
        data = json.loads(Path(coeffs_ii).read_text())
        assert data["betas"]["4"] == ["0", "-4"]
        assert data["betas"]["6"] == ["0", "0", "0", "-8"]
        assert "5" not in data["betas"]


class TestClassifyCommand:
    def test_case_ii_default_grid(self, coeffs_ii, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("classify", "--coeffs", coeffs_ii, "--out", str(out)) == 0
        assert "maximal type" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["verdict"] == "maximal type"
        assert data["counts"]["timelike"] == 0
        assert data["exact_fallbacks"] == 0
        ny = data["grid"]["y"][2]
        for col, row in zip(data["columns"], data["verdict_rows"]):
            if abs(col["x"]) < 1e-15:
                assert col["spacelike"] == 0 and col["null"] == ny
                assert row == "n" * ny
            else:
                assert col["timelike"] == 0 and col["spacelike"] > 0
                assert set(row) <= {"s", "n"}

    def test_case_i_is_mixed(self, coeffs_i):
        assert run("classify", "--coeffs", coeffs_i,
                   "--grid=-0.05:0.05:9,-0.5:0.5:9") == 0

    def test_case_i_verdict_json(self, coeffs_i, tmp_path):
        out = tmp_path / "r.json"
        run("classify", "--coeffs", coeffs_i, "--grid=-0.05:0.05:9,-0.5:0.5:9",
            "--out", str(out))
        data = json.loads(out.read_text())
        assert data["verdict"] == "mixed type"
        assert data["counts"]["spacelike"] >= 5
        assert data["counts"]["timelike"] >= 5

    def test_lightlike_plane_all_null(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("classify", "--surface", "catalog:lightlike_plane",
                   "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "light-like"
        assert data["counts"]["spacelike"] == 0 == data["counts"]["timelike"]
        assert "exact_fallbacks" not in data  # float signs

    def test_certified_violation_exits_3(self, coeffs_ii):
        assert run("classify", "--coeffs", coeffs_ii,
                   "--grid=-1:1:5,-1:1:5", "--certified") == 3

    def test_certified_inside_passes(self, coeffs_ii):
        assert run("classify", "--coeffs", coeffs_ii,
                   "--grid=-0.0005:0.0005:5,-0.9:0.9:5", "--certified") == 0

    def test_certified_cubic_seed_exits_2(self, coeffs_i, tmp_path, capsys):
        # the certificate is proven for the quartic seeds; a grid well inside
        # the quartic rectangle of the same c is no certificate for case i
        out = tmp_path / "r.json"
        assert run("classify", "--coeffs", coeffs_i, "--grid=-1e-6:1e-6:3,-0.5:0.5:3",
                   "--certified", "--out", str(out)) == 2
        assert "certificate covers quartic seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_surface_exits_2(self):
        assert run("classify", "--surface", "catalog:nope") == 2

    def test_bad_grid_exits_2(self, capsys):
        for grid in ("junk", "nan:1:3,0:1:3", "0:inf:3,0:1:3"):
            with pytest.raises(SystemExit) as exc:
                run("classify", "--surface", "catalog:light_cone", f"--grid={grid}")
            assert exc.value.code == 2
            assert "grid must look like X0:X1:NX,Y0:Y1:NY" in capsys.readouterr().err

    def test_grid_size_cap(self):
        # checked on the point counts before any axis is allocated, so these
        # grids cost nothing; main() would report the error with exit 2 as above
        n = int(MAX_GRID_POINTS**0.5)
        assert n * n == MAX_GRID_POINTS
        xs, ys = _grid(f"0:1:{n},0:1:{n}")
        assert len(xs) * len(ys) == MAX_GRID_POINTS
        for grid in ("0:1:5000,0:1:5000", f"0:1:{n},0:1:{n + 1}",
                     "0:1:2,0:1:1000000000000", "0:1:-5000,0:1:-5000"):
            with pytest.raises(argparse.ArgumentTypeError) as exc:
                _grid(grid)
            assert "grid must look like X0:X1:NX,Y0:Y1:NY" in str(exc.value)
            assert f"more than {MAX_GRID_POINTS} points" in str(exc.value)


# (change to a construct'ed coefficient dict, expected error text)
MALFORMED = [
    (lambda d: d.update(betas=[]), "betas must be an object"),
    (lambda d: d.pop("c"), "has no 'c'"),
    (lambda d: d["betas"].update({"4": ["0", "four"]}),
     "beta_4 holds a string that is not a rational"),
    (lambda d: d.update(order=3, betas={}), "order must be at least 4"),
    (lambda d: d["betas"].update({"4": ["0", "1e5000"]}),
     "beta_4 holds a string that is not a rational (Invalid literal for "
     "Fraction: '1e5000')"),
]


class TestMalformedCoefficientFile:
    @pytest.mark.parametrize("command", ["classify", "mesh"])
    @pytest.mark.parametrize("change,message", MALFORMED)
    def test_exits_2_with_message(self, coeffs_ii, command, change, message,
                                  tmp_path, capsys):
        data = json.loads(Path(coeffs_ii).read_text())
        change(data)
        bad, out = tmp_path / "bad.json", tmp_path / "out.ply"
        bad.write_text(json.dumps(data))
        assert run(command, "--coeffs", str(bad), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_not_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run("classify", "--coeffs", str(bad)) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestBoundsCommand:
    def test_report_contents(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert run("bounds", "--c", "1", "--delta", "1", "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "NOT in" in text
        data = json.loads(out.read_text())
        assert data["certificate"]["M"] == pytest.approx(1162.6, abs=0.5)
        w = data["halfwidths"]
        assert w["4.0"] < w["2.0"] < w["1.0"] <= w["0.0"]
        assert data["witness"]["non_convex"] is True

    def test_invalid_inputs_exit_2(self):
        assert run("bounds", "--c", "0") == 2
        assert run("bounds", "--c", "1", "--delta", "0.5") == 2


class TestVerifyCommand:
    def test_recursion_suite(self, tmp_path):
        out = tmp_path / "rows.json"
        assert run("verify", "--suite", "recursion", "--out", str(out)) == 0
        rows = json.loads(out.read_text())
        info = [r for r in rows if r.get("kind") == "info"]
        assert len(info) == 1 and info[0]["name"] == "beta8-sign"
        assert all(r["pass"] for r in rows if "pass" in r)

    def test_corpus_suite(self):
        assert run("verify", "--suite", "corpus") == 0

    def test_all_suites_serialize(self, tmp_path):
        # every row, including corpus rows, must be plain-JSON serializable
        out = tmp_path / "all.json"
        assert run("verify", "--suite", "all", "--out", str(out)) == 0
        rows = json.loads(out.read_text())
        assert sum(r.get("kind") == "info" for r in rows) == 1
        assert {r["suite"] for r in rows} == {"recursion", "growth", "corpus"}

    def test_failure_exits_1(self, monkeypatch):
        monkeypatch.setattr(
            "zmcgraph.cli._suite_corpus",
            lambda: [{"suite": "corpus", "name": "forced", "pass": False}],
        )
        assert run("verify", "--suite", "corpus") == 1


# an argparse error first, then every command, then the first good call again
PARSER_SEQUENCE = [
    ["construct", "--case", "iv", "--c", "1"],
    ["construct", "--case", "iii", "--c", "3/2", "--order", "12", "--out", "{d}/s.json"],
    ["classify", "--coeffs", "{d}/s.json", "--out", "{d}/classify.json"],
    ["mesh", "--coeffs", "{d}/s.json", "--format", "obj", "--out", "{d}/mesh.obj"],
    ["mesh", "--surface", "catalog:light_cone", "--ply-binary", "--out", "{d}/cone.ply"],
    ["bounds", "--c", "-2", "--out", "{d}/bounds.json"],
    ["verify", "--suite", "growth", "--out", "{d}/verify.json"],
    ["construct", "--case", "iii", "--c", "3/2", "--order", "12", "--out", "{d}/s2.json"],
]


def run_sequence(d, fresh: bool) -> list:
    """(exit code, stdout, output bytes) of each PARSER_SEQUENCE call in this
    process, with a new parser for every call when ``fresh``."""
    d.mkdir()
    results = []
    for argv in PARSER_SEQUENCE:
        if fresh:
            build_parser.cache_clear()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main([a.format(d=d) for a in argv])
            except SystemExit as e:
                rc = e.code
        out = argv[-1].format(d=d)
        data = Path(out).read_bytes() if "--out" in argv else None
        results.append((rc, stdout.getvalue(), data))
    return results


class TestParserReuse:
    def test_reused_parser_equals_a_fresh_one(self, tmp_path):
        build_parser.cache_clear()
        reused = run_sequence(tmp_path / "reused", fresh=False)
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(PARSER_SEQUENCE) - 1)
        fresh = run_sequence(tmp_path / "fresh", fresh=True)
        assert [r[0] for r in reused] == [2] + [0] * (len(PARSER_SEQUENCE) - 1)
        assert reused == fresh
        assert reused[1] == reused[-1]


class TestMeshCommand:
    def test_series_mesh_has_null_stripe(self, coeffs_ii, tmp_path):
        out = tmp_path / "s.ply"
        assert run("mesh", "--coeffs", coeffs_ii,
                   "--grid=-0.05:0.05:11,-1:1:9", "--out", str(out)) == 0
        m = read_ply(str(out))
        assert len(m.vertices) == 11 * 9
        assert len(m.faces) == 2 * 10 * 8
        for v in m.vertices:
            if abs(v[0]) < 1e-15:  # on the null line: white
                assert tuple(v[3:]) == (255.0, 255.0, 255.0)
            else:  # space-like: blue
                assert tuple(v[3:]) == (0.0, 0.0, 255.0)

    def test_catalog_mesh_counts(self, tmp_path):
        out = tmp_path / "c.ply"
        assert run("mesh", "--surface", "catalog:light_cone",
                   "--grid", "0:6.283:17,-1:1:9", "--out", str(out)) == 0
        m = read_ply(str(out))
        assert len(m.vertices) == 17 * 9
        assert len(m.faces) == 2 * 16 * 8

    def test_binary_flag(self, tmp_path):
        out = tmp_path / "b.ply"
        assert run("mesh", "--surface", "catalog:elliptic_catenoid",
                   "--grid", "0:6:5,-1:1:5", "--ply-binary", "--out", str(out)) == 0
        data = out.read_bytes()
        assert b"binary_little_endian" in data
        assert len(read_ply(str(out)).vertices) == 25

    def test_obj_format(self, coeffs_ii, tmp_path):
        out = tmp_path / "m.obj"
        assert run("mesh", "--coeffs", coeffs_ii, "--format", "obj",
                   "--out", str(out)) == 0
        assert out.read_text().startswith("v ")

    def test_io_failure_exits_4(self, coeffs_ii):
        assert run("mesh", "--coeffs", coeffs_ii,
                   "--out", "/nonexistent-dir/x.ply") == 4


# vertex colour of each sign of B
SIGN_RGB = {1: CAUSAL_COLORS[Causal.SPACELIKE], -1: CAUSAL_COLORS[Causal.TIMELIKE],
            0: CAUSAL_COLORS[Causal.NULL]}


def sign_colours(signs):
    return [SIGN_RGB[int(k)] for k in np.ravel(signs)]


def certified_axes(s, n):
    """The default grid of classify (n = 21) and mesh (n = 33)."""
    half = 0.999 * u_halfwidth(s.seed.c, 0.0)
    return np.linspace(-half, half, n), np.linspace(-0.999, 0.999, n)


@st.composite
def series_meshes(draw):
    """A series of random rational c and order, and a grid inside its
    certified rectangle given as a --grid argument."""
    case = draw(st.sampled_from(["i", "ii", "iii"]))
    c = draw(st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=1000))
    s = series_from_expansion(
        SeedCondition(SeriesCase(case), -c if case == "ii" else c),
        draw(st.integers(4, 24)),
    )
    half = u_halfwidth(s.seed.c, 0.0)
    x0, x1 = (draw(st.floats(0.05, 0.99)) * half * sign for sign in (-1, 1))
    y0, y1 = (draw(st.floats(0.05, 0.99)) * sign for sign in (-1, 1))
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    return s, f"--grid={x0!r}:{x1!r}:{nx},{y0!r}:{y1!r}:{ny}"


class TestSeriesSigns:
    """classify and mesh take a series' signs from causal_signs alone."""

    @pytest.mark.parametrize("case,c", [("i", "1"), ("ii", "-1"), ("iii", "1")])
    def test_colours_and_counts_equal_causal_signs(self, case, c, tmp_path):
        coeffs, ply, report = (tmp_path / n for n in ("s.json", "m.ply", "r.json"))
        assert run("construct", "--case", case, "--c", c, "--out", str(coeffs)) == 0
        assert run("mesh", "--coeffs", str(coeffs), "--out", str(ply)) == 0
        assert run("classify", "--coeffs", str(coeffs), "--out", str(report)) == 0
        s = series_from_json(json.loads(coeffs.read_text()))
        signs = causal_signs(s, *certified_axes(s, 33))[0]
        m = read_ply(str(ply))
        assert [tuple(v) for v in m.vertices[:, 3:]] == sign_colours(signs)
        data = json.loads(report.read_text())
        signs = causal_signs(s, *certified_axes(s, 21))[0]
        want = {"spacelike": 1, "timelike": -1, "null": 0}
        assert data["counts"] == {k: int((signs == v).sum()) for k, v in want.items()}
        chars = np.array(["n", "s", "t"])[signs]  # indexed by sign: 0, 1, -1
        assert data["verdict_rows"] == ["".join(row) for row in chars]

    def test_no_exact_changes_nothing(self, coeffs_i, coeffs_ii, tmp_path):
        for coeffs in (coeffs_i, coeffs_ii):
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            assert run("classify", "--coeffs", coeffs, "--out", str(a)) == 0
            assert run("classify", "--coeffs", coeffs, "--no-exact",
                       "--out", str(b)) == 0
            assert a.read_bytes() == b.read_bytes()
            assert json.loads(a.read_text())["exact"] is True

    @settings(max_examples=25, deadline=None)
    @given(series_meshes())
    def test_random_series_meshes(self, tmp_path_factory, mesh_case):
        s, grid = mesh_case
        d = tmp_path_factory.mktemp("random-mesh")
        coeffs, ascii_ply, binary_ply = d / "s.json", d / "a.ply", d / "b.ply"
        coeffs.write_text(json.dumps(series_to_json(s)))
        assert run("mesh", "--coeffs", str(coeffs), grid, "--out", str(ascii_ply)) == 0
        assert run("mesh", "--coeffs", str(coeffs), grid, "--ply-binary",
                   "--out", str(binary_ply)) == 0
        xs, ys = _grid(grid.removeprefix("--grid="))
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        xyz = np.stack([X, Y, psi_jet(s, X, Y).value], axis=-1).reshape(-1, 3)
        m = read_ply(str(ascii_ply))
        assert m.vertices[:, :3].tobytes() == xyz.tobytes()
        assert [tuple(v) for v in m.vertices[:, 3:]] == sign_colours(
            causal_signs(s, xs, ys)[0]
        )
        b = read_ply(str(binary_ply))
        assert np.array_equal(b.vertices[:, :3], xyz.astype(np.float32))
        assert np.array_equal(b.vertices[:, 3:], m.vertices[:, 3:])
        assert np.array_equal(b.faces, m.faces)


def loop_grid_mesh(evaluate, us, vs):
    """Reference: one evaluate call per vertex, and the nested face loop."""
    nu, nv = len(us), len(vs)
    verts = np.empty((nu * nv, 6))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            point, sign = evaluate(u, v)
            verts[i * nv + j, :3] = point
            verts[i * nv + j, 3:] = SIGN_RGB[int(sign)]
    faces = []
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j
            b = a + nv
            faces.append((a, b, a + 1))
            faces.append((a + 1, b, b + 1))
    return verts, np.array(faces, dtype=np.int64).reshape(-1, 3)


def struct_ply_body(mesh):
    """Reference: the binary PLY body packed one vertex and one face at a time."""
    out = []
    for v in mesh.vertices:
        out.append(struct.pack("<fff", v[0], v[1], v[2]))
        out.append(struct.pack("<BBB", int(v[3]), int(v[4]), int(v[5])))
    for f in mesh.faces:
        out.append(struct.pack("<Biii", 3, int(f[0]), int(f[1]), int(f[2])))
    return b"".join(out)


def loop_read_ply(path):
    """Reference: the PLY reader that decodes one vertex and one face at a time."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.index(b"end_header\n") + len(b"end_header\n")
    header = raw[:end].decode("ascii").splitlines()
    binary = any("binary_little_endian" in line for line in header)
    n_verts = n_faces = 0
    for line in header:
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            n_verts = int(parts[2])
        elif parts[:2] == ["element", "face"]:
            n_faces = int(parts[2])
    verts = np.empty((n_verts, 6))
    faces = np.empty((n_faces, 3), dtype=np.int64)
    if binary:
        off = end
        for i in range(n_verts):
            x, y, z = struct.unpack_from("<fff", raw, off)
            r, g, b = struct.unpack_from("<BBB", raw, off + 12)
            verts[i] = (x, y, z, r, g, b)
            off += 15
        for i in range(n_faces):
            cnt, a, b_, c = struct.unpack_from("<Biii", raw, off)
            if cnt != 3:
                raise ValueError("non-triangle face")
            faces[i] = (a, b_, c)
            off += 13
    else:
        lines = raw[end:].decode("ascii").split("\n")
        for i in range(n_verts):
            verts[i] = [float(s) for s in lines[i].split()]
        for i in range(n_faces):
            parts = lines[n_verts + i].split()
            if parts[0] != "3":
                raise ValueError("non-triangle face")
            faces[i] = [int(s) for s in parts[1:4]]
    return verts, faces


def line_ply_text(mesh):
    """Reference: the ASCII PLY body written one f-string per line."""
    out = []
    for v in mesh.vertices:
        out.append(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g} "
                   f"{int(v[3])} {int(v[4])} {int(v[5])}\n")
    for f in mesh.faces:
        out.append(f"3 {int(f[0])} {int(f[1])} {int(f[2])}\n")
    return "".join(out)


def line_obj_text(mesh):
    """Reference: the OBJ file written one f-string per line."""
    out = [f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in mesh.vertices]
    out += [f"f {int(f[0]) + 1} {int(f[1]) + 1} {int(f[2]) + 1}\n" for f in mesh.faces]
    return "".join(out)


# coordinates that format or parse unusually: signed zero, subnormals, the
# float range edge, non-finite values, and digits that need all 17 places
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308,
               np.inf, -np.inf, np.nan, 0.1, 1 / 3, -1e-5, 123456789.0]


@st.composite
def meshes(draw, n_verts, n_faces):
    """Random meshes whose coordinates include the edge cases above."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xyz = rng.standard_normal((n_verts, 3)) * 10.0 ** rng.integers(-300, 300, (n_verts, 3))
    picks = draw(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(), max_size=60))
    if n_verts:
        xyz.flat[rng.integers(0, xyz.size, len(picks))] = picks
    rgb = rng.integers(0, 256, (n_verts, 3))
    faces = rng.integers(0, n_verts, (n_faces, 3))
    return Mesh(np.column_stack([xyz, rgb]), faces)


class TestAsciiWriters:
    # vertex and face counts on both sides of a 256-row chunk and of the
    # writers' chunk size
    @pytest.mark.parametrize("n_verts,n_faces", sorted({
        (0, 0), (1, 1), (37, 23), (255, 257), (256, 256), (513, 511),
        (ASCII_CHUNK - 1, ASCII_CHUNK + 1), (ASCII_CHUNK, ASCII_CHUNK),
        (2 * ASCII_CHUNK + 1, 2 * ASCII_CHUNK - 1),
    }))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_bytes_equal_line_writers_and_read_back(self, n_verts, n_faces, data,
                                                    tmp_path_factory):
        m = data.draw(meshes(n_verts, n_faces))
        d = tmp_path_factory.mktemp("ascii")
        write_ply(m, str(d / "m.ply"))
        write_obj(m, str(d / "m.obj"))
        ply = (d / "m.ply").read_bytes()
        body = ply[ply.index(b"end_header\n") + len(b"end_header\n"):]
        assert body == line_ply_text(m).encode("ascii")
        assert (d / "m.obj").read_bytes() == line_obj_text(m).encode("ascii")
        back = read_ply(str(d / "m.ply"))
        nan = np.isnan(m.vertices)  # any NaN is written, and read, as "nan"
        assert np.array_equal(np.isnan(back.vertices), nan)
        assert back.vertices[~nan].tobytes() == m.vertices[~nan].tobytes()
        assert np.array_equal(back.faces, m.faces)

    @pytest.mark.parametrize("nu,nv", [(3 * ASCII_CHUNK // 7 + 5, 7),
                                       (3 * ASCII_CHUNK // 201 + 2, 201)])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_grid_meshes_over_several_chunks(self, nu, nv, data, tmp_path_factory):
        # grid-shaped: each x repeats over nv rows and each y every nv rows,
        # so a chunk holds many copies of one value
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        us = rng.standard_normal(nu) * 10.0 ** rng.integers(-5, 5, nu)
        vs = rng.standard_normal(nv)
        us[:3], vs[:2] = [0.0, -0.0, np.nan], [-0.0, 0.0]  # all in the first chunk
        U, V = np.meshgrid(us, vs, indexing="ij")
        T = np.where(rng.random(U.shape) < 0.3, 1.5, np.sin(U) * V)  # repeats too
        # non-integral colour floats, which %d truncates
        rgb = rng.choice([0.0, 254.7, 255.0, 17.25, 1.999], size=(U.size, 3))
        m = Mesh(np.column_stack([np.stack([U, V, T], -1).reshape(-1, 3), rgb]),
                 build_grid_mesh(three_colour_evaluate, np.arange(nu), np.arange(nv)).faces)
        assert len(m.vertices) > 3 * ASCII_CHUNK
        assert len(m.faces) > 3 * ASCII_CHUNK  # each vertex in up to 6 faces
        d = tmp_path_factory.mktemp("grid")
        write_ply(m, str(d / "m.ply"))
        write_obj(m, str(d / "m.obj"))
        ply = (d / "m.ply").read_bytes()
        body = ply[ply.index(b"end_header\n") + len(b"end_header\n"):]
        assert body == line_ply_text(m).encode("ascii")
        assert (d / "m.obj").read_bytes() == line_obj_text(m).encode("ascii")
        assert b"\n-0 0 " in ply and b"nan" in ply and b" 254 " in ply


THREE_SIGNS = np.array([1, -1, 0], dtype=np.int8)


def three_colour_evaluate(u, v):
    """Array form; also takes single points, as loop_grid_mesh passes them."""
    signs = THREE_SIGNS[(10 * np.add(u, v)).astype(int) % 3]
    return np.stack([u, v, np.sin(3 * u) * v], axis=-1), signs


class TestArrayPaths:
    @pytest.mark.parametrize("nu,nv", [(2, 2), (7, 5), (4, 9)])
    def test_grid_mesh_matches_loop_build(self, nu, nv):
        us, vs = np.linspace(-1, 1.3, nu), np.linspace(0.1, 0.7, nv)
        m = build_grid_mesh(three_colour_evaluate, us, vs)
        verts, faces = loop_grid_mesh(three_colour_evaluate, us, vs)
        assert np.array_equal(m.vertices, verts)
        assert np.array_equal(m.faces, faces)
        assert m.faces.dtype == np.int64

    def test_int8_signs_coloured_and_others_rejected(self):
        us, vs = [0.0, 1.0, 2.0], [0.0, 1.0]
        signs = np.array([[1, -1], [0, 1], [-1, 0]], dtype=np.int8)

        def evaluate(U, V):
            return np.stack([U, V, V], axis=-1), signs

        m = build_grid_mesh(evaluate, us, vs)
        assert [tuple(v) for v in m.vertices[:, 3:]] == sign_colours(signs)
        for bad in ([[2, 0], [0, 0], [0, 0]], [[0, 0], [-2, 0], [0, 0]],
                    np.full((3, 2), Causal.NULL), np.full((3, 2), 0.0),
                    np.full((3, 2), "spacelike")):
            signs = np.array(bad) if isinstance(bad, list) else bad
            with pytest.raises(ValueError, match=r"integers in -1\.\.1"):
                build_grid_mesh(evaluate, us, vs)

    def test_binary_ply_matches_struct_writer(self, tmp_path):
        m = build_grid_mesh(three_colour_evaluate, np.linspace(-1, 1, 6),
                            np.linspace(0, 1, 5))
        assert {tuple(v[3:]) for v in m.vertices} == set(CAUSAL_COLORS.values())
        # values that round, underflow, sit at the float32 edge or are not finite
        fmax = float(np.finfo(np.float32).max)
        m.vertices[:6, 2] = [0.1, 1e-40, -0.0, fmax + 2.0**102, -np.inf, np.nan]
        path = tmp_path / "m.ply"
        write_ply(m, str(path), binary=True)
        data = path.read_bytes()
        body = struct_ply_body(m)
        assert data.endswith(b"end_header\n" + body)

    def test_binary_ply_rejects_bad_values(self, tmp_path):
        path = tmp_path / "m.ply"
        m = build_grid_mesh(three_colour_evaluate, [0.0, 1.0], [0.0, 1.0])
        m.vertices[3, 1] = -1e39
        with pytest.raises(ValueError, match="vertex 3 coordinate y"):
            write_ply(m, str(path), binary=True)
        m.vertices[3, 1], m.vertices[2, 4] = 0.0, 256.0
        with pytest.raises(ValueError, match="colors"):
            write_ply(m, str(path), binary=True)
        assert not path.exists()


    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("nu,nv", [(2, 2), (7, 5), (1, 1)])
    def test_read_ply_matches_loop_reader(self, binary, nu, nv, tmp_path):
        m = build_grid_mesh(three_colour_evaluate, np.linspace(-1, 1.3, nu),
                            np.linspace(0.1, 0.7, nv))
        # values that round in float32, are tiny, negative zero or not finite
        m.vertices[:4, 2] = [0.1, 1e-40, -0.0, np.inf][: len(m.vertices)]
        path = tmp_path / "m.ply"
        write_ply(m, str(path), binary=binary)
        got, (verts, faces) = read_ply(str(path)), loop_read_ply(str(path))
        assert got.vertices.dtype == verts.dtype and got.faces.dtype == faces.dtype
        assert got.vertices.tobytes() == verts.tobytes()
        assert np.array_equal(got.faces, faces)
        if not binary:  # ASCII keeps every float64 bit
            assert got.vertices.tobytes() == m.vertices.tobytes()

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("row,count", [(0, 4), (1, 2), (1, 0)])
    def test_read_ply_rejects_non_triangles(self, binary, row, count, tmp_path):
        m = build_grid_mesh(three_colour_evaluate, [0.0, 1.0, 2.0], [0.0, 1.0])
        path = tmp_path / "m.ply"
        write_ply(m, str(path), binary=binary)
        data = path.read_bytes()
        body = data.index(b"end_header\n") + len(b"end_header\n")
        if binary:  # the count byte of face `row`
            at = body + 15 * len(m.vertices) + 13 * row
            data = data[:at] + bytes([count]) + data[at + 1:]
        else:  # face `row` rewritten with `count` indices
            lines = data[body:].split(b"\n")
            face = len(m.vertices) + row
            lines[face] = b" ".join([str(count).encode()] + [b"0"] * count)
            data = data[:body] + b"\n".join(lines)
        path.write_bytes(data)
        with pytest.raises(ValueError, match="non-triangle face"):
            loop_read_ply(str(path))
        with pytest.raises(ValueError, match="non-triangle face"):
            read_ply(str(path))


@pytest.fixture(scope="module")
def coeffs_iii(tmp_path_factory):
    path = tmp_path_factory.mktemp("coeffs") / "iii.json"
    assert run("construct", "--case", "iii", "--c", "1", "--out", str(path)) == 0
    return str(path)


@pytest.fixture(scope="module")
def coeffs_big(tmp_path_factory):
    """Exact series whose coefficients (c = 1e100) or c itself (1e160) leave
    float range; construct is exact, so it still succeeds."""
    d = tmp_path_factory.mktemp("coeffs")
    for name, c, order in (("big", "1e100", "16"), ("huge", "1e160", "8")):
        assert run("construct", "--case", "iii", f"--c={c}", "--order", order,
                   "--out", str(d / f"{name}.json")) == 0
    return {"big": str(d / "big.json"), "huge": str(d / "huge.json")}


C_BIG, C_HUGE = f"c = {10**100}", f"c = {10**160}"


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bounds", "--c", "1", "--delta", "nan"], "finite"),
            (["bounds", "--c", "1", "--delta", "inf"], "finite"),
            (["construct", "--case", "iii", "--c", "1", "--order", "49"], "cost cap"),
            (["classify", "--surface", "catalog:light_cone", "--exact"],
             "--exact applies to coefficient series"),
            (["mesh", "--coeffs", "{iii}", "--grid=-300:300:3,-1:1:3",
              "--ply-binary", "--out", "{out}"], "out of float32 range"),
            (["classify", "--surface", "catalog:elliptic_catenoid", "--tol", "nan",
              "--out", "{out}"], "tol must be finite"),
            (["classify", "--coeffs", "{iii}", "--tol", "inf", "--out", "{out}"],
             "tol must be finite"),
            (["mesh", "--coeffs", "{iii}", "--tol", "nan", "--out", "{out}"],
             "tol must be finite"),
            (["mesh", "--surface", "catalog:elliptic_catenoid", "--tol", "inf",
              "--out", "{out}"], "tol must be finite"),
            (["classify", "--surface", "catalog:hyperbolic_catenoid",
              "--grid=-1:1:3,-1:1:3", "--out", "{out}"],
             "catalog:hyperbolic_catenoid has no jet at (0.0, 0.0)"),
            # coefficients beyond float range: the float jet table
            (["classify", "--coeffs", "{big}", "--out", "{out}"], C_BIG),
            (["classify", "--coeffs", "{big}", "--grid=-1e-30:1e-30:3,-1:1:3",
              "--out", "{out}"], C_BIG),
            (["classify", "--coeffs", "{big}", "--no-exact", "--out", "{out}"], C_BIG),
            (["mesh", "--coeffs", "{big}", "--out", "{out}"], C_BIG),
            # c itself beyond the float range of the certificate
            (["classify", "--coeffs", "{huge}", "--grid=-1e-30:1e-30:3,-1:1:3",
              "--out", "{out}"], C_HUGE),
            (["mesh", "--coeffs", "{huge}", "--out", "{out}"], C_HUGE),
            (["bounds", "--c=1e100", "--out", "{out}"], C_BIG),
            (["bounds", "--c=1e160", "--out", "{out}"], C_HUGE),
            (["bounds", "--c=1e-400", "--out", "{out}"], f"c = 1/{10**400}"),
            (["bounds", "--c", "1", "--delta", "1e300", "--out", "{out}"], "c = 1 "),
            # Newton fails at many points; the first in grid order is named
            (["mesh", "--surface", "catalog:mixed_cone_type",
              "--grid=0.1:3:101,0.2:1.4:101", "--out", "{out}"],
             "catalog:mixed_cone_type has no jet at (1.115, 1.3639999999999999): "
             "Newton iteration"),
            # B overflows: inf from v ~ 179 on, NaN from inf - inf above 370
            (["classify", "--surface", "catalog:elliptic_catenoid",
              "--grid=-1:1:5,300:400:5", "--out", "{out}"],
             "catalog:elliptic_catenoid has no finite B at (-1.0, 300.0): B = inf"),
            (["mesh", "--surface", "catalog:elliptic_catenoid",
              "--grid=-1:1:5,375:400:5", "--out", "{out}"],
             "catalog:elliptic_catenoid has no finite B at (-1.0, 375.0): B = nan"),
            # x^16 overflows the float jet: inf - inf heights off the x = 0 row
            (["mesh", "--coeffs", "{iii}", "--grid=-1e30:1e30:3,-1:1:3",
              "--out", "{out}"],
             "series case iii (c = 1) has no finite vertex at (-1e+30, -1.0): "
             "(x, y, t) = (-1e+30, -1.0, nan)"),
        ],
    )
    def test_exits_2(self, argv, message, coeffs_iii, coeffs_big, tmp_path, capsys):
        out = tmp_path / "out.ply"
        argv = [a.format(iii=coeffs_iii, out=out, **coeffs_big) for a in argv]
        assert run(*argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bounds", "--c=1e5000"],
        ["bounds", "--c=1e999999999"],
        ["construct", "--case", "iii", "--c=1e-999999999"],
    ])
    def test_huge_exponent_is_a_parse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not a rational number" in err and "exponent above 4300" in err

    def test_huge_exponents_exit_2_at_once(self, tmp_path):
        # Fraction("1e999999999") alone takes minutes; each of these exits 2
        # in about the time an interpreter takes to start
        coeffs = tmp_path / "c.json"
        coeffs.write_text(
            json.dumps({"case": "iii", "c": "1e999999999", "order": 8, "betas": {}})
        )
        for argv in (["bounds", "--c=1e999999999"],
                     ["construct", "--case", "iii", "--c=1e-999999999"],
                     ["classify", "--coeffs", str(coeffs)]):
            out = subprocess.run([sys.executable, "-m", "zmcgraph.cli", *argv],
                                 capture_output=True, text=True, timeout=30)
            assert out.returncode == 2, out.stderr
            assert "not a rational" in out.stderr
