import numpy as np
import pytest

from srlab.geometry import (
    ConvexPolygon,
    CubePatch,
    cube_polygon_cover,
    face_boundary_integrand,
    read_tmesh2d,
    refine_uniform,
    regular_ngon,
    triangulate,
    unit_square,
    write_tmesh2d,
)


def test_polygon_rejects_collinear_and_clockwise():
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (1, 0), (2, 0), (1, 1)])
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])


def test_face_frames():
    poly = unit_square()
    centroid = poly.centroid()
    for f in poly.faces:
        assert abs(f.normal @ f.tangent) < 1e-14
        assert abs(np.linalg.norm(f.normal) - 1) < 1e-14
        assert abs(np.linalg.norm(f.tangent) - 1) < 1e-14
        mid = 0.5 * (f.start + f.end)
        assert f.normal @ (mid - centroid) > 0


def test_unit_square_fan_split():
    mesh = triangulate(unit_square(), np.sqrt(2.0))
    assert mesh.n_triangles == 2
    assert mesh.n_nodes == 4
    assert abs(mesh.areas().sum() - 1.0) < 1e-14
    mesh.validate()


def test_refine_counts_and_h():
    mesh = triangulate(unit_square(), np.sqrt(2.0))
    fine = refine_uniform(mesh)
    assert fine.n_triangles == 8
    assert fine.n_nodes == 9
    assert abs(fine.areas().sum() - mesh.areas().sum()) < 1e-14
    assert fine.h == pytest.approx(mesh.h / 2, rel=1e-14)
    fine.validate()


def _refine_by_dict(mesh):
    """Red refinement through a midpoint dict, numbering each midpoint when
    its edge first appears: the reference for refine_uniform."""
    nodes, tris, bedges, mid_id = list(mesh.nodes), [], [], {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid_id:
            mid_id[key] = len(nodes)
            nodes.append(0.5 * (mesh.nodes[a] + mesh.nodes[b]))
        return mid_id[key]

    for i, j, k in mesh.triangles:
        mij, mjk, mki = mid(i, j), mid(j, k), mid(k, i)
        tris += [[i, mij, mki], [mij, j, mjk], [mki, mjk, k], [mij, mjk, mki]]
    for a, b, fid in mesh.boundary_edges:
        m = mid(a, b)
        bedges += [[a, m, fid], [m, b, fid]]
    return np.array(nodes), np.array(tris), np.array(bedges)


@pytest.mark.parametrize(
    "polygon",
    [unit_square(), regular_ngon(7), ConvexPolygon([(0, 0), (1.3, 0.1), (0.4, 0.9)])],
    ids=["square", "7-gon", "scalene"],
)
def test_refine_matches_dict_reference(polygon):
    mesh = triangulate(polygon, 1e9)
    for _ in range(3):
        want = _refine_by_dict(mesh)
        mesh = refine_uniform(mesh)
        got = (mesh.nodes, mesh.triangles, mesh.boundary_edges)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_triangulate_hits_target_h():
    mesh = triangulate(unit_square(), 0.2)
    assert mesh.h <= 0.2
    mesh.validate()


def test_64gon_area():
    poly = regular_ngon(64)
    exact = 32.0 * np.sin(2.0 * np.pi / 64.0)
    assert poly.area() == pytest.approx(exact, rel=1e-14)
    mesh = triangulate(poly, 0.5)
    assert mesh.areas().sum() == pytest.approx(exact, rel=1e-12)
    mesh.validate()


def test_boundary_edges_on_face_lines():
    mesh = triangulate(regular_ngon(8), 0.3)
    for a, b, fid in mesh.boundary_edges:
        f = mesh.polygon.faces[fid]
        for p in (mesh.nodes[a], mesh.nodes[b]):
            assert abs((p - f.start) @ f.normal) < 1e-12


def test_cube_cover_monotone_and_measure():
    mesh = triangulate(unit_square(), 0.05)
    patch = CubePatch(center=(0.0, 0.0), r=np.sqrt(2.0))  # side 1, Q cap Omega = [0,1/2]^2
    cover = cube_polygon_cover(mesh, patch)
    e1, e2, e4 = (set(cover.elements[a].tolist()) for a in (1, 2, 4))
    assert e1 <= e2 <= e4
    assert cover.measures[1] == pytest.approx(0.25, rel=0.05)
    assert not cover.empty


def test_cube_cover_all_or_nothing():
    mesh = triangulate(unit_square(), 0.3)
    big = cube_polygon_cover(mesh, CubePatch(mesh.polygon.centroid(), r=10.0))
    assert len(big.elements[1]) == mesh.n_triangles
    outside = cube_polygon_cover(mesh, CubePatch((5.0, 5.0), r=0.5))
    assert outside.empty


def test_face_integrand_linear_field():
    # v = (2x, 2y): on face y=1 the boundary term is d/ds(2 * v.t) = 4
    poly = unit_square()
    face = poly.faces[2]
    s = np.linspace(0.1, 0.9, 5)
    pts = face.point(s)
    v = 2.0 * pts
    Jv = np.broadcast_to(2.0 * np.eye(2), (5, 2, 2))
    vals = face_boundary_integrand(face, v, Jv)
    assert np.allclose(vals, 4.0)


def test_face_integrand_vanishing_tangential():
    # v = (y, 0) on face x=0: v_T = 0, so the integrand vanishes
    poly = unit_square()
    face = poly.faces[3]
    assert np.allclose(face.normal, [-1.0, 0.0])
    s = np.linspace(0.0, 1.0, 7)
    pts = face.point(s)
    v = np.column_stack([pts[:, 1], np.zeros(7)])
    J = np.zeros((7, 2, 2))
    J[:, 0, 1] = 1.0
    vals = face_boundary_integrand(face, v, J)
    assert np.allclose(vals, 0.0)


def test_tmesh2d_roundtrip(tmp_path):
    mesh = triangulate(unit_square(), 0.4)
    path = tmp_path / "square.tmesh2d"
    write_tmesh2d(mesh, path)
    assert path.read_text().startswith("tmesh2d\n")
    back = read_tmesh2d(path)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
    assert back.polygon.area() == pytest.approx(1.0, rel=1e-14)
    back.validate()


def test_tmesh2d_comment_line(tmp_path):
    mesh = triangulate(unit_square(), 0.4)
    plain, commented = tmp_path / "a.tmesh2d", tmp_path / "b.tmesh2d"
    write_tmesh2d(mesh, plain)
    write_tmesh2d(mesh, commented, "srlab cfg")
    assert commented.read_text() == "# srlab cfg\n" + plain.read_text()
    assert np.array_equal(read_tmesh2d(commented).nodes, mesh.nodes)


def test_tmesh2d_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        read_tmesh2d(path)


BROKEN = [
    ("flipped", "clockwise"),
    ("untagged", "boundary edge tags"),
    ("three_triangles", "more than two triangles"),
]


@pytest.mark.parametrize("kind, message", BROKEN, ids=[k for k, _ in BROKEN])
def test_validate_rejects_broken_mesh(broken_mesh, kind, message):
    with pytest.raises(ValueError, match=message):
        broken_mesh(kind).validate()


@pytest.mark.parametrize("kind, message", BROKEN, ids=[k for k, _ in BROKEN])
def test_read_tmesh2d_validates(tmp_path, broken_mesh, kind, message):
    path = tmp_path / "broken.tmesh2d"
    write_tmesh2d(broken_mesh(kind), path)
    with pytest.raises(ValueError, match=message):
        read_tmesh2d(path)
