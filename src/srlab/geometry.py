"""Convex polygonal domains, triangulations, and cube-patch bookkeeping.

Triangulation is deterministic: a fan split (from the first vertex for
triangles/quadrilaterals, from the centroid for larger polygons) followed
by uniform red refinement until the target mesh size is met. All values
are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConvexPolygon",
    "Face",
    "TriMesh",
    "CubePatch",
    "CubeCover",
    "triangulate",
    "refine_uniform",
    "edge_keys",
    "unit_square",
    "regular_ngon",
    "write_tmesh2d",
    "read_tmesh2d",
]


@dataclass(frozen=True)
class Face:
    """One flat boundary face: endpoints, outward normal, unit tangent."""

    start: np.ndarray
    end: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    def point(self, s):
        """Point at arclength-fraction s in [0, 1] from start to end."""
        s = np.asarray(s)
        return self.start + np.multiply.outer(s, self.end - self.start)


class ConvexPolygon:
    """Strictly convex polygon given by counterclockwise vertices."""

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("vertices must be an (n, 2) array with n >= 3")
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            c = verts[(i + 2) % n]
            e1, e2 = b - a, c - b
            cross = e1[0] * e2[1] - e1[1] * e2[0]
            if cross <= 0:
                raise ValueError(
                    "vertices must be counterclockwise and strictly convex "
                    f"(violated at vertex {(i + 1) % n})"
                )
        self.vertices = verts
        self.vertices.setflags(write=False)
        self.faces = []
        centroid = verts.mean(axis=0)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            t = (b - a) / np.linalg.norm(b - a)
            nrm = np.array([t[1], -t[0]])  # outward for CCW orientation
            mid = 0.5 * (a + b)
            assert nrm @ (mid - centroid) > 0
            self.faces.append(Face(a.copy(), b.copy(), nrm, t))

    def area(self) -> float:
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def diameter(self) -> float:
        v = self.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangle mesh of a convex polygon.

    boundary_edges rows are (node_a, node_b, face_id); every boundary edge
    lies on exactly one polygon face.
    """

    polygon: ConvexPolygon
    nodes: np.ndarray  # (n_nodes, 2)
    triangles: np.ndarray  # (n_tris, 3), CCW
    boundary_edges: np.ndarray  # (n_bedges, 3) int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.triangles.setflags(write=False)
        self.boundary_edges.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_corners(self) -> np.ndarray:
        """(n_tris, 3, 2) corner coordinates."""
        return self.nodes[self.triangles]

    def areas(self) -> np.ndarray:
        c = self.triangle_corners()
        e1 = c[:, 1] - c[:, 0]
        e2 = c[:, 2] - c[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def centroids(self) -> np.ndarray:
        return self.triangle_corners().mean(axis=1)

    @property
    def h(self) -> float:
        c = self.triangle_corners()
        e = np.stack(
            [c[:, 1] - c[:, 0], c[:, 2] - c[:, 1], c[:, 0] - c[:, 2]], axis=1
        )
        return float(np.sqrt((e**2).sum(axis=-1).max()))

    def validate(self):
        """Raise ValueError on a broken mesh: a clockwise or degenerate
        triangle, an edge (see edge_keys) on more than two triangles,
        boundary tags that differ from the edges on one triangle, triangles
        that do not tile the polygon, or a tagged edge off its face."""
        areas, area = self.areas(), self.polygon.area()
        keys, bkeys = edge_keys(self)
        keys, count = np.unique(keys, return_counts=True)
        faces = self.polygon.faces
        off = [(self.nodes[[a, b]] - faces[f].start) @ faces[f].normal
               for a, b, f in self.boundary_edges]
        for ok, what in (
            (np.all(areas > 0), "a triangle is clockwise or degenerate"),
            (count.max() <= 2, "an edge lies on more than two triangles"),
            (np.array_equal(keys[count == 1], np.unique(bkeys)),
             "boundary edge tags do not match the mesh boundary"),
            (abs(areas.sum() - area) <= 1e-12 * area, "triangles do not tile the polygon"),
            (np.all(np.abs(off) <= 1e-12 * max(1.0, self.polygon.diameter())),
             "a boundary node lies off its face"),
        ):
            if not ok:
                raise ValueError(f"invalid mesh: {what}")


def edge_keys(mesh: TriMesh):
    """The mesh's edge table: keys min * n_nodes + max of node pairs, an
    (n_tris, 3) array for the sides (i, j), (j, k), (k, i) of each
    triangle and an (n_bedges,) array for the rows of boundary_edges."""
    t, be = mesh.triangles, mesh.boundary_edges
    pairs = ((t, np.roll(t, -1, axis=1)), (be[:, 0], be[:, 1]))
    return tuple(np.minimum(a, b) * mesh.n_nodes + np.maximum(a, b) for a, b in pairs)


def triangulate(polygon: ConvexPolygon, target_h: float) -> TriMesh:
    """Fan-triangulate `polygon` and refine uniformly until h <= target_h."""
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    verts = polygon.vertices
    n = len(verts)
    if n <= 4:
        # Fan from the first vertex: a square splits into two triangles.
        nodes = verts.copy()
        tris = np.array([[0, i, i + 1] for i in range(1, n - 1)], dtype=int)
        bedges = [(i, (i + 1) % n, i) for i in range(n)]
    else:
        nodes = np.vstack([verts, polygon.centroid()])
        tris = np.array([[i, (i + 1) % n, n] for i in range(n)], dtype=int)
        bedges = [(i, (i + 1) % n, i) for i in range(n)]
    mesh = TriMesh(polygon, nodes, tris, np.asarray(bedges, dtype=int))
    while mesh.h > target_h:
        mesh = refine_uniform(mesh)
    return mesh


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Red refinement: each triangle splits into 4 congruent children.
    Edge midpoints are numbered after the vertices, in the order their
    edges first appear in the triangles' sides."""
    nv = mesh.n_nodes
    keys, bkeys = edge_keys(mesh)
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # sorted position -> midpoint number
    lo, hi = np.divmod(keys.ravel()[np.sort(first)], nv)
    nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[lo] + mesh.nodes[hi])])
    (i, j, k), (mij, mjk, mki) = mesh.triangles.T, nv + rank[inverse].reshape(-1, 3).T
    tris = np.stack([i, mij, mki, mij, j, mjk, mki, mjk, k, mij, mjk, mki], axis=1)
    a, b, fid = mesh.boundary_edges.T
    m = nv + rank[np.searchsorted(uniq, bkeys)]
    bedges = np.stack([a, m, fid, m, b, fid], axis=1)
    return TriMesh(mesh.polygon, nodes, tris.reshape(-1, 3), bedges.reshape(-1, 3))


@dataclass(frozen=True)
class CubePatch:
    """Axis-aligned square patch Q(x0, r) with its dilation chain.

    Following the cube convention Q(x0, r) has center x0 and *diameter* r,
    so the side length is r / sqrt(2).
    """

    center: np.ndarray
    r: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.r <= 0:
            raise ValueError("patch diameter must be positive")

    def half_side(self, alpha: float = 1.0) -> float:
        return 0.5 * alpha * self.r / np.sqrt(2.0)

    def contains(self, points, alpha: float = 1.0):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        hs = self.half_side(alpha)
        d = np.abs(pts - self.center)
        return np.all(d <= hs, axis=1)


@dataclass(frozen=True)
class CubeCover:
    """Element lists and measures for Q, 2Q, 4Q intersected with the domain."""

    patch: CubePatch
    elements: dict  # alpha -> sorted element index array
    measures: dict = field(default_factory=dict)  # alpha -> |alphaQ cap Omega|

    @property
    def empty(self) -> bool:
        return len(self.elements[1]) == 0


def cube_polygon_cover(mesh: TriMesh, patch: CubePatch) -> CubeCover:
    """Select mesh elements per dilation by centroid membership.

    Element assignment by centroid is a first-order approximation of the
    true intersection; the selections are nested by construction.
    """
    cent = mesh.centroids()
    areas = mesh.areas()
    elements = {}
    measures = {}
    for alpha in (1, 2, 4):
        mask = patch.contains(cent, alpha)
        idx = np.flatnonzero(mask)
        elements[alpha] = idx
        measures[alpha] = float(areas[idx].sum())

    return CubeCover(patch, elements, measures)


def face_boundary_integrand(face: Face, v, Jv):
    """Pointwise boundary term div_T([v.n] conj(v_T)) - 2 Re(conj(v_T).grad_T(v.n)).

    On a flat face with constant n and t this reduces to arclength
    derivatives of the scalar traces v.n and v.t:

        d/ds((v.n) conj(v.t)) - 2 Re(conj(v.t) d(v.n)/ds).

    `v` is (m, 2) field values at points on the face, `Jv` is (m, 2, 2)
    with Jv[:, a, b] = d v_a / d x_b. Returns real values of shape (m,).
    """
    v = np.asarray(v)
    Jv = np.asarray(Jv)
    n, t = face.normal, face.tangent
    vn = v @ n
    vt = v @ t
    dv_ds = Jv @ t  # (m, 2): arclength derivative of each component
    dvn_ds = dv_ds @ n
    dvt_ds = dv_ds @ t
    term_div = dvn_ds * np.conj(vt) + vn * np.conj(dvt_ds)
    term_grad = np.conj(vt) * dvn_ds
    return np.real(term_div - 2.0 * term_grad)


def unit_square() -> ConvexPolygon:
    return ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def regular_ngon(n: int, radius: float = 1.0) -> ConvexPolygon:
    """Regular n-gon inscribed in the circle of the given radius."""
    angles = 2 * np.pi * np.arange(n) / n
    return ConvexPolygon(radius * np.column_stack([np.cos(angles), np.sin(angles)]))


def write_tmesh2d(mesh: TriMesh, path, comment: str = ""):
    """Write the mesh in the `tmesh2d v1` text format, after a leading
    `# comment` line when a comment is given."""
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("tmesh2d\n")
        fh.write(f"{mesh.n_nodes} {mesh.n_triangles} {len(mesh.boundary_edges)}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        for a, b, fid in mesh.boundary_edges:
            fh.write(f"{a} {b} {fid}\n")


def read_tmesh2d(path) -> TriMesh:
    """Read and validate a `tmesh2d v1` file. The polygon is always rebuilt
    from the face tags of the boundary edges (requires the boundary to be
    convex); a mesh that fails TriMesh.validate raises ValueError."""
    with open(path) as fh:
        header = fh.readline().strip()
        while header.startswith("#"):
            header = fh.readline().strip()
        if header != "tmesh2d":
            raise ValueError(f"not a tmesh2d file: header {header!r}")
        nn, nt, nb = map(int, fh.readline().split())
        nodes = np.array([list(map(float, fh.readline().split())) for _ in range(nn)])
        tris = np.array([list(map(int, fh.readline().split())) for _ in range(nt)])
        bedges = np.array([list(map(int, fh.readline().split())) for _ in range(nb)])
    mesh = TriMesh(_polygon_from_boundary(nodes, bedges), nodes, tris, bedges)
    mesh.validate()
    return mesh


def _polygon_from_boundary(nodes, bedges) -> ConvexPolygon:
    n_faces = int(bedges[:, 2].max()) + 1
    corners = []
    for fid in range(n_faces):
        rows = bedges[bedges[:, 2] == fid]
        pts = nodes[np.unique(rows[:, :2])]
        face_rows = bedges[bedges[:, 2] == (fid + 1) % n_faces]
        shared = set(np.unique(rows[:, :2])) & set(np.unique(face_rows[:, :2]))
        if len(shared) != 1:
            raise ValueError("cannot reconstruct polygon corners from boundary tags")
        corners.append((fid, nodes[shared.pop()]))
    corners.sort()
    verts = np.array([c for _, c in corners])
    return ConvexPolygon(np.roll(verts, 1, axis=0))
