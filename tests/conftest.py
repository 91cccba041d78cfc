import numpy as np
import pytest
import scipy.sparse.linalg as spla

from srlab.geometry import TriMesh, triangulate, unit_square


@pytest.fixture
def unconverged_eigsh(monkeypatch):
    """Make every eigsh call report ARPACK non-convergence, carrying the
    eigenvalue it did compute, as a run that hits its iteration cap does."""
    eigsh = spla.eigsh

    def fake(*args, **kwargs):
        vals = eigsh(*args, **kwargs)
        raise spla.ArpackNoConvergence("ARPACK hit maxiter", vals, None)

    monkeypatch.setattr(spla, "eigsh", fake)


@pytest.fixture
def broken_mesh():
    """Build a level-2 unit-square mesh with one defect: "flipped" (a
    clockwise triangle), "untagged" (a boundary edge without its face tag)
    or "three_triangles" (an edge on three triangles)."""

    def build(defect):
        mesh = triangulate(unit_square(), np.sqrt(2.0) / 4)
        tris, bedges = mesh.triangles.copy(), mesh.boundary_edges.copy()
        if defect == "flipped":
            tris[5] = tris[5, ::-1]
        elif defect == "untagged":
            # face 0 keeps both corners, so the polygon can still be rebuilt
            bedges = np.delete(bedges, 1, axis=0)
        else:
            tris = np.vstack([tris, tris[:1]])
        return TriMesh(mesh.polygon, mesh.nodes.copy(), tris, bedges)

    return build
