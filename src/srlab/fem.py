"""Taylor-Hood (P2 velocity / P1 pressure) spaces and matrix assembly.

Velocity dofs are interleaved as 2*node + component, with P2 nodes
numbered vertices first, then edge midpoints in sorted endpoint order.
Pressure dofs coincide with mesh vertices. All matrices are assembled
once per mesh and are immutable scipy.sparse CSR matrices.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import TriMesh, edge_keys
from .quadrature import segment_rule, triangle_rule

__all__ = [
    "TaylorHoodSpace",
    "BoundaryCondition",
    "AssembledSystem",
    "VolumeF",
    "DivergenceF",
    "BoundaryG",
    "build_space",
    "build_system",
    "assemble_stiffness",
    "assemble_cross_term",
    "assemble_divergence",
    "assemble_gram",
    "assemble_gradient_coupling",
    "load_vector",
]

GRAM_KINDS = ("velocity_mass", "pressure_mass", "H1_full", "H1_zero")


def _p2_ref(pts):
    """P2 basis values and gradients at reference points (x, y)."""
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    vals = np.stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l0 * l1,
            4 * l1 * l2,
            4 * l2 * l0,
        ],
        axis=1,
    )
    zeros = np.zeros_like(x)
    dl = {
        "l0": np.stack([-np.ones_like(x), -np.ones_like(x)], axis=1),
        "l1": np.stack([np.ones_like(x), zeros], axis=1),
        "l2": np.stack([zeros, np.ones_like(x)], axis=1),
    }
    g0 = (4 * l0 - 1)[:, None] * dl["l0"]
    g1 = (4 * l1 - 1)[:, None] * dl["l1"]
    g2 = (4 * l2 - 1)[:, None] * dl["l2"]
    g3 = 4 * (l1[:, None] * dl["l0"] + l0[:, None] * dl["l1"])
    g4 = 4 * (l2[:, None] * dl["l1"] + l1[:, None] * dl["l2"])
    g5 = 4 * (l0[:, None] * dl["l2"] + l2[:, None] * dl["l0"])
    grads = np.stack([g0, g1, g2, g3, g4, g5], axis=1)  # (nq, 6, 2)
    return vals, grads


def _p1_ref(pts):
    x, y = pts[:, 0], pts[:, 1]
    vals = np.stack([1.0 - x - y, x, y], axis=1)
    grads = np.broadcast_to(
        np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]), (len(pts), 3, 2)
    )
    return vals, grads


# Constant reference Hessians of the six P2 basis functions, (6, 2, 2).
_P2_HESS_REF = np.array(
    [
        [[4.0, 4.0], [4.0, 4.0]],
        [[4.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 4.0]],
        [[-8.0, -4.0], [-4.0, 0.0]],
        [[0.0, 4.0], [4.0, 0.0]],
        [[0.0, -4.0], [-4.0, -8.0]],
    ]
)


def _p2_edge_trace(s):
    """Trace of the three edge-supported P2 shapes at fractions s in [0,1],
    ordered (start vertex, end vertex, midpoint)."""
    s = np.asarray(s)
    return np.stack([2 * (s - 0.5) * (s - 1.0), s * (2 * s - 1.0), 4 * s * (1 - s)], axis=1)


@dataclass(frozen=True)
class BoundaryCondition:
    """Dirichlet (u = 0) or Neumann-type ({Du + mu Du^T} n - phi n = 0).
    The mu is the system's: it acts only through AssembledSystem.A_mu."""

    tag: str

    def __post_init__(self):
        if self.tag not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition tag {self.tag!r}")

    @property
    def is_dirichlet(self) -> bool:
        return self.tag == "dirichlet"


class TaylorHoodSpace:
    """P2/P1 pair on a triangle mesh with deterministic dof numbering."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        nv = mesh.n_nodes
        keys, bkeys = edge_keys(mesh)
        uniq, inverse = np.unique(keys, return_inverse=True)
        self.edges = np.column_stack(np.divmod(uniq, nv))
        self.n_vertices = nv
        self.n_edges = len(uniq)
        self.n_pres = nv
        self.n_p2 = nv + self.n_edges
        self.n_vel = 2 * self.n_p2
        self.p2_coords = np.vstack([mesh.nodes, 0.5 * mesh.nodes[self.edges].sum(axis=1)])
        self.cells6 = np.hstack([mesh.triangles, nv + inverse.reshape(-1, 3)])

        # Element geometry: affine maps x = a + J xi.
        corners = mesh.triangle_corners()
        J = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2)
        self.detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        self.invJ = (
            np.stack(
                [
                    np.stack([J[:, 1, 1], -J[:, 0, 1]], axis=1),
                    np.stack([-J[:, 1, 0], J[:, 0, 0]], axis=1),
                ],
                axis=1,
            )
            / self.detJ[:, None, None]
        )
        self._corner0 = corners[:, 0]
        self._J = J

        # Boundary table: the P2 midpoint node of each boundary edge, and
        # the sorted (P2 node, face id) pairs of the boundary's nodes.
        self.boundary_mids = nv + np.searchsorted(uniq, bkeys)
        a, b, fid = mesh.boundary_edges.T
        pairs = np.stack([a, fid, b, fid, self.boundary_mids, fid], axis=1)
        self.boundary_node_faces = np.unique(pairs.reshape(-1, 2), axis=0)
        self.boundary_nodes = np.unique(self.boundary_node_faces[:, 0])
        self.boundary_vel_dofs = np.sort(
            np.concatenate([2 * self.boundary_nodes, 2 * self.boundary_nodes + 1])
        )
        self.boundary_vertex_ids = self.boundary_nodes[self.boundary_nodes < nv]
        # the no-slip mask: False on the velocity dofs a Dirichlet
        # condition removes, True on those it keeps
        self.interior_vel = np.ones(self.n_vel, dtype=bool)
        self.interior_vel[self.boundary_vel_dofs] = False
        self.interior_vel.setflags(write=False)
        # lazily filled caches, shared by the CLI's sweep-ray threads and
        # filled under one lock (reentrant: the P2 matrices read quad_data)
        self._lock = threading.RLock()
        self._quad_cache: dict[int, tuple] = {}
        self._p2mats: tuple | None = None
        # input-norm Gram factorizations, keyed by norm (norms._gram_solver)
        self._gram_cache: dict[str, object] = {}

    def node_normal(self, node: int) -> np.ndarray:
        """Outward normal at a boundary P2 node; corners use the bisector."""
        faces = self.boundary_node_faces[self.boundary_node_faces[:, 0] == node, 1]
        n = sum(self.mesh.polygon.faces[f].normal for f in faces)
        return n / np.linalg.norm(n)

    def quad_data(self, degree: int):
        """Per-element quadrature tables for the given rule degree.

        Returns (phys_points (ne,nq,2), weights (ne,nq) including element
        area, P2 values (nq,6), P2 physical gradients (ne,nq,6,2),
        P1 values (nq,3), P1 physical gradients (ne,3,2)).
        """
        with self._lock:
            if degree not in self._quad_cache:
                pts, w = triangle_rule(degree)
                p2v, p2g = _p2_ref(pts)
                p1v, p1g = _p1_ref(pts)
                phys = self._corner0[:, None, :] + np.einsum(
                    "eab,qb->eqa", self._J, pts
                )
                wts = 0.5 * self.detJ[:, None] * w[None, :]
                g2 = np.einsum("qnb,eba->eqna", p2g, self.invJ)
                g1 = np.einsum("nb,eba->ena", p1g[0], self.invJ)
                self._quad_cache[degree] = (phys, wts, p2v, g2, p1v, g1)
            return self._quad_cache[degree]

    def velocity_at_quad(self, coeffs):
        """Values (ne,nq,2) and gradients (ne,nq,2,2) at the degree-8 points.

        Gradient convention: grad[..., a, b] = d u_a / d x_b.
        """
        phys, wts, p2v, g2, _, _ = self.quad_data(8)
        x = np.asarray(coeffs).reshape(self.n_p2, 2)
        xe = x[self.cells6]  # (ne, 6, 2)
        vals = np.einsum("qn,ena->eqa", p2v, xe)
        grads = np.einsum("eqnb,ena->eqab", g2, xe)
        return vals, grads, wts

    def pressure_at_quad(self, coeffs):
        phys, wts, _, _, p1v, g1 = self.quad_data(8)
        xe = np.asarray(coeffs)[self.mesh.triangles]  # (ne, 3)
        vals = np.einsum("qn,en->eq", p1v, xe)
        grads = np.einsum("enb,en->eb", g1, xe)
        return vals, grads, wts

    def velocity_hessians(self, coeffs):
        """Per-element constant Hessians (ne, 2, 2, 2): H[e,a,:,:] for u_a."""
        hess_phys = np.einsum(
            "eca,ncd,edb->enab", self.invJ, _P2_HESS_REF, self.invJ
        )  # (ne, 6, 2, 2)
        x = np.asarray(coeffs).reshape(self.n_p2, 2)
        xe = x[self.cells6]
        return np.einsum("enab,enc->ecab", hess_phys, xe)


def build_space(mesh: TriMesh) -> TaylorHoodSpace:
    return TaylorHoodSpace(mesh)


def _scatter(local, rows_nodes, cols_nodes, shape):
    """Accumulate per-element local matrices (ne, nr, nc) into CSR."""
    rows = np.repeat(rows_nodes[:, :, None], local.shape[2], axis=2)
    cols = np.repeat(cols_nodes[:, None, :], local.shape[1], axis=1)
    mat = sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    )
    return mat.tocsr()


def _scalar_p2_matrices(space: TaylorHoodSpace):
    """Scalar P2 mass, stiffness, and the four gradient-product blocks."""
    with space._lock:
        if space._p2mats is None:
            _, wts, p2v, g2, _, _ = space.quad_data(4)
            mass_loc = np.einsum("eq,qm,qn->emn", wts, p2v, p2v)
            stiff_loc = np.einsum("eq,eqma,eqna->emn", wts, g2, g2)
            gg = np.einsum("eq,eqmc,eqnd->ecdmn", wts, g2, g2)  # G_cd
            shape = (space.n_p2, space.n_p2)
            cells = space.cells6
            mass = _scatter(mass_loc, cells, cells, shape)
            stiff = _scatter(stiff_loc, cells, cells, shape)
            G = {
                (c, d): _scatter(gg[:, c, d], cells, cells, shape)
                for c in range(2)
                for d in range(2)
            }
            space._p2mats = (mass, stiff, G)
        return space._p2mats


def _interleave_blocks(blocks, shape):
    """Place scalar blocks[(a, b)] at velocity dof rows 2p+a, cols 2q+b;
    an index of None keeps that side's scalar (pressure) numbering."""
    rows, cols, vals = [], [], []
    for (a, b), blk in blocks.items():
        coo = blk.tocoo()
        rows.append(coo.row if a is None else 2 * coo.row + a)
        cols.append(coo.col if b is None else 2 * coo.col + b)
        vals.append(coo.data)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    ).tocsr()


def assemble_stiffness(space: TaylorHoodSpace, mu: float):
    """A_mu with quadratic form int |grad u|^2 + mu d_k u_j d_j u_k."""
    if not (-1.0 < mu <= 1.0):
        raise ValueError("mu must lie in (-1, 1]")
    _, stiff, _ = _scalar_p2_matrices(space)
    A0 = sp.kron(stiff, sp.eye(2), format="csr")
    if mu == 0.0:
        return A0
    return (A0 + mu * assemble_cross_term(space)).tocsr()


def assemble_cross_term(space: TaylorHoodSpace):
    """D with x*Dx = int d_a u_b d_b u_a; entries int d_b N_p d_a N_q."""
    _, _, G = _scalar_p2_matrices(space)
    blocks = {(a, b): G[(b, a)] for a in range(2) for b in range(2)}
    return _interleave_blocks(blocks, (space.n_vel, space.n_vel))


def assemble_divergence(space: TaylorHoodSpace):
    """B with (Bx)_q = int q_h div(u_h); rows pressure, cols velocity."""
    _, wts, _, g2, p1v, _ = space.quad_data(4)
    shape = (space.n_pres, space.n_p2)
    blocks = {}
    for a in range(2):
        loc = np.einsum("eq,qm,eqn->emn", wts, p1v, g2[..., a])
        blocks[(None, a)] = _scatter(loc, space.mesh.triangles, space.cells6, shape)
    return _interleave_blocks(blocks, (space.n_pres, space.n_vel))


def assemble_gradient_coupling(space: TaylorHoodSpace):
    """C with C[(p,a), q] = int N_p d_a L_q (velocity rows, P1 columns).

    Realizes the pairing (v, grad chi) for scalar potentials chi in the
    linear nodal space.
    """
    _, wts, p2v, _, _, g1 = space.quad_data(4)
    shape = (space.n_p2, space.n_pres)
    blocks = {}
    for a in range(2):
        # g1 is constant over quadrature points; loc shape (ne, 6, 3)
        loc = np.einsum("eq,qm,en->emn", wts, p2v, g1[..., a])
        blocks[(a, None)] = _scatter(loc, space.cells6, space.mesh.triangles, shape)
    return _interleave_blocks(blocks, (space.n_vel, space.n_pres))


def _eliminate(mat, keep):
    """Symmetric elimination P mat P + (I - P), P = diag(keep): zero the
    rows and columns where the boolean mask is False, unit diagonal there."""
    P = sp.diags(keep.astype(float))
    return (P @ mat @ P + sp.diags((~keep).astype(float))).tocsr()


def assemble_gram(space: TaylorHoodSpace, kind: str):
    if kind not in GRAM_KINDS:
        raise ValueError(f"unknown gram kind {kind!r}")
    if kind == "pressure_mass":
        _, wts, _, _, p1v, _ = space.quad_data(4)
        loc = np.einsum("eq,qm,qn->emn", wts, p1v, p1v)
        return _scatter(
            loc, space.mesh.triangles, space.mesh.triangles,
            (space.n_pres, space.n_pres),
        )
    mass, stiff, _ = _scalar_p2_matrices(space)
    if kind == "velocity_mass":
        return sp.kron(mass, sp.eye(2), format="csr")
    K1 = sp.kron(mass + stiff, sp.eye(2), format="csr")
    if kind == "H1_full":
        return K1
    return _eliminate(K1, space.interior_vel)


@dataclass(frozen=True)
class VolumeF:
    """Volume right-hand side f; callable points (n,2) -> values (n,2)."""

    f: object


@dataclass(frozen=True)
class DivergenceF:
    """Divergence-form right-hand side div(F), realized weakly as
    -int F : grad(v); callable points (n,2) -> values (n,2,2)."""

    F: object


@dataclass(frozen=True)
class BoundaryG:
    """Natural boundary data g; callable (points (n,2), face_id) -> (n,2)."""

    g: object


def load_vector(space: TaylorHoodSpace, rhs, bc: BoundaryCondition | None = None):
    """Assemble the load vector of a single right-hand-side part, real for
    real data and complex otherwise."""
    if isinstance(rhs, (VolumeF, DivergenceF)):
        phys, wts, p2v, g2, _, _ = space.quad_data(8)
        flat = phys.reshape(-1, 2)
        if isinstance(rhs, VolumeF):
            fv = np.asarray(rhs.f(flat)).reshape(phys.shape[0], phys.shape[1], 2)
            loc = np.einsum("eq,qn,eqa->ena", wts, p2v, fv)
        else:
            Fv = np.asarray(rhs.F(flat)).reshape(phys.shape[0], phys.shape[1], 2, 2)
            loc = -np.einsum("eq,eqab,eqnb->ena", wts, Fv, g2)
        dofs = 2 * space.cells6[..., None] + np.arange(2)
    elif isinstance(rhs, BoundaryG):
        if bc is not None and bc.is_dirichlet:
            raise ValueError("boundary data cannot be combined with a Dirichlet condition")
        s, w = segment_rule(6)
        trace = _p2_edge_trace(s)  # (nq, 3)
        dofs, loc = [], []
        for (a, b, fid), mid in zip(space.mesh.boundary_edges, space.boundary_mids):
            a, b, fid = int(a), int(b), int(fid)
            pa, pb = space.mesh.nodes[a], space.mesh.nodes[b]
            pts = pa + np.multiply.outer(s, pb - pa)
            length = np.linalg.norm(pb - pa)
            gv = np.asarray(rhs.g(pts, fid))  # (nq, 2)
            loc.append(length * np.einsum("q,qn,qc->nc", w, trace, gv))
            dofs.append(2 * np.array([a, b, mid])[:, None] + np.arange(2))
    else:
        raise TypeError(f"unsupported right-hand side {type(rhs).__name__}")
    loc = np.asarray(loc)
    load = np.zeros(space.n_vel, dtype=np.result_type(float, loc))
    np.add.at(load, np.asarray(dofs), loc)
    if bc is not None and bc.is_dirichlet:
        load[space.boundary_vel_dofs] = 0.0
    return load


@dataclass(frozen=True)
class AssembledSystem:
    """All matrices for one (mesh, mu) pair, reused across resolvent values."""

    space: TaylorHoodSpace
    mu: float
    M_v: sp.csr_matrix
    M_q: sp.csr_matrix
    A0: sp.csr_matrix
    B: sp.csr_matrix
    A_mu: sp.csr_matrix  # A0 + mu * cross term, the natural-condition stiffness
    C: sp.csr_matrix = field(repr=False, default=None)


def build_system(space: TaylorHoodSpace, mu: float = 0.0) -> AssembledSystem:
    A0 = assemble_stiffness(space, 0.0)
    A_mu = A0 if mu == 0.0 else assemble_stiffness(space, mu)
    return AssembledSystem(
        space=space,
        mu=mu,
        M_v=assemble_gram(space, "velocity_mass"),
        M_q=assemble_gram(space, "pressure_mass"),
        A0=A0,
        B=assemble_divergence(space),
        C=assemble_gradient_coupling(space),
        A_mu=A_mu,
    )
