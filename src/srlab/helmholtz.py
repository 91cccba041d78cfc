"""Discrete Helmholtz projections and solenoidal subspace bases.

Every projection here is the M_v-orthogonal projection onto the null
space of a sparse constraint matrix A, applied through one sparse
augmented solve

    [ s M_v  A^T ] [x]   [s M_v f]
    [   A     0  ] [y] = [   0   ],   s = 1/h^2,

whose velocity block x is the projected field. The scale s leaves x
alone and balances the O(h^2) mass entries against the O(h) constraint
entries, so SuperLU's threshold pivoting keeps its diagonal pivots
instead of swapping rows. That makes the symmetric-mode factor of
solver.symmetric_lu safe: on levels 3-6 it fills 49-71% less than the
default COLAMD factor of the unscaled system (the balancing alone gives
32-40%; level 6's P factor holds 6.6M entries, not 12.8M). The
solenoidal flavors constrain the divergence (and the normal
trace); the Helmholtz flavors P and Q constrain the gradients of the
linear nodal potentials, A = C^T, so that x = f + M_v^{-1} C chi with
the scalar potential chi = -y / s. L2 operator norms use the projector
at every mesh size; the explicit basis, a dense SVD of the same
constraints orthonormalized once in its input norm, serves only the dual
input norms and the tests' dense oracle. A basis or projector carries
its input norm (`norm`), the one the operator norms measure it in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .fem import AssembledSystem
from .solver import NumericalError, split_complex, symmetric_lu

__all__ = [
    "SolenoidalBasis",
    "HelmholtzProjector",
    "ImplicitSolenoidalProjector",
    "solenoidal_basis",
    "check_dense_basis",
    "constraint_matrix",
    "orthonormalize",
]

DENSE_BASIS_LIMIT = 3000

# the input norms of an operator norm: M_v, and the H^-1 duals of the
# H1 norms of zero-trace and of all fields
INPUT_NORMS = ("L2", "H1_zero_dual", "H1_full_dual")


@dataclass(frozen=True)
class SolenoidalBasis:
    """Columns spanning a discretely solenoidal subspace, orthonormal in
    the input norm `norm` (one of INPUT_NORMS)."""

    Z: np.ndarray
    flavor: str  # a constraint_matrix flavor
    norm: str = "L2"

    @property
    def dim(self) -> int:
        return self.Z.shape[1]


def constraint_matrix(system: AssembledSystem, flavor: str):
    """Sparse constraint rows whose null space is the requested subspace.

    "calL2_sigma": the divergence rows B. "L2_sigma": B plus one
    normal-trace row per (P2 node, face) pair of space.boundary_node_faces,
    so corner nodes contribute one row for each of their two faces. "neumann" (P):
    C^T, the gradients of all P1 potentials. "dirichlet" (Q): the
    gradients of the zero-trace potentials.
    """
    space = system.space
    if flavor == "neumann":
        return system.C.T.tocsr()
    if flavor == "dirichlet":
        interior = np.setdiff1d(np.arange(space.n_pres), space.boundary_vertex_ids)
        return system.C[:, interior].T.tocsr()
    if flavor not in ("L2_sigma", "calL2_sigma"):
        raise ValueError(f"unknown flavor {flavor!r}")
    blocks = [system.B.tocsr()]
    if flavor == "L2_sigma":
        nodes, fids = space.boundary_node_faces.T
        normals = np.array([f.normal for f in space.mesh.polygon.faces])[fids]
        cols = (2 * nodes[:, None] + np.arange(2)).ravel()
        indptr = np.arange(0, len(cols) + 1, 2)
        shape = (len(nodes), space.n_vel)
        blocks.append(sp.csr_matrix((normals.ravel(), cols, indptr), shape=shape))
    return sp.vstack(blocks, format="csr")


class ImplicitSolenoidalProjector:
    """M_v-orthogonal projector onto the null space of
    constraint_matrix(system, flavor), applied through a sparse augmented
    solve instead of an explicit basis.

    One dependent constraint row is dropped, since keeping it would make
    the augmented system singular: for "L2_sigma" the first divergence
    row (with the normal trace pinned at every boundary node, the mean
    divergence row is implied by the others), for "neumann" the first
    potential row (constants span the kernel of C).
    """

    norm = "L2"  # the input norm of the operator norms it serves

    def __init__(self, system: AssembledSystem, flavor: str):
        A = constraint_matrix(system, flavor)
        if flavor in ("L2_sigma", "neumann"):
            A = A[1:]
        self.flavor = flavor
        self.system = system
        # the balancing scale of the module docstring; on the unit square
        # at levels 3-5, s = 1/h gains nothing, 1/h^1.5 gains all of it
        # only from level 4 on, and 1/h^2.5 gains less at level 5
        self._s = 1.0 / system.space.mesh.h**2
        K = sp.bmat([[self._s * system.M_v, A.T], [A, None]], format="csc")
        # the saddle matrix is real; factoring in real arithmetic halves
        # the memory and real/imag parts are solved separately
        self._lu_solve = split_complex(symmetric_lu(K).solve)
        self._n_vel = system.space.n_vel
        self._m = A.shape[0]

    def _solve(self, f):
        """Velocity block followed by the multiplier block (times s)."""
        f = np.asarray(f)
        load = self._s * (self.system.M_v @ f)
        return self._lu_solve(np.concatenate([load, np.zeros(self._m, dtype=f.dtype)]))

    def project(self, f):
        return self._solve(f)[: self._n_vel]


class HelmholtzProjector(ImplicitSolenoidalProjector):
    """P (flavor "neumann") or Q (flavor "dirichlet"): f + M_v^{-1} C chi,
    the part of f that is M_v-orthogonal to the lifted potential gradients.
    P removes the gradients of all P1 potentials, Q those of the
    zero-trace ones."""

    def __init__(self, system: AssembledSystem, flavor: str):
        if flavor not in ("neumann", "dirichlet"):
            raise ValueError(f"unknown Helmholtz flavor {flavor!r}")
        super().__init__(system, flavor)

    def apply(self, f):
        return self.project(f)

    def potential(self, f):
        """Scalar potential chi with apply(f) = f + M_v^{-1} C chi: on all
        vertices with M_q-mean zero for P, on the interior vertices for Q."""
        chi = -self._solve(f)[self._n_vel :] / self._s
        if self.flavor == "neumann":
            # the dropped row pinned chi[0] = 0; restore the mean-zero gauge
            chi = np.concatenate([np.zeros(1, dtype=chi.dtype), chi])
            m = self.system.M_q @ np.ones(len(chi))
            chi = chi - (m @ chi) / m.sum()
        return chi


def check_dense_basis(space) -> None:
    """Raise ValueError when the space is too large for solenoidal_basis;
    it reads only the space, so a caller can run it before assembly."""
    if space.n_vel > DENSE_BASIS_LIMIT:
        raise ValueError(
            f"n_vel = {space.n_vel} exceeds {DENSE_BASIS_LIMIT}, the limit of "
            "the dense solenoidal basis that the dual input norms need; "
            "use a coarser mesh"
        )


def solenoidal_basis(system: AssembledSystem, flavor: str, norm="L2") -> SolenoidalBasis:
    """Dense basis of the null space of constraint_matrix(system, flavor),
    orthonormal in the input norm `norm` (one of INPUT_NORMS), for the
    dual input norms and the dense oracle. The SVD's null-space columns
    are Euclidean-orthonormal: one Cholesky of their Gram in `norm` does."""
    if norm not in INPUT_NORMS:
        raise ValueError(f"unknown input norm {norm!r}")
    check_dense_basis(system.space)
    A = constraint_matrix(system, flavor).toarray()
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    tol = max(A.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    rank = int(np.sum(s > tol))
    Z = Vt[rank:].T
    if Z.shape[1] == 0:
        raise NumericalError("constraint matrix has full rank; no solenoidal fields")
    from .norms import _input_gram  # norms imports this module

    G = Z.T @ (system.M_v @ Z) if norm == "L2" else _input_gram(system, Z, norm)
    return SolenoidalBasis(Z=orthonormalize(Z, G), flavor=flavor, norm=norm)


def orthonormalize(Z, G):
    """Z L^{-T} for the Cholesky factor L of G, the Gram of the columns of
    Z in some inner product: the same span, orthonormal in that product."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        # roundoff in a Gram built from solves can make it indefinite
        jitter = 1e-12 * np.trace(G) / G.shape[0]
        L = np.linalg.cholesky(G + jitter * np.eye(G.shape[0]))
    return sla.solve_triangular(L, Z.T, lower=True).T
