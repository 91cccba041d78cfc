import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from srlab.fem import BoundaryCondition, assemble_gram, build_space, build_system
from srlab.geometry import triangulate, unit_square
from srlab.helmholtz import (
    HelmholtzProjector,
    ImplicitSolenoidalProjector,
    constraint_matrix,
    solenoidal_basis,
)
from srlab.solver import SectorSample, solve_resolvent, symmetric_lu


@pytest.fixture(scope="module")
def sys3():
    space = build_space(triangulate(unit_square(), np.sqrt(2.0) / 8))
    return build_system(space, mu=0.3)


def m_norm(system, v):
    return float(np.sqrt(np.real(np.vdot(v, system.M_v @ v))))


def random_field(system, seed=0):
    rng = np.random.default_rng(seed)
    n = system.space.n_vel
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def bubble_field(space):
    x, y = space.p2_coords[:, 0], space.p2_coords[:, 1]
    px = 2 * x * (1 - x) ** 2 - 2 * x**2 * (1 - x)
    py = 2 * y * (1 - y) ** 2 - 2 * y**2 * (1 - y)
    c = np.zeros(space.n_vel)
    c[0::2] = x**2 * (1 - x) ** 2 * py
    c[1::2] = -px * y**2 * (1 - y) ** 2
    return c


FLAVORS = ("neumann", "dirichlet", "L2_sigma", "calL2_sigma")


def assert_idempotent(system, flavor):
    f = random_field(system)
    proj = ImplicitSolenoidalProjector(system, flavor)
    pf = proj.project(f)
    assert m_norm(system, proj.project(pf) - pf) <= 1e-10 * m_norm(system, f)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_idempotence(sys3, flavor):
    assert_idempotent(sys3, flavor)


@pytest.fixture(scope="module")
def sys4():
    return build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 16)))


@pytest.fixture(scope="module")
def sys5():
    return build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 32)))


@pytest.mark.parametrize("level", [4, 5])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_idempotence_on_finer_meshes(request, level, flavor):
    assert_idempotent(request.getfixturevalue(f"sys{level}"), flavor)


def lu_fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("flavor", ["neumann", "dirichlet", "L2_sigma", "calL2_sigma"])
def test_balanced_factor_fills_less(sys4, flavor, monkeypatch):
    # the unscaled augmented system, with the same dependent row dropped
    A = constraint_matrix(sys4, flavor)
    if flavor in ("L2_sigma", "neumann"):
        A = A[1:]
    unscaled = lu_fill(spla.splu(sp.bmat([[sys4.M_v, A.T], [A, None]], format="csc")))
    fills = []
    splu = spla.splu

    def captured(K, *args, **kwargs):
        lu = splu(K, *args, **kwargs)
        fills.append(lu_fill(lu))
        return lu

    monkeypatch.setattr(spla, "splu", captured)
    ImplicitSolenoidalProjector(sys4, flavor)
    assert len(fills) == 1
    assert fills[0] <= 0.7 * unscaled


@pytest.mark.parametrize("level, bound", [(4, 0.75), (5, 0.6)])
@pytest.mark.parametrize("kind", FLAVORS + ("M_v", "H1_zero", "H1_full"))
def test_symmetric_factor_fills_less_than_colamd(request, level, bound, kind, monkeypatch):
    system = request.getfixturevalue(f"sys{level}")
    if kind in FLAVORS:
        # the projector's own augmented matrix and factor
        factored = []
        splu = spla.splu

        def captured(K, *args, **kwargs):
            factored.append((K, splu(K, *args, **kwargs)))
            return factored[-1][1]

        monkeypatch.setattr(spla, "splu", captured)
        ImplicitSolenoidalProjector(system, kind)
        monkeypatch.setattr(spla, "splu", splu)
        [(K, lu)] = factored
    else:
        K = (system.M_v if kind == "M_v" else assemble_gram(system.space, kind)).tocsc()
        lu = symmetric_lu(K)
    assert lu_fill(lu) <= bound * lu_fill(spla.splu(K))


def test_project_q_constant(sys3):
    c = np.zeros(sys3.space.n_vel)
    c[0::2] = 1.0
    qc = HelmholtzProjector(sys3, "dirichlet").apply(c)
    assert m_norm(sys3, qc - c) <= 1e-10 * m_norm(sys3, c)


def test_gradients_annihilated(sys3):
    # Q annihilates lifted gradients of zero-trace potentials,
    # P annihilates lifted gradients of arbitrary potentials
    rng = np.random.default_rng(1)
    for flavor in ("dirichlet", "neumann"):
        h = rng.standard_normal(sys3.space.n_pres)
        if flavor == "dirichlet":
            h[sys3.space.boundary_vertex_ids] = 0.0
        gradh = spla.spsolve(sys3.M_v.tocsc(), sys3.C @ h)
        proj = HelmholtzProjector(sys3, flavor)
        assert m_norm(sys3, proj.apply(gradh)) <= 1e-10 * m_norm(sys3, gradh)


def test_matches_dense_schur_formula(sys3):
    # reference: f + W chi with W = M^{-1} C and chi solving the dense
    # Schur-form Laplacian C^T W chi = -C^T f (mean-zero chi for P)
    f = random_field(sys3, seed=4)
    scale = m_norm(sys3, f)
    space = sys3.space
    for flavor in ("neumann", "dirichlet"):
        C = sys3.C.toarray()
        if flavor == "dirichlet":
            C = C[:, np.setdiff1d(np.arange(space.n_pres), space.boundary_vertex_ids)]
        W = np.linalg.solve(sys3.M_v.toarray(), C)
        L = C.T @ W
        b = -(C.T @ f)
        if flavor == "neumann":
            m = sys3.M_q @ np.ones(space.n_pres)
            K = np.block([[L, m[:, None]], [m[None, :], np.zeros((1, 1))]])
            chi = np.linalg.solve(K, np.append(b, 0.0))[:-1]
        else:
            chi = np.linalg.solve(L, b)
        proj = HelmholtzProjector(sys3, flavor)
        assert m_norm(sys3, proj.apply(f) - (f + W @ chi)) <= 1e-10 * scale
        pot = proj.potential(f)
        assert np.linalg.norm(pot - chi) <= 1e-10 * np.linalg.norm(chi)


def test_p_preserves_solenoidal_fields_under_refinement():
    prev = None
    for lvl in (2, 3, 4):
        space = build_space(triangulate(unit_square(), np.sqrt(2.0) / 2**lvl))
        system = build_system(space)
        f = bubble_field(space)
        pf = HelmholtzProjector(system, "neumann").apply(f)
        defect = m_norm(system, pf - f) / m_norm(system, f)
        if prev is not None:
            assert np.log2(prev / defect) >= 1.0
        prev = defect


def test_basis_invariants(sys3):
    dims = {}
    for flavor in ("L2_sigma", "calL2_sigma"):
        basis = solenoidal_basis(sys3, flavor)
        assert np.abs(sys3.B @ basis.Z).max() < 1e-10
        assert basis.norm == "L2"
        G = basis.Z.T @ (sys3.M_v @ basis.Z)
        assert np.abs(G - np.eye(basis.dim)).max() < 1e-10
        dims[flavor] = basis.dim
        if flavor == "L2_sigma":
            space = sys3.space
            for node in space.boundary_nodes:
                n = space.node_normal(int(node))
                tr = n[0] * basis.Z[2 * node] + n[1] * basis.Z[2 * node + 1]
                assert np.abs(tr).max() < 1e-10
    assert dims["calL2_sigma"] >= 2
    assert dims["calL2_sigma"] - dims["L2_sigma"] >= 1


def test_constants_in_calL2_only(sys3):
    c = np.zeros(sys3.space.n_vel)
    c[0::2] = 1.0
    cal = solenoidal_basis(sys3, "calL2_sigma")
    coeff = cal.Z.T @ (sys3.M_v @ c)
    assert m_norm(sys3, cal.Z @ coeff - c) < 1e-10 * m_norm(sys3, c)
    sig = solenoidal_basis(sys3, "L2_sigma")
    coeff = sig.Z.T @ (sys3.M_v @ c)
    assert m_norm(sys3, sig.Z @ coeff - c) > 0.1 * m_norm(sys3, c)


def test_orthogonality_of_complement(sys3):
    f = random_field(sys3, seed=2)
    pf = HelmholtzProjector(sys3, "neumann").apply(f)
    Z = solenoidal_basis(sys3, "L2_sigma").Z
    assert np.abs(Z.T @ (sys3.M_v @ (f - pf))).max() <= 1e-9 * m_norm(sys3, f)


def test_basis_flavor_validation(sys3):
    with pytest.raises(ValueError):
        solenoidal_basis(sys3, "bogus")
    with pytest.raises(ValueError):
        HelmholtzProjector(sys3, "bogus")


@pytest.mark.parametrize(
    "bc", [BoundaryCondition("dirichlet"), BoundaryCondition("neumann")]
)
def test_pressure_absorption(sys3, bc):
    f = random_field(sys3, seed=3)
    proj = HelmholtzProjector(sys3, "dirichlet")
    qf = proj.apply(f)
    lam = SectorSample(2 + 1j)
    sol_f = solve_resolvent(sys3, bc, lam, np.asarray(sys3.M_v @ f))
    sol_qf = solve_resolvent(sys3, bc, lam, np.asarray(sys3.M_v @ qf))
    assert m_norm(sys3, sol_f.u - sol_qf.u) <= 1e-8 * m_norm(sys3, sol_f.u)
    # pressures differ by the scalar potential of (Id - Q) f
    chi = np.zeros(sys3.space.n_pres, dtype=complex)
    interior = np.setdiff1d(
        np.arange(sys3.space.n_pres), sys3.space.boundary_vertex_ids
    )
    chi[interior] = proj.potential(f)
    diff = sol_qf.phi - sol_f.phi - chi
    if bc.is_dirichlet:
        # the mean-zero gauge shifts the potential by a constant
        m = sys3.M_q @ np.ones(sys3.space.n_pres)
        diff = diff - (m @ diff) / m.sum()
    scale = max(np.linalg.norm(sol_f.phi), 1.0)
    assert np.linalg.norm(diff) <= 1e-8 * scale
