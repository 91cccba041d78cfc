import numpy as np
import pytest
import scipy.sparse.linalg as spla

from srlab.fem import (
    BoundaryCondition,
    BoundaryG,
    VolumeF,
    build_space,
    build_system,
    load_vector,
)
from srlab.geometry import triangulate, unit_square
from srlab.manufactured import dirichlet_square_case, l2_errors, neumann_square_case
from srlab.solver import (
    ResolventOperator,
    SectorSample,
    solve_resolvent,
)


def run_convergence(bc_kind):
    case = dirichlet_square_case() if bc_kind == "dirichlet" else neumann_square_case()
    bc = BoundaryCondition(bc_kind)
    lam = SectorSample(case.lam)
    errors = []
    for lvl in (2, 3, 4):
        mesh = triangulate(unit_square(), np.sqrt(2.0) / 2**lvl)
        space = build_space(mesh)
        system = build_system(space, mu=case.mu)
        rhs = [VolumeF(case.f)]
        if bc_kind == "neumann":
            rhs.append(BoundaryG(case.g))
        sol = solve_resolvent(system, bc, lam, rhs)
        assert sol.residual_momentum < 1e-10
        assert sol.residual_divergence < 1e-10
        errors.append(l2_errors(space, sol, case, gauge_pressure=bc_kind == "dirichlet"))
    rates_u = [np.log2(errors[i][0] / errors[i + 1][0]) for i in range(2)]
    rates_p = [np.log2(errors[i][1] / errors[i + 1][1]) for i in range(2)]
    return rates_u, rates_p


def test_zero_rhs():
    space = build_space(triangulate(unit_square(), 0.4))
    system = build_system(space)
    sol = solve_resolvent(
        system,
        BoundaryCondition("dirichlet"),
        SectorSample(1.0),
        VolumeF(lambda p: np.zeros((len(p), 2))),
    )
    assert np.max(np.abs(sol.u)) == 0.0
    assert np.max(np.abs(sol.phi)) == 0.0


def test_dirichlet_convergence():
    rates_u, rates_p = run_convergence("dirichlet")
    assert min(rates_u) >= 2.5
    assert min(rates_p) >= 1.5


def test_neumann_convergence():
    rates_u, rates_p = run_convergence("neumann")
    assert min(rates_u) >= 2.5
    assert min(rates_p) >= 1.5


def test_dirichlet_pressure_mean_zero():
    case = dirichlet_square_case()
    space = build_space(triangulate(unit_square(), 0.2))
    system = build_system(space)
    sol = solve_resolvent(
        system, BoundaryCondition("dirichlet"), SectorSample(case.lam), VolumeF(case.f)
    )
    m = system.M_q @ np.ones(space.n_pres)
    assert abs(m @ sol.phi) <= 1e-12 * np.linalg.norm(sol.phi)


def test_conjugation_symmetry():
    case = dirichlet_square_case(lam=2 + 3j)
    space = build_space(triangulate(unit_square(), 0.3))
    system = build_system(space)
    bc = BoundaryCondition("dirichlet")
    sol = solve_resolvent(system, bc, SectorSample(2 + 3j), VolumeF(case.f))
    conj_f = lambda p: np.conj(case.f(p))
    sol_bar = solve_resolvent(system, bc, SectorSample(2 - 3j), VolumeF(conj_f))
    scale = np.linalg.norm(sol.u)
    assert np.max(np.abs(sol_bar.u - np.conj(sol.u))) < 1e-12 * scale
    assert np.max(np.abs(sol_bar.phi - np.conj(sol.phi))) < 1e-12 * max(
        np.linalg.norm(sol.phi), 1.0
    )


@pytest.mark.parametrize(
    "bc_kind, lam",
    [
        pytest.param("neumann", 1 + 2j, id="neumann"),
        pytest.param("dirichlet", 1 + 2j, id="dirichlet"),
        pytest.param("neumann", 2.0, id="neumann-real"),
        pytest.param("dirichlet", 2.0, id="dirichlet-real"),
    ],
)
def test_adjoint_solve(bc_kind, lam):
    bc = BoundaryCondition(bc_kind)
    space = build_space(triangulate(unit_square(), 0.3))
    system = build_system(space, mu=0.3 if bc_kind == "neumann" else 0.0)
    op = ResolventOperator(system, bc, SectorSample(lam))
    rng = np.random.default_rng(3)
    f = rng.standard_normal(space.n_vel) + 1j * rng.standard_normal(space.n_vel)
    g = rng.standard_normal(space.n_vel) + 1j * rng.standard_normal(space.n_vel)
    u_f, _ = op.solve(f)
    u_g, _ = op.solve_adjoint(g)
    # <K^{-1} P f, g> = <f, (K^{-1})^* P g> for loads supported on the velocity block
    lhs = np.vdot(g, u_f)
    rhs = np.vdot(u_g, f)
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def _real_operator(bc_kind, monkeypatch):
    """A real-lam operator and the saddle matrix it factored."""
    bc = BoundaryCondition(bc_kind)
    space = build_space(triangulate(unit_square(), 0.3))
    system = build_system(space, mu=0.3 if bc_kind == "neumann" else 0.0)
    factored = []
    splu = spla.splu
    monkeypatch.setattr(
        spla, "splu", lambda K, *args, **kwargs: factored.append(K) or splu(K, *args, **kwargs)
    )
    op = ResolventOperator(system, bc, SectorSample(2.0))
    monkeypatch.setattr(spla, "splu", splu)
    return op, factored[0]


@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
def test_real_lambda_solves_in_real_arithmetic(bc_kind, monkeypatch):
    op, K = _real_operator(bc_kind, monkeypatch)
    assert K.dtype == np.float64
    f = np.random.default_rng(5).standard_normal(op.n_vel)
    u, phi = op.solve(f)
    assert u.dtype == np.float64 and phi.dtype == np.float64
    x = spla.splu(K.astype(complex)).solve(op._pack(f).astype(complex))
    ref = x[: op.n_vel + op.n_pres]
    got = np.concatenate([u, phi])
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    # K is real symmetric: the adjoint solve is the forward solve
    u_a, phi_a = op.solve_adjoint(f)
    assert np.array_equal(u_a, u) and np.array_equal(phi_a, phi)


@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
def test_complex_load_on_real_factor_splits(bc_kind, monkeypatch):
    op, K = _real_operator(bc_kind, monkeypatch)
    assert K.dtype == np.float64
    rng = np.random.default_rng(6)
    fr, fi = rng.standard_normal((2, op.n_vel))
    pr, pi = rng.standard_normal((2, op.n_pres))
    for solve in (op.solve, op.solve_adjoint):
        u, phi = solve(fr + 1j * fi, pr + 1j * pi)
        (ur, phir), (ui, phii) = solve(fr, pr), solve(fi, pi)
        assert np.array_equal(u, ur + 1j * ui)
        assert np.array_equal(phi, phir + 1j * phii)


@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
def test_real_load_on_real_lambda_solves_once(bc_kind, monkeypatch):
    bc = BoundaryCondition(bc_kind)
    mu = 0.3 if bc_kind == "neumann" else 0.0
    system = build_system(build_space(triangulate(unit_square(), 0.3)), mu=mu)
    rhs = [VolumeF(lambda p: np.stack([np.sin(3 * p[:, 1]), p[:, 0] ** 2], axis=-1))]
    if bc_kind == "neumann":
        rhs.append(BoundaryG(lambda pts, fid: np.cos(pts + fid)))
    loads = []
    splu = spla.splu

    class CountedLU:
        def __init__(self, K, *args, **kwargs):
            self.lu = splu(K, *args, **kwargs)

        def solve(self, b):
            loads.append(b.dtype)
            return self.lu.solve(b)

    monkeypatch.setattr(spla, "splu", CountedLU)
    sol = solve_resolvent(system, bc, SectorSample(7.0), rhs)
    assert loads == [np.float64]
    assert sol.u.dtype == np.float64 and sol.phi.dtype == np.float64
    # the same load held in complex arithmetic, as it was before real loads
    Fv = sum(load_vector(system.space, part, bc) for part in rhs)
    u, phi = ResolventOperator(system, bc, SectorSample(7.0)).solve(Fv.astype(complex))
    ref = np.concatenate([u, phi])
    got = np.concatenate([sol.u, sol.phi])
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    assert sol.residual_momentum < 1e-10 and sol.residual_divergence < 1e-10


def test_sector_sample_validation():
    with pytest.raises(ValueError):
        SectorSample(0.0)
    with pytest.raises(ValueError):
        SectorSample(-1.0 + 0.1j, theta=np.pi / 2)
    with pytest.raises(ValueError):
        SectorSample(1j, theta=0.0)
    SectorSample(5.0, theta=0.0)
    SectorSample(1 + 1j, theta=np.pi / 2 + 0.1)


def test_resolved_lambda_guard():
    space = build_space(triangulate(unit_square(), 0.4))
    system = build_system(space)
    h = space.mesh.h
    big = 2.0 / h**2
    sol = solve_resolvent(
        system,
        BoundaryCondition("dirichlet"),
        SectorSample(big),
        VolumeF(lambda p: np.ones((len(p), 2))),
    )
    assert any("1/h^2" in w for w in sol.warnings)


def test_residuals_perturbation():
    case = dirichlet_square_case()
    space = build_space(triangulate(unit_square(), 0.3))
    system = build_system(space)
    bc = BoundaryCondition("dirichlet")
    op = ResolventOperator(system, bc, SectorSample(case.lam))
    Fv = load_vector(space, VolumeF(case.f), bc)
    u, phi = op.solve(Fv)
    mom0, div0 = op.residuals(u, phi, Fv)
    assert mom0 < 1e-10
    rng = np.random.default_rng(0)
    mom1, _ = op.residuals(u + 1e-3 * rng.standard_normal(space.n_vel), phi, Fv)
    assert mom1 > 100 * max(mom0, 1e-14)
