import threading

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from srlab import experiments, norms
from srlab.fem import BoundaryCondition, assemble_gram, build_space, build_system
from srlab.geometry import triangulate, unit_square
from srlab.helmholtz import (
    ImplicitSolenoidalProjector,
    SolenoidalBasis,
    orthonormalize,
    solenoidal_basis,
)
from srlab.norms import (
    _input_gram,
    broken_h2_seminorm,
    dense_operator_norm,
    dual_h_minus1_norm,
    fit_decay_exponent,
    lp_norm,
    operator_norm,
)
from srlab.solver import ResolventOperator, SectorSample


@pytest.fixture(scope="module")
def space2():
    return build_space(triangulate(unit_square(), np.sqrt(2.0) / 4))


@pytest.fixture(scope="module")
def sys2(space2):
    return build_system(space2, mu=0.0)


@pytest.fixture(scope="module")
def sys3():
    space = build_space(triangulate(unit_square(), np.sqrt(2.0) / 8))
    return build_system(space, mu=0.0)


def interp(space, fx, fy):
    x, y = space.p2_coords[:, 0], space.p2_coords[:, 1]
    c = np.zeros(space.n_vel)
    c[0::2] = fx(x, y)
    c[1::2] = fy(x, y)
    return c


def test_lp_constant(space2):
    c = interp(space2, lambda x, y: 1 + 0 * x, lambda x, y: 0 * x)
    for p in (1.0, 2.0, 3.0, 4.0, 7.5):
        assert lp_norm(space2, c, p) == pytest.approx(1.0, abs=1e-12)


def test_lp_linear(space2):
    c = interp(space2, lambda x, y: x, lambda x, y: 0 * x)
    assert lp_norm(space2, c, 2.0) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-12)


def test_lp_matches_mass_matrix(space2, sys2):
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = rng.standard_normal(space2.n_vel)
        direct = lp_norm(space2, c, 2.0)
        viaM = np.sqrt(c @ (sys2.M_v @ c))
        assert abs(direct - viaM) < 1e-10 * max(viaM, 1.0)


def test_lp_region_monotone(space2):
    rng = np.random.default_rng(1)
    c = rng.standard_normal(space2.n_vel)
    n = space2.mesh.n_triangles
    small = np.arange(n // 2)
    large = np.arange(n)
    assert lp_norm(space2, c, 3.0, region=small) <= lp_norm(space2, c, 3.0, region=large)


def test_lp_p_range(space2):
    c = np.zeros(space2.n_vel)
    with pytest.raises(ValueError):
        lp_norm(space2, c, 0.5)


def test_norm_axioms(space2):
    rng = np.random.default_rng(2)
    a = rng.standard_normal(space2.n_vel)
    b = rng.standard_normal(space2.n_vel)
    for p in (2.0, 4.0):
        na = lp_norm(space2, a, p)
        assert lp_norm(space2, 3.0 * a, p) == pytest.approx(3.0 * na, rel=1e-10)
        assert lp_norm(space2, a + b, p) <= na + lp_norm(space2, b, p) + 1e-10


def test_broken_h2(space2):
    affine = interp(space2, lambda x, y: 1 + 2 * x - y, lambda x, y: x + y)
    assert broken_h2_seminorm(space2, affine) < 1e-12
    quad = interp(space2, lambda x, y: x**2, lambda x, y: 0 * x)
    assert broken_h2_seminorm(space2, quad) == pytest.approx(2.0, abs=1e-12)
    assert broken_h2_seminorm(space2, 3 * quad) == pytest.approx(6.0, abs=1e-12)


def test_dual_norm(sys2, space2):
    assert dual_h_minus1_norm(sys2, np.zeros(space2.n_vel)) == 0.0
    rng = np.random.default_rng(3)
    x = rng.standard_normal(space2.n_vel)
    x[space2.boundary_vel_dofs] = 0.0
    load = assemble_gram(space2, "H1_zero") @ x
    expect = np.sqrt(x @ load)
    assert dual_h_minus1_norm(sys2, load, "H1_zero_dual") == pytest.approx(
        expect, rel=1e-10
    )
    y = rng.standard_normal(space2.n_vel)
    loadf = assemble_gram(space2, "H1_full") @ y
    assert dual_h_minus1_norm(sys2, loadf, "H1_full_dual") == pytest.approx(
        np.sqrt(y @ loadf), rel=1e-10
    )
    with pytest.raises(ValueError):
        dual_h_minus1_norm(sys2, load, "bogus")


def _load(space, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(space.n_vel)
    return x + 1j * rng.standard_normal(space.n_vel) if dtype == np.complex128 else x


@pytest.mark.parametrize("lam", [5.0, 40.0 * np.exp(1j)], ids=["real", "complex"])
@pytest.mark.parametrize("norm", ["H1_zero_dual", "H1_full_dual"])
def test_riesz_map_and_input_gram_match_the_masked_formula(sys3, norm, lam):
    space = sys3.space
    solve = norms._gram_solver(sys3, norm)
    zero_trace = norm == "H1_zero_dual"
    mask = space.interior_vel if zero_trace else np.ones(space.n_vel, dtype=bool)
    load = _load(space, SectorSample(lam).dtype)
    y = norms._dual_solver(sys3, norm)(load.copy())
    assert np.array_equal(y, solve(mask * load))
    if zero_trace:
        assert np.all(y[space.boundary_vel_dofs] == 0.0)
    # dual_h_minus1_norm works on a copy: its argument keeps its boundary rows
    kept = load.copy()
    dual_h_minus1_norm(sys3, kept, norm)
    assert np.array_equal(kept, load)
    Z = np.random.default_rng(1).standard_normal((space.n_vel, 6))
    MZ = np.asarray(sys3.M_v @ Z)
    MZ[~mask] = 0.0
    G = MZ.T @ solve(MZ)
    assert np.array_equal(_input_gram(sys3, Z, norm), 0.5 * (G + G.T))


@pytest.mark.parametrize("lam", [5.0, 40.0 * np.exp(1j)], ids=["real", "complex"])
def test_h_minus1_weight_matches_the_masked_formula(sys3, lam):
    op = ResolventOperator(sys3, BoundaryCondition("dirichlet"), SectorSample(lam))
    weight, _ = norms._output_weights("u_h_minus1", op)
    solve = norms._gram_solver(sys3, "H1_zero_dual")
    mask = sys3.space.interior_vel.astype(float)
    u = _load(sys3.space, op.lam.dtype, seed=2)
    expect = sys3.M_v @ (mask * solve(mask * (sys3.M_v @ u)))
    assert np.array_equal(weight(u), expect)


@pytest.mark.parametrize("output", ["lam_u", "sqrt_lam_grad_u", "phi"])
def test_power_vs_dense(sys2, output):
    basis = solenoidal_basis(sys2, "L2_sigma")
    op = ResolventOperator(sys2, BoundaryCondition("dirichlet"), SectorSample(3.0))
    dense = dense_operator_norm(output, basis, op)
    power = operator_norm(output, basis, op)
    assert power.converged
    assert power.value == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
def test_normal_operator_is_hermitian(sys2, bc_kind):
    # a real lam runs symmetric Lanczos, which needs H = T* W T Hermitian
    # for every output weight W
    bc = BoundaryCondition(bc_kind)
    basis = solenoidal_basis(sys2, "L2_sigma" if bc.is_dirichlet else "calL2_sigma")
    lam = SectorSample(5.0)
    op = ResolventOperator(sys2, bc, lam)
    for output in norms.OUTPUTS:
        apply_H = norms._normal_operator(output, basis, op)[0]
        H = np.column_stack([apply_H(e) for e in np.eye(basis.dim)])
        assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max(), output
        dense = dense_operator_norm(output, basis, op)
        power = operator_norm(output, basis, op)
        assert power.value == pytest.approx(dense, rel=1e-10), output


def test_operator_norm_basis_rotation_invariance(sys2):
    basis = solenoidal_basis(sys2, "L2_sigma")
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((basis.dim, basis.dim)))
    rotated = SolenoidalBasis(Z=basis.Z @ Q, flavor=basis.flavor)
    op = ResolventOperator(sys2, BoundaryCondition("dirichlet"), SectorSample(2.0))
    a = dense_operator_norm("phi", basis, op)
    b = dense_operator_norm("phi", rotated, op)
    assert a == pytest.approx(b, rel=1e-8)


# every (bc, flavor) pair; (neumann, L2_sigma) is the one whose adjoint
# solve leaves the projector's range, so its velocity outputs must project
BC_FLAVORS = [
    ("neumann", "calL2_sigma"),
    ("neumann", "L2_sigma"),
    ("dirichlet", "L2_sigma"),
    ("dirichlet", "calL2_sigma"),
]


@pytest.mark.parametrize("lam", [5.0, 40.0 * np.exp(1j)], ids=["real", "complex"])
@pytest.mark.parametrize("bc_kind,flavor", BC_FLAVORS)
@pytest.mark.parametrize("output", ["lam_u", "sqrt_lam_grad_u", "phi"])
def test_operator_norm_implicit_matches_explicit(sys2, output, bc_kind, flavor, lam):
    basis = solenoidal_basis(sys2, flavor)
    proj = ImplicitSolenoidalProjector(sys2, flavor)
    op = ResolventOperator(sys2, BoundaryCondition(bc_kind), SectorSample(lam))
    explicit = dense_operator_norm(output, basis, op)
    implicit = operator_norm(output, proj, op)
    assert implicit.converged
    assert implicit.value == pytest.approx(explicit, rel=1e-8)
    # the oracle assembles the projector's pencil (M_v P, M_v) as well
    assert dense_operator_norm(output, proj, op) == pytest.approx(explicit, rel=1e-10)


@pytest.mark.parametrize("lam", [5.0, 40.0 * np.exp(1j)], ids=["real", "complex"])
@pytest.mark.parametrize("bc_kind,flavor", BC_FLAVORS)
def test_velocity_only_adjoint_solve_lands_in_projector_range(
    sys2, bc_kind, flavor, lam
):
    # the invariant behind skipping the projection for velocity outputs
    op = ResolventOperator(sys2, BoundaryCondition(bc_kind), SectorSample(lam))
    proj = ImplicitSolenoidalProjector(sys2, flavor)
    gu = np.random.default_rng(5).standard_normal(sys2.space.n_vel)
    y, _ = op.solve_adjoint(gu)
    gap = np.linalg.norm(proj.project(y) - y) / np.linalg.norm(y)
    if (bc_kind, flavor) in norms._ADJOINT_IN_RANGE:
        assert gap <= 1e-12
    else:
        assert gap > 1e-3


def test_dual_input_operator_norm_singleton(sys2):
    # one-column basis: value must match a direct computation
    full = solenoidal_basis(sys2, "L2_sigma")
    z = full.Z[:, :1]
    G = _input_gram(sys2, z, "H1_zero_dual")
    single = SolenoidalBasis(
        Z=orthonormalize(z, G), flavor="L2_sigma", norm="H1_zero_dual"
    )
    op = ResolventOperator(sys2, BoundaryCondition("dirichlet"), SectorSample(4.0))
    res = dense_operator_norm("phi", single, op)
    _, phi = op.solve(sys2.M_v @ z[:, 0])
    num = np.sqrt(np.real(np.vdot(phi, sys2.M_q @ phi)))
    den = dual_h_minus1_norm(sys2, np.asarray(sys2.M_v @ z[:, 0]), "H1_zero_dual")
    assert res == pytest.approx(num / den, rel=1e-8)
    # a one-column basis takes the eigensolver's dense branch
    assert operator_norm("phi", single, op).value == pytest.approx(res, rel=1e-12)


@pytest.mark.parametrize("lam", [5.0, 40.0 * np.exp(1j)], ids=["real", "complex"])
@pytest.mark.parametrize(
    "bc_kind,flavor,norm",
    [("dirichlet", "L2_sigma", "H1_zero_dual"), ("neumann", "calL2_sigma", "H1_full_dual")],
)
def test_one_pass_dual_basis_matches_two_pass(sys3, bc_kind, flavor, norm, lam):
    # orthonormalizing the SVD columns once in the dual norm spans the same
    # fields as orthonormalizing the M_v-orthonormal basis again in it
    one = solenoidal_basis(sys3, flavor, norm)
    z = solenoidal_basis(sys3, flavor).Z
    two = SolenoidalBasis(
        Z=orthonormalize(z, _input_gram(sys3, z, norm)), flavor=flavor, norm=norm
    )
    assert (one.norm, one.flavor, one.dim) == (norm, flavor, two.dim)
    if norm == "H1_full_dual":
        # the no-slip dual Gram (condition ~1e12) is too ill-conditioned
        # for Z^T G Z = I to hold to a useful tolerance
        G = _input_gram(sys3, one.Z, norm)
        assert np.abs(G - np.eye(one.dim)).max() < 1e-9
    op = ResolventOperator(sys3, BoundaryCondition(bc_kind), SectorSample(lam))
    expect = operator_norm("phi", two, op)
    got = operator_norm("phi", one, op)
    assert got.converged and expect.converged
    assert got.value == pytest.approx(expect.value, rel=1e-10)


def test_operator_norm_rejects_basis_in_other_norm(sys2):
    basis = solenoidal_basis(sys2, "L2_sigma")
    dual = solenoidal_basis(sys2, "L2_sigma", "H1_zero_dual")
    assert dual.norm == "H1_zero_dual" and dual.dim == basis.dim
    proj = ImplicitSolenoidalProjector(sys2, "L2_sigma")
    assert proj.norm == "L2"
    # the inputs carry their norm, so only an unknown output or an unknown
    # norm is left to reject, each before any eigensolve or SVD
    op = ResolventOperator(sys2, BoundaryCondition("dirichlet"), SectorSample(2.0))
    with pytest.raises(ValueError, match="unknown output functional"):
        operator_norm("u", basis, op)
    with pytest.raises(ValueError, match="unknown input norm"):
        solenoidal_basis(sys2, "L2_sigma", "H2")


def test_dual_solver_factors_once_across_threads(monkeypatch):
    # a fresh system: its space holds no dual factorization yet; more
    # threads than cores, released together
    system = build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 4)))
    calls = []
    symmetric_lu = norms.symmetric_lu
    n_threads = 4
    all_waiting = threading.Barrier(n_threads, timeout=10)

    def slow_lu(K):
        calls.append(1)
        # hold the window in which the other thread could start a second factor
        threading.Event().wait(0.2)
        return symmetric_lu(K)

    monkeypatch.setattr(norms, "symmetric_lu", slow_lu)
    solvers = []

    def work():
        all_waiting.wait()
        solvers.append(norms._gram_solver(system, "H1_zero_dual"))

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(solvers) == n_threads and all(s is solvers[0] for s in solvers)


def test_h1_grams_are_assembled_only_for_a_dual_norm(monkeypatch):
    from srlab import fem

    kinds = []
    gram = fem.assemble_gram

    def counted(space, kind):
        kinds.append(kind)
        return gram(space, kind)

    monkeypatch.setattr(fem, "assemble_gram", counted)
    monkeypatch.setattr(norms, "assemble_gram", counted)
    # a fresh space: it holds no Gram factorization yet
    system = build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 4)))
    norms._gram_solver(system, "L2")
    assert kinds == ["velocity_mass", "pressure_mass"]
    for _ in range(2):
        norms._gram_solver(system, "H1_full_dual")
        norms._gram_solver(system, "H1_zero_dual")
    assert kinds[2:] == ["H1_full", "H1_zero"]


def test_implicit_sweep_factors_no_mass_matrix(monkeypatch):
    from scipy.sparse.linalg._eigen.arpack import arpack

    from srlab.experiments import default_lambda_grid, sweep_pressure_decay

    # a fresh system: its space holds no M_v factorization yet
    system = build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 8)))
    proj = ImplicitSolenoidalProjector(system, "calL2_sigma")
    eigsh_lus, factored = [], []
    init = arpack.SpLuInv.__init__
    splu = spla.splu

    def counted_init(self, M):
        eigsh_lus.append(1)
        init(self, M)

    def counted_splu(K, *args, **kwargs):
        factored.append(K.shape)
        return splu(K, *args, **kwargs)

    monkeypatch.setattr(arpack.SpLuInv, "__init__", counted_init)
    monkeypatch.setattr(spla, "splu", counted_splu)
    record, _ = sweep_pressure_decay(
        system,
        BoundaryCondition("neumann"),
        lam_grid=default_lambda_grid(-1.0, 1.0, 5),
        basis=proj,
    )
    assert len(record.samples) == 5 and all(s["C_pressure"] > 0 for s in record.samples)
    # ARPACK mode 2 only applies Minv to matvec outputs, whose y is at hand
    assert eigsh_lus == []
    # one resolvent saddle per lambda and no mass matrix
    assert len(factored) == 5 and system.M_v.shape not in factored
    assert "L2" not in system.space._gram_cache


@pytest.mark.parametrize("lam", [5.0, 3.0 + 4.0j], ids=["real", "complex"])
def test_mass_inverse_solves_any_other_load(sys3, lam):
    proj = ImplicitSolenoidalProjector(sys3, "L2_sigma")
    op = ResolventOperator(sys3, BoundaryCondition("neumann"), SectorSample(lam))
    matvec, n, M, Minv = norms._normal_operator("phi", proj, op)
    rng = np.random.default_rng(4)

    def field():
        v = rng.standard_normal(n)
        return v + 1j * rng.standard_normal(n) if np.iscomplexobj(lam) else v

    stale = matvec(field()).copy()
    out = matvec(field())
    y = Minv.matvec(out.copy())
    # an earlier matvec's output, a vector no matvec returned and one 1e-9
    # off the last output: all three are solved
    for b in (stale, field(), out * (1 + 1e-9)):
        ref = spla.spsolve(M.tocsc(), b)
        assert np.linalg.norm(Minv.matvec(b) - ref) <= 1e-12 * np.linalg.norm(ref)
    ref = spla.spsolve(M.tocsc(), out)
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


def test_implicit_sweep_projects_only_for_pressure_outputs(monkeypatch):
    system = build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 8)))
    proj = ImplicitSolenoidalProjector(system, "calL2_sigma")
    projections, matvecs = [], {}
    project = ImplicitSolenoidalProjector.project
    measure = norms.operator_norm

    def counted_project(self, f):
        projections.append(1)
        return project(self, f)

    def counted_operator_norm(output, *args, **kwargs):
        res = measure(output, *args, **kwargs)
        matvecs[output] = matvecs.get(output, 0) + res.iterations
        return res

    monkeypatch.setattr(ImplicitSolenoidalProjector, "project", counted_project)
    monkeypatch.setattr(experiments, "operator_norm", counted_operator_norm)
    experiments.sweep_pressure_decay(
        system,
        BoundaryCondition("neumann"),
        lam_grid=experiments.default_lambda_grid(-1.0, 1.0, 5),
        basis=proj,
    )
    assert set(matvecs) == {"phi", "lam_u", "sqrt_lam_grad_u"}
    assert min(matvecs.values()) > 0
    assert len(projections) == matvecs["phi"]


def test_fit_exact_half():
    lams = np.logspace(0, 3, 13)
    fit = fit_decay_exponent([(a, a**-0.5) for a in lams])
    assert fit.alpha_hat == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n_samples == 13


def test_fit_noisy_quarter():
    lams = np.logspace(0, 4, 17)
    vals = [3 * a**-0.25 * (1 + 0.01 * np.sin(np.log(a))) for a in lams]
    fit = fit_decay_exponent(list(zip(lams, vals)))
    assert abs(fit.alpha_hat - 0.25) <= 0.01


def test_fit_constant():
    lams = np.logspace(0, 2.5, 9)
    fit = fit_decay_exponent([(a, 7.0) for a in lams])
    assert fit.alpha_hat == pytest.approx(0.0, abs=1e-12)


def test_fit_preconditions():
    with pytest.raises(ValueError):
        fit_decay_exponent([(1.0, 1.0), (10.0, 0.5), (100.0, 0.2)])
    lams = np.logspace(0, 1.5, 8)
    with pytest.raises(ValueError):
        fit_decay_exponent([(a, a**-0.5) for a in lams])
