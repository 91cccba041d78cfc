"""End-to-end acceptance suite.

Each test exercises one headline claim at desk scale: solver convergence,
the Neumann/Dirichlet pressure-decay contrast, dual-norm variants,
uniform resolvent bounds, the boundary divergence identity, second-order
energy ratios, localized inequalities, projection properties, and the
operator-norm oracle. Large-mesh sweeps fit on the asymptotic subwindow
of the resolved range; the small-lambda plateau is excluded by design.
"""
import numpy as np
import pytest
import scipy.sparse.linalg as spla
import sympy as sp

from srlab.experiments import (
    bump_load,
    check_grisvard,
    check_h2_estimate,
    check_lemma_equivalence,
    check_localized,
    check_uniform_resolvent,
    default_lambda_grid,
    sweep_pressure_decay,
    sweep_pressure_dual,
)
from srlab.fem import (
    BoundaryCondition,
    BoundaryG,
    VolumeF,
    build_space,
    build_system,
)
from srlab.geometry import CubePatch, regular_ngon, triangulate, unit_square
from srlab.helmholtz import (
    HelmholtzProjector,
    ImplicitSolenoidalProjector,
    solenoidal_basis,
)
from srlab.manufactured import dirichlet_square_case, l2_errors, neumann_square_case
from srlab.norms import dense_operator_norm, operator_norm
from srlab.solver import ResolventOperator, SectorSample, solve_resolvent


def square_space(level):
    return build_space(triangulate(unit_square(), np.sqrt(2.0) / 2**level))


@pytest.fixture(scope="module")
def space4():
    return square_space(4)


@pytest.fixture(scope="module")
def space6():
    return square_space(6)


def m_norm(system, v):
    return float(np.sqrt(np.real(np.vdot(v, system.M_v @ v))))


# criterion 1: manufactured-solution convergence


@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann"])
def test_criterion_1_manufactured_convergence(bc_kind):
    if bc_kind == "dirichlet":
        case = dirichlet_square_case()
    else:
        case = neumann_square_case(mu=0.3)
    bc = BoundaryCondition(bc_kind)
    errors = []
    for lvl in (2, 3, 4):
        space = square_space(lvl)
        system = build_system(space, mu=case.mu)
        rhs = [VolumeF(case.f)]
        if bc_kind == "neumann":
            rhs.append(BoundaryG(case.g))
        sol = solve_resolvent(system, bc, SectorSample(case.lam), rhs)
        errors.append(l2_errors(space, sol, case, bc_kind == "dirichlet"))
    rates_u = [np.log2(errors[i][0] / errors[i + 1][0]) for i in range(2)]
    rates_p = [np.log2(errors[i][1] / errors[i + 1][1]) for i in range(2)]
    assert min(rates_u) >= 2.5
    assert min(rates_p) >= 1.5


# criterion 2: Neumann pressure decay, exponent 1/2


def test_criterion_2_neumann_pressure_decay(space6):
    # the measured C_pressure(lambda) is flat for lambda below ~10 and
    # only enters its power-law regime above; fit on [10, 1e3], well
    # inside the resolved window 1/h^2 = 2048 of this mesh
    grid = np.logspace(1.0, 3.0, 5)
    proj = None
    for mu in (-0.5, 0.0, 0.3):
        system = build_system(space6, mu=mu)
        if proj is None:
            # constraints involve only the mass and divergence blocks,
            # which are independent of mu, so one projector serves all
            proj = ImplicitSolenoidalProjector(system, "calL2_sigma")
        _, fit = sweep_pressure_decay(
            system,
            BoundaryCondition("neumann"),
            lam_grid=grid,
            basis=proj,
            outputs=("phi",),
        )
        assert 0.40 <= fit.alpha_hat <= 0.60, (mu, fit.alpha_hat)
        assert fit.r2 >= 0.95, (mu, fit.r2)


# criterion 3: Dirichlet pressure decay on the 64-gon, exponent near 1/4


def test_criterion_3_dirichlet_pressure_decay_64gon():
    space = build_space(triangulate(regular_ngon(64), 0.063))
    system = build_system(space, mu=0.0)
    proj = ImplicitSolenoidalProjector(system, "L2_sigma")
    grid = np.logspace(np.log10(2.56), np.log10(256.0), 5)
    _, fit = sweep_pressure_decay(
        system,
        BoundaryCondition("dirichlet"),
        lam_grid=grid,
        basis=proj,
        outputs=("phi",),
    )
    # must stay far below the Neumann 1/2 rate
    assert 0.15 <= fit.alpha_hat <= 0.35, fit.alpha_hat


# criterion 4: dual-norm variants


def test_criterion_4_neumann_dual_uniform(space4):
    system = build_system(space4, mu=0.0)
    _, fit = sweep_pressure_dual(
        system,
        BoundaryCondition("neumann"),
        lam_grid=default_lambda_grid(0.0, 2.0, 9),
    )
    growth = -fit.alpha_hat
    assert -0.1 <= growth <= 0.1, growth


def test_criterion_4_dirichlet_dual_growth(space4):
    # KNOWN RED at this scale: the measured supremum is dominated by a
    # lambda-independent inf-sup branch of the discrete operator, so no
    # growth appears inside the resolved window of any desk-size mesh
    system = build_system(space4, mu=0.0)
    _, fit = sweep_pressure_dual(
        system,
        BoundaryCondition("dirichlet"),
        lam_grid=default_lambda_grid(0.0, 2.0, 9),
    )
    growth = -fit.alpha_hat
    assert 0.15 <= growth <= 0.35, growth


def test_criterion_4_equivalence_gap(space4):
    # KNOWN RED at this scale, same cause as the growth test above: the
    # pressure branch is flat while the velocity dual norm only starts
    # decaying near lambda ~ 300, beyond this mesh's asymptotic range
    system = build_system(space4, mu=0.0)
    report = check_lemma_equivalence(
        system, lam_grid=default_lambda_grid(0.0, 2.0, 5)
    )
    assert report.gap <= 0.15, report.gap


# criterion 5: uniform resolvent and gradient bounds


def test_criterion_5_uniform_resolvent_bounds(space4):
    system = build_system(space4, mu=0.3)
    record = check_uniform_resolvent(
        system,
        BoundaryCondition("neumann"),
        lam_grid=default_lambda_grid(0.0, 2.0, 9),
    )
    samples = record.resolved_samples()
    assert len(samples) == 9
    for p in (2, 3, 4):
        for kind in ("vel", "grad", "div"):
            vals = np.array([s[f"{kind}_p{p}"] for s in samples])
            assert np.max(vals) <= 10.0 * np.median(vals), (kind, p)


# criterion 6: boundary divergence identity


def test_criterion_6_divergence_identity_exact_fields():
    x, y = sp.symbols("x y")
    rep = check_grisvard(unit_square(), (2 * x, 2 * y), target_h=0.1)
    assert rep.lhs == pytest.approx(8.0, abs=1e-10)
    assert rep.residual_abs <= 1e-10
    rep = check_grisvard(unit_square(), (y, sp.Integer(0)), target_h=0.1)
    assert rep.residual_abs <= 1e-10
    bx, by = (x * (1 - x)) ** 2, (y * (1 - y)) ** 2
    rep = check_grisvard(
        unit_square(), (bx * sp.diff(by, y), -sp.diff(bx, x) * by), target_h=0.1
    )
    assert rep.residual_abs <= 1e-10


def test_criterion_6_divergence_identity_random_polynomials():
    x, y = sp.symbols("x y")
    monos = [x**i * y**j for i in range(4) for j in range(4) if i + j <= 3]
    rng = np.random.default_rng(0)
    for _ in range(20):
        c1 = rng.standard_normal(len(monos))
        c2 = rng.standard_normal(len(monos))
        v = (
            sum(a * m for a, m in zip(c1, monos)),
            sum(a * m for a, m in zip(c2, monos)),
        )
        rep = check_grisvard(unit_square(), v, target_h=0.1)
        assert rep.residual_rel <= 1e-9


# criterion 7: second-order energy ratios


def test_criterion_7_h2_ratios_bounded_and_stable():
    for mu in (-0.5, 0.0, 0.4):
        medians = []
        for lvl in (3, 4):
            system = build_system(square_space(lvl), mu=mu)
            rows = check_h2_estimate(system)
            ratios = np.array([r["ratio"] for r in rows])
            assert np.max(ratios) <= 10.0 * np.median(ratios), (mu, lvl)
            medians.append(np.median(ratios))
        drift = abs(medians[1] / medians[0] - 1.0)
        assert drift <= 0.5, (mu, drift)


def test_criterion_7_mu_boundary():
    space = square_space(3)
    ok = build_system(space, mu=0.41)
    assert check_h2_estimate(ok, lam_grid=[1.0])
    bad = build_system(space, mu=0.42)
    with pytest.raises(ValueError):
        check_h2_estimate(bad, lam_grid=[1.0])


# criterion 8: localized inequalities


def test_criterion_8_localized_lambda_stability(space6):
    system = build_system(space6, mu=0.0)
    patch = CubePatch(np.array([0.15, 0.15]), 0.1)
    bump = bump_load([0.9, 0.9], 0.08)
    ratios = {"caccioppoli": [], "local_h2": [], "reverse_holder": []}
    for a in (10.0, 100.0, 1000.0):
        for rep in check_localized(system, SectorSample(a), patch, bump):
            assert np.isfinite(rep.ratio), (a, rep.id)
            ratios[rep.id].append(rep.ratio)
    for iid, vals in ratios.items():
        vals = np.array(vals)
        assert np.max(vals) <= 10.0 * np.median(vals), (iid, vals)


# criterion 9: projection properties


def test_criterion_9_projection_properties():
    system = build_system(square_space(3), mu=0.3)
    rng = np.random.default_rng(0)
    n = system.space.n_vel
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    scale = m_norm(system, f)
    for flavor in ("neumann", "dirichlet"):
        proj = HelmholtzProjector(system, flavor)
        pf = proj.apply(f)
        assert m_norm(system, proj.apply(pf) - pf) <= 1e-9 * scale
    # Id - Q annihilates nothing; Q annihilates lifted zero-trace gradients
    projq = HelmholtzProjector(system, "dirichlet")
    h = rng.standard_normal(system.space.n_pres)
    h[system.space.boundary_vertex_ids] = 0.0
    grad = spla.spsolve(system.M_v.tocsc(), system.C @ h)
    assert m_norm(system, projq.apply(grad)) <= 1e-9 * m_norm(system, grad)
    # replacing f by Q f leaves the velocity unchanged
    qf = projq.apply(f)
    lam = SectorSample(2 + 1j)
    bc = BoundaryCondition("neumann")
    sol_f = solve_resolvent(system, bc, lam, np.asarray(system.M_v @ f))
    sol_qf = solve_resolvent(system, bc, lam, np.asarray(system.M_v @ qf))
    assert m_norm(system, sol_f.u - sol_qf.u) <= 1e-8 * m_norm(system, sol_f.u)


# criterion 10: operator-norm oracle


def test_criterion_10_power_iteration_vs_dense():
    space = square_space(2)
    for tag, mu, flavor in (
        ("dirichlet", 0.0, "L2_sigma"),
        ("neumann", 0.3, "calL2_sigma"),
    ):
        system = build_system(space, mu=mu)
        bc = BoundaryCondition(tag)
        basis = solenoidal_basis(system, flavor)
        for a in (1.0, 100.0):
            op = ResolventOperator(system, bc, SectorSample(a))
            for out in ("phi", "lam_u", "sqrt_lam_grad_u"):
                rp = operator_norm(out, basis, op, seed=0)
                rd = dense_operator_norm(out, basis, op)
                rel = abs(rp.value - rd) / rd
                assert rel <= 1e-8, (tag, a, out, rel)
