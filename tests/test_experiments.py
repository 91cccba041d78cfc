import json

import numpy as np
import pytest

from srlab import experiments, helmholtz, norms
from srlab.experiments import (
    CSV_COLUMNS,
    EquivalenceReport,
    IdentityReport,
    LocalizedReport,
    SweepRecord,
    check_grisvard,
    check_h2_estimate,
    check_lemma_equivalence,
    check_localized,
    check_uniform_resolvent,
    default_lambda_grid,
    sweep_pressure_decay,
    sweep_pressure_dual,
    write_fit_json,
    write_report_csv,
    write_sweep_csv,
)
from srlab.fem import BoundaryCondition, VolumeF, build_space, build_system
from srlab.geometry import CubePatch, triangulate, unit_square
from srlab.helmholtz import solenoidal_basis
from srlab.norms import dense_operator_norm, fit_decay_exponent
from srlab.solver import NumericalError, ResolventOperator, SectorSample


@pytest.fixture(scope="module")
def space3():
    return build_space(triangulate(unit_square(), np.sqrt(2.0) / 8))


@pytest.fixture(scope="module")
def sys3(space3):
    return build_system(space3, mu=0.0)


def test_sweep_record_sorted_and_filtered():
    rec = SweepRecord(
        arg_lambda=0.0,
        h=0.1,
        samples=[
            {"abs_lambda": 10.0, "resolved": True, "C_pressure": 0.5},
            {"abs_lambda": 1.0, "resolved": True, "C_pressure": 1.0},
            {"abs_lambda": 200.0, "resolved": False, "C_pressure": 0.1},
        ],
    )
    assert [s["abs_lambda"] for s in rec.samples] == [1.0, 10.0, 200.0]
    assert len(rec.resolved_samples()) == 2
    assert rec.series("C_pressure") == [(1.0, 1.0), (10.0, 0.5)]


def test_sweep_record_rejects_negative_values():
    with pytest.raises(ValueError):
        SweepRecord(
            arg_lambda=0.0,
            h=0.1,
            samples=[{"abs_lambda": 1.0, "resolved": True, "C_pressure": -0.5}],
        )


def test_identity_report_properties():
    rep = IdentityReport("x", lhs=8.0, rhs=8.0)
    assert rep.residual_abs == 0.0
    assert rep.residual_rel == 0.0
    assert rep.ratio == 1.0
    assert rep.id == "x"
    zero = IdentityReport("z", 0.0, 0.0)
    assert zero.ratio == 0.0 and zero.residual_rel == 0.0


def test_localized_report_zero_rhs():
    patch = CubePatch(np.array([0.5, 0.5]), 0.1)
    rep = LocalizedReport(patch, "caccioppoli", 0.0, 0.0)
    assert rep.ratio == 0.0
    assert rep.id == "caccioppoli"


def test_default_lambda_grid():
    g = default_lambda_grid(0.0, 4.0, 17)
    assert len(g) == 17
    assert g[0] == pytest.approx(1.0) and g[-1] == pytest.approx(1e4)


def test_sweep_pressure_decay_neumann(sys3):
    bc = BoundaryCondition("neumann")
    grid = default_lambda_grid(-1.0, 1.0, 5)
    record, fit = sweep_pressure_decay(sys3, bc, lam_grid=grid, outputs=("phi",))
    assert [s["abs_lambda"] for s in record.samples] == sorted(grid)
    assert all(s["C_pressure"] > 0 for s in record.samples)
    assert all(s["resolved"] for s in record.samples)
    assert fit.n_samples == 5
    # small lambdas sit on the pre-asymptotic plateau: shallow decay
    assert 0.0 <= fit.alpha_hat <= 0.5


def test_sweep_pressure_decay_values_decrease(sys3):
    bc = BoundaryCondition("neumann")
    grid = default_lambda_grid(-1.0, 1.0, 5)
    record, _ = sweep_pressure_decay(sys3, bc, lam_grid=grid, outputs=("phi",))
    vals = [v for _, v in record.series("C_pressure")]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bc_tag", ["neumann", "dirichlet"])
def test_dual_input_space_orthonormalizes_once(sys3, monkeypatch, bc_tag):
    calls = []
    orthonormalize = helmholtz.orthonormalize

    def counted(Z, G):
        calls.append(G.shape)
        return orthonormalize(Z, G)

    # every module that binds the function by name
    for mod in (helmholtz, norms):
        if hasattr(mod, "orthonormalize"):
            monkeypatch.setattr(mod, "orthonormalize", counted)
    basis = experiments.input_space(sys3, BoundaryCondition(bc_tag), dual=True)
    assert basis.norm == ("H1_zero_dual" if bc_tag == "dirichlet" else "H1_full_dual")
    assert calls == [(basis.dim, basis.dim)]


@pytest.mark.parametrize(
    "bc_tag, arg_lambda", [("neumann", 0.0), ("dirichlet", 1.0)], ids=["real", "complex"]
)
def test_default_sweep_matches_dense_oracle_without_dense_basis(
    sys3, monkeypatch, bc_tag, arg_lambda
):
    def refuse(*args, **kwargs):
        raise AssertionError("an L2 sweep built the dense basis")

    bc = BoundaryCondition(bc_tag)
    grid = default_lambda_grid(-0.5, 1.5, 5)
    with monkeypatch.context() as m:
        m.setattr(experiments, "solenoidal_basis", refuse)
        m.setattr(helmholtz, "solenoidal_basis", refuse)
        record, _ = sweep_pressure_decay(sys3, bc, lam_grid=grid, arg_lambda=arg_lambda)
    basis = solenoidal_basis(sys3, "L2_sigma" if bc.is_dirichlet else "calL2_sigma")
    for s in record.samples:
        lam = SectorSample(s["abs_lambda"] * np.exp(1j * arg_lambda), np.pi / 2)
        op = ResolventOperator(sys3, bc, lam)
        for out, col in (
            ("phi", "C_pressure"),
            ("lam_u", "C_velocity"),
            ("sqrt_lam_grad_u", "C_gradient"),
        ):
            dense = dense_operator_norm(out, basis, op)
            assert s[col] == pytest.approx(dense, rel=1e-8), (out, s["abs_lambda"])


def test_equivalence_factors_only_resolved_lambda(monkeypatch):
    # level 2 resolves |lambda| <= 1/h^2 = 8: the last two grid values lie beyond
    system = build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 4)))
    grid = default_lambda_grid(-1.5, 1.5, 7)
    factored = []
    init = ResolventOperator.__init__

    def counted_init(self, system, bc, lam):
        factored.append(abs(complex(lam.lam)))
        init(self, system, bc, lam)

    monkeypatch.setattr(ResolventOperator, "__init__", counted_init)
    report = check_lemma_equivalence(system, lam_grid=grid)
    assert factored == pytest.approx(list(grid[:5]), rel=1e-12)
    assert report.fit_pressure.n_samples == report.fit_velocity.n_samples == 5


@pytest.mark.parametrize(
    "run",
    [
        lambda system, grid: sweep_pressure_decay(
            system, BoundaryCondition("neumann"), lam_grid=grid
        ),
        lambda system, grid: check_lemma_equivalence(system, lam_grid=grid),
    ],
    ids=["decay", "equivalence"],
)
def test_unfittable_grid_fails_before_any_factor(monkeypatch, run):
    # level 2 resolves |lambda| <= 1/h^2 = 8: 4 of the 6 grid values. The
    # grid spans 3 decades, so only the resolved count fails the fit
    system = build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 4)))
    factored = []
    monkeypatch.setattr(experiments, "ResolventOperator", lambda *a: factored.append(a))
    msg = r"4 of 6 \|lambda\| in the resolved window \|lambda\| <= 1/h\^2 = 8 "
    with pytest.raises(NumericalError, match=msg):
        run(system, default_lambda_grid(-1.4, 1.6, 6))
    assert factored == []


def test_sweep_pressure_dual_dirichlet(sys3):
    bc = BoundaryCondition("dirichlet")
    grid = default_lambda_grid(-1.0, 1.0, 5)
    record, fit = sweep_pressure_dual(sys3, bc, lam_grid=grid)
    vals = [v for _, v in record.series("C_pressure")]
    assert len(vals) == 5 and all(v > 0 for v in vals)
    # the dual-norm pressure map is flat at small lambda
    assert abs(fit.alpha_hat) <= 0.1


@pytest.mark.parametrize(
    "run",
    [
        lambda system, grid: sweep_pressure_decay(
            system, BoundaryCondition("neumann"), lam_grid=grid, outputs=("phi",)
        ),
        lambda system, grid: sweep_pressure_dual(
            system, BoundaryCondition("dirichlet"), lam_grid=grid
        ),
        lambda system, grid: check_lemma_equivalence(system, lam_grid=grid),
    ],
    ids=["decay", "dual", "equivalence"],
)
def test_unconverged_eigensolve_is_numerical_failure(unconverged_eigsh, run):
    system = build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 4)))
    with pytest.raises(NumericalError, match="unconverged"):
        run(system, default_lambda_grid(-1.1, 0.9, 5))


def test_uniform_resolvent_columns(sys3):
    bc = BoundaryCondition("neumann")
    record = check_uniform_resolvent(sys3, bc, lam_grid=[1.0, 10.0])
    for s in record.samples:
        for p in (2, 3, 4):
            assert s[f"vel_p{p}"] > 0
            assert s[f"grad_p{p}"] > 0
            assert s[f"div_p{p}"] > 0


def test_uniform_resolvent_zero_load_empty(sys3):
    bc = BoundaryCondition("neumann")
    zero_f = VolumeF(lambda p: np.zeros((len(p), 2)))
    record = check_uniform_resolvent(sys3, bc, lam_grid=[1.0], f=zero_f)
    assert record.samples == []


def test_grisvard_linear_radial():
    import sympy as sp

    x, y = sp.symbols("x y")
    rep = check_grisvard(unit_square(), (2 * x, 2 * y), target_h=0.2)
    assert rep.lhs == pytest.approx(8.0, abs=1e-10)
    assert rep.rhs == pytest.approx(8.0, abs=1e-10)


def test_grisvard_shear_vanishes():
    import sympy as sp

    x, y = sp.symbols("x y")
    rep = check_grisvard(unit_square(), (y, sp.Integer(0)), target_h=0.2)
    assert rep.residual_abs <= 1e-12


def test_h2_mu_validation(space3):
    bad = build_system(space3, mu=0.42)
    with pytest.raises(ValueError):
        check_h2_estimate(bad, lam_grid=[1.0])
    ok = build_system(space3, mu=0.41)
    rows = check_h2_estimate(ok, lam_grid=[1.0])
    assert all(r["ratio"] > 0 for r in rows)


def test_h2_zero_field_skipped(sys3):
    zero = np.zeros(sys3.space.n_vel)
    rows = check_h2_estimate(sys3, lam_grid=[1.0], f_fields=[("zero", zero)])
    assert rows == []


def test_localized_overlap_rejected(sys3):
    patch = CubePatch(np.array([0.5, 0.5]), 0.2)
    bump = VolumeF(lambda p: np.ones((len(p), 2)))
    with pytest.raises(ValueError):
        check_localized(sys3, SectorSample(10.0), patch, bump)


def test_localized_zero_load(sys3):
    patch = CubePatch(np.array([0.2, 0.2]), 0.05)
    zero = VolumeF(lambda p: np.zeros((len(p), 2)))
    reports = check_localized(sys3, SectorSample(10.0), patch, zero)
    assert [r.id for r in reports] == ["caccioppoli", "local_h2", "reverse_holder"]
    assert all(r.lhs == 0.0 and r.rhs == 0.0 and r.ratio == 0.0 for r in reports)


def test_equivalence_synthetic_power_laws():
    alpha = 0.25
    lams = np.logspace(0, 3, 9)
    fit_p = fit_decay_exponent([(a, a**alpha) for a in lams])
    fit_u = fit_decay_exponent([(a, a ** (alpha - 1.0)) for a in lams])
    report = EquivalenceReport(
        alpha_pressure_growth=-fit_p.alpha_hat,
        alpha_velocity_decay=fit_u.alpha_hat,
        fit_pressure=fit_p,
        fit_velocity=fit_u,
    )
    assert report.gap <= 0.01


def test_equivalence_degenerate_grid(sys3):
    with pytest.raises(ValueError):
        check_lemma_equivalence(sys3, lam_grid=[10.0])


def test_write_sweep_csv(tmp_path):
    rec = SweepRecord(
        arg_lambda=0.0,
        h=0.25,
        samples=[{"abs_lambda": 1.0, "resolved": True, "C_pressure": 0.5}],
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rec, comment="cfg abc")
    lines = path.read_text().splitlines()
    assert lines[0] == "# cfg abc"
    assert lines[1] == ",".join(CSV_COLUMNS)
    fields = lines[2].split(",")
    assert fields[0] == "1.0" and fields[3] == "0.5" and fields[-1] == "1"
    # missing functionals stay empty
    assert fields[4] == "" and fields[5] == ""


def test_sweep_writes_every_csv_column(tmp_path):
    system = build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 4)))
    record, _ = sweep_pressure_decay(
        system, BoundaryCondition("neumann"), lam_grid=default_lambda_grid(-1.1, 0.9, 5)
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, record)
    lines = path.read_text().splitlines()
    assert lines[1] == ",".join(CSV_COLUMNS)
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 5
    assert all(len(row) == len(CSV_COLUMNS) and "" not in row for row in rows)


def test_sweep_fits_only_the_resolved_window():
    # level 2: 1/h^2 = 8, and the grid runs on to 10^1.6
    system = build_system(build_space(triangulate(unit_square(), np.sqrt(2.0) / 4)))
    grid = default_lambda_grid(-1.4, 1.6, 16)
    limit = 1.0 / system.space.mesh.h**2
    resolved = [a for a in grid if a <= limit]
    record, fit = sweep_pressure_decay(
        system, BoundaryCondition("neumann"), lam_grid=grid, outputs=("phi",)
    )
    assert len(record.samples) == len(grid) > len(resolved) >= 5
    assert fit.n_samples == len(resolved)
    assert fit.window_max == pytest.approx(max(resolved), rel=1e-12)
    assert fit.window_max <= limit


def test_write_artifact_header(tmp_path):
    path = tmp_path / "a.csv"
    experiments.write_artifact(path, ["x,y", "1,2"], comment="cfg")
    assert path.read_text() == "# cfg\nx,y\n1,2\n"
    experiments.write_artifact(path, ["x"])
    assert path.read_text() == "#\nx\n"


def test_write_report_csv(tmp_path):
    rep = IdentityReport("linear_radial", 8.0, 8.0)
    path = tmp_path / "rep.csv"
    write_report_csv(path, [rep], comment="c")
    lines = path.read_text().splitlines()
    assert lines[1] == "id,lhs,rhs,ratio"
    assert lines[2].startswith("linear_radial,8.0,8.0,")


def test_write_fit_json_roundtrip(tmp_path):
    fit = fit_decay_exponent([(a, a**-0.5) for a in np.logspace(0, 2, 5)])
    path = tmp_path / "fit.json"
    write_fit_json(path, fit, comment="c")
    text = path.read_text().splitlines()
    assert text[0] == "# c"
    payload = json.loads("\n".join(text[1:]))
    assert set(payload) == {"alpha_hat", "r2", "window_min", "window_max", "n_samples"}
    assert payload["alpha_hat"] == pytest.approx(0.5)


def test_writers_byte_identical(tmp_path):
    fit = fit_decay_exponent([(a, a**-0.5) for a in np.logspace(0, 2, 5)])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_fit_json(p1, fit, comment="same")
    write_fit_json(p2, fit, comment="same")
    assert p1.read_bytes() == p2.read_bytes()
