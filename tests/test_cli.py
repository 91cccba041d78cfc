import json
import os
import subprocess
import sys

import numpy as np
import pytest

from srlab import __version__, cli, experiments, helmholtz
from srlab.cli import (
    ConfigError,
    ExperimentConfig,
    _resolve_threads,
    build_mesh,
    load_config,
    main,
)
from srlab.geometry import CubePatch, read_tmesh2d, write_tmesh2d
from srlab.helmholtz import DENSE_BASIS_LIMIT


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "experiment": "t",
        "domain": "unit_square",
        "bc": "dirichlet",
        "mu": 0.0,
        "level": 2,
        "lambda": {"log10_min": 0.0, "log10_max": 0.0, "count": 1},
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_artifact_json(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# srlab")
    return json.loads("\n".join(lines[1:])), lines[0]


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path), "solve")
    assert cfg.experiment_id == "t"
    assert cfg.bc_tag == "dirichlet"
    assert cfg.rays == (0.0,)
    assert len(cfg.config_hash) == 12


def test_load_config_builds_typed_inputs(tmp_path):
    pts = np.array([[0.5, 0.5], [0.55, 0.47], [0.45, 0.5], [0.2, 0.9]])
    plain = load_config(write_cfg(tmp_path), "solve")
    assert np.array_equal(plain.load.f(pts), np.zeros((len(pts), 2)))
    assert plain.patch is None
    assert plain.dual is False
    cfg = load_config(
        write_cfg(
            tmp_path,
            name="bump.json",
            bc="neumann",
            load={"kind": "bump"},
            patch={"center": [0.2, 0.3], "r": 0.05},
        ),
        "check-local",
    )
    expect = experiments.bump_load([0.5, 0.5], 0.1).f(pts)
    assert np.array_equal(cfg.load.f(pts), expect)
    assert np.count_nonzero(expect) == 6
    assert isinstance(cfg.patch, CubePatch)
    assert np.array_equal(cfg.patch.center, [0.2, 0.3]) and cfg.patch.r == 0.05


def test_config_hash_stable(tmp_path):
    p = write_cfg(tmp_path)
    h1 = load_config(p, "solve").config_hash
    h2 = load_config(p, "solve").config_hash
    assert h1 == h2
    p2 = write_cfg(tmp_path, name="cfg2.json", seed=1)
    assert load_config(p2, "solve").config_hash != h1


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, typo=1), "solve")


def test_bad_bc_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, bc="slip"), "solve")


def test_mu_range_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, bc="neumann", mu=1.5), "solve")


def test_h2_mu_boundary(tmp_path):
    ok = write_cfg(tmp_path, name="ok.json", bc="neumann", mu=0.41)
    assert load_config(ok, "check-h2").mu == 0.41
    bad = write_cfg(tmp_path, name="bad.json", bc="neumann", mu=0.42)
    with pytest.raises(ConfigError):
        load_config(bad, "check-h2")


def test_ray_outside_sector_rejected(tmp_path):
    cfg = write_cfg(
        tmp_path,
        theta=1.0,
        **{"lambda": {"log10_min": 0, "log10_max": 2, "count": 5, "rays": [1.5]}},
    )
    with pytest.raises(ConfigError):
        load_config(cfg, "solve")


def test_fit_needs_five_points(tmp_path):
    cfg = write_cfg(
        tmp_path, **{"lambda": {"log10_min": 0, "log10_max": 2, "count": 3}}
    )
    with pytest.raises(ConfigError):
        load_config(cfg, "sweep")
    # non-fit subcommands accept short grids
    load_config(cfg, "solve")


def test_bad_ngon_preset(tmp_path):
    with pytest.raises(ConfigError):
        build_mesh(load_config(write_cfg(tmp_path, domain="ngon:2:1.0"), "solve"))
    with pytest.raises(ConfigError):
        build_mesh(load_config(write_cfg(tmp_path, domain="ngon:8"), "solve"))


def test_ngon_preset_mesh(tmp_path):
    cfg = load_config(write_cfg(tmp_path, domain="ngon:8:1.0", level=1), "solve")
    mesh = build_mesh(cfg)
    assert len(mesh.polygon.vertices) == 8


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("SRL_THREADS", raising=False)
    assert _resolve_threads(2) == 2
    assert _resolve_threads(0) >= 1
    monkeypatch.setenv("SRL_THREADS", "3")
    assert _resolve_threads(None) == 3
    # the flag wins over the environment
    assert _resolve_threads(1) == 1
    with pytest.raises(ConfigError):
        _resolve_threads(-1)


def test_unknown_subcommand():
    assert main(["frobnicate", "--config", "x.json"]) == 2


def test_missing_config():
    assert main(["solve", "--config", "/nonexistent/cfg.json"]) == 2


def test_mesh_subcommand(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["mesh", "--config", cfg, "--out", str(out)]) == 0
    path = out / "t_mesh.tmesh2d"
    first = path.read_text().splitlines()[0]
    assert first.startswith(f"# srlab {__version__} config ")
    mesh = read_tmesh2d(path)
    assert mesh.n_triangles > 0


def test_solve_zero_load(tmp_path):
    cfg = write_cfg(tmp_path, load="zero")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload, comment = read_artifact_json(out / "t_solve.json")
    assert payload["u_l2"] == 0.0
    assert payload["phi_l2"] == 0.0
    assert payload["residual_momentum"] == 0.0
    assert f"srlab {__version__}" in comment


def test_solve_prints_its_warnings(tmp_path, capsys):
    # level 1 resolves |lambda| <= 1/h^2 = 2; lambda = 10 lies beyond
    cfg = write_cfg(
        tmp_path,
        level=1,
        load="bubble_curl",
        **{"lambda": {"log10_min": 1.0, "log10_max": 1.0, "count": 1}},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "t_solve.json").exists()
    err = capsys.readouterr().err
    assert "warning: " in err and "1/h^2" in err


def test_solve_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, load="bubble_curl")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    a = (out1 / "t_solve.json").read_bytes()
    b = (out2 / "t_solve.json").read_bytes()
    assert a == b


def test_convergence_subcommand(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    payload, _ = read_artifact_json(out / "t_convergence.json")
    assert payload["min_order_u"] >= 2.5
    assert payload["min_order_phi"] >= 1.5


def test_sweep_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        bc="neumann",
        level=3,
        **{"lambda": {"log10_min": -1.0, "log10_max": 1.0, "count": 5}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    csv_lines = (out / "t_ray0.csv").read_text().splitlines()
    assert csv_lines[1].startswith("abs_lambda,arg_lambda,h,")
    assert len(csv_lines) == 7
    payload, _ = read_artifact_json(out / "t_ray0_fit.json")
    assert payload["n_samples"] == 5


@pytest.mark.parametrize("dual", [False, True])
def test_threaded_multi_ray_sweep_byte_identical(tmp_path, dual):
    cfg = write_cfg(
        tmp_path,
        bc="neumann",
        level=3,
        dual=dual,
        **{"lambda": {"log10_min": -0.5, "log10_max": 1.5, "count": 5,
                      "rays": [0.0, 0.5, -0.5]}},
    )
    outs = [tmp_path / "t1", tmp_path / "t3"]
    for out, threads in zip(outs, ("1", "3")):
        assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert len(names) == 6
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("dual", [False, True])
def test_multi_ray_sweep_builds_its_input_space_once(tmp_path, monkeypatch, dual):
    built = {"projector": 0, "basis": 0}
    init = helmholtz.ImplicitSolenoidalProjector.__init__
    basis = experiments.solenoidal_basis

    def counted_init(self, *args):
        built["projector"] += 1
        init(self, *args)

    def counted_basis(*args):
        built["basis"] += 1
        return basis(*args)

    monkeypatch.setattr(helmholtz.ImplicitSolenoidalProjector, "__init__", counted_init)
    monkeypatch.setattr(experiments, "solenoidal_basis", counted_basis)
    cfg = write_cfg(
        tmp_path,
        dual=dual,
        **{"lambda": {"log10_min": -1.1, "log10_max": 0.9, "count": 5,
                      "rays": [0.0, -0.7]}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    assert len(list(out.glob("t_ray*.csv"))) == 2
    assert built == {"projector": int(not dual), "basis": int(dual)}


@pytest.mark.parametrize("dual", [False, True])
def test_sweep_unconverged_eigensolve_is_numerical_failure(
    tmp_path, unconverged_eigsh, dual
):
    cfg = write_cfg(
        tmp_path,
        dual=dual,
        **{"lambda": {"log10_min": -1.1, "log10_max": 0.9, "count": 5}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "1"]) == 3
    assert not (out / "t_ray0.csv").exists()


def test_sweep_unresolved_grid_is_numerical_failure(tmp_path):
    # level 2 resolves |lambda| <= 1/h^2 = 8; the fit has no usable sample
    cfg = write_cfg(
        tmp_path,
        bc="neumann",
        **{"lambda": {"log10_min": 2.0, "log10_max": 4.0, "count": 5}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "1"]) == 3


def _config_error_before_assembly(tmp_path, monkeypatch, capsys, subcommand, **overrides):
    """Run `subcommand` on a config that must exit 2 before assembly and
    write nothing; return its stderr."""
    built = []
    monkeypatch.setattr(cli, "build_system", lambda *a, **k: built.append(1))
    cfg = write_cfg(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out), "--threads", "1"]) == 2
    assert built == []
    assert not list(tmp_path.rglob("*.csv"))
    assert not out.exists() or not any(out.iterdir())
    return capsys.readouterr().err


def _assert_oversized_is_config_error(tmp_path, monkeypatch, capsys, subcommand, dual):
    # level 5 has 8,450 velocity dofs, beyond the dense basis limit: the
    # command stops before assembly and writes nothing
    err = _config_error_before_assembly(
        tmp_path,
        monkeypatch,
        capsys,
        subcommand,
        level=5,
        dual=dual,
        **{"lambda": {"log10_min": 0.0, "log10_max": 2.0, "count": 5}},
    )
    assert "n_vel = 8450" in err and str(DENSE_BASIS_LIMIT) in err


def test_oversized_dual_sweep_is_config_error(tmp_path, monkeypatch, capsys):
    _assert_oversized_is_config_error(tmp_path, monkeypatch, capsys, "sweep", True)


def test_oversized_equivalence_check_is_config_error(tmp_path, monkeypatch, capsys):
    _assert_oversized_is_config_error(
        tmp_path, monkeypatch, capsys, "check-equivalence", False
    )


def test_negative_seed_is_config_error(tmp_path, monkeypatch, capsys):
    # numpy rejects a negative seed only once the eigensolver draws its
    # start vector, after the mesh, the system and the first factor
    err = _config_error_before_assembly(
        tmp_path,
        monkeypatch,
        capsys,
        "sweep",
        bc="neumann",
        seed=-1,
        **{"lambda": {"log10_min": 0.0, "log10_max": 2.0, "count": 5}},
    )
    assert "seed" in err


@pytest.mark.parametrize(
    "subcommand, bc", [("sweep", "neumann"), ("check-equivalence", "dirichlet")]
)
def test_fit_grid_under_two_decades_is_config_error(
    tmp_path, monkeypatch, capsys, subcommand, bc
):
    # no mesh can fit 1.5 decades: the fit needs 2
    err = _config_error_before_assembly(
        tmp_path,
        monkeypatch,
        capsys,
        subcommand,
        bc=bc,
        **{"lambda": {"log10_min": 0.0, "log10_max": 1.5, "count": 5}},
    )
    assert "2 decades" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"dual": "false"},
        {"lambda": 5},
        {"lambda": {"rays": 5}},
        {"seed": [1]},
        {"mu": None},
        {"level": 3.7},
        {"level": True},
        {"lambda": {"log10_min": 0.0, "log10_max": 2.0, "count": 5.9}},
        {"seed": 1.5},
        {"mu": True},
        {"lambda": {"log10_min": 0.0, "log10_max": 2.0, "count": 5, "rays": [True]}},
        {"experiment": None},
        {"domain": 5},
        {"bc": ["neumann"]},
        {"out_dir": 1},
        {"lambda": {"log10_min": 0.0, "log10_max": 2.0, "cout": 5}},
        {"load": {"kind": "bump", "radius": True, "colour": 1}},
        {"load": {"kind": "bump", "radius": True}},
        {"load": {"kind": "bump", "center": [0.9, 0.9], "radius": 0.05, "colour": 1}},
        {"load": {"kind": "bump", "radius": -0.1}},
        {"load": {"kind": "bump", "center": [0.5]}},
        {"load": {"kind": "ring"}},
        {"load": "bubble"},
        {"patch": {"center": [0.2, 0.2], "r": True}},
        {"patch": {"center": [0.2, 0.2, 7], "r": 0.1, "x": 1}},
        {"patch": {"center": [0.2, 0.2, 7], "r": 0.1}},
        {"patch": {"center": [0.2, 0.2], "r": 0.1, "x": 1}},
        {"patch": {"center": [0.2, 0.2]}},
        {"patch": [0.2, 0.2, 0.1]},
    ],
    ids=[
        "dual-string", "lambda-number", "rays-number", "seed-list", "mu-null",
        "level-fraction", "level-bool", "count-fraction", "seed-fraction",
        "mu-bool", "ray-bool", "experiment-null", "domain-number", "bc-list",
        "out_dir-number", "lambda-unknown-key", "load-bool-and-unknown-key",
        "load-radius-bool", "load-unknown-key", "load-radius-negative",
        "load-center-short", "load-unknown-kind", "load-unknown-name",
        "patch-r-bool", "patch-3d-and-unknown-key", "patch-center-3d",
        "patch-unknown-key", "patch-no-r", "patch-list",
    ],
)
def test_malformed_config_value_is_config_error(tmp_path, overrides):
    grid = {"lambda": {"log10_min": 0.0, "log10_max": 2.0, "count": 5}}
    cfg = write_cfg(tmp_path, **{**grid, **overrides})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "1"]) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("defect", ["flipped", "untagged"])
def test_broken_mesh_file_is_config_error(tmp_path, broken_mesh, defect):
    # unchecked, the flipped mesh solves without error to a wrong u_l2
    # (5.284e-4 against 5.415e-4 for the intact mesh at lambda = 1)
    path = tmp_path / "broken.tmesh2d"
    write_tmesh2d(broken_mesh(defect), path)
    cfg = write_cfg(tmp_path, domain=str(path), bc="neumann", load="bubble_curl")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_integral_float_config_values_accepted(tmp_path):
    grid = {"lambda": {"log10_min": 0.0, "log10_max": 2.0, "count": 5.0}}
    cfg = load_config(write_cfg(tmp_path, level=2.0, seed=1.0, **grid), "sweep")
    assert (cfg.level, cfg.seed, cfg.count) == (2, 1, 5)
    assert all(isinstance(n, int) for n in (cfg.level, cfg.seed, cfg.count))


def test_cli_import_loads_no_sympy():
    # sympy takes about 0.5 s to import: only the subcommands that need it
    # may load it, so importing the CLI must not
    code = (
        "import sys, srlab.cli; "
        "print([m for m in ('sympy', 'srlab.manufactured') if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_check_grisvard_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, level=3)
    out = tmp_path / "out"
    assert main(["check-grisvard", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "t_grisvard.csv").read_text().splitlines()
    assert lines[1] == "id,lhs,rhs,ratio"
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[2:]}
    assert abs(float(rows["linear_radial"][1]) - 8.0) <= 1e-10
    assert abs(float(rows["shear"][1])) <= 1e-12


def test_check_local_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        bc="neumann",
        level=3,
        **{
            "lambda": {"log10_min": 1.0, "log10_max": 1.0, "count": 1},
            "patch": {"center": [0.2, 0.2], "r": 0.05},
            "load": {"kind": "bump", "center": [0.9, 0.9], "radius": 0.05},
        },
    )
    out = tmp_path / "out"
    assert main(["check-local", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "t_local_lam10.csv").read_text().splitlines()
    ids = [ln.split(",")[0] for ln in lines[2:]]
    assert ids == ["caccioppoli", "local_h2", "reverse_holder"]


def test_check_local_overlap_is_config_error_before_assembly(tmp_path, monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_system", lambda *a, **k: built.append(1))
    cfg = write_cfg(
        tmp_path,
        bc="neumann",
        level=3,
        **{
            "lambda": {"log10_min": 1.0, "log10_max": 1.0, "count": 1},
            "patch": {"center": [0.2, 0.2], "r": 0.1},
            "load": {"kind": "bump", "center": [0.3, 0.3], "radius": 0.2},
        },
    )
    out = tmp_path / "out"
    assert main(["check-local", "--config", cfg, "--out", str(out)]) == 2
    assert built == []
    assert not out.exists() or not list(out.iterdir())
    assert "overlaps the 8-dilated patch" in capsys.readouterr().err


def test_check_local_requires_patch(tmp_path):
    cfg = write_cfg(
        tmp_path,
        bc="neumann",
        **{"lambda": {"log10_min": 1.0, "log10_max": 1.0, "count": 1}},
    )
    assert main(["check-local", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_check_equivalence_requires_dirichlet(tmp_path):
    cfg = write_cfg(
        tmp_path,
        bc="neumann",
        **{"lambda": {"log10_min": 0, "log10_max": 2, "count": 5}},
    )
    assert main(["check-equivalence", "--config", cfg]) == 2
