"""Command-line front end.

Builds domains and meshes, runs single solves, convergence studies,
operator-norm sweeps with exponent fits, and the identity/inequality
checkers, all driven by a single JSON config file. Every artifact starts
with a comment line recording the config hash and tool version so runs
are traceable; identical config + seed gives byte-identical outputs.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .experiments import (
    MU_H2_LIMIT,
    _bubble_curl,
    bump_load,
    check_grisvard,
    check_h2_estimate,
    check_lemma_equivalence,
    check_load_clears_patch,
    check_localized,
    default_lambda_grid,
    input_space,
    sweep_pressure_decay,
    sweep_pressure_dual,
    write_artifact,
    write_fit_json,
    write_json,
    write_report_csv,
    write_sweep_csv,
)
from .fem import BoundaryCondition, VolumeF, BoundaryG, build_space, build_system
from .geometry import (
    CubePatch,
    read_tmesh2d,
    regular_ngon,
    triangulate,
    unit_square,
    write_tmesh2d,
)
from .helmholtz import check_dense_basis
from .norms import fit_window, lp_norm
from .solver import NumericalError, SectorSample, solve_resolvent

__all__ = ["ExperimentConfig", "load_config", "run", "main"]

# the loads a config names; {"kind": "bump", ...} builds a bump_load
LOADS = {
    "zero": VolumeF(lambda p: np.zeros((len(p), 2))),
    "bubble_curl": VolumeF(_bubble_curl),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description parsed from a JSON config file."""

    experiment_id: str
    domain: str
    bc_tag: str
    mu: float
    theta: float
    log10_min: float
    log10_max: float
    count: int
    rays: tuple
    level: int
    seed: int
    out_dir: str
    load: VolumeF = LOADS["zero"]
    patch: CubePatch | None = None
    dual: bool = False
    config_hash: str = ""

    @property
    def bc(self) -> BoundaryCondition:
        return BoundaryCondition(self.bc_tag)

    def lambda_grid(self) -> np.ndarray:
        return default_lambda_grid(self.log10_min, self.log10_max, self.count)


def _config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path, subcommand: str, out_override=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    grid = raw.get("lambda", {})
    if not isinstance(grid, dict):
        raise ConfigError("lambda must be an object")
    known = {
        "experiment", "domain", "bc", "mu", "theta", "lambda",
        "level", "seed", "out_dir", "load", "patch", "dual",
    }
    unknown = sorted(set(raw) - known) + sorted(
        f"lambda.{k}" for k in set(grid) - {"log10_min", "log10_max", "count", "rays"}
    )
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    if not isinstance(raw.get("dual", False), bool):
        raise ConfigError("dual must be true or false")

    def value(table, key, kind, default):
        """table[key], or default, as a kind: str takes a JSON string,
        float a JSON number that is not a boolean, int an integral one
        (5 or 5.0), and tuple a list of numbers, as floats."""
        got = table.get(key, default)
        if kind is tuple and isinstance(got, list):
            return tuple(value({key: g}, key, float, None) for g in got)
        number = isinstance(got, (int, float)) and not isinstance(got, bool)
        ok = {
            str: isinstance(got, str),
            float: number,
            int: number and (isinstance(got, int) or got.is_integer()),
        }
        if not ok.get(kind, False):
            raise ConfigError(f"{key!r} must be {kind.__name__}, not {got!r}")
        return kind(got)

    def region(name, keys):
        """(center, size) of raw[name], an object of `keys` (key -> default,
        None if required): a center of two numbers and a positive last key."""
        spec, size_key = raw[name], list(keys)[-1]
        if not isinstance(spec, dict) or set(spec) - set(keys):
            raise ConfigError(f"{name} must be an object with keys {sorted(keys)}")
        center = value(spec, "center", tuple, keys["center"])
        size = value(spec, size_key, float, keys[size_key])
        if len(center) != 2 or size <= 0:
            raise ConfigError(f"{name} needs a center [x, y] and a positive {size_key}")
        return np.asarray(center), size

    load = raw.get("load", "zero")
    if isinstance(load, dict) and load.get("kind") == "bump":
        bump = {"kind": "bump", "center": [0.5, 0.5], "radius": 0.1}
        load = bump_load(*region("load", bump))
    elif isinstance(load, str) and load in LOADS:
        load = LOADS[load]
    else:
        raise ConfigError(f"unknown load spec {load!r}")
    patch = None
    if "patch" in raw:
        patch = CubePatch(*region("patch", {"center": None, "r": None}))

    out_dir = value(raw, "out_dir", str, ".")
    cfg = ExperimentConfig(
        experiment_id=value(raw, "experiment", str, "run"),
        domain=value(raw, "domain", str, "unit_square"),
        bc_tag=value(raw, "bc", str, "dirichlet"),
        mu=value(raw, "mu", float, 0.0),
        theta=value(raw, "theta", float, 2 * np.pi / 3),
        log10_min=value(grid, "log10_min", float, 0.0),
        log10_max=value(grid, "log10_max", float, 2.0),
        count=value(grid, "count", int, 9),
        rays=value(grid, "rays", tuple, [0.0]),
        level=value(raw, "level", int, 3),
        seed=value(raw, "seed", int, 0),
        out_dir=out_override or out_dir,
        load=load,
        patch=patch,
        dual=raw.get("dual", False),
        config_hash=_config_hash(raw),
    )
    _validate(cfg, subcommand)
    return cfg


def _validate(cfg: ExperimentConfig, subcommand: str):
    if cfg.bc_tag not in ("dirichlet", "neumann"):
        raise ConfigError(f"unknown boundary condition {cfg.bc_tag!r}")
    if not (-1.0 < cfg.mu <= 1.0):
        raise ConfigError("mu must lie in (-1, 1]")
    if subcommand == "check-h2" and not (cfg.mu < MU_H2_LIMIT):
        raise ConfigError(
            f"mu = {cfg.mu} outside the admissible range (-1, sqrt(2)-1) "
            "for the second-order energy check"
        )
    if subcommand == "check-equivalence" and cfg.bc_tag != "dirichlet":
        raise ConfigError("the equivalence check requires the no-slip condition")
    if subcommand in ("check-h2", "check-local") and cfg.bc_tag != "neumann":
        raise ConfigError(f"{subcommand} requires the natural boundary condition")
    if subcommand == "check-local" and cfg.patch is None:
        raise ConfigError("check-local needs patch: {center: [x, y], r: ...}")
    if not (0 < cfg.theta < np.pi):
        raise ConfigError("theta must lie in (0, pi)")
    for r in cfg.rays:
        if not (-cfg.theta < r < cfg.theta):
            raise ConfigError(f"ray angle {r} outside (-theta, theta)")
    if not cfg.rays:
        raise ConfigError("at least one ray angle is required")
    if cfg.count < 1:
        raise ConfigError("lambda grid count must be positive")
    if cfg.level < 0:
        raise ConfigError("refinement level must be nonnegative")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.log10_max < cfg.log10_min:
        raise ConfigError("lambda grid log10_max must be >= log10_min")
    if subcommand in ("sweep", "check-equivalence"):
        try:
            fit_window(cfg.lambda_grid())
        except NumericalError as exc:
            raise ConfigError(f"lambda grid: {exc}") from exc


def build_mesh(cfg: ExperimentConfig):
    """Mesh the configured domain at the configured refinement level."""
    if cfg.domain == "unit_square":
        return triangulate(unit_square(), np.sqrt(2.0) / 2**cfg.level)
    if cfg.domain.startswith("ngon:"):
        parts = cfg.domain.split(":")
        if len(parts) != 3:
            raise ConfigError("ngon preset must be 'ngon:<n>:<radius>'")
        try:
            n, radius = int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad ngon preset {cfg.domain!r}") from exc
        if n < 3 or radius <= 0:
            raise ConfigError("ngon preset needs n >= 3 and radius > 0")
        return triangulate(regular_ngon(n, radius), 2.0 * radius / 2**cfg.level)
    if not os.path.exists(cfg.domain):
        raise ConfigError(f"domain {cfg.domain!r} is neither a preset nor a file")
    return read_tmesh2d(cfg.domain)


def _comment(cfg: ExperimentConfig) -> str:
    return f"srlab {__version__} config {cfg.config_hash} seed {cfg.seed}"


def _out_path(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, f"{cfg.experiment_id}_{name}")


def _resolve_threads(flag_value) -> int:
    n = flag_value
    if n is None:
        env = os.environ.get("SRL_THREADS", "")
        n = int(env) if env.strip() else 0
    if n == 0:
        n = os.cpu_count() or 1
    if n < 1:
        raise ConfigError("thread count must be >= 0")
    return n


def cmd_mesh(cfg: ExperimentConfig, threads: int, verbose: bool) -> int:
    mesh = build_mesh(cfg)
    path = _out_path(cfg, "mesh.tmesh2d")
    write_tmesh2d(mesh, path, _comment(cfg))
    if verbose:
        print(f"wrote {path}: {mesh.n_nodes} nodes, "
              f"{mesh.n_triangles} triangles, h = {mesh.h:.5g}", file=sys.stderr)
    return 0


def cmd_solve(cfg: ExperimentConfig, threads: int, verbose: bool) -> int:
    mesh = build_mesh(cfg)
    space = build_space(mesh)
    system = build_system(space, mu=cfg.mu)
    lam = SectorSample(10**cfg.log10_min * np.exp(1j * cfg.rays[0]), cfg.theta)
    sol = solve_resolvent(system, cfg.bc, lam, cfg.load)
    for warning in sol.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    payload = {
        "abs_lambda": abs(complex(lam.lam)),
        "arg_lambda": cfg.rays[0],
        "h": mesh.h,
        "u_l2": lp_norm(space, sol.u, 2.0),
        "grad_u_l2": lp_norm(space, sol.u, 2.0, kind="velocity_gradient"),
        "phi_l2": lp_norm(space, sol.phi, 2.0, kind="pressure"),
        "residual_momentum": sol.residual_momentum,
        "residual_divergence": sol.residual_divergence,
    }
    write_json(_out_path(cfg, "solve.json"), payload, _comment(cfg))
    return 0


def cmd_convergence(cfg: ExperimentConfig, threads: int, verbose: bool) -> int:
    # sympy is slow to import and only this subcommand needs it
    from .manufactured import dirichlet_square_case, l2_errors, neumann_square_case

    if cfg.domain != "unit_square":
        raise ConfigError("the manufactured study runs on the unit_square preset")
    if cfg.bc_tag == "dirichlet":
        case = dirichlet_square_case()
    else:
        case = neumann_square_case(mu=cfg.mu)
    levels = [cfg.level + k for k in range(3)]
    rows = []
    for lvl in levels:
        mesh = build_mesh(replace(cfg, level=lvl))
        space = build_space(mesh)
        system = build_system(space, mu=case.mu)
        rhs = [VolumeF(case.f)]
        if cfg.bc_tag == "neumann":
            rhs.append(BoundaryG(case.g))
        sol = solve_resolvent(system, cfg.bc, SectorSample(case.lam, cfg.theta), rhs)
        eu, ep = l2_errors(space, sol, case, cfg.bc_tag == "dirichlet")
        rows.append({"level": lvl, "h": mesh.h, "err_u_l2": eu, "err_phi_l2": ep})
        if verbose:
            print(f"level {lvl}: err_u {eu:.3e} err_phi {ep:.3e}", file=sys.stderr)
    orders_u, orders_p = (
        [np.log2(rows[i][err] / rows[i + 1][err]) for i in range(2)]
        for err in ("err_u_l2", "err_phi_l2")
    )
    payload = {
        "case": case.name,
        "rows": rows,
        "orders_u": orders_u,
        "orders_phi": orders_p,
        "min_order_u": min(orders_u),
        "min_order_phi": min(orders_p),
    }
    write_json(_out_path(cfg, "convergence.json"), payload, _comment(cfg))
    return 0


def cmd_sweep(cfg: ExperimentConfig, threads: int, verbose: bool) -> int:
    mesh = build_mesh(cfg)
    fit_window(cfg.lambda_grid(), mesh.h)
    space = build_space(mesh)
    if cfg.dual:
        check_dense_basis(space)
    system = build_system(space, mu=cfg.mu)
    # the input space does not depend on the ray: every ray shares it
    basis = input_space(system, cfg.bc, cfg.dual)
    runner = sweep_pressure_dual if cfg.dual else sweep_pressure_decay

    def one_ray(ray):
        return runner(
            system,
            cfg.bc,
            lam_grid=cfg.lambda_grid(),
            arg_lambda=ray,
            theta=cfg.theta,
            basis=basis,
            seed=cfg.seed,
        )

    if threads > 1 and len(cfg.rays) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_ray, cfg.rays))
    else:
        results = [one_ray(r) for r in cfg.rays]

    for k, (record, fit) in enumerate(results):
        write_sweep_csv(_out_path(cfg, f"ray{k}.csv"), record, _comment(cfg))
        write_fit_json(_out_path(cfg, f"ray{k}_fit.json"), fit, _comment(cfg))
        if verbose:
            print(
                f"ray {cfg.rays[k]:+.4f}: alpha_hat {fit.alpha_hat:.4f} "
                f"r2 {fit.r2:.4f}", file=sys.stderr,
            )
    return 0


def cmd_check_grisvard(cfg: ExperimentConfig, threads: int, verbose: bool) -> int:
    import sympy as sp

    x, y = sp.symbols("x y")
    bx, by = (x * (1 - x)) ** 2, (y * (1 - y)) ** 2
    cases = [
        ("linear_radial", (2 * x, 2 * y)),
        ("shear", (y, sp.Integer(0))),
        ("bubble_curl", (bx * sp.diff(by, y), -sp.diff(bx, x) * by)),
    ]
    mesh = build_mesh(cfg)
    polygon = mesh.polygon
    reports = [
        check_grisvard(polygon, expr, target_h=mesh.h, descriptor=name)
        for name, expr in cases
    ]
    write_report_csv(_out_path(cfg, "grisvard.csv"), reports, _comment(cfg))
    if verbose:
        for rep in reports:
            print(f"{rep.id}: lhs {rep.lhs:.6g} rhs {rep.rhs:.6g}", file=sys.stderr)
    return 0


def cmd_check_h2(cfg: ExperimentConfig, threads: int, verbose: bool) -> int:
    mesh = build_mesh(cfg)
    system = build_system(build_space(mesh), mu=cfg.mu)
    rows = check_h2_estimate(
        system, lam_grid=cfg.lambda_grid(), theta=cfg.theta, seed=cfg.seed
    )
    lines = ["abs_lambda,field,ratio"]
    for row in rows:
        lines.append(
            f"{row['abs_lambda']!r},{row['field']},{row['ratio']!r}"
        )
    write_artifact(_out_path(cfg, "h2.csv"), lines, _comment(cfg))
    if verbose:
        ratios = [row["ratio"] for row in rows]
        print(
            f"{len(rows)} ratios, max {max(ratios):.4g}, "
            f"median {np.median(ratios):.4g}", file=sys.stderr,
        )
    return 0


def cmd_check_local(cfg: ExperimentConfig, threads: int, verbose: bool) -> int:
    space = build_space(build_mesh(cfg))
    # a config error, caught before the assembly it would waste
    check_load_clears_patch(space, cfg.patch, cfg.load)
    system = build_system(space, mu=cfg.mu)
    for a in cfg.lambda_grid():
        lam = SectorSample(float(a) * np.exp(1j * cfg.rays[0]), cfg.theta)
        reports = check_localized(system, lam, cfg.patch, cfg.load)
        write_report_csv(
            _out_path(cfg, f"local_lam{float(a):g}.csv"), reports, _comment(cfg)
        )
        if verbose:
            for rep in reports:
                print(f"lam {a:g} {rep.id}: ratio {rep.ratio:.4g}", file=sys.stderr)
    return 0


def cmd_check_equivalence(cfg: ExperimentConfig, threads: int, verbose: bool) -> int:
    mesh = build_mesh(cfg)
    fit_window(cfg.lambda_grid(), mesh.h)
    space = build_space(mesh)
    check_dense_basis(space)
    system = build_system(space, mu=cfg.mu)
    report = check_lemma_equivalence(
        system, lam_grid=cfg.lambda_grid(), theta=cfg.theta, seed=cfg.seed
    )
    payload = {
        "alpha_pressure_growth": report.alpha_pressure_growth,
        "alpha_velocity_decay": report.alpha_velocity_decay,
        "gap": report.gap,
        "fit_pressure": {"alpha_hat": report.fit_pressure.alpha_hat,
                         "r2": report.fit_pressure.r2},
        "fit_velocity": {"alpha_hat": report.fit_velocity.alpha_hat,
                         "r2": report.fit_velocity.r2},
    }
    write_json(_out_path(cfg, "equivalence.json"), payload, _comment(cfg))
    if verbose:
        print(f"gap {report.gap:.4f}", file=sys.stderr)
    return 0


_HANDLERS = {
    "mesh": cmd_mesh,
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "sweep": cmd_sweep,
    "check-grisvard": cmd_check_grisvard,
    "check-h2": cmd_check_h2,
    "check-local": cmd_check_local,
    "check-equivalence": cmd_check_equivalence,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="Mixed finite-element laboratory for the Stokes resolvent",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (0 = auto); overrides SRL_THREADS")
        p.add_argument("--verbose", action="store_true")
    return parser


def run(subcommand: str, cfg: ExperimentConfig, threads: int = 1,
        verbose: bool = False) -> int:
    return _HANDLERS[subcommand](cfg, threads, verbose)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = load_config(args.config, args.subcommand, out_override=args.out)
        threads = _resolve_threads(args.threads)
        return run(args.subcommand, cfg, threads=threads, verbose=args.verbose)
    except (NumericalError, np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
