"""Verification experiments: lambda sweeps with decay fits, boundary
identity checks, H2-type ratio tables, and localized estimates.

Each sweep point is an independent factorize+measure; records are
assembled sorted by |lambda| and written to CSV/JSON with a leading
comment line so identical configs reproduce byte-identical artifacts.
One lambda loop, sweep_pressure_decay, serves every operator-norm sweep,
and input_space picks its inputs: the implicit projector for L2 sweeps,
the explicit basis built orthonormal in the dual input norm for the
dual-norm sweeps.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .fem import (
    AssembledSystem,
    BoundaryCondition,
    DivergenceF,
    VolumeF,
    build_space,
    load_vector,
)
from .geometry import (
    ConvexPolygon,
    CubePatch,
    cube_polygon_cover,
    face_boundary_integrand,
    triangulate,
)
from .helmholtz import (
    HelmholtzProjector,
    ImplicitSolenoidalProjector,
    solenoidal_basis,
)
from .norms import (
    DecayFit,
    broken_h2_seminorm,
    fit_decay_exponent,
    lp_norm,
    operator_norm,
)
from .quadrature import segment_rule
from .solver import NumericalError, ResolventOperator, SectorSample, in_resolved_window

__all__ = [
    "SweepRecord",
    "IdentityReport",
    "LocalizedReport",
    "EquivalenceReport",
    "default_lambda_grid",
    "bump_load",
    "input_space",
    "sweep_pressure_decay",
    "sweep_pressure_dual",
    "check_uniform_resolvent",
    "check_grisvard",
    "check_h2_estimate",
    "check_load_clears_patch",
    "check_localized",
    "check_lemma_equivalence",
    "write_artifact",
    "write_sweep_csv",
    "write_report_csv",
    "write_json",
    "write_fit_json",
]

MU_H2_LIMIT = np.sqrt(2.0) - 1.0

CSV_COLUMNS = (
    "abs_lambda",
    "arg_lambda",
    "h",
    "C_pressure",
    "C_velocity",
    "C_gradient",
    "Cp_p3",
    "Cp_p4",
    "resolved",
)


@dataclass
class SweepRecord:
    """One lambda sweep: per-sample measured functionals, sorted by |lambda|.

    Each sample is a dict with at least abs_lambda and resolved; measured
    functionals use the CSV column names (missing ones stay absent)."""

    arg_lambda: float
    h: float
    samples: list = field(default_factory=list)

    def __post_init__(self):
        self.samples = sorted(self.samples, key=lambda s: s["abs_lambda"])
        for s in self.samples:
            for key, val in s.items():
                if key not in ("abs_lambda", "resolved") and val is not None:
                    if float(val) < 0:
                        raise NumericalError(f"negative measured value {key}={val}")

    def resolved_samples(self):
        return [s for s in self.samples if s["resolved"]]

    def series(self, key):
        """(abs_lambda, value) pairs of one functional over resolved samples."""
        return [
            (s["abs_lambda"], s[key]) for s in self.resolved_samples() if key in s
        ]


@dataclass(frozen=True)
class IdentityReport:
    """Volume-vs-boundary evaluation of the divergence identity."""

    id: str
    lhs: float
    rhs: float

    @property
    def residual_abs(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def residual_rel(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs))
        return 0.0 if scale == 0.0 else self.residual_abs / scale

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else np.inf
        return self.lhs / self.rhs


@dataclass(frozen=True)
class LocalizedReport:
    """One localized inequality evaluated on a cube patch."""

    patch: CubePatch
    id: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0
        return self.lhs / self.rhs


@dataclass(frozen=True)
class EquivalenceReport:
    """Paired exponents of the two dual-norm formulations.

    The pressure map should grow like |lambda|^alpha while the velocity
    map decays like |lambda|^(1-alpha); gap measures the consistency."""

    alpha_pressure_growth: float
    alpha_velocity_decay: float
    fit_pressure: DecayFit
    fit_velocity: DecayFit

    @property
    def gap(self) -> float:
        return abs(self.alpha_pressure_growth - (1.0 - self.alpha_velocity_decay))


def default_lambda_grid(log10_min=0.0, log10_max=4.0, count=17):
    return np.logspace(log10_min, log10_max, count)


def input_space(system: AssembledSystem, bc: BoundaryCondition, dual: bool = False):
    """The solenoidal inputs of an operator-norm sweep under bc, with their
    input norm.

    Neumann conditions measure over the divergence-free fields, Dirichlet
    over the trace-constrained ones. The L2 norm runs on the implicit
    projector; with `dual`, the dense basis is built orthonormal in the
    dual norm of the load's test space, with one Cholesky."""
    flavor = "L2_sigma" if bc.is_dirichlet else "calL2_sigma"
    if not dual:
        return ImplicitSolenoidalProjector(system, flavor)
    # no-slip loads act on zero-trace test fields, natural-condition loads
    # on the full H1 space; the dual norm follows the test space
    norm = "H1_zero_dual" if bc.is_dirichlet else "H1_full_dual"
    return solenoidal_basis(system, flavor, norm)


def _converged(res, output: str, lam: SectorSample) -> float:
    """The measured value; an unconverged eigensolve is never recorded."""
    if not res.converged:
        raise NumericalError(f"unconverged {output} eigensolve at {lam.lam}")
    return res.value


_OUTPUT_COLUMNS = {
    "phi": "C_pressure",
    "lam_u": "C_velocity",
    "sqrt_lam_grad_u": "C_gradient",
    # not a CSV column: only check_lemma_equivalence reads it
    "u_h_minus1": "C_velocity_h_minus1",
}


def sweep_pressure_decay(
    system: AssembledSystem,
    bc: BoundaryCondition,
    lam_grid=None,
    arg_lambda: float = 0.0,
    theta: float = np.pi / 2,
    basis=None,
    outputs=("phi", "lam_u", "sqrt_lam_grad_u"),
    seed: int = 0,
):
    """Operator-norm sweep over a solenoidal input space; fits the decay
    exponent of C_pressure(lambda) on the resolved window.

    The input norm is basis.norm; without a basis, input_space(system, bc),
    the L2 norm on the implicit projector. Returns (SweepRecord, DecayFit)."""
    if lam_grid is None:
        lam_grid = default_lambda_grid()
    if basis is None:
        basis = input_space(system, bc)
    h = system.space.mesh.h
    samples = []
    for a in sorted(float(a) for a in np.asarray(lam_grid)):
        lam = SectorSample(a * np.exp(1j * arg_lambda), theta)
        op = ResolventOperator(system, bc, lam)
        row = {"abs_lambda": a, "resolved": in_resolved_window(a, h)}
        for out in outputs:
            res = operator_norm(out, basis, op, seed=seed)
            row[_OUTPUT_COLUMNS[out]] = _converged(res, out, lam)
        del op  # free this factor before the next one is built
        samples.append(row)
    record = SweepRecord(arg_lambda=arg_lambda, h=h, samples=samples)
    fit = fit_decay_exponent(record.series("C_pressure"))
    return record, fit


def sweep_pressure_dual(
    system: AssembledSystem,
    bc: BoundaryCondition,
    lam_grid=None,
    arg_lambda: float = 0.0,
    theta: float = np.pi / 2,
    basis=None,
    seed: int = 0,
):
    """Sweep of sup ||phi|| / ||F||_{H^-1} over the solenoidal inputs.

    `basis` is an explicit basis already orthonormal in the dual input
    norm, by default input_space(system, bc, dual=True). The fitted
    alpha_hat is the decay exponent of the values; the growth exponent of
    interest is its negative."""
    if basis is None:
        basis = input_space(system, bc, dual=True)
    return sweep_pressure_decay(
        system,
        bc,
        lam_grid=lam_grid,
        arg_lambda=arg_lambda,
        theta=theta,
        basis=basis,
        outputs=("phi",),
        seed=seed,
    )


def _bubble_curl(pts):
    """Curl of the biquartic bubble: solenoidal with zero boundary trace."""
    x, y = pts[:, 0], pts[:, 1]
    bx = x**2 * (1 - x) ** 2
    by = y**2 * (1 - y) ** 2
    dbx = 2 * x * (1 - x) ** 2 - 2 * x**2 * (1 - x)
    dby = 2 * y * (1 - y) ** 2 - 2 * y**2 * (1 - y)
    return np.stack([bx * dby, -dbx * by], axis=-1)


def bump_load(center, radius) -> VolumeF:
    """The smooth bump exp(-1 / (1 - d^2)) (1, -1), d = |x - center| / radius,
    as a volume load supported in the disc of that radius."""
    center, radius = np.asarray(center, dtype=float), float(radius)

    def f(pts):
        d2 = np.sum((pts - center) ** 2, axis=1) / radius**2
        vals = np.zeros((len(pts), 2))
        inside = d2 < 1.0
        vals[inside] = np.exp(-1.0 / (1.0 - d2[inside]))[:, None] * [1.0, -1.0]
        return vals

    return VolumeF(f)


def _default_tensor(pts):
    x, y = pts[:, 0], pts[:, 1]
    F = np.empty(pts.shape[:-1] + (2, 2))
    F[..., 0, 0] = np.sin(np.pi * x) * np.cos(np.pi * y)
    F[..., 0, 1] = x * y
    F[..., 1, 0] = x**2 - y
    F[..., 1, 1] = np.cos(np.pi * x)
    return F


def _callable_lp(space, fn, p, tensor=False):
    """L^p norm of a pointwise-evaluable field over the mesh."""
    phys, wts, _, _, _, _ = space.quad_data(8)
    vals = np.asarray(fn(phys.reshape(-1, 2)))
    shape = phys.shape[:2] + ((2, 2) if tensor else (2,))
    vals = vals.reshape(shape)
    axes = (-2, -1) if tensor else (-1,)
    mag2 = np.sum(np.abs(vals) ** 2, axis=axes)
    return float(np.sum(wts * mag2 ** (p / 2.0)) ** (1.0 / p))


def check_uniform_resolvent(
    system: AssembledSystem,
    bc: BoundaryCondition,
    lam_grid=None,
    f=None,
) -> SweepRecord:
    """Per-lambda solution-norm ratios on the positive real axis for one
    fixed representative load.

    For p = 2, 3, 4, records |lam| ||u||_p / ||f||_p and
    |lam|^(1/2) ||grad u||_p / ||f||_p for the volume load f (by default
    the bubble curl), plus the divergence-form triple
    (|lam|^(1/2)||u||_p + ||grad u||_p + ||phi||_p) / ||F||_p for the
    fixed tensor F = _default_tensor. A vanishing f yields an empty
    record rather than 0/0 ratios."""
    if lam_grid is None:
        lam_grid = default_lambda_grid()
    space = system.space
    f = f if f is not None else VolumeF(_bubble_curl)
    F = DivergenceF(_default_tensor)
    f_norms = {p: _callable_lp(space, f.f, p) for p in (2, 3, 4)}
    F_norms = {p: _callable_lp(space, F.F, p, tensor=True) for p in (2, 3, 4)}
    h = space.mesh.h
    if max(f_norms.values()) == 0.0:
        return SweepRecord(arg_lambda=0.0, h=h)
    load_f = load_vector(space, f, bc)
    load_F = load_vector(space, F, bc)
    samples = []
    for a in sorted(float(a) for a in np.asarray(lam_grid)):
        op = ResolventOperator(system, bc, SectorSample(a))
        u1, _ = op.solve(load_f)
        u2, phi2 = op.solve(load_F)
        row = {"abs_lambda": a, "resolved": in_resolved_window(a, h)}
        for p in (2, 3, 4):
            vel = a * lp_norm(space, u1, p) / f_norms[p]
            grad = np.sqrt(a) * lp_norm(space, u1, p, kind="velocity_gradient")
            grad /= f_norms[p]
            triple = (
                np.sqrt(a) * lp_norm(space, u2, p)
                + lp_norm(space, u2, p, kind="velocity_gradient")
                + lp_norm(space, phi2, p, kind="pressure")
            ) / F_norms[p]
            row[f"vel_p{p}"] = vel
            row[f"grad_p{p}"] = grad
            row[f"div_p{p}"] = triple
        samples.append(row)
    return SweepRecord(arg_lambda=0.0, h=h, samples=samples)


def check_grisvard(
    polygon: ConvexPolygon,
    v,
    target_h: float = 0.05,
    descriptor: str = "field",
) -> IdentityReport:
    """Evaluate both sides of the volume/boundary divergence identity.

    LHS integrates |div v|^2 - sum_jk (d_j v_k)(conj d_k v_j) over the
    polygon; RHS sums facewise arclength-derivative terms. `v` is a pair
    of sympy expressions in the plain symbols x, y; its Jacobian is
    derived from them."""
    # sympy is slow to import: load it here, never on `import srlab.cli`
    import sympy as sp

    from .manufactured import field_callables

    v_call, J_call = field_callables(v, sp.symbols("x y"))
    phys, wts = build_space(triangulate(polygon, target_h)).quad_data(8)[:2]
    flat = phys.reshape(-1, 2)
    Jv_vals = J_call(flat)
    div = Jv_vals[:, 0, 0] + Jv_vals[:, 1, 1]
    cross = np.einsum("nij,nji->n", Jv_vals, np.conj(Jv_vals))
    lhs = float(np.sum(wts.ravel() * (np.abs(div) ** 2 - np.real(cross))))

    s, sw = segment_rule(8)
    rhs = 0.0
    for face in polygon.faces:
        n_panels = max(1, int(np.ceil(face.length / target_h)))
        for k in range(n_panels):
            a = face.start + (face.end - face.start) * (k / n_panels)
            b = face.start + (face.end - face.start) * ((k + 1) / n_panels)
            seg_pts = a + np.multiply.outer(s, b - a)
            length = np.linalg.norm(b - a)
            integrand = face_boundary_integrand(face, v_call(seg_pts), J_call(seg_pts))
            rhs += length * float(np.sum(sw * integrand))
    return IdentityReport(descriptor, lhs, rhs)


def _nodal(space, fn):
    """Velocity coefficients of a pointwise field: fn at the P2 nodes."""
    return np.ravel(fn(space.p2_coords))


def _trig(pts):
    return np.stack([np.sin(np.pi * pts[:, 1]), np.sin(np.pi * pts[:, 0])], axis=-1)


def check_h2_estimate(
    system: AssembledSystem,
    lam_grid=None,
    f_fields=None,
    theta: float = np.pi / 2,
    seed: int = 0,
):
    """Ratio table for the second-order energy bound under the natural
    boundary condition.

    Per (lambda, f): [|lam| |grad u|^2 + broken-H2(u)^2 + |grad phi|^2]
    over [|f|^2 + |lam|^2 |u|^2]. The coefficient parameter must lie in
    (-1, sqrt(2) - 1); values outside that range are rejected."""
    mu = system.mu
    if not (-1.0 < mu < MU_H2_LIMIT):
        raise ValueError(
            f"mu = {mu} outside the admissible range (-1, sqrt(2)-1)"
        )
    if lam_grid is None:
        lam_grid = default_lambda_grid(0.0, 1.5, 7)
    space = system.space
    bc = BoundaryCondition("neumann")
    if f_fields is None:
        proj = HelmholtzProjector(system, "neumann")
        rng = np.random.default_rng(seed)
        rand = np.real(proj.apply(rng.standard_normal(space.n_vel)))
        f_fields = [
            ("bubble_curl", _nodal(space, _bubble_curl)),
            ("trig", _nodal(space, _trig)),
            ("random_solenoidal", rand),
        ]
    rows = []
    for a in sorted(float(a) for a in np.asarray(lam_grid)):
        lam = SectorSample(a, theta)
        op = ResolventOperator(system, bc, lam)
        for name, fvec in f_fields:
            f_norm = lp_norm(space, fvec, 2.0)
            if f_norm == 0.0:
                continue
            u, phi = op.solve(system.M_v @ np.asarray(fvec))
            num = (
                a * lp_norm(space, u, 2.0, kind="velocity_gradient") ** 2
                + broken_h2_seminorm(space, u) ** 2
                + lp_norm(space, phi, 2.0, kind="pressure_gradient") ** 2
            )
            den = f_norm**2 + a**2 * lp_norm(space, u, 2.0) ** 2
            rows.append({"abs_lambda": a, "field": name, "ratio": num / den})
    return rows


def _pointwise_triple(space, u, phi, a):
    """|lam||u| + sqrt|lam|(|grad u| + |phi|) at quadrature points."""
    vals, grads, wts = space.velocity_at_quad(u)
    pvals, _, _ = space.pressure_at_quad(phi)
    g = (
        a * np.sqrt(np.sum(np.abs(vals) ** 2, axis=-1))
        + np.sqrt(a) * np.sqrt(np.sum(np.abs(grads) ** 2, axis=(-2, -1)))
        + np.sqrt(a) * np.abs(pvals)
    )
    return g, wts


def check_load_clears_patch(space, patch: CubePatch, f: VolumeF) -> None:
    """Raise ValueError when an element where the load is nonzero at a
    quadrature point has its centroid in the 8-dilated patch. It reads
    only the space, so a caller can run it before assembly."""
    phys = space.quad_data(8)[0]
    fv = np.asarray(f.f(phys.reshape(-1, 2))).reshape(phys.shape[:2] + (2,))
    support = np.flatnonzero(np.max(np.abs(fv), axis=(1, 2)) > 0)
    dilated = np.flatnonzero(patch.contains(space.mesh.centroids(), 8.0))
    if np.intersect1d(support, dilated).size:
        raise ValueError("load support overlaps the 8-dilated patch")


def check_localized(
    system: AssembledSystem,
    lam: SectorSample,
    patch: CubePatch,
    f: VolumeF,
) -> list:
    """Evaluate the three localized inequalities on a patch away from the
    support of the load.

    Requires the load's support elements to be disjoint from the
    8-dilated patch (check_load_clears_patch) so the equation is
    homogeneous near the patch."""
    space = system.space
    bc = BoundaryCondition("neumann")
    check_load_clears_patch(space, patch, f)
    op = ResolventOperator(system, bc, lam)
    u, phi = op.solve(load_vector(space, f, bc))
    cover = cube_polygon_cover(space.mesh, patch)
    Q, Q2 = cover.elements[1], cover.elements[2]
    a = abs(complex(lam.lam))
    r = patch.r
    global_scale = lp_norm(space, u, 2.0)

    def nsq(coeffs, region, kind="velocity"):
        return lp_norm(space, coeffs, 2.0, region=region, kind=kind) ** 2

    if global_scale == 0.0 or cover.empty:
        return [
            LocalizedReport(patch, iid, 0.0, 0.0)
            for iid in ("caccioppoli", "local_h2", "reverse_holder")
        ]

    cac_lhs = a * nsq(u, Q) + nsq(u, Q, "velocity_gradient")
    cac_rhs = (1.0 / r**2) * ((1.0 / a) * nsq(phi, Q2, "pressure") + nsq(u, Q2))

    h2_lhs = (
        a * nsq(u, Q, "velocity_gradient")
        + broken_h2_seminorm(space, u, region=Q) ** 2
        + nsq(phi, Q, "pressure_gradient")
    )
    h2_rhs = a**2 * nsq(u, Q2) + (1.0 / r**2) * (
        nsq(u, Q2, "velocity_gradient") + nsq(phi, Q2, "pressure")
    )

    g, gw = _pointwise_triple(space, u, phi, a)
    mean4 = (np.sum(gw[Q] * g[Q] ** 4) / cover.measures[1]) ** 0.25
    mean2 = (np.sum(gw[Q2] * g[Q2] ** 2) / cover.measures[2]) ** 0.5
    return [
        LocalizedReport(patch, "caccioppoli", float(cac_lhs), float(cac_rhs)),
        LocalizedReport(patch, "local_h2", float(h2_lhs), float(h2_rhs)),
        LocalizedReport(patch, "reverse_holder", float(mean4), float(mean2)),
    ]


def check_lemma_equivalence(
    system: AssembledSystem,
    lam_grid=None,
    theta: float = np.pi / 2,
    seed: int = 0,
) -> EquivalenceReport:
    """Paired dual-norm exponent fits under the no-slip condition.

    Fits the growth of sup |phi| / |F|_{H^-1} and the decay of
    sup |u|_{H^-1} / |F|_{H^-1}; the two exponents should sum to 1."""
    if lam_grid is None:
        lam_grid = default_lambda_grid()
    bc = BoundaryCondition("dirichlet")
    basis = input_space(system, bc, dual=True)
    h = system.space.mesh.h
    # unresolved lambda would only be dropped by the fits: never factor them
    resolved = [a for a in np.asarray(lam_grid) if in_resolved_window(a, h)]
    record, fit_p = sweep_pressure_decay(
        system,
        bc,
        lam_grid=resolved,
        theta=theta,
        basis=basis,
        outputs=("phi", "u_h_minus1"),
        seed=seed,
    )
    fit_u = fit_decay_exponent(record.series("C_velocity_h_minus1"))
    return EquivalenceReport(
        alpha_pressure_growth=-fit_p.alpha_hat,
        alpha_velocity_decay=fit_u.alpha_hat,
        fit_pressure=fit_p,
        fit_velocity=fit_u,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    return repr(float(x))


def write_artifact(path, lines, comment: str = ""):
    """Write text lines after a leading `# comment` line, the header every
    artifact carries (the CLI passes the version, config hash and seed)."""
    with open(path, "w") as fh:
        fh.write("\n".join([f"# {comment}".rstrip(), *lines]) + "\n")


def write_sweep_csv(path, record: SweepRecord, comment: str = ""):
    """Write a sweep as CSV with the fixed column set; missing
    functionals become empty fields. First line is a comment."""
    lines = [",".join(CSV_COLUMNS)]
    for s in record.samples:
        row = dict(s)
        row.setdefault("arg_lambda", record.arg_lambda)
        row.setdefault("h", record.h)
        lines.append(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS))
    write_artifact(path, lines, comment)


def write_report_csv(path, reports, comment: str = ""):
    """Write identity or localized reports as id,lhs,rhs,ratio rows."""
    lines = ["id,lhs,rhs,ratio"]
    for rep in reports:
        lines.append(
            f"{rep.id},{_fmt(rep.lhs)},{_fmt(rep.rhs)},{_fmt(rep.ratio)}"
        )
    write_artifact(path, lines, comment)


def write_json(path, payload, comment: str = ""):
    """Write a JSON payload preceded by a comment line."""
    write_artifact(path, [json.dumps(payload, indent=2, sort_keys=True)], comment)


def write_fit_json(path, fit: DecayFit, comment: str = ""):
    """Write a fit summary as JSON preceded by a comment line."""
    write_json(path, asdict(fit), comment)
