"""Norms, dual norms, and operator norms of resolvent solution maps.

An operator norm is the largest singular value of the map from a
solenoidal input to one of four weighted output fields, and a function
of (output, inputs, resolvent operator) alone: the ResolventOperator
carries the system, the boundary condition and lam, and the inputs
carry their input norm. Both input kinds, an explicit basis (built
orthonormal in its input norm by helmholtz.solenoidal_basis, so its
coefficients carry the Euclidean norm, with the sparse M_v applied
around it) and the implicit projector (the full velocity space in the
M_v inner product), give one normal-operator pencil: forward solve,
output weight, adjoint solve through conjugation, all on the operator's
one LU factorization. operator_norm finds its top eigenvalue by Lanczos
(ARPACK); dense_operator_norm, the oracle, assembles the same pencil
densely. Everything runs in the arithmetic of lam (SectorSample.dtype):
real on the positive real axis, complex elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .fem import AssembledSystem, TaylorHoodSpace, assemble_gram
from .helmholtz import ImplicitSolenoidalProjector
from .solver import NumericalError, ResolventOperator, split_complex, symmetric_lu

__all__ = [
    "OperatorNormResult",
    "DecayFit",
    "lp_norm",
    "broken_h2_seminorm",
    "dual_h_minus1_norm",
    "operator_norm",
    "dense_operator_norm",
    "fit_decay_exponent",
]

OUTPUTS = ("lam_u", "sqrt_lam_grad_u", "phi", "u_h_minus1")
_H1_GRAMS = {"H1_zero_dual": "H1_zero", "H1_full_dual": "H1_full"}

# a decay fit needs samples spanning at least 2 decades of |lambda|; the
# 1e-12 slack keeps a grid of exactly 2 decades from failing on rounding
FIT_MIN_DECADES = 2.0 - 1e-12

POWER_TOL = 1e-11
POWER_MAXIT = 500

# (boundary condition, projector flavor) pairs whose adjoint solve lands in
# the projector's range when the output weights only the velocity: the
# solve's constraint rows give B y = 0 (and y = 0 on a no-slip boundary),
# which implies the projector's constraints. Under the natural condition
# the normal trace of y is free, so "L2_sigma" still needs the projection.
_ADJOINT_IN_RANGE = {
    ("neumann", "calL2_sigma"),
    ("dirichlet", "L2_sigma"),
    ("dirichlet", "calL2_sigma"),
}


def lp_norm(space: TaylorHoodSpace, coeffs, p: float, region=None, kind="velocity"):
    """(sum_T int_T |field|^p)^(1/p) over the given elements (default all)."""
    if not (1.0 <= p <= 64.0):
        raise ValueError("p must lie in [1, 64]")
    if kind in ("velocity", "velocity_gradient"):
        vals, grads, wts = space.velocity_at_quad(coeffs)
        mag2 = (
            np.sum(np.abs(vals) ** 2, axis=-1)
            if kind == "velocity"
            else np.sum(np.abs(grads) ** 2, axis=(-2, -1))
        )
    elif kind in ("pressure", "pressure_gradient"):
        vals, grads, wts = space.pressure_at_quad(coeffs)
        if kind == "pressure":
            mag2 = np.abs(vals) ** 2
        else:
            mag2 = np.broadcast_to(
                np.sum(np.abs(grads) ** 2, axis=-1)[:, None], vals.shape
            )
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    if region is not None:
        region = np.asarray(region, dtype=int)
        mag2 = mag2[region]
        wts = wts[region]
    return float(np.sum(wts * mag2 ** (p / 2.0)) ** (1.0 / p))


def broken_h2_seminorm(space: TaylorHoodSpace, coeffs, region=None):
    """Elementwise-constant Hessian magnitude, summed in L² over elements."""
    H = space.velocity_hessians(coeffs)
    areas = space.mesh.areas()
    mag2 = np.sum(np.abs(H) ** 2, axis=(1, 2, 3))
    if region is not None:
        region = np.asarray(region, dtype=int)
        mag2 = mag2[region]
        areas = areas[region]
    return float(np.sqrt(np.sum(areas * mag2)))


def _gram_solver(system: AssembledSystem, norm: str):
    """Solve with the Gram matrix of an input norm (M_v for "L2", the H1
    Grams K10 and K1 for the dual flavors). Each real Gram is factored
    once per space, on first use; only the dual norms read K10 and K1,
    so they are assembled here rather than with the system. Complex
    loads are split."""
    space = system.space
    with space._lock:
        if norm not in space._gram_cache:
            K = system.M_v if norm == "L2" else assemble_gram(space, _H1_GRAMS[norm])
            space._gram_cache[norm] = split_complex(symmetric_lu(K.tocsc()).solve)
        return space._gram_cache[norm]


def _dual_solver(system: AssembledSystem, norm: str):
    """The Riesz map of a dual input norm, riesz(load) = K^{-1} load.

    For "H1_zero_dual" the functional only acts on zero-trace fields:
    riesz zeroes the boundary rows of `load` in place first. K10 is the
    identity on those rows, so its result is exactly zero there too."""
    solve = _gram_solver(system, norm)
    if norm != "H1_zero_dual":
        return solve
    boundary = system.space.boundary_vel_dofs

    def riesz(load):
        load[boundary] = 0.0
        return solve(load)

    return riesz


def dual_h_minus1_norm(system: AssembledSystem, load, flavor: str = "H1_zero_dual"):
    """Dual norm (l* K^{-1} l)^(1/2) against the H1 Gram of the flavor."""
    if flavor not in ("H1_zero_dual", "H1_full_dual"):
        raise ValueError(f"unknown dual flavor {flavor!r}")
    load = np.array(load)  # the Riesz map may zero rows of its argument
    val = np.vdot(load, _dual_solver(system, flavor)(load))
    return float(np.sqrt(max(np.real(val), 0.0)))


@dataclass
class OperatorNormResult:
    value: float
    iterations: int = 0
    converged: bool = True


@dataclass(frozen=True)
class DecayFit:
    alpha_hat: float
    r2: float
    window_min: float
    window_max: float
    n_samples: int


def _output_weights(output: str, op: ResolventOperator):
    """Return (Wu, Wp): weight applications on the velocity/pressure blocks
    of op's solutions."""
    system = op.system
    a = abs(complex(op.lam.lam))
    if output == "lam_u":
        return lambda u: a**2 * (system.M_v @ u), None
    if output == "sqrt_lam_grad_u":
        return lambda u: a * (system.A0 @ u), None
    if output == "phi":
        return None, lambda p: system.M_q @ p
    if output == "u_h_minus1":
        # M_v D K10^{-1} D M_v with D the zero-trace mask, which the Riesz
        # map applies on both sides: symmetric, so the normal operator
        # stays Hermitian on every boundary condition
        riesz = _dual_solver(system, "H1_zero_dual")
        return lambda u: system.M_v @ riesz(system.M_v @ u), None
    raise ValueError(f"unknown output functional {output!r}")


def _input_gram(system, Z, norm):
    """Gram of the columns of Z in the dual input norm `norm`."""
    MZ = np.asarray(system.M_v @ Z)
    # one expression: the Riesz map zeroes MZ's boundary rows in place,
    # and naming its output would hold a second dense copy past the product
    G = MZ.T @ _dual_solver(system, norm)(MZ)
    return 0.5 * (G + G.T)


def _normal_operator(output: str, basis, op: ResolventOperator):
    """The normal operator H = T* W T of the map T from the inputs `basis`
    to `output` through op's factorization, as the pencil (matvec, dim,
    M, Minv) whose top eigenvalue is the squared operator norm.

    An explicit basis works in its coefficients, which carry the
    Euclidean norm, so M is None. The implicit projector works in the
    full velocity space in the M_v inner product: matvec returns M_v P y
    and M = M_v; Minv returns P y for that output and solves with the
    cached M_v factor, built on first use, for any other load.
    """
    system = op.system
    Wu, Wp = _output_weights(output, op)
    implicit = isinstance(basis, ImplicitSolenoidalProjector)
    if not implicit and basis.dim == 0:
        raise NumericalError("empty basis")
    n_vel = system.space.n_vel

    def adjoint_of_weighted(load):
        u, phi = op.solve(load)
        gu = Wu(u) if Wu is not None else np.zeros(n_vel)
        gp = Wp(phi) if Wp is not None else None
        y, _ = op.solve_adjoint(gu, gp)
        return y

    if not implicit:
        # apply the sparse M_v around Z: a dense M_v Z would be a second copy
        Z, M = basis.Z, system.M_v
        return (lambda c: Z.T @ (M @ adjoint_of_weighted(M @ (Z @ c)))), basis.dim, None, None
    # where y already lies in the range of P, the full-space normal
    # operator H is M-symmetric with H = P H, hence H = P H P: it has the
    # top eigenvalue of the operator on range(P), and P y = y needs no solve
    lands_in_range = Wp is None and (op.bc.tag, basis.flavor) in _ADJOINT_IN_RANGE

    last = [None, None]  # the last matvec's (M_v y, y)

    def matvec(f):
        y = adjoint_of_weighted(system.M_v @ f)
        if not lands_in_range:
            y = basis.project(y)
        last[:] = system.M_v @ y, y
        return last[0]

    def solve_mass(b):
        # ARPACK mode 2 applies Minv to each matvec's output M_v y: hand
        # back the y it came from; any other load takes the cached M_v
        # factor (and without Minv, eigsh would factor M_v on every call)
        if last[0] is not None and np.array_equal(b, last[0]):
            return last[1]
        return _gram_solver(system, "L2")(b)

    Minv = spla.LinearOperator(system.M_v.shape, matvec=solve_mass, dtype=op.lam.dtype)
    return matvec, n_vel, system.M_v, Minv


def _dense_top_eigenvalue(matvec, dim, dtype, M=None):
    """Largest real part of an eigenvalue of the pencil (matvec, M),
    assembled densely column by column."""
    H = np.column_stack([matvec(e.astype(dtype)) for e in np.eye(dim)])
    if M is not None:
        H = np.linalg.solve(M.toarray(), H)
    return float(np.max(np.real(np.linalg.eigvals(H))))


def _power_iteration(matvec, dim, seed, dtype, M=None, Minv=None):
    """Largest eigenvalue of a Hermitian PSD operator of the given dtype by
    Ritz-accelerated power iteration (Lanczos) with a fixed seed start
    vector; with M (and its inverse Minv) the pencil (matvec, M).

    Plain power steps stall when the top of the spectrum is clustered;
    Rayleigh-Ritz extraction over the iterated subspace restores the
    1e-8 agreement with dense eigensolves. Returns (value, applications,
    converged).
    """
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    if dtype == np.complex128:
        v0 = v0 + 1j * rng.standard_normal(dim)
    count = [0]

    def counted(c):
        count[0] += 1
        return matvec(c)

    if dim <= 2:
        return _dense_top_eigenvalue(counted, dim, dtype, M), count[0], True
    op = spla.LinearOperator((dim, dim), matvec=counted, dtype=dtype)
    try:
        vals = spla.eigsh(
            op,
            k=1,
            M=M,
            Minv=Minv,
            which="LA",
            v0=v0,
            tol=POWER_TOL,
            maxiter=POWER_MAXIT,
            return_eigenvectors=False,
        )
        return float(np.real(vals[0])), count[0], True
    except spla.ArpackNoConvergence as exc:
        value = float(np.real(exc.eigenvalues[0])) if len(exc.eigenvalues) else 0.0
        return value, count[0], False


def operator_norm(
    output: str, basis, op: ResolventOperator, seed: int = 0
) -> OperatorNormResult:
    """Largest singular value of the map from the inputs `basis` to
    `output` at op's (system, bc, lam).

    `basis` is either an explicit SolenoidalBasis or an
    ImplicitSolenoidalProjector; the input is measured in its `norm`.
    """
    matvec, dim, M, Minv = _normal_operator(output, basis, op)
    nu, iters, ok = _power_iteration(matvec, dim, seed, op.lam.dtype, M, Minv)
    return OperatorNormResult(
        value=float(np.sqrt(max(nu, 0.0))), iterations=iters, converged=ok
    )


def dense_operator_norm(output: str, basis, op: ResolventOperator) -> float:
    """operator_norm's oracle: the same pencil assembled densely and
    solved by a dense eigendecomposition (small bases and meshes only)."""
    matvec, dim, M, _ = _normal_operator(output, basis, op)
    nu = _dense_top_eigenvalue(matvec, dim, op.lam.dtype, M)
    return float(np.sqrt(max(nu, 0.0)))


def fit_decay_exponent(samples) -> DecayFit:
    """Least-squares decay exponent of N(lam) ~ lam^(-alpha).

    `samples` is a list of (abs_lambda, N), already cut to the resolved
    window (SweepRecord.series). The fit needs at least 5 samples
    spanning at least 2 decades.
    """
    pts = [(float(a), float(n)) for a, n in samples if n > 0]
    if len(pts) < 5:
        raise NumericalError(f"only {len(pts)} usable samples; need at least 5")
    la = np.log10([a for a, _ in pts])
    ln = np.log10([n for _, n in pts])
    if la.max() - la.min() < FIT_MIN_DECADES:
        raise NumericalError(
            f"samples span {la.max() - la.min():.2f} decades; "
            f"need at least {FIT_MIN_DECADES:.0f}"
        )
    slope, intercept = np.polyfit(la, ln, 1)
    fitted = slope * la + intercept
    ss_res = float(np.sum((ln - fitted) ** 2))
    ss_tot = float(np.sum((ln - ln.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        alpha_hat=float(-slope),
        r2=float(r2),
        window_min=float(10 ** la.min()),
        window_max=float(10 ** la.max()),
        n_samples=len(pts),
    )
