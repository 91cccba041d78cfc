"""Manufactured resolvent solutions for convergence studies.

Each case carries callables for the exact velocity, pressure, gradient,
and the matching volume force f = lam u - Lap u + grad phi. Neumann cases
additionally carry the natural boundary data g = {Du + mu Du^T} n - phi n
per polygon face.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as smp

__all__ = [
    "ManufacturedCase",
    "dirichlet_square_case",
    "neumann_square_case",
    "l2_errors",
]

_X, _Y = smp.symbols("x y", real=True)


def _lambdify_vec(exprs):
    fns = [smp.lambdify((_X, _Y), e, "numpy") for e in exprs]

    def call(pts):
        pts = np.asarray(pts)
        cols = [np.broadcast_to(f(pts[:, 0], pts[:, 1]), (len(pts),)) for f in fns]
        return np.stack(cols, axis=1).astype(complex)

    return call


def _lambdify_scalar(expr):
    f = smp.lambdify((_X, _Y), expr, "numpy")

    def call(pts):
        pts = np.asarray(pts)
        return np.broadcast_to(f(pts[:, 0], pts[:, 1]), (len(pts),)).astype(complex)

    return call


@dataclass(frozen=True)
class ManufacturedCase:
    name: str
    lam: complex
    mu: float
    u: object  # (n,2) -> (n,2)
    phi: object  # (n,2) -> (n,)
    grad_u: object  # (n,2) -> (n,2,2), grad_u[:,a,b] = d u_a / d x_b
    f: object  # volume force
    g: object | None = None  # (pts, face_id) -> (n,2), Neumann data


def _build_case(name, u_expr, phi_expr, lam, mu, polygon=None):
    grad = [[smp.diff(u_expr[a], v) for v in (_X, _Y)] for a in range(2)]
    lap = [smp.diff(u_expr[a], _X, 2) + smp.diff(u_expr[a], _Y, 2) for a in range(2)]
    f_expr = [
        lam * u_expr[a] - lap[a] + smp.diff(phi_expr, (_X, _Y)[a]) for a in range(2)
    ]
    grad_fns = [[smp.lambdify((_X, _Y), grad[a][b], "numpy") for b in range(2)] for a in range(2)]

    def grad_u(pts):
        pts = np.asarray(pts)
        out = np.empty((len(pts), 2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                out[:, a, b] = np.broadcast_to(
                    grad_fns[a][b](pts[:, 0], pts[:, 1]), (len(pts),)
                )
        return out

    g = None
    if polygon is not None:
        phi_fn = _lambdify_scalar(phi_expr)

        def g(pts, face_id):
            n = polygon.faces[face_id].normal
            G = grad_u(pts)
            traction = G @ n + mu * np.einsum("nba,b->na", G, n)
            return traction - phi_fn(pts)[:, None] * n

    return ManufacturedCase(
        name=name,
        lam=complex(lam),
        mu=mu,
        u=_lambdify_vec(u_expr),
        phi=_lambdify_scalar(phi_expr),
        grad_u=grad_u,
        f=_lambdify_vec(f_expr),
        g=g,
    )


def dirichlet_square_case(lam=1 + 1j) -> ManufacturedCase:
    """Solenoidal stream-function field vanishing to first order on the
    boundary of the unit square, with a cubic mean-zero pressure."""
    psi = _X**2 * (1 - _X) ** 2 * _Y**2 * (1 - _Y) ** 2
    u = [smp.diff(psi, _Y), -smp.diff(psi, _X)]
    phi = _X**3 + _Y**3 - smp.Rational(1, 2)
    return _build_case("dirichlet_square", u, phi, lam, mu=0.0)


def neumann_square_case(lam=1 + 1j, mu=0.3, polygon=None) -> ManufacturedCase:
    """Divergence-free trigonometric field with nonzero natural boundary
    data on the unit square."""
    if polygon is None:
        from .geometry import unit_square

        polygon = unit_square()
    u = [smp.sin(smp.pi * _Y), smp.sin(smp.pi * _X)]
    phi = smp.cos(smp.pi * _X) * smp.cos(smp.pi * _Y)
    return _build_case("neumann_square", u, phi, lam, mu, polygon=polygon)


def l2_errors(space, sol, case: ManufacturedCase, gauge_pressure: bool):
    """L2 errors (velocity, pressure) of a resolvent solution against the
    exact fields of `case`. With `gauge_pressure` (no-slip pressures are
    fixed only up to a constant) the discrete pressure is first shifted
    to the quadrature mean of the exact one."""
    phys, wts = space.quad_data(8)[0], space.quad_data(8)[1]
    uv, _, _ = space.velocity_at_quad(sol.u)
    pv, _, _ = space.pressure_at_quad(sol.phi)
    flat = phys.reshape(-1, 2)
    ue = case.u(flat).reshape(phys.shape[0], phys.shape[1], 2)
    pe = case.phi(flat).reshape(phys.shape[0], phys.shape[1])
    if gauge_pressure:
        pv = pv - (np.sum(wts * pv) - np.sum(wts * pe)) / np.sum(wts)
    eu = np.sqrt(np.sum(wts[..., None] * np.abs(uv - ue) ** 2))
    ep = np.sqrt(np.sum(wts * np.abs(pv - pe) ** 2))
    return float(eu), float(ep)
