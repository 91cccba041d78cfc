"""Manufactured resolvent solutions for convergence studies.

Each case lives on the unit square and carries callables for the exact
velocity, pressure, gradient, the matching volume force
f = lam u - Lap u + grad phi, and the natural boundary data
g = {Du + mu Du^T} n - phi n per face, which Neumann studies load.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as smp

from .geometry import unit_square

__all__ = [
    "ManufacturedCase",
    "field_callables",
    "dirichlet_square_case",
    "neumann_square_case",
    "l2_errors",
]

_X, _Y = smp.symbols("x y", real=True)


def field_callables(exprs, symbols):
    """Complex pointwise callables of the sympy field `exprs` in the two
    `symbols`: values (n,2) -> (n,k) and the Jacobian (n,2) -> (n,k,2),
    J[:, a, b] = d exprs[a] / d symbols[b]."""
    jac = [smp.diff(e, s) for e in exprs for s in symbols]
    k = len(exprs)
    return _pointwise(exprs, symbols, (k,)), _pointwise(jac, symbols, (k, 2))


def _pointwise(exprs, symbols, shape):
    """(n,2) points -> the complex values of `exprs`, laid out in `shape`
    at each point."""
    fn = smp.lambdify(symbols, list(exprs), "numpy")

    def call(pts):
        pts = np.asarray(pts)
        cols = [np.broadcast_to(c, pts.shape[:1]) for c in fn(pts[:, 0], pts[:, 1])]
        return np.stack(cols, axis=-1).astype(complex).reshape(pts.shape[:1] + shape)

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
    g: object  # (pts, face_id) -> (n,2), natural boundary data


def _build_case(name, u_expr, phi_expr, lam, mu):
    lap = [smp.diff(u_expr[a], _X, 2) + smp.diff(u_expr[a], _Y, 2) for a in range(2)]
    f_expr = [
        lam * u_expr[a] - lap[a] + smp.diff(phi_expr, (_X, _Y)[a]) for a in range(2)
    ]
    u, grad_u = field_callables(u_expr, (_X, _Y))
    phi = _pointwise([phi_expr], (_X, _Y), ())
    faces = unit_square().faces

    def g(pts, face_id):
        n = faces[face_id].normal
        G = grad_u(pts)
        traction = G @ n + mu * np.einsum("nba,b->na", G, n)
        return traction - phi(pts)[:, None] * n

    return ManufacturedCase(
        name=name,
        lam=complex(lam),
        mu=mu,
        u=u,
        phi=phi,
        grad_u=grad_u,
        f=_pointwise(f_expr, (_X, _Y), (2,)),
        g=g,
    )


def dirichlet_square_case(lam=1 + 1j) -> ManufacturedCase:
    """Solenoidal stream-function field vanishing to first order on the
    boundary of the unit square, with a cubic mean-zero pressure."""
    psi = _X**2 * (1 - _X) ** 2 * _Y**2 * (1 - _Y) ** 2
    u = [smp.diff(psi, _Y), -smp.diff(psi, _X)]
    phi = _X**3 + _Y**3 - smp.Rational(1, 2)
    return _build_case("dirichlet_square", u, phi, lam, mu=0.0)


def neumann_square_case(mu=0.3) -> ManufacturedCase:
    """Divergence-free trigonometric field with nonzero natural boundary
    data on the unit square, at lam = 1 + 1j."""
    u = [smp.sin(smp.pi * _Y), smp.sin(smp.pi * _X)]
    phi = smp.cos(smp.pi * _X) * smp.cos(smp.pi * _Y)
    return _build_case("neumann_square", u, phi, 1 + 1j, mu)


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
