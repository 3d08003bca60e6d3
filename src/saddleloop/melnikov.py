"""First-order Melnikov functions on the period annuli.

For the normal-form family the first nonvanishing Melnikov function of
a quadratic perturbation reduces to

    M(t) = alpha*J_0(t) + beta*J_1(t) + gamma*J_{-1}(t),

with gamma = 0 forced at order one.  Its loop-end facts have exact
sources elsewhere: the loop value M(0) = alpha*J_0(0) + beta*J_1(0)
from ``abelian.jk_at_loop``, and the ln|t| and t*ln|t| terms of its
expansion from the Picard-Fuchs series (``picard_fuchs.fundamental``).

The zero count samples M on ``centroid.default_grid``, or on a linear
grid over a given window, where the centroid sign stage
(``centroid.line_intersections``) decides its exact zeros, sign-change
cells and flags: M = J_0*(alpha + beta*xi + gamma*eta) with J_0 > 0.
Each cell is refined to one root with the census's lockstep Illinois
search (``lockstep.grid_roots``).  The grid and each Illinois round are
one ``triples_on_grid`` batch of J_0 and the J_k that M weights
(``weighted_ks``): a first-order form, gamma = 0, integrates no J_{-1}.
M is written once, on the columns its coefficients weight, in
``values_on_grid``, and ``value`` is its one-energy view.  Each quality
fact is a field of ``ZeroCount``; its ``converged`` covers exactly the
integrals M weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (APPENDIX_SPEC, Annulus, Family, HamiltonianSpec,
                    MelnikovCoeffs, critical_data, require_finite)
from .abelian import QUAD_TOL, triples_on_grid
from .centroid import CURVE_POINTS, curve_of, default_grid, line_intersections
from .lockstep import grid_roots


class ZeroFunctionError(RuntimeError):
    """Raised when the function is identically zero and a zero count is
    therefore meaningless."""


def weighted_ks(coeffs: MelnikovCoeffs) -> tuple[int, ...]:
    """k of the integrals M reads: J_0, which orients M, and each other
    J_k whose coefficient is nonzero."""
    return (0,) + tuple(k for k, c in ((1, coeffs.beta), (-1, coeffs.gamma))
                        if c != 0.0)


def values_on_grid(spec: HamiltonianSpec, coeffs: MelnikovCoeffs,
                   annulus: Annulus, ts,
                   tol: float = QUAD_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(values, converged mask) of M over the grid: one
    ``triples_on_grid`` batch of the integrals M weights, combined
    column by column (a zero coefficient's term, +-0, is left out)."""
    tr = triples_on_grid(spec, annulus, ts, tol=tol, ks=weighted_ks(coeffs))
    vals = coeffs.alpha * tr.j0
    for c, jk in ((coeffs.beta, tr.j1), (coeffs.gamma, tr.jm1)):
        if c != 0.0:
            vals = vals + c * jk
    return vals, tr.converged


def value(spec: HamiltonianSpec, coeffs: MelnikovCoeffs, annulus: Annulus,
          t: float) -> float:
    """M at one energy: the one-energy view of ``values_on_grid``, whose
    mask says whether its quadrature converged."""
    return float(values_on_grid(spec, coeffs, annulus, [t])[0][0])


@dataclass(frozen=True)
class ZeroCount:
    count: int
    zeros: tuple[float, ...]
    # either flag: the grid may have missed a pair of zeros
    grid_coarse: bool         # adjacent zeros within three grid cells
    tangency_suspected: bool  # a near-zero sample without a sign change
    converged: bool           # every weighted quadrature, grid and rounds


def count_zeros(spec: HamiltonianSpec, coeffs: MelnikovCoeffs,
                annulus: Annulus, t_range=None) -> ZeroCount:
    """Zeros of M on ``centroid.default_grid``, or on a linear grid over
    t_range: the exact zeros and sign-change cells that the sign stage
    finds on the grid's centroid curve, each cell refined to one root by
    the lockstep Illinois search of ``lockstep.grid_roots``.

    Counts isolated sign-crossing zeros only; no multiplicity claim.
    """
    if coeffs.all_zero:
        raise ZeroFunctionError("Melnikov coefficients are identically zero; "
                                "order insufficient")
    grid = (default_grid(spec, annulus) if t_range is None else
            np.linspace(float(t_range[0]), float(t_range[1]), CURVE_POINTS))
    tr = triples_on_grid(spec, annulus, grid, ks=weighted_ks(coeffs))
    curve = curve_of(spec, annulus, grid, tr)
    stage = line_intersections(curve, coeffs)
    if stage.contains_curve:
        raise ZeroFunctionError("function is identically zero on the grid; "
                                "zero count is meaningless")
    masks = [tr.converged]

    def values(ts):
        vals, ok = values_on_grid(spec, coeffs, annulus, ts)
        masks.append(ok)
        return vals

    # J_0 > 0: J_0*functional has the stage's signs and exact zeros
    zeros = grid_roots(values, grid, tr.j0 * curve.functional(coeffs))
    cell = np.interp(zeros, np.sort(grid), np.argsort(grid))
    return ZeroCount(count=zeros.size, zeros=tuple(zeros.tolist()),
                     grid_coarse=bool(np.any(np.abs(np.diff(cell)) < 3.0)),
                     tangency_suspected=stage.tangency_suspected,
                     converged=all(bool(m.all()) for m in masks))


@dataclass(frozen=True)
class Classification:
    order_k: int
    regime: str
    max_cycles_from_loop: int
    max_cycles_from_annulus: int
    annulus_closure: str   # "closed" or "open"

    def __str__(self) -> str:
        return (f"order k={self.order_k}, {self.regime}: "
                f"<= {self.max_cycles_from_loop} cycle(s) from the loop, "
                f"<= {self.max_cycles_from_annulus} from the "
                f"{self.annulus_closure} annulus")


def classify_cyclicity(coeffs: MelnikovCoeffs,
                       d0_is_zero: bool) -> Classification:
    """Cyclicity bounds keyed on (k, gamma, alpha, beta, M_k(0)).

    d0_is_zero states whether M_k vanishes in the loop limit; it is
    ignored when gamma != 0 since the function then diverges there.
    """
    if coeffs.all_zero:
        raise ZeroFunctionError("Melnikov function identically zero; "
                                "order insufficient to classify")
    k = coeffs.order_k
    if k == 1:
        if d0_is_zero:
            return Classification(k, "M1(0) = 0", 2, 0, "open")
        return Classification(k, "M1(0) != 0", 0, 1, "closed")
    if coeffs.gamma != 0.0:
        return Classification(k, "gamma != 0", 0, 2, "closed")
    if d0_is_zero:
        if coeffs.alpha == 0.0:
            # gamma = alpha = 0 forces M_k(0) = beta*J_1(0) != 0
            raise ValueError("d0_is_zero inconsistent: with gamma = alpha = 0 "
                             "the loop limit is beta*J_1(0) != 0")
        return Classification(k, "gamma = 0, M_k(0) = 0", 2, 0, "open")
    if coeffs.alpha != 0.0:
        return Classification(k, "gamma = 0, alpha != 0, M_k(0) != 0",
                              0, 1, "closed")
    return Classification(k, "gamma = alpha = 0, beta != 0", 3, 0, "open")


# The appendix family is the a = 1 normal form in another frame:
# H_app(x, y) = y*(x^2 + y^2/12 - 1) = (2/3)*H_1(y/2, -sqrt(3)*x), so its
# oval at energy h is the a = 1 SigmaPlus oval at t = APPENDIX_T_PER_H*h,
# where oint y dx = APPENDIX_Y_PER_J0*J_0(t) and oint y^2 dx =
# APPENDIX_Y2_PER_J1*J_1(t).
APPENDIX_NORMAL_FORM = HamiltonianSpec(family=Family.NORMAL_FORM, a=1.0)
APPENDIX_T_PER_H = 1.5
APPENDIX_Y_PER_J0 = -2.0 / math.sqrt(3.0)
APPENDIX_Y2_PER_J1 = -8.0 / math.sqrt(3.0)


def appendix_coeffs(mu2: float) -> MelnikovCoeffs:
    """(alpha, beta) of the appendix first-order function at a = 1.

    Along closed ovals the appendix perturbation one-form reduces to
    (16 + mu2) * oint y dx - pi*sqrt(3) * oint y^2 dx: the mu1 and c*x*y
    terms integrate to zero by closedness and x -> -x symmetry.  In the
    loop limit the value tends to -pi*sqrt(3)*mu2.
    """
    require_finite("mu2", mu2)
    return MelnikovCoeffs(alpha=(16.0 + mu2) * APPENDIX_Y_PER_J0,
                          beta=-math.pi * math.sqrt(3.0) * APPENDIX_Y2_PER_J1)


def appendix_count_zeros(mu2: float, h_range) -> ZeroCount:
    """Zero count of the appendix first-order function on an increasing
    h-window: ``count_zeros`` on the a = 1 normal form over the mapped
    t-window, with each zero mapped back to h."""
    lo, hi = float(h_range[0]), float(h_range[1])
    if not (critical_data(APPENDIX_SPEC).center0.energy < lo < hi < 0.0):
        raise ValueError("h range must lie inside (-4/3, 0)")
    zc = count_zeros(APPENDIX_NORMAL_FORM, appendix_coeffs(mu2),
                     Annulus.SIGMA_PLUS,
                     (APPENDIX_T_PER_H * lo, APPENDIX_T_PER_H * hi))
    return replace(zc, zeros=tuple(z / APPENDIX_T_PER_H for z in zc.zeros))
