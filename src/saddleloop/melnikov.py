"""First-order Melnikov functions on the period annuli.

For the normal-form family the first nonvanishing Melnikov function of
a quadratic perturbation reduces to

    M(t) = alpha*J_0(t) + beta*J_1(t) + gamma*J_{-1}(t),

with gamma = 0 forced at order one.  Its loop-end facts have exact
sources elsewhere: the loop value M(0) = alpha*J_0(0) + beta*J_1(0)
from ``abelian.jk_at_loop``, and the ln|t| and t*ln|t| terms of its
expansion from the Picard-Fuchs series (``picard_fuchs.fundamental``).

The zero count samples M on GRID_POINTS energies and refines every sign
change to one root with the lockstep Illinois search that the cycle
census uses (``lockstep.grid_roots``).  The grid and each Illinois
round are one ``triples_on_grid`` batch; M is written once, on a grid
triple's columns in ``values_on_grid``, and ``value`` is its one-energy
view.

Each quality fact is a field of its result:
``ZeroCount.converged`` (every quadrature of the grid and of the
Illinois rounds converged) and ``ZeroCount.grid_coarse`` (two zeros
within a few grid cells, so the grid may miss a pair between them).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (Annulus, Family, HamiltonianSpec, MelnikovCoeffs,
                    critical_data, require_finite)
from .abelian import QUAD_TOL, triples_on_grid
from .lockstep import grid_roots


class ZeroFunctionError(RuntimeError):
    """Raised when the function is identically zero and a zero count is
    therefore meaningless."""


def values_on_grid(spec: HamiltonianSpec, coeffs: MelnikovCoeffs,
                   annulus: Annulus, ts,
                   tol: float = QUAD_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(values, converged mask) of M over the grid: one
    ``triples_on_grid`` batch combined column by column."""
    tr = triples_on_grid(spec, annulus, ts, tol=tol)
    return (coeffs.alpha * tr.j0 + coeffs.beta * tr.j1 + coeffs.gamma * tr.jm1,
            tr.converged)


def value(spec: HamiltonianSpec, coeffs: MelnikovCoeffs, annulus: Annulus,
          t: float) -> float:
    """M at one energy: the one-energy view of ``values_on_grid``, whose
    mask says whether its quadrature converged."""
    return float(values_on_grid(spec, coeffs, annulus, [t])[0][0])


GRID_POINTS = 200   # samples of a zero-count grid


@dataclass(frozen=True)
class ZeroCount:
    count: int
    zeros: tuple[float, ...]
    grid_coarse: bool     # adjacent zeros closer than a few grid cells
    converged: bool       # every quadrature of the grid and the rounds


def _default_range(spec: HamiltonianSpec, annulus: Annulus) -> tuple[float, float]:
    t_center = critical_data(spec).center_of(annulus).energy
    if annulus is Annulus.SIGMA_PLUS:
        return t_center + 1e-3 * abs(t_center), -1e-6 * abs(t_center)
    return 1e-6 * t_center, t_center * (1.0 - 1e-3)


def _count_sign_changes(f, grid) -> ZeroCount:
    """Zeros of f on grid; f maps an array of points to their values
    and a converged mask, one batch for the grid and one per Illinois
    round."""
    vals, ok = f(grid)
    masks = [ok]
    # f is linear in its coefficients, so only exact zeros everywhere
    # mean f is zero: a small scale is no evidence
    if not vals.any():
        raise ZeroFunctionError("function is identically zero on the grid; "
                                "zero count is meaningless")

    def values(xs):
        vals, ok = f(xs)
        masks.append(ok)
        return vals

    zeros = grid_roots(values, grid, vals).tolist()
    step = abs(grid[1] - grid[0]) if len(grid) > 1 else 0.0
    coarse = any(z2 - z1 < 3.0 * step for z1, z2 in zip(zeros, zeros[1:]))
    return ZeroCount(count=len(zeros), zeros=tuple(zeros), grid_coarse=coarse,
                     converged=all(bool(m.all()) for m in masks))


def count_zeros(spec: HamiltonianSpec, coeffs: MelnikovCoeffs,
                annulus: Annulus, t_range=None) -> ZeroCount:
    """Zeros of M on the annulus: the exact zeros and sign changes of
    GRID_POINTS samples, each sign change refined to one root by the
    lockstep Illinois search of ``lockstep.grid_roots``.

    Counts isolated sign-crossing zeros only; no multiplicity claim.
    """
    if coeffs.all_zero:
        raise ZeroFunctionError("Melnikov coefficients are identically zero; "
                                "order insufficient")
    if t_range is None:
        t_range = _default_range(spec, annulus)
    lo, hi = float(t_range[0]), float(t_range[1])
    grid = np.linspace(lo, hi, GRID_POINTS)
    return _count_sign_changes(
        lambda ts: values_on_grid(spec, coeffs, annulus, ts), grid)


@dataclass(frozen=True)
class Classification:
    order_k: int
    regime: str
    max_cycles_from_loop: int
    max_cycles_from_annulus: int
    annulus_closure: str   # "closed" or "open"
    note: str

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
            return Classification(k, "M1(0) = 0", 2, 0, "open",
                                  "both cycles split off the loop")
        return Classification(k, "M1(0) != 0", 0, 1, "closed",
                              "single cycle from the closed annulus")
    if coeffs.gamma != 0.0:
        return Classification(k, "gamma != 0", 0, 2, "closed",
                              "log-dominated loop limit")
    if d0_is_zero:
        if coeffs.alpha == 0.0:
            # gamma = alpha = 0 forces M_k(0) = beta*J_1(0) != 0
            raise ValueError("d0_is_zero inconsistent: with gamma = alpha = 0 "
                             "the loop limit is beta*J_1(0) != 0")
        return Classification(k, "gamma = 0, M_k(0) = 0", 2, 0, "open",
                              "loop-dominated regime")
    if coeffs.alpha != 0.0:
        return Classification(k, "gamma = 0, alpha != 0, M_k(0) != 0",
                              0, 1, "closed",
                              "single cycle from the closed annulus")
    return Classification(k, "gamma = alpha = 0, beta != 0", 3, 0, "open",
                          "up to three cycles from the loop")


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


def appendix_count_zeros(spec: HamiltonianSpec, mu2: float,
                         h_range) -> ZeroCount:
    """Zero count of the appendix first-order function on an increasing
    h-window: ``count_zeros`` on the a = 1 normal form over the mapped
    t-window, with each zero mapped back to h."""
    if spec.family is not Family.APPENDIX_ELLIPSE:
        raise ValueError("defined for the appendix family")
    lo, hi = float(h_range[0]), float(h_range[1])
    if not (critical_data(spec).center0.energy < lo < hi < 0.0):
        raise ValueError("h range must lie inside (-4/3, 0)")
    zc = count_zeros(APPENDIX_NORMAL_FORM, appendix_coeffs(mu2),
                     Annulus.SIGMA_PLUS,
                     (APPENDIX_T_PER_H * lo, APPENDIX_T_PER_H * hi))
    return replace(zc, zeros=tuple(z / APPENDIX_T_PER_H for z in zc.zeros))
