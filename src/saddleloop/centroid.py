"""Centroid curves of the period annuli and their line intersections.

Each annulus maps to a planar curve (xi(t), eta(t)) = (J_1/J_0, J_-1/J_0).
The plus curve starts at (1,1) at the center energy, has xi strictly
decreasing and eta strictly increasing, is convex, and runs off to a
vertical asymptote as t -> -0.  The minus curve (present for a in (0,2))
ends at ((a-2)/a, a/(a-2)), is concave, with its own vertical asymptote.
Each asymptote is xi(0) = J_1(0)/J_0(0), whose values come from the
loop-limit quadratures of ``abelian.jk_at_loop``.
A line alpha + beta*xi + gamma*eta = 0 meets either curve at most twice,
which is what ties zero counts of Melnikov functions to cycle counts.

Intersections are counted in the t-parameterization: sign changes of the
affine functional along the samples, which is exact for monotone curves
and avoids 2-D clipping predicates.  ``line_intersections`` is the sign
stage of both counters: ``melnikov.count_zeros`` runs it too, on
``default_grid`` by default.  What a count cannot certify is a field of
its result, never a warning: ``tangency_suspected`` (a possible
even-multiplicity contact the count leaves out) and ``contains_curve``
(the line holds the whole curve, so the count of 0 means nothing).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Annulus, HamiltonianSpec, MelnikovCoeffs, critical_data
from .abelian import QUAD_TOL, triples_on_grid
from .lockstep import sign_changes

# samples of every centroid curve and zero-count grid
CURVE_POINTS = 200
# relative distance of the default grid from the center and loop energies
CENTER_MARGIN = 1e-5
LOOP_MARGIN = 1e-6
# relative band around zero in which a non-crossing sample flags tangency
TANGENCY_BAND = 1e-8
# samples nearest the center that endpoint_extrapolated extrapolates from
EXTRAPOLATION_POINTS = 4


@dataclass(frozen=True, eq=False)
class CentroidCurve:
    """Samples of (xi, eta) at energies ts, and the largest magnitude of
    each over them; a coordinate whose integral the grid left out is
    None, and so is its largest magnitude."""

    ts: np.ndarray
    xi: np.ndarray | None
    eta: np.ndarray | None
    t_center: float
    converged: bool
    xi_max: float | None = field(init=False)
    eta_max: float | None = field(init=False)

    def __post_init__(self):
        for name, v in (("xi_max", self.xi), ("eta_max", self.eta)):
            object.__setattr__(self, name,
                               None if v is None else np.max(np.abs(v)))

    def __len__(self) -> int:
        return len(self.ts)

    def functional(self, coeffs: MelnikovCoeffs) -> np.ndarray:
        """alpha + beta*xi + gamma*eta, reading only the coordinates
        whose coefficient is nonzero (a zero coefficient's term is +-0)."""
        g = np.full(len(self.ts), coeffs.alpha, dtype=float)
        for c, v in ((coeffs.beta, self.xi), (coeffs.gamma, self.eta)):
            if c != 0.0:
                g = g + c * v
        return g

    def endpoint_extrapolated(self) -> tuple[float, float]:
        """Richardson (polynomial) extrapolation of the
        EXTRAPOLATION_POINTS samples at the grid end nearer the center
        energy, for checking against the analytic endpoint."""
        n_points = EXTRAPOLATION_POINTS
        if len(self.ts) < n_points:
            raise ValueError("not enough samples to extrapolate")
        if abs(self.ts[0] - self.t_center) < abs(self.ts[-1] - self.t_center):
            end = slice(None, n_points)
        else:
            end = slice(-n_points, None)
        ts = self.ts[end]
        out = []
        for arr in (self.xi, self.eta):
            # Neville tableau evaluated at t = t_center
            w = arr[end].astype(float).copy()
            for level in range(1, n_points):
                for i in range(n_points - level):
                    num = ((self.t_center - ts[i]) * w[i + 1]
                           - (self.t_center - ts[i + level]) * w[i])
                    w[i] = num / (ts[i + level] - ts[i])
            out.append(float(w[0]))
        return out[0], out[1]


def center_endpoint(spec: HamiltonianSpec, annulus: Annulus) -> tuple[float, float]:
    """Analytic centroid limit at the center energy: (x_c, 1/x_c) for
    the center (x_c, 0)."""
    xc = critical_data(spec).center_of(annulus).xy[0]
    return xc, 1.0 / xc


def default_grid(spec: HamiltonianSpec, annulus: Annulus,
                 n: int = CURVE_POINTS) -> np.ndarray:
    """Samples clustered toward the center endpoint (cosine map), with
    relative margins off both singular ends."""
    if n < 4:
        raise ValueError("need at least 4 samples")
    t_center = critical_data(spec).center_of(annulus).energy
    t_loop = LOOP_MARGIN * t_center
    v0 = 2.0 / math.pi * math.sqrt(CENTER_MARGIN)
    v = np.linspace(v0, 1.0, n)
    s = 0.5 * (1.0 - np.cos(math.pi * v))
    ts = t_center + s * (t_loop - t_center)
    return np.sort(ts)


def sample_curve(spec: HamiltonianSpec, annulus: Annulus,
                 n: int = CURVE_POINTS,
                 tol: float = QUAD_TOL) -> CentroidCurve:
    """Sample the centroid curve on default_grid(n)."""
    t_grid = default_grid(spec, annulus, n=n)
    return curve_of(spec, annulus, t_grid,
                    triples_on_grid(spec, annulus, t_grid, tol=tol))


def curve_of(spec: HamiltonianSpec, annulus: Annulus, ts, tr) -> CentroidCurve:
    """The centroid curve at energies ts, from their grid triple tr."""
    xi, eta = (None if jk is None else jk / tr.j0 for jk in (tr.j1, tr.jm1))
    return CentroidCurve(
        ts=ts, xi=xi, eta=eta,
        t_center=critical_data(spec).center_of(annulus).energy,
        converged=bool(tr.converged.all()))


@dataclass(frozen=True)
class ShapeReport:
    first_violation: str | None     # None when the curve has the shape

    @property
    def passed(self) -> bool:
        return self.first_violation is None


def verify_shape(curve: CentroidCurve) -> ShapeReport:
    """The first of: xi not decreasing, eta not increasing, the
    curvature sign not constant or not the annulus's."""
    if len(curve) < 20:
        raise ValueError("shape verification needs at least 20 samples")
    dxi = np.diff(curve.xi)
    deta = np.diff(curve.eta)
    # Cross product of consecutive secants along increasing t: negative
    # on the plus curve (xi falls, eta rises, convex toward the
    # asymptote), positive on the minus curve; the sign of the center
    # energy either way.  Checked numerically in tests.
    signs = np.sign(dxi[:-1] * deta[1:] - deta[:-1] * dxi[1:])
    expected = int(np.sign(curve.t_center))
    if not np.all(dxi < 0.0):
        violation = f"xi not decreasing at index {int(np.argmax(dxi >= 0.0))}"
    elif not np.all(deta > 0.0):
        violation = f"eta not increasing at index {int(np.argmax(deta <= 0.0))}"
    elif not np.all(signs == signs[0]) or signs[0] == 0.0:
        violation = "curvature sign not constant"
    elif signs[0] != expected:
        violation = f"curvature sign {int(signs[0])}, expected {expected}"
    else:
        violation = None
    return ShapeReport(violation)


@dataclass(frozen=True)
class LineIntersections:
    count: int
    tangency_suspected: bool    # a near-zero sample without a sign change
    contains_curve: bool        # the functional vanishes on every sample


def line_intersections(curve: CentroidCurve,
                       coeffs: MelnikovCoeffs) -> LineIntersections:
    """Count crossings of alpha + beta*xi + gamma*eta = 0 with the curve:
    the sign stage of both counters.

    The exact zeros and sign-change cells of the functional along t
    (``lockstep.sign_changes``); values inside TANGENCY_BAND that do not
    produce a sign change raise the tangency flag (multiplicity is not
    certified).
    """
    if coeffs.all_zero:
        raise ValueError("line coefficients are all zero")
    g = curve.functional(coeffs)
    scale = abs(coeffs.alpha)
    for c, v_max in ((coeffs.beta, curve.xi_max), (coeffs.gamma, curve.eta_max)):
        if c != 0.0:
            scale = scale + abs(c) * v_max
    if np.max(np.abs(g)) < 1e-13 * max(scale, 1e-300):
        return LineIntersections(0, False, True)
    zeros, cells = sign_changes(g)
    # a sample's neighbours, each end standing in for its missing one
    side = np.concatenate([g[:1], g, g[-1:]])
    tangent = bool(np.any((np.abs(g) < TANGENCY_BAND * scale) & (g != 0.0)
                          & (side[:-2] * side[2:] > 0.0)))
    return LineIntersections(count=zeros.size + cells.size,
                             tangency_suspected=tangent, contains_curve=False)
