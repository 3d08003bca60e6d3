"""Oval slices of the period annuli and transversal sections.

Normal-form level sets solve to y^2(x, t) = t/x + r(x) with
r(x) = -a*x^2 + 3*(a-1)*x - 3*(a-2); each oval is a graph over an
x-interval [x_lo, x_hi].  The appendix-family ovals are graphs over y
instead: x^2(y, h) = h/y + 1 - y^2/12.  Either way the defining cubic
c(u) = u * branch^2(u) factors as

    c(u) = lead * (u - u_lo) * (u - u_hi) * (u - u3),

so branch^2(u) = (u - u_lo)*(u_hi - u)*phi(u) with phi analytic and
positive on the span; quadrature downstream removes the endpoint sqrt
singularity with u = mid + halfwidth*sin(theta).

Endpoints are bracketed by construction (the cubic has exactly one root
in each bracket), refined with brentq and polished with two Newton steps
to ~1e-14 relative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .model import Annulus, Family, HamiltonianSpec, critical_data


# samples on which section_segment checks that the energy chart is monotone
CHART_CHECK_POINTS = 100


class OvalRangeError(ValueError):
    """Energy outside the requested annulus."""


class BracketingError(RuntimeError):
    """Sign-change bracket not found where the structure guarantees one."""


def r_eval(a: float, x):
    """r(x) = -a*x^2 + 3*(a-1)*x - 3*(a-2)."""
    return -a * x * x + 3.0 * (a - 1.0) * x - 3.0 * (a - 2.0)


def r_prime(a: float, x):
    return -2.0 * a * x + 3.0 * (a - 1.0)


def _r_roots(a: float) -> list[float]:
    """Both real roots of r(x) for a != 0, polished to machine precision."""
    disc = 9.0 * (a - 1.0) ** 2 - 12.0 * a * (a - 2.0)
    if disc < 0.0:
        raise OvalRangeError(f"r(x) has no real roots for a={a}")
    sq = math.sqrt(disc)
    roots = []
    for x in ((3.0 * (a - 1.0) + sq) / (2.0 * a),
              (3.0 * (a - 1.0) - sq) / (2.0 * a)):
        for _ in range(2):
            x -= r_eval(a, x) / r_prime(a, x)
        roots.append(x)
    return roots


def x1_loop_root(a: float) -> float:
    """Smaller positive root of r(x); right corner of the loop on y=0."""
    if a == 0.0:
        return 2.0
    pos = sorted(x for x in _r_roots(a) if x > 0.0)
    if not pos:
        raise OvalRangeError(f"r(x) has no positive root for a={a}")
    return pos[0]


def x_ell_left(a: float) -> float:
    """Negative root of r(x) (left corner of the ellipse), a in (0, 2)."""
    neg = [x for x in _r_roots(a) if x < 0.0]
    if not neg:
        raise OvalRangeError(f"r(x) has no negative root for a={a}")
    return neg[0]


@dataclass(frozen=True)
class OvalSlice:
    """One closed oval, as a graph over its projection interval.

    axis 'x' (normal form): branch_sq(x) = y^2 = t/x + r(x).
    axis 'y' (appendix):    branch_sq(y) = x^2 = t/y + 1 - y^2/12.
    ``third_root`` is the remaining root of the defining cubic; the
    factored weight is branch_sq(u) = (u-lo)*(hi-u)*phi(u).
    """

    spec: HamiltonianSpec
    annulus: Annulus
    t: float
    lo: float
    hi: float
    axis: str
    third_root: float
    degenerate: bool = False

    def branch_sq(self, u):
        if self.spec.family is Family.NORMAL_FORM:
            return self.t / u + r_eval(self.spec.a, u)
        return self.t / u + 1.0 - u * u / 12.0

    def phi(self, u):
        """branch_sq(u) / ((u - lo)*(hi - u)); analytic, > 0 on the span."""
        if self.spec.family is Family.NORMAL_FORM:
            a = self.spec.a
            if a == 0.0:
                return 3.0 / u
            return a * (u - self.third_root) / u
        return (u - self.third_root) / (12.0 * u)

    def phi_prime(self, u):
        if self.spec.family is Family.NORMAL_FORM:
            a = self.spec.a
            if a == 0.0:
                return -3.0 / (u * u)
            return a * self.third_root / (u * u)
        return self.third_root / (12.0 * u * u)


def _cubic(spec: HamiltonianSpec, t: float):
    """Defining cubic c(u) = u*branch_sq(u) and its derivative."""
    if spec.family is Family.NORMAL_FORM:
        a = spec.a

        def c(u):
            return t + u * r_eval(a, u)

        def cp(u):
            return -3.0 * a * u * u + 6.0 * (a - 1.0) * u - 3.0 * (a - 2.0)

    else:

        def c(u):
            return -(u**3) / 12.0 + u + t

        def cp(u):
            return -u * u / 4.0 + 1.0

    return c, cp


def _refine_root(c, cp, lo: float, hi: float) -> float:
    flo, fhi = c(lo), c(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketingError(
            f"no sign change on [{lo!r}, {hi!r}]: c(lo)={flo!r}, c(hi)={fhi!r}"
        )
    u = brentq(c, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    for _ in range(2):
        d = cp(u)
        if d == 0.0:
            break
        step = c(u) / d
        # Newton polish confined to the bracket
        if lo <= u - step <= hi or abs(step) < 1e-8 * (abs(u) + 1e-300):
            u = u - step
    return u


def _slice_bounds(spec: HamiltonianSpec, annulus: Annulus, t: float):
    """Brackets for the two endpoints plus the degenerate-point handling."""
    crit = critical_data(spec)
    if spec.family is Family.APPENDIX_ELLIPSE:
        if annulus is not Annulus.SIGMA_PLUS:
            raise OvalRangeError("appendix family has only the SIGMA_PLUS annulus")
        h0 = -4.0 / 3.0
        if not (h0 < t < 0.0):
            raise OvalRangeError(
                f"appendix annulus requires t in ({h0}, 0), got t={t!r}"
            )
        ytop = math.sqrt(12.0)
        yleft = min(1.0, abs(t) / 2.0)
        return (yleft, 2.0), (2.0, ytop), None

    a = spec.a
    if annulus is Annulus.SIGMA_PLUS:
        t0 = a - 3.0
        if not (t0 < t < 0.0):
            raise OvalRangeError(
                f"SigmaPlus requires t in ({t0}, 0) for a={a}, got t={t!r}"
            )
        x1 = x1_loop_root(a)
        rmax = max(abs(r_eval(a, 0.0)), abs(r_eval(a, 1.0)))
        if a != 0.0:
            xv = 1.5 * (a - 1.0) / a  # vertex of r
            if 0.0 < xv < 1.0:
                rmax = max(rmax, abs(r_eval(a, xv)))
        xleft = min(0.5, abs(t) / (rmax + 1.0))
        return (xleft, 1.0), (1.0, x1 * (1.0 + 1e-9) + 1e-12), None

    # SIGMA_MINUS
    if not (0.0 < a < 2.0):
        raise OvalRangeError(f"SigmaMinus exists only for a in (0, 2), got a={a}")
    t1 = crit.center1.energy
    if not (0.0 < t <= t1):
        raise OvalRangeError(
            f"SigmaMinus requires t in (0, {t1}] for a={a}, got t={t!r}"
        )
    xc = crit.center1.xy[0]
    if t == t1:
        return None, None, xc  # degenerate point
    xl = x_ell_left(a)
    rmax = max(abs(r_eval(a, xc)), abs(r_eval(a, 0.0)))
    xv = 1.5 * (a - 1.0) / a  # vertex of r; concave, so interior max
    if xc < xv < 0.0:
        rmax = max(rmax, abs(r_eval(a, xv)))
    xright = -min(abs(xc) / 2.0, t / (rmax + 1.0))
    return (xl * (1.0 + 1e-9) - 1e-12, xc), (xc, xright), None


def slice_oval(spec: HamiltonianSpec, annulus: Annulus, t: float) -> OvalSlice:
    """Slice the period annulus at energy t.

    SigmaPlus rejects the center energy exactly (open endpoint);
    SigmaMinus accepts t = t1 and returns the degenerate point slice.
    """
    br_lo, br_hi, degen = _slice_bounds(spec, annulus, t)
    axis = "y" if spec.family is Family.APPENDIX_ELLIPSE else "x"
    if degen is not None:
        return OvalSlice(spec, annulus, t, degen, degen, axis, 0.0, degenerate=True)
    c, cp = _cubic(spec, t)
    lo = _refine_root(c, cp, *br_lo)
    hi = _refine_root(c, cp, *br_hi)
    if spec.family is Family.NORMAL_FORM:
        a = spec.a
        # Vieta: root sum of -a x^3 + 3(a-1) x^2 - 3(a-2) x + t
        third = 3.0 * (a - 1.0) / a - lo - hi if a != 0.0 else math.inf
    else:
        third = -(lo + hi)  # root sum of -y^3/12 + y + t is zero
    sl = OvalSlice(spec, annulus, t, lo, hi, axis, third)
    if annulus is Annulus.SIGMA_MINUS and not (hi < 0.0):
        raise OvalRangeError(
            f"SigmaMinus slice not in x<0 (x_hi={hi!r}); oval selection bug"
        )
    return sl


@dataclass(frozen=True)
class SectionSegment:
    """Transversal segment crossing every oval of an annulus once.

    Parameterized by the coordinate ``s`` along the section axis; the
    energy chart s -> H(point(s)) is strictly monotone.  ``direction``
    is the sign of the crossing speed of the transverse coordinate.
    """

    spec: HamiltonianSpec
    annulus: Annulus
    s_center: float  # parameter at the center (degenerate) end
    s_loop: float  # parameter at the loop end (energy 0)
    margin: float  # allowed overshoot past the loop end
    axis: str  # 'x': section on y=0; 'y': section on x=0
    direction: int

    def point(self, s: float) -> tuple[float, float]:
        return (s, 0.0) if self.axis == "x" else (0.0, s)

    def energy(self, s: float) -> float:
        return self.spec.eval_H(*self.point(s))

    def s_bounds(self) -> tuple[float, float]:
        lo = min(self.s_center, self.s_loop)
        hi = max(self.s_center, self.s_loop)
        if self.s_loop >= self.s_center:
            hi += self.margin
        else:
            lo -= self.margin
        return lo, hi

    def contains(self, s: float) -> bool:
        lo, hi = self.s_bounds()
        return lo <= s <= hi

    def coord_for_energy(self, t: float) -> float:
        """Invert the energy chart on the segment (without the margin)."""
        a, b = sorted((self.s_center, self.s_loop))
        fa = self.energy(a) - t
        fb = self.energy(b) - t
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if fa * fb > 0.0:
            raise OvalRangeError(f"energy {t!r} not attained on the section")
        return brentq(lambda s: self.energy(s) - t, a, b, xtol=1e-15, rtol=8.9e-16)


def section_segment(
    spec: HamiltonianSpec,
    annulus: Annulus = Annulus.SIGMA_PLUS,
    margin: float = 0.0,
) -> SectionSegment:
    """Build the annulus section and check the energy chart is monotone.

    Normal form, SigmaPlus: {(x, 0): 1 <= x < x1}; SigmaMinus:
    {(x, 0): x_left < x <= (a-2)/a}.  Appendix: {(0, y): 0 < y <= 2}.
    ``margin`` extends the segment past the loop end (used by censuses
    that must catch cycles straddling the unperturbed loop).
    """
    crit = critical_data(spec)
    if spec.family is Family.APPENDIX_ELLIPSE:
        if annulus is not Annulus.SIGMA_PLUS:
            raise OvalRangeError("appendix family has only the SIGMA_PLUS annulus")
        seg = SectionSegment(spec, annulus, 2.0, 0.0, margin, "y", -1)
    elif annulus is Annulus.SIGMA_PLUS:
        if not spec.two_saddle_loop:
            raise OvalRangeError(
                f"no two-saddle loop for a={spec.a}; SigmaPlus section undefined"
            )
        seg = SectionSegment(spec, annulus, 1.0, x1_loop_root(spec.a), margin, "x", -1)
    else:
        if crit.center1 is None:
            raise OvalRangeError(f"SigmaMinus exists only for a in (0, 2), a={spec.a}")
        seg = SectionSegment(
            spec, annulus, crit.center1.xy[0], x_ell_left(spec.a), margin, "x", -1
        )
    ss = np.linspace(seg.s_center, seg.s_loop, CHART_CHECK_POINTS)
    hs = np.array([seg.energy(s) for s in ss])
    dh = np.diff(hs)
    if not (np.all(dh > 0.0) or np.all(dh < 0.0)):
        raise OvalRangeError("energy chart not monotone along the section")
    return seg
