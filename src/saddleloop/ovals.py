"""Oval slices of the period annuli and transversal sections.

Every oval H = t is a graph over an interval [u_lo, u_hi] of the slice
axis u (x for the normal form, y for the appendix family):

    branch^2(u) = t/u + r(u),   r(u) = r2*u^2 + r1*u + r0,

with the family's quadratic r from ``HamiltonianSpec.slice_r``
(normal form: y^2 = t/x - a*x^2 + 3*(a-1)*x - 3*(a-2); appendix:
x^2 = t/y + 1 - y^2/12).  The defining cubic c(u) = u * branch^2(u)
factors as

    c(u) = r2 * (u - u_lo) * (u - u_hi) * (u - u3),

so branch^2(u) = (u - u_lo)*(u_hi - u)*phi(u) with phi analytic and
positive on the span (when r2 == 0, c is a quadratic and u3 = inf);
quadrature downstream removes the endpoint sqrt singularity with
u = mid + halfwidth*sin(theta).

Endpoints are bracketed on either side of the annulus's center u_c:
one from the singular line u = 0, where c(u) = t, one out to the root
of r beyond u_c (``model.slice_span``); the cubic has exactly one root
in each bracket.  ``slice_grid`` solves the endpoints of a whole energy
grid together (``_roots``): each starts from the cubic's closed-form
root in w = 1/(u - u_c), takes two Newton steps, and is kept where the
cubic changes sign within its rounding bound; the few that fail go to
one lockstep Illinois search (``lockstep.illinois``) on their brackets.
``slice_oval`` is its one-energy view.  Sections come from
``model.section_ends`` and lie on the slice axis, so a section point is
a slice endpoint: ``SectionSegment.coord_for_energy`` reads it off.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lockstep import illinois
from .model import (Annulus, HamiltonianSpec, OvalRangeError, critical_data,
                    section_ends, slice_span)


# samples on which section_segment checks that the energy chart is monotone
CHART_CHECK_POINTS = 100
# sign of the crossing speed of every section's transverse coordinate
SECTION_DIRECTION = -1


class BracketingError(RuntimeError):
    """Sign-change bracket not found where the structure guarantees one."""


def phi(r, third_root, u):
    """branch_sq(u) / ((u - lo)*(hi - u)) of the slice whose cubic has
    the remaining root ``third_root``; analytic, > 0 on the span.
    Elementwise in u and third_root."""
    r2 = r[2]
    if r2 == 0.0:
        return -r[1] / u
    return -r2 * (u - third_root) / u


def phi_prime(r, third_root, u):
    r2 = r[2]
    if r2 == 0.0:
        return r[1] / (u * u)
    return -r2 * third_root / (u * u)


@dataclass(frozen=True)
class OvalSlice:
    """One closed oval, as a graph over its projection interval [lo, hi]
    on the slice axis (``spec.slice_axis``): branch_sq(u) = t/u + r(u),
    with ``r`` = (r0, r1, r2) from ``HamiltonianSpec.slice_r``.
    ``third_root`` is the remaining root of the defining cubic; the
    factored weight is branch_sq(u) = (u-lo)*(hi-u)*phi(r, third_root, u),
    with ``phi`` and ``phi_prime`` the module's functions.

    ``slice_grid`` returns the slices of a whole energy grid as one
    OvalSlice whose t, lo, hi and third_root are arrays.
    """

    spec: HamiltonianSpec
    t: float
    lo: float
    hi: float
    r: tuple[float, float, float]
    third_root: float


def _cubic(r, t):
    """Defining cubic c(u) = u*branch_sq(u) and its derivative."""
    r0, r1, r2 = r

    def c(u):
        return t + u * (r2 * u * u + r1 * u + r0)

    def cp(u):
        return 3.0 * r2 * u * u + 2.0 * r1 * u + r0

    return c, cp


def _polish(c, cp, u, lo, hi):
    """Two Newton steps on c from u, each taken only if it stays in the
    bracket [lo, hi] or is tiny."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            d = cp(u)
            step = c(u) / d
            take = (d != 0.0) & (
                ((lo <= u - step) & (u - step <= hi))
                | (np.abs(step) < 1e-8 * (np.abs(u) + 1e-300)))
            u = np.where(take, u - step, u)
    return u


def _refine_roots(r, t, lo, hi):
    """The cubic's root in every bracket [lo[i], hi[i]] at energy t[i]:
    one lockstep Illinois pass, then the Newton polish.  An end where the
    cubic vanishes exactly is the root.  The slow path of ``_roots``."""
    c, cp = _cubic(r, t)
    flo, fhi = c(lo), c(hi)
    bad = flo * fhi > 0.0
    if bad.any():
        i = int(np.argmax(bad))
        raise BracketingError(
            f"no sign change on [{float(lo[i])!r}, {float(hi[i])!r}]: "
            f"c(lo)={float(flo[i])!r}, c(hi)={float(fhi[i])!r}")
    u = illinois(lambda i, x: _cubic(r, t[i])[0](x), lo, hi, flo, fhi,
                 1e-300, 8.9e-16)
    exact = (flo == 0.0) | (fhi == 0.0)
    return np.where(exact, u, _polish(c, cp, u, lo, hi))


def _roots(r, t, lo, hi, uc):
    """The cubic's root in every bracket [lo[i], hi[i]] at energy t[i],
    where each bracket runs from the center uc to one side of it.

    In w = 1/(u - uc) the cubic is depressed, delta*w^3 + q2*w + r2 = 0
    with delta = c(uc) and q2 = 3*r2*uc + r1, and its three roots are
    real: the largest w is the root above uc, the smallest the root
    below.  Their trigonometric form (Blinn, "How to solve a cubic
    equation", IEEE CG&A 2006-07), polished by two Newton steps, is
    kept where c changes sign within eps*(terms/|c'(u)| + |u|) of it,
    the rounding of the cubic at u; the other brackets (where the root
    above uc nearly merges with the third root in w) go through
    ``_refine_roots``.  Elementwise, so a bracket's root does not depend
    on the batch.
    """
    r0, r1, r2 = r
    c, cp = _cubic(r, t)
    delta = c(uc)
    q2 = 3.0 * r2 * uc + r1
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 2.0 * np.sqrt(-q2 / (3.0 * delta))
        cos3 = 1.5 * r2 / q2 * np.sqrt(-3.0 * delta / q2)
        theta = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0
        w = m * np.cos(np.where(hi > uc, theta, theta + 2.0 * math.pi / 3.0))
        u = _polish(c, cp, uc + 1.0 / w, lo, hi)
        terms = np.abs(t) + np.abs(u) * (abs(r2) * u * u + np.abs(r1 * u)
                                         + abs(r0))
        eta = np.finfo(float).eps * (terms / np.abs(cp(u)) + np.abs(u))
        ok = (lo <= u) & (u <= hi) & (c(u - eta) * c(u + eta) <= 0.0)
    i = np.flatnonzero(~ok)
    if i.size:
        u[i] = _refine_roots(r, t[i], lo[i], hi[i])
    return u


def _slice_brackets(spec: HamiltonianSpec, annulus: Annulus, ts):
    """(lo_end, hi_end, u_c) for a grid of energies: the two endpoints of
    every slice lie in [lo_end, u_c] and [u_c, hi_end].

    One endpoint lies between the singular line u = 0 and the center
    u_c, the other between u_c and the root u_r of r beyond it
    (``model.slice_span``).  At u = 0 the cubic t + u*r(u) is t itself,
    so 0 is the inner end of every bracket; the outer end sits just
    past u_r.  The annulus holds the energies strictly between its
    center's and the loop's, 0.
    """
    t_center = critical_data(spec).center_of(annulus).energy
    uc, ur = slice_span(spec, annulus)
    t_lo, t_hi = sorted((t_center, 0.0))
    bad = ~((t_lo < ts) & (ts < t_hi))
    if bad.any():
        raise OvalRangeError(
            f"{annulus.name} requires t in ({t_lo}, {t_hi}), "
            f"got t={float(ts[np.argmax(bad)])!r}")
    outer = ur * (1.0 + 1e-9) + math.copysign(1e-12, ur)
    if uc > 0.0:
        return 0.0, outer, uc
    return outer, 0.0, uc


def slice_grid(spec: HamiltonianSpec, annulus: Annulus, ts) -> OvalSlice:
    """Slice the period annulus at every energy of ts at once.

    Returns one OvalSlice whose t, lo, hi and third_root are arrays over
    the grid.  Every energy lies strictly inside the annulus: the center
    and loop energies are rejected with OvalRangeError.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    lo_end, hi_end, uc = _slice_brackets(spec, annulus, ts)
    r = spec.slice_r()
    n = ts.size
    ends = _roots(r, np.tile(ts, 2), np.repeat([lo_end, uc], n),
                  np.repeat([uc, hi_end], n), uc)
    lo, hi = ends[:n], ends[n:]
    _, r1, r2 = r
    # Vieta: the cubic's roots sum to -r1/r2
    third = -r1 / r2 - lo - hi if r2 != 0.0 else np.full(n, math.inf)
    return OvalSlice(spec, ts, lo, hi, r, third)


def slice_oval(spec: HamiltonianSpec, annulus: Annulus, t: float) -> OvalSlice:
    """Slice the period annulus at energy t: the one-energy view of
    ``slice_grid``."""
    g = slice_grid(spec, annulus, [t])
    return OvalSlice(spec, t, float(g.lo[0]), float(g.hi[0]), g.r,
                     float(g.third_root[0]))


@dataclass(frozen=True)
class SectionSegment:
    """Transversal segment crossing every oval of ``annulus`` once.

    Parameterized by the coordinate ``s`` along the section axis (the
    slice axis: 'x', the section on y = 0, or 'y', on x = 0); the energy
    chart s -> H(point(s)) is strictly monotone.  ``direction`` is the
    sign of the crossing speed of the transverse coordinate.
    """

    spec: HamiltonianSpec
    annulus: Annulus
    s_center: float  # parameter at the center end
    s_loop: float  # parameter at the loop end (energy 0)

    @property
    def axis(self) -> str:
        return self.spec.slice_axis

    @property
    def row(self) -> int:
        """Row of the section coordinate in a planar state (x, y)."""
        return 0 if self.axis == "x" else 1

    @property
    def direction(self) -> int:
        return SECTION_DIRECTION

    def point(self, s: float) -> tuple[float, float]:
        return (s, 0.0) if self.axis == "x" else (0.0, s)

    def energy(self, s: float) -> float:
        return self.spec.eval_H(*self.point(s))

    def s_bounds(self) -> tuple[float, float]:
        return tuple(sorted((self.s_center, self.s_loop)))

    def contains(self, s: float) -> bool:
        lo, hi = self.s_bounds()
        return lo <= s <= hi

    def coord_for_energy(self, t: float) -> float:
        """Invert the energy chart: the endpoint of the slice at t
        (``slice_grid``) on the section's side of the center.  Only the
        annulus's open energy interval is charted: its center's and the
        loop's energies raise OvalRangeError."""
        g = slice_grid(self.spec, self.annulus, [t])
        return float((g.hi if self.s_loop > self.s_center else g.lo)[0])


def section_segment(
    spec: HamiltonianSpec,
    annulus: Annulus = Annulus.SIGMA_PLUS,
) -> SectionSegment:
    """Build the annulus section (``model.section_ends``) and check the
    energy chart is monotone."""
    s_center, s_loop = section_ends(spec, annulus)
    seg = SectionSegment(spec, annulus, s_center, s_loop)
    dh = np.diff(seg.energy(np.linspace(seg.s_center, seg.s_loop,
                                        CHART_CHECK_POINTS)))
    if not (np.all(dh > 0.0) or np.all(dh < 0.0)):
        raise OvalRangeError("energy chart not monotone along the section")
    return seg
