"""Abelian integrals J_k(t) = oint x^k y dx and related line integrals.

Orientation is normalized so J_0 > 0 on both annuli, which matches the
clockwise (with-flow) traversal: on an x-graph oval the closed integral
collapses to J_k(t) = 2 * int_{x_lo}^{x_hi} x^k sqrt(t/x + r(x)) dx.
The endpoint square-root vanishing is removed exactly by
x = mid + halfwidth*sin(theta); adaptive Gauss-Kronrod does the rest.

Appendix-family ovals are y-graphs; this module provides their closed
oval moments oint y^m dx (counterclockwise, the orientation pinned by
the connection integrals below) and the open line integrals along the
two loop connections Gamma1 (segment y=0, x: -1 -> 1) and Gamma2 (upper
half-ellipse, (1,0) -> (-1,0)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .model import Annulus, Family, HamiltonianSpec, x1_loop_root
from .ovals import OvalSlice, slice_oval

HALF_PI = math.pi / 2.0
MIN_TOL = 1e-12
QUAD_LIMIT = 200    # QUADPACK subinterval budget


class QuadratureError(RuntimeError):
    pass


def _quad(f, lo, hi, tol):
    val, err, info, *msg = quad(f, lo, hi, epsabs=tol, epsrel=tol,
                                limit=QUAD_LIMIT, full_output=1)
    # A roundoff warning with a still-tiny error estimate means QUADPACK
    # could not hit an epsabs below machine noise; the achieved bound is
    # what matters for the caller's contract.
    ok = err <= 50.0 * tol * max(1.0, abs(val))
    if msg and "divergent" in str(msg[0]).lower():
        ok = False
    return val, err, ok


def _check_tol(tol: float) -> float:
    if tol < MIN_TOL:
        raise ValueError(f"quadrature tolerance must be >= {MIN_TOL}, got {tol}")
    return tol


@dataclass(frozen=True)
class AbelianTriple:
    t: float
    jm1: float
    j0: float
    j1: float
    err: tuple[float, float, float]
    converged: bool

    def as_vector(self) -> np.ndarray:
        return np.array([self.jm1, self.j0, self.j1])

    def component(self, k: int) -> float:
        return {-1: self.jm1, 0: self.j0, 1: self.j1}[k]


def jk_on_slice(sl: OvalSlice, k: int,
                tol: float = 1e-11) -> tuple[float, float, bool]:
    """One Abelian integral J_k on a normal-form slice.

    Returns (value, error estimate, converged).
    """
    if sl.spec.family is not Family.NORMAL_FORM:
        raise ValueError("x^k y dx basis applies to the normal-form family")
    if sl.degenerate:
        return 0.0, 0.0, True
    _check_tol(tol)
    w = 0.5 * (sl.hi - sl.lo)
    m = 0.5 * (sl.hi + sl.lo)
    phi = sl.phi

    def f(theta):
        s = math.sin(theta)
        c = math.cos(theta)
        x = m + w * s
        return (x**k) * math.sqrt(phi(x)) * c * c

    val, err, ok = _quad(f, -HALF_PI, HALF_PI, 0.25 * tol / max(w * w, 1e-30))
    return 2.0 * w * w * val, 2.0 * w * w * err, ok


def triple(spec: HamiltonianSpec, annulus: Annulus, t: float,
           tol: float = 1e-11) -> AbelianTriple:
    """(J_{-1}, J_0, J_1) at energy t, with error flags."""
    sl = slice_oval(spec, annulus, t)
    out, errs, ok = [], [], True
    for k in (-1, 0, 1):
        v, e, conv = jk_on_slice(sl, k, tol=tol)
        out.append(v)
        errs.append(e)
        ok = ok and conv
    tr = AbelianTriple(t, out[0], out[1], out[2], tuple(errs), ok)
    if not sl.degenerate and not tr.j0 > 0.0:
        raise QuadratureError(f"orientation normalization violated: J0={tr.j0!r}")
    return tr


def triples_on_grid(spec: HamiltonianSpec, annulus: Annulus,
                    ts: Sequence[float],
                    tol: float = 1e-11) -> list[AbelianTriple]:
    """Triples over a t-grid, in grid order."""
    return [triple(spec, annulus, t, tol=tol) for t in ts]


def jk_at_loop(spec: HamiltonianSpec, k: int, tol: float = 1e-12) -> float:
    """J_k(0) = 2 * int_0^{x1} x^k sqrt(r(x)) dx for k in {0, 1}.

    The k = -1 integral diverges logarithmically at the loop.
    """
    if spec.family is not Family.NORMAL_FORM:
        raise ValueError("loop-limit J_k applies to the normal-form family")
    if k not in (0, 1):
        raise ValueError(f"J_k(0) finite only for k in {{0, 1}}, got k={k}")
    _, r1, r2 = spec.slice_r()
    x1 = x1_loop_root(spec.a)
    if r2 != 0.0:
        x2 = -r1 / r2 - x1  # other root of r

        def q(x):  # r(x) = (x1 - x) * q(x)
            return -r2 * (x - x2)

    else:

        def q(x):
            return -r1

    def f(psi):
        s = math.sin(psi)
        c = math.cos(psi)
        x = x1 * s * s
        return (x**k) * math.sqrt(q(x)) * s * c * c

    val, err, ok = _quad(f, 0.0, HALF_PI, tol)
    if not ok:
        raise QuadratureError(f"loop-limit quadrature not converged (err={err})")
    return 4.0 * x1**1.5 * val


# --- appendix-family integrals ------------------------------------------


def appendix_oval_integral(spec: HamiltonianSpec, h: float,
                           fe: Callable[[float, float], float],
                           tol: float = 1e-11) -> tuple[float, float, bool]:
    """oint f dx over the oval H = h, counterclockwise, for f even in x.

    ``fe(x2, y)`` is f expressed through x^2 (odd-in-x parts integrate
    to zero by symmetry and are rejected by construction).  On the
    y-graph x = +-sqrt(G(y)) the closed integral reduces to
    int f_e * G'/sqrt(G) dy, which the sin substitution makes smooth.
    """
    if spec.family is not Family.APPENDIX_ELLIPSE:
        raise ValueError("oval moments in this form apply to the appendix family")
    _check_tol(tol)
    sl = slice_oval(spec, Annulus.SIGMA_PLUS, h)
    w = 0.5 * (sl.hi - sl.lo)
    m = 0.5 * (sl.hi + sl.lo)

    def f(theta):
        s = math.sin(theta)
        c = math.cos(theta)
        y = m + w * s
        ph = sl.phi(y)
        php = sl.phi_prime(y)
        g = w * w * c * c * ph  # x^2
        num = w * w * c * c * php - 2.0 * w * ph * s
        return fe(g, y) * num / math.sqrt(ph)

    val, err, ok = _quad(f, -HALF_PI, HALF_PI, tol)
    return val, err, ok


def appendix_oval_moments(spec: HamiltonianSpec, h: float,
                          tol: float = 1e-11) -> tuple[float, float]:
    """(oint y dx, oint y^2 dx) over the oval H = h, counterclockwise."""
    iy, _, ok1 = appendix_oval_integral(spec, h, lambda x2, y: y, tol=tol)
    iy2, _, ok2 = appendix_oval_integral(spec, h, lambda x2, y: y * y, tol=tol)
    if not (ok1 and ok2):
        raise QuadratureError(f"oval moments not converged at h={h}")
    return iy, iy2


_SEGMENT_FORMS = {
    "one_dx": lambda x, y: 1.0,
    "y_dx": lambda x, y: y,
    "y2_dx": lambda x, y: y * y,
    "xy_dx": lambda x, y: x * y,
}


def segment_integral_appendix(spec: HamiltonianSpec, which: str,
                              integrand, tol: float = 1e-12) -> float:
    """Line integral along Gamma1 or Gamma2 of f(x, y) dx.

    Gamma1 is the saddle connection {y = 0, -1 <= x <= 1} traversed
    x: -1 -> 1; Gamma2 the upper half-ellipse x^2 + y^2/12 = 1 traversed
    (1, 0) -> (-1, 0).  ``integrand`` is one of 'one_dx', 'y_dx',
    'y2_dx', 'xy_dx' or a callable f(x, y).
    """
    if spec.family is not Family.APPENDIX_ELLIPSE:
        raise ValueError("connection integrals apply to the appendix family")
    f = _SEGMENT_FORMS.get(integrand, integrand)
    if not callable(f):
        raise ValueError(f"unknown integrand {integrand!r}")
    if which == "gamma1":
        val, err, ok = _quad(lambda x: f(x, 0.0), -1.0, 1.0, tol)
    elif which == "gamma2":
        # x = sin(theta), y = 2*sqrt(3)*cos(theta); endpoint at theta=pi/2
        def g(theta):
            return f(math.sin(theta), 2.0 * math.sqrt(3.0) * math.cos(theta)) \
                * math.cos(theta)

        val, err, ok = _quad(g, -HALF_PI, HALF_PI, tol)
        val, err = -val, err
    else:
        raise ValueError(f"unknown connection {which!r}; use 'gamma1' or 'gamma2'")
    if not ok:
        raise QuadratureError(f"connection integral not converged (err={err})")
    return val


# --- log-basis fitting ---------------------------------------------------


@dataclass(frozen=True)
class LogFit:
    """Least-squares fit on {t^p} U {t^p * ln|t|} over a window."""

    coeffs: dict[str, float]
    residual: float  # rms residual
    cond: float
    well_conditioned: bool

    def __getitem__(self, key: str) -> float:
        return self.coeffs[key]


def fit_log_basis(ts: np.ndarray, vals: np.ndarray,
                  poly_powers: Sequence[int] = (0, 1, 2),
                  log_powers: Sequence[int] = (0, 1, 2)) -> LogFit:
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    lab = []
    cols = []
    for p in poly_powers:
        cols.append(ts**p)
        lab.append(f"t^{p}")
    lt = np.log(np.abs(ts))
    for p in log_powers:
        cols.append(ts**p * lt)
        lab.append(f"t^{p}*log")
    A = np.column_stack(cols)
    scale = np.max(np.abs(A), axis=0)
    scale[scale == 0.0] = 1.0
    coef, _, _, sv = np.linalg.lstsq(A / scale, vals, rcond=None)
    coef = coef / scale
    resid = vals - A @ coef
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    return LogFit(dict(zip(lab, coef)),
                  float(np.sqrt(np.mean(resid**2))), float(cond),
                  bool(cond < 1e12))


_LOWEST_LOG = {-1: "t^0*log", 0: "t^1*log", 1: "t^2*log"}


def default_log_window(n: int = 40, t_min: float = 1e-6,
                       t_max: float = 0.1) -> np.ndarray:
    """Geometric grid t_j -> 0^- used by the log-coefficient fits."""
    if t_min < 1e-6:
        raise ValueError("log-fit window must stop at |t| >= 1e-6")
    return -np.geomspace(t_max, t_min, n)


def log_coefficient(spec: HamiltonianSpec, k: int,
                    window: np.ndarray | None = None,
                    tol: float = 1e-11) -> LogFit:
    """Fit J_k near t = 0^- and expose its lowest-order log coefficient.

    The leading log terms are ln|t| for k = -1, t*ln|t| for k = 0 and
    t^2*ln|t| for k = 1; the fitted value lands in ``coeffs['lowest']``
    as well as under its basis label.
    """
    if k not in (-1, 0, 1):
        raise ValueError(f"k must be in {{-1, 0, 1}}, got {k}")
    ts = default_log_window() if window is None else np.asarray(window)
    vals = np.array([jk_on_slice(slice_oval(spec, Annulus.SIGMA_PLUS, t), k,
                                 tol=tol)[0] for t in ts])
    fit = fit_log_basis(ts, vals)
    out = dict(fit.coeffs)
    out["lowest"] = out[_LOWEST_LOG[k]]
    return LogFit(out, fit.residual, fit.cond, fit.well_conditioned)
