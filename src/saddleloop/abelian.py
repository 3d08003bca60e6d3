"""Abelian integrals J_k(t) = oint x^k y dx and related line integrals.

Orientation is normalized so J_0 > 0 on both annuli, which matches the
clockwise (with-flow) traversal: on an x-graph oval the closed integral
collapses to J_k(t) = 2 * int_{x_lo}^{x_hi} x^k sqrt(t/x + r(x)) dx.
The endpoint square-root vanishing is removed exactly by
x = mid + halfwidth*sin(theta).  The loop limits J_0(0) and J_1(0) of
either annulus (``jk_at_loop``) are the one source of loop-end values.

Every integral here comes from one lockstep adaptive Gauss-Kronrod
kernel (``_gk21``): QUADPACK's 21-point rule and error estimate
(Piessens et al., *QUADPACK*, Springer 1983), with the lanes of a whole
energy grid, one per (energy, integrand) pair, refined together as
numpy arrays; scipy's quad is not used.  Sums over nodes and panels run in a fixed order, so a
lane gives the same bits alone as in any batch; ``triple`` and
``jk_on_slice`` are one-lane views of the grid functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import Annulus, Family, HamiltonianSpec, slice_span
from .ovals import OvalSlice, phi, phi_prime, slice_grid

HALF_PI = math.pi / 2.0
MIN_TOL = 1e-12
QUAD_TOL = 1e-11        # tolerance of the grid integrals unless a caller sets one
LIMIT_QUAD_TOL = 1e-12  # loop limits J_k(0) and connection integrals
QUAD_LIMIT = 200    # panel budget of one lane

# QUADPACK's qk21: Kronrod abscissae on (0, 1) with their weights (the
# center node's weight last), and the weights of the embedded 10-point
# Gauss rule, whose abscissae are _XGK[1], _XGK[3], ..., _XGK[9].
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077208745754825,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# node rows of a panel: the center, then centr - h*x and centr + h*x
_NODES = np.array((0.0,) + tuple(-x for x in _XGK) + _XGK)[:, None]
# qk21 adds the Gauss abscissae's terms first, then the others
_ORDER = np.array((1, 3, 5, 7, 9, 0, 2, 4, 6, 8))
_WK = np.array(_WGK[:10])[:, None]
_WK_ORDERED = _WK[_ORDER]
_WG_COL = np.array(_WG)[:, None]
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
# a panel is bisected when its error is at least this share of its
# lane's largest panel error
BISECT_SHARE = 0.5


class QuadratureError(RuntimeError):
    pass


def _sum_rows(first, rows):
    """first + rows[0] + rows[1] + ..., added row by row in that order
    (np.add.accumulate is sequential for every array shape)."""
    return np.add.accumulate(np.vstack([first[None], rows]), axis=0)[-1]


def _qk21(f, lane, a, b):
    """QUADPACK's qk21 on panels [a, b] of lanes ``lane``: (result,
    abserr) per panel, with the resasc/resabs error estimate and its
    50*eps roundoff floor.  Sums run in qk21's own order."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fv = f(centr + hlgth * _NODES, lane)
    fc, f1, f2 = fv[0], fv[1:11], fv[11:]
    fsum = (f1 + f2)[_ORDER]
    fabs = (np.abs(f1) + np.abs(f2))[_ORDER]
    resk = _sum_rows(_WGK[10] * fc, _WK_ORDERED * fsum)
    resg = _sum_rows(_WG_COL[0] * fsum[0], _WG_COL[1:] * fsum[1:5])
    resabs = _sum_rows(np.abs(_WGK[10] * fc), _WK_ORDERED * fabs)
    reskh = resk * 0.5
    resasc = _sum_rows(_WGK[10] * np.abs(fc - reskh),
                       _WK * (np.abs(f1 - reskh) + np.abs(f2 - reskh)))
    dhlgth = np.abs(hlgth)
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.minimum(1.0, 200.0 * abserr / resasc)
        abserr = np.where((resasc != 0.0) & (abserr != 0.0),
                          resasc * (q * np.sqrt(q)), abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                      np.maximum(50.0 * _EPMACH * resabs, abserr), abserr)
    return resk * hlgth, abserr


def _gk21(f, n, lo, hi, tol):
    """Lockstep adaptive GK21 integrals of n lanes over [lo, hi].

    ``f(x, lane)`` evaluates the integrands of lanes ``lane`` (shape
    (m,)) at nodes x (shape (21, m)).  Every round bisects, per lane,
    the panels whose error is at least BISECT_SHARE of the lane's
    largest, until err <= tol * max(1, |val|) (epsabs = epsrel = tol,
    a scalar or one per lane) or the next round would take the lane past
    QUAD_LIMIT panels.  A lane's value and error are the sums of its
    panels', accumulated in the lane's own panel order (np.bincount adds
    in array order).  Returns per lane (value, error, converged).
    """
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (n,))
    val, err = np.zeros(n), np.zeros(n)
    converged = np.zeros(n, dtype=bool)
    open_ = np.ones(n, dtype=bool)
    count = np.ones(n, dtype=int)
    lane = np.arange(n)
    a, b = np.full(n, float(lo)), np.full(n, float(hi))
    pv, pe = _qk21(f, lane, a, b)
    while True:
        sv = np.bincount(lane, pv, minlength=n)
        se = np.bincount(lane, pe, minlength=n)
        emax = np.zeros(n)
        np.maximum.at(emax, lane, pe)
        split = pe >= BISECT_SHARE * emax[lane]
        nsplit = np.bincount(lane[split], minlength=n)
        ok = se <= tol * np.maximum(1.0, np.abs(sv))
        done = open_ & (ok | (nsplit == 0) | (count + nsplit > QUAD_LIMIT))
        val[done], err[done], converged[done] = sv[done], se[done], ok[done]
        open_ &= ~done
        if not open_.any():
            return val, err, converged
        count += nsplit
        split &= open_[lane]
        stay = open_[lane] & ~split
        mid = 0.5 * (a[split] + b[split])
        new_lane = np.repeat(lane[split], 2)
        new_a = np.column_stack([a[split], mid]).ravel()
        new_b = np.column_stack([mid, b[split]]).ravel()
        nv, ne = _qk21(f, new_lane, new_a, new_b)
        lane = np.concatenate([lane[stay], new_lane])
        a = np.concatenate([a[stay], new_a])
        b = np.concatenate([b[stay], new_b])
        pv = np.concatenate([pv[stay], nv])
        pe = np.concatenate([pe[stay], ne])


def _check_tol(tol: float) -> float:
    if not tol >= MIN_TOL:      # a nan fails too
        raise ValueError(f"quadrature tolerance must be >= {MIN_TOL}, got {tol}")
    return tol


@dataclass(frozen=True)
class AbelianTriple:
    """(J_{-1}, J_0, J_1) with error estimates and a converged flag:
    arrays over a grid (``err`` of shape (n, 3)) from ``triples_on_grid``,
    floats, an ``err`` tuple and a bool from its one-energy view ``triple``.
    """

    t: float | np.ndarray
    jm1: float | np.ndarray
    j0: float | np.ndarray
    j1: float | np.ndarray
    err: tuple[float, float, float] | np.ndarray
    converged: bool | np.ndarray

    def as_vector(self) -> np.ndarray:
        # shape (3,) for one energy, (n, 3) for a grid
        return np.stack([self.jm1, self.j0, self.j1], axis=-1)


def _jk_lanes(r, lo, hi, third_root, k, tol):
    """J_k on normal-form slices, one lane per (slice, k): arrays of the
    slice endpoints, third roots and k.  Returns (values, errors,
    converged) arrays."""
    w = 0.5 * (hi - lo)
    m = 0.5 * (hi + lo)

    def f(theta, i):
        x = m[i] + w[i] * np.sin(theta)
        c = np.cos(theta)
        xk = np.where(k[i] == 0, 1.0, np.where(k[i] < 0, 1.0 / x, x))
        return xk * np.sqrt(phi(r, third_root[i], x)) * c * c

    val, err, ok = _gk21(f, len(k), -HALF_PI, HALF_PI,
                         0.25 * tol / np.maximum(w * w, 1e-30))
    return 2.0 * w * w * val, 2.0 * w * w * err, ok


def _jk_grid(spec: HamiltonianSpec, annulus: Annulus, ts, ks, tol):
    """J_k for every (t, k) of ts x ks in one kernel batch: (values,
    errors, converged) of shape (len(ts), len(ks)), zero on degenerate
    point slices, and the degenerate mask."""
    if spec.family is not Family.NORMAL_FORM:
        raise ValueError("x^k y dx basis applies to the normal-form family")
    _check_tol(tol)
    g = slice_grid(spec, annulus, ts)
    shape = (len(g.t), len(ks))
    vals, errs = np.zeros(shape), np.zeros(shape)
    ok = np.ones(shape, dtype=bool)
    i = np.flatnonzero(~g.degenerate)
    e = np.repeat(i, len(ks))
    v, er, conv = _jk_lanes(g.r, g.lo[e], g.hi[e], g.third_root[e],
                            np.tile(np.asarray(ks), i.size), tol)
    vals[i], errs[i], ok[i] = (x.reshape(i.size, len(ks)) for x in (v, er, conv))
    return vals, errs, ok, g.degenerate


def jk_on_slice(sl: OvalSlice, k: int) -> tuple[float, float, bool]:
    """One Abelian integral J_k on a normal-form slice, at QUAD_TOL.

    Returns (value, error estimate, converged).
    """
    if sl.spec.family is not Family.NORMAL_FORM:
        raise ValueError("x^k y dx basis applies to the normal-form family")
    if sl.degenerate:
        return 0.0, 0.0, True
    v, e, ok = _jk_lanes(sl.r, np.array([sl.lo]), np.array([sl.hi]),
                         np.array([sl.third_root]), np.array([k]), QUAD_TOL)
    return float(v[0]), float(e[0]), bool(ok[0])


def triples_on_grid(spec: HamiltonianSpec, annulus: Annulus,
                    ts: Sequence[float],
                    tol: float = QUAD_TOL) -> AbelianTriple:
    """(J_{-1}, J_0, J_1) with error flags at every energy of a t-grid,
    from one kernel batch, as one AbelianTriple of arrays in grid order."""
    vals, errs, ok, degenerate = _jk_grid(spec, annulus, ts, (-1, 0, 1), tol)
    bad = ~(vals[:, 1] > 0.0) & ~degenerate
    if bad.any():
        raise QuadratureError("orientation normalization violated: "
                              f"J0={float(vals[np.argmax(bad), 1])!r}")
    return AbelianTriple(np.asarray(ts, dtype=float).reshape(-1), *vals.T,
                         errs, ok.all(axis=1))


def triple(spec: HamiltonianSpec, annulus: Annulus, t: float) -> AbelianTriple:
    """(J_{-1}, J_0, J_1) at energy t, with error flags: the one-energy
    view of ``triples_on_grid``."""
    g = triples_on_grid(spec, annulus, [t])
    return AbelianTriple(t, *g.as_vector()[0].tolist(),
                         tuple(g.err[0].tolist()), bool(g.converged[0]))


def jk_at_loop(spec: HamiltonianSpec, annulus: Annulus, k: int) -> float:
    """J_k(0) = 2 * int x^k sqrt(r(x)) dx between 0 and the annulus's
    loop end u_r (``slice_span``), J_0(0) > 0, for k in {0, 1}; the
    k = -1 integral diverges logarithmically at the loop.

    x = u_r sin^2(psi) gives r(x) = |u_r| cos^2(psi) q(x), with
    q = -r2 sign(u_r) (x - u_o) and u_o the other root of r.
    """
    if spec.family is not Family.NORMAL_FORM:
        raise ValueError("loop-limit J_k applies to the normal-form family")
    if k not in (0, 1):
        raise ValueError(f"J_k(0) finite only for k in {{0, 1}}, got k={k}")
    _, r1, r2 = spec.slice_r()
    u_r = slice_span(spec, annulus)[1]
    sign = math.copysign(1.0, u_r)
    u_o = -r1 / r2 - u_r if r2 != 0.0 else 0.0  # other root of r

    def f(psi, _):
        s = np.sin(psi)
        c = np.cos(psi)
        x = u_r * s * s
        q = -r2 * sign * (x - u_o) if r2 != 0.0 else np.full(x.shape, -r1)
        return (x if k else 1.0) * np.sqrt(q) * s * c * c

    val, err, ok = _gk21(f, 1, 0.0, HALF_PI, LIMIT_QUAD_TOL)
    if not ok[0]:
        raise QuadratureError(f"loop-limit quadrature not converged (err={err[0]})")
    return 4.0 * abs(u_r)**1.5 * float(val[0])


# --- appendix-family integrals ------------------------------------------
# The program takes appendix integrals from a = 1 (``melnikov``); this
# one-lane integral stays while the benchmark tracer hooks it by name.


def appendix_oval_integral(
        spec: HamiltonianSpec, h: float,
        fe: Callable[[float, float], float]) -> tuple[float, float, bool]:
    """oint f dx over the appendix oval H = h, counterclockwise, for f
    even in x, at QUAD_TOL.

    ``fe(x2, y)`` is f expressed through x^2 (odd-in-x parts integrate
    to zero by symmetry and are rejected by construction), evaluated
    elementwise on numpy arrays.  On the y-graph x = +-sqrt(G(y)) the
    closed integral reduces to int f_e * G'/sqrt(G) dy, which the sin
    substitution makes smooth.
    """
    if spec.family is not Family.APPENDIX_ELLIPSE:
        raise ValueError("oval integrals in this form apply to the appendix family")
    g = slice_grid(spec, Annulus.SIGMA_PLUS, [h])
    w = 0.5 * (g.hi - g.lo)
    m = 0.5 * (g.hi + g.lo)

    def f(theta, _):
        s = np.sin(theta)
        c = np.cos(theta)
        y = m + w * s
        ph = phi(g.r, g.third_root, y)
        php = phi_prime(g.r, g.third_root, y)
        x2 = w * w * c * c * ph
        num = w * w * c * c * php - 2.0 * w * ph * s
        return fe(x2, y) * num / np.sqrt(ph)

    val, err, ok = _gk21(f, 1, -HALF_PI, HALF_PI, QUAD_TOL)
    return float(val[0]), float(err[0]), bool(ok[0])


# --- log-basis fitting ---------------------------------------------------


@dataclass(frozen=True)
class LogFit:
    """Least-squares coefficients on {t^p} U {t^p * ln|t|} over a
    window, keyed "t^p" and "t^p*log", for p in LOG_FIT_POWERS."""

    coeffs: dict[str, float]


LOG_FIT_POWERS = (0, 1, 2)


def fit_log_basis(ts: np.ndarray, vals: np.ndarray) -> LogFit:
    ts = np.asarray(ts, dtype=float)
    lt = np.log(np.abs(ts))
    A = np.column_stack([ts**p for p in LOG_FIT_POWERS]
                        + [ts**p * lt for p in LOG_FIT_POWERS])
    scale = np.max(np.abs(A), axis=0)
    scale[scale == 0.0] = 1.0
    coef = np.linalg.lstsq(A / scale, np.asarray(vals, dtype=float),
                           rcond=None)[0] / scale
    labels = ([f"t^{p}" for p in LOG_FIT_POWERS]
              + [f"t^{p}*log" for p in LOG_FIT_POWERS])
    return LogFit(dict(zip(labels, coef)))


LOG_WINDOW_POINTS = 40
LOG_WINDOW_T_MAX = 0.1      # |t| at which every log-fit window starts
LOG_WINDOW_T_MIN = 1e-6     # |t| at which every log-fit window stops


def default_log_window() -> np.ndarray:
    """LOG_WINDOW_POINTS energies from -LOG_WINDOW_T_MAX to
    -LOG_WINDOW_T_MIN, geometric, for the log-coefficient fits."""
    return -np.geomspace(LOG_WINDOW_T_MAX, LOG_WINDOW_T_MIN, LOG_WINDOW_POINTS)


def log_coefficient(spec: HamiltonianSpec, k: int) -> LogFit:
    """Fit J_k on default_log_window().

    The leading log terms are ln|t| for k = -1, t*ln|t| for k = 0 and
    t^2*ln|t| for k = 1, under the basis labels "t^0*log", "t^1*log"
    and "t^2*log" of ``coeffs``.
    """
    if k not in (-1, 0, 1):
        raise ValueError(f"k must be in {{-1, 0, 1}}, got {k}")
    ts = default_log_window()
    vals = _jk_grid(spec, Annulus.SIGMA_PLUS, ts, (k,), QUAD_TOL)[0][:, 0]
    return fit_log_basis(ts, vals)
