"""Abelian integrals J_k(t) = oint x^k y dx and related line integrals.

Orientation is normalized so J_0 > 0 on both annuli, which matches the
clockwise (with-flow) traversal: on an x-graph oval the closed integral
collapses to J_k(t) = 2 * int_{x_lo}^{x_hi} x^k sqrt(t/x + r(x)) dx.
The endpoint square-root vanishing is removed exactly by
x = mid + halfwidth*sin(theta).  The loop limits J_0(0) and J_1(0) of
either annulus (``jk_at_loop``) are the one source of loop-end values;
the loop is the slice at t = 0, integrated by the grids' slice kernel.

Every integral here comes from one lockstep adaptive Gauss-Kronrod
kernel (``_gk21``): QUADPACK's 21-point rule and error estimate
(Piessens et al., *QUADPACK*, Springer 1983), with the lanes of a whole
energy grid, one per (energy, integrand) pair, refined together as
numpy arrays; scipy's quad is not used.  A batch holds only the J_k its
caller reads (``triples_on_grid``'s ``ks``).  Next to the loop the
integrand changes on the scale of the slice end at the saddle, a
feature that no node of a coarse panel resolves and that GK21's error
estimate can accept unresolved, so each lane starts from the panels of
the bisection tree graded toward that end, as deep as its slice asks
(``_start_depth``; QUADPACK's remedy of breakpoints at a known
difficult point).  Every lane's panels come from bisecting the same
interval at midpoints, so the lanes of a round share few distinct
panels: a round forms the 21 nodes of each distinct panel once, as one
column, and the integrands take the sines and cosines of those columns
only.  Sums over nodes and panels run in a fixed order, so a lane gives
the same bits alone as in any batch; ``triple`` and ``jk_on_slice`` are
one-lane views of the grid functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (APPENDIX_SPEC, Annulus, Family, HamiltonianSpec,
                    slice_span)
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
# node rows of a panel in the order qk21 adds their terms: the center,
# then centr - h*x and centr + h*x for the Gauss abscissae x = _XGK[1],
# _XGK[3], ..., _XGK[9] first and the others after them
_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_X_ORDERED = tuple(_XGK[j] for j in _ORDER)
_NODES = np.array((0.0,) + tuple(-x for x in _X_ORDERED) + _X_ORDERED)[:, None]
# Kronrod weights of the center and of the node pairs, in that order
_WK = np.array((_WGK[10],) + tuple(_WGK[j] for j in _ORDER))[:, None]
_WG_COL = np.array(_WG)[:, None]
# resasc adds its pairs in abscissa order: the rows of the center and of
# pairs _XGK[0], ..., _XGK[9] among the center and the ordered pairs
_ABSCISSA_ROWS = np.array((0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5))
_WK_ABSCISSA = np.array((_WGK[10],) + _WGK[:10])[:, None]
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
# a panel is bisected when its error is at least this share of its
# lane's largest panel error
BISECT_SHARE = 0.5


class QuadratureError(RuntimeError):
    pass


def _qk21(f, lane, a, b, col):
    """QUADPACK's qk21 on the lane-panels of lanes ``lane``, whose panels
    are [a[col], b[col]]: (result, abserr) per lane-panel, with the
    resasc/resabs error estimate and its 50*eps roundoff floor.

    The nodes of each distinct panel [a, b] are formed once, as one
    column of a (21, len(a)) array, and ``f(theta, col, lane)`` returns
    the integrand of lane-panel i at nodes theta[:, col[i]], shape
    (21, len(lane)).  Node rows come in the order qk21 adds their terms:
    resk and resabs add the center, then the Gauss pairs, then the
    others; resg adds the Gauss pairs; resasc adds its terms in abscissa
    order.  Each sum is one in-place np.add.accumulate, which adds in
    row order for every array shape."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fv = f(centr + hlgth * _NODES, col, lane)
    hlgth = hlgth[col]
    # terms of resk (s[0]) and resabs (s[1]): the center, then the pairs
    s = np.empty((2, 11, len(lane)))
    s[0, 0] = fv[0]
    np.add(fv[1:11], fv[11:], out=s[0, 1:])
    resg = s[0, 1:6] * _WG_COL
    np.add.accumulate(resg, axis=0, out=resg)
    d = np.abs(fv)
    s[1, 0] = d[0]
    np.add(d[1:11], d[11:], out=s[1, 1:])
    s *= _WK
    np.add.accumulate(s, axis=1, out=s)
    resk, resabs = s[0, -1], s[1, -1]
    # terms of resasc, in abscissa order
    np.subtract(fv, resk * 0.5, out=d)
    np.abs(d, out=d)
    np.add(d[1:11], d[11:], out=d[1:11])
    d = d[_ABSCISSA_ROWS]
    d *= _WK_ABSCISSA
    np.add.accumulate(d, axis=0, out=d)
    dhlgth = np.abs(hlgth)
    resabs = resabs * dhlgth
    resasc = d[-1] * dhlgth
    abserr = np.abs((resk - resg[-1]) * hlgth)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.minimum(1.0, 200.0 * abserr / resasc)
        abserr = np.where((resasc != 0.0) & (abserr != 0.0),
                          resasc * (q * np.sqrt(q)), abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                      np.maximum(50.0 * _EPMACH * resabs, abserr), abserr)
    return resk * hlgth, abserr


def _start_table(lo, hi, depth):
    """The bisection tree of [lo, hi] down to level ``depth`` toward
    both ends, for ``_gk21``: the (a, b) ends of its panels, one table
    row each, stored as a (2, p) array (row 0 is [lo, hi], each child a
    half of its parent, cut at 0.5*(a + b)), the row of each row's
    first child (the second follows it; -1 for none), and per end
    (0: lo, 1: hi) and level the rows of the end panel and of its
    sibling."""
    ends, child = [[lo], [hi]], [-1]
    end = np.zeros((2, depth + 1), dtype=np.intp)
    sib = np.zeros((2, depth + 1), dtype=np.intp)
    for level in range(1, depth + 1):
        for s in (0, 1):
            p = end[s, level - 1]
            if child[p] < 0:
                a, b = ends[0][p], ends[1][p]
                mid = 0.5 * (a + b)
                child[p] = len(child)
                ends[0] += [a, mid]
                ends[1] += [mid, b]
                child += [-1, -1]
            end[s, level] = child[p] + s
            sib[s, level] = child[p] + 1 - s
    return np.array(ends), np.array(child), end, sib


def _gk21(f, n, lo, hi, tol, start):
    """Lockstep adaptive GK21 integrals of n lanes over [lo, hi].

    ``f(theta, col, lane)`` evaluates the integrands of lanes ``lane``
    (shape (m,)): lane-panel i at nodes theta[:, col[i]], where theta
    (shape (21, u)) holds the nodes of the round's u distinct panels
    (``_qk21``).  Every panel is a panel of the bisection tree of
    [lo, hi], each child a half of its parent cut at 0.5*(a + b).  A
    lane starts graded toward one end (QUADPACK's breakpoint remedy
    for a known difficult point): with d = |start| (an int per lane, or
    one for all), from the panels that bisection reaches by splitting
    the panel at the lo end (start < 0) or the hi end (start > 0) d
    times, the siblings at levels 1..d and then the level-d end panel;
    start = 0 is [lo, hi] alone.  The batch keeps a table of the tree's
    panels, one row each, with the row of each row's first child; each
    lane-panel carries its row, and a round forms the nodes of each
    distinct row it reads once, however many lanes read it.  Every
    round bisects, per lane, the panels whose error is at least
    BISECT_SHARE of the lane's largest, until err <= tol * max(1, |val|)
    (epsabs = epsrel = tol, a scalar or one per lane) or the next round
    would take the lane past QUAD_LIMIT panels, counting its d + 1
    start panels.  A lane's value and error are the sums of its
    panels', accumulated in the lane's own panel order (np.bincount
    adds in array order).  Returns per lane (value, error, converged).
    """
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (n,))
    start = np.broadcast_to(np.asarray(start, dtype=np.intp), (n,))
    depth = np.abs(start)
    side = (start > 0).astype(np.intp)
    val, err = np.zeros(n), np.zeros(n)
    converged = np.zeros(n, dtype=bool)
    open_ = np.ones(n, dtype=bool)
    count = depth + 1
    lane = np.repeat(np.arange(n), count)
    table, child, end, sib = _start_table(float(lo), float(hi),
                                          int(depth.max(initial=0)))
    # a lane's j-th start panel: the sibling at level j + 1 for j < d,
    # then the end panel at level d
    level = np.arange(len(lane)) + 1 - np.repeat(np.cumsum(count) - count,
                                                 count)
    d, s = depth[lane], side[lane]
    row = np.where(level <= d, sib[s, np.minimum(level, len(end[0]) - 1)],
                   end[s, d])
    used = np.bincount(row, minlength=len(child)) > 0
    pv, pe = _qk21(f, lane, *table[:, used], (np.cumsum(used) - 1)[row])
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
        parent = row[split]
        # rows split for the first time get their two halves appended
        used = np.bincount(parent, minlength=len(child)) > 0
        new = used & (child < 0)
        a, b = table[:, new]
        halves = np.empty((2, 2 * len(a)))
        halves[0, ::2] = a
        halves[1, 1::2] = b
        halves[0, 1::2] = halves[1, ::2] = 0.5 * (a + b)
        child[new] = len(child) + 2 * np.arange(len(a))
        rows = np.repeat(child[used], 2)
        rows[1::2] += 1
        table = np.concatenate([table, halves], axis=1)
        child = np.concatenate([child, np.full(2 * len(a), -1)])
        col = np.repeat(2 * (np.cumsum(used) - 1)[parent], 2)
        col[1::2] += 1
        new_lane = np.repeat(lane[split], 2)
        nv, ne = _qk21(f, new_lane, *table[:, rows], col)
        row = np.concatenate([row[stay], rows[col]])
        lane = np.concatenate([lane[stay], new_lane])
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
    J_{-1} or J_1 is None where the grid did not integrate it.
    """

    t: float | np.ndarray
    jm1: float | np.ndarray | None
    j0: float | np.ndarray
    j1: float | np.ndarray | None
    err: tuple[float, float, float] | np.ndarray
    converged: bool | np.ndarray

    def as_vector(self) -> np.ndarray:
        # shape (3,) for one energy, (n, 3) for a grid
        return np.stack([self.jm1, self.j0, self.j1], axis=-1)


def _start_depth(lo, hi, w):
    """``_gk21``'s start of each slice's lane, graded toward the slice
    end u_e nearer the saddle u = 0, where the integrand changes on the
    scale |u_e|: at theta = phi from that end, x - u_e ~ w*phi^2/2
    reaches |u_e| at phi = sqrt(2|u_e|/w), so the start is split
    d = max(0, floor(log2(pi/phi)) - 1) times toward it, whose end
    panel spans 2*phi to 4*phi; d = 0 on the loop slice (u_e = 0), and
    d + 1 <= QUAD_LIMIT."""
    near_lo = np.abs(lo) <= np.abs(hi)
    ue = np.abs(np.where(near_lo, lo, hi))
    with np.errstate(divide="ignore"):
        d = np.floor(np.log2(math.pi / np.sqrt(2.0 * ue / w))) - 1.0
    d = np.where(ue > 0.0, np.clip(d, 0, QUAD_LIMIT - 1), 0).astype(np.intp)
    return np.where(near_lo, -d, d)


def _jk_lanes(r, lo, hi, third_root, k, tol):
    """J_k on normal-form slices, one lane per (slice, k): arrays of the
    slice endpoints, third roots and k.  ``tol`` (a scalar or one per
    lane) bounds the kernel's theta-integral, before its 2*w^2 scale.
    Returns (values, errors, converged) arrays."""
    w = 0.5 * (hi - lo)
    par = np.stack([w, 0.5 * (hi + lo), third_root, k])

    def f(theta, col, lane):
        wi, mi, ti, ki = par.take(lane, axis=1)
        x = np.sin(theta)[:, col]
        x *= wi
        x += mi
        y = np.sqrt(phi(r, ti, x))
        # x^k: 1/x where k < 0, 1 where k == 0
        np.divide(1.0, x, out=x, where=ki < 0)
        np.copyto(x, 1.0, where=ki == 0)
        x *= y
        c = np.cos(theta)[:, col]
        x *= c
        x *= c
        return x

    val, err, ok = _gk21(f, len(k), -HALF_PI, HALF_PI, tol,
                         _start_depth(lo, hi, w))
    return 2.0 * w * w * val, 2.0 * w * w * err, ok


def _jk_grid(spec: HamiltonianSpec, annulus: Annulus, ts, ks, tol):
    """J_k for every (t, k) of ts x ks in one kernel batch: (values,
    errors, converged) of shape (len(ts), len(ks))."""
    if spec.family is not Family.NORMAL_FORM:
        raise ValueError("x^k y dx basis applies to the normal-form family")
    _check_tol(tol)
    g = slice_grid(spec, annulus, ts)
    n, m = len(g.t), len(ks)
    lo, hi, third = (np.repeat(x, m) for x in (g.lo, g.hi, g.third_root))
    w = 0.5 * (hi - lo)     # tol holds after the kernel's 2*w^2 scale
    v, er, conv = _jk_lanes(g.r, lo, hi, third, np.tile(np.asarray(ks), n),
                            0.25 * tol / np.maximum(w * w, 1e-30))
    return tuple(x.reshape(n, m) for x in (v, er, conv))


def jk_on_slice(sl: OvalSlice, k: int) -> tuple[float, float, bool]:
    """One Abelian integral J_k on a normal-form slice, at QUAD_TOL.

    Returns (value, error estimate, converged).
    """
    if sl.spec.family is not Family.NORMAL_FORM:
        raise ValueError("x^k y dx basis applies to the normal-form family")
    w = 0.5 * (sl.hi - sl.lo)
    v, e, ok = _jk_lanes(sl.r, np.array([sl.lo]), np.array([sl.hi]),
                         np.array([sl.third_root]), np.array([k]),
                         0.25 * QUAD_TOL / max(w * w, 1e-30))
    return float(v[0]), float(e[0]), bool(ok[0])


def triples_on_grid(spec: HamiltonianSpec, annulus: Annulus,
                    ts: Sequence[float], tol: float = QUAD_TOL,
                    ks: Sequence[int] = (-1, 0, 1)) -> AbelianTriple:
    """(J_{-1}, J_0, J_1) with error flags at every energy of a t-grid,
    from one kernel batch, as one AbelianTriple of arrays in grid order.

    The batch integrates J_0, which orients every integral, and the
    other J_k of ``ks`` only: an integral left out is None, its ``err``
    column nan, and ``converged`` covers the integrals integrated."""
    ks = [k for k in (-1, 0, 1) if k == 0 or k in ks]
    vals, errs, ok = _jk_grid(spec, annulus, ts, ks, tol)
    cols = dict(zip(ks, vals.T))
    bad = ~(cols[0] > 0.0)
    if bad.any():
        raise QuadratureError("orientation normalization violated: "
                              f"J0={float(cols[0][np.argmax(bad)])!r}")
    err = np.full((len(vals), 3), np.nan)
    err[:, [k + 1 for k in ks]] = errs
    return AbelianTriple(np.asarray(ts, dtype=float).reshape(-1), cols.get(-1),
                         cols[0], cols.get(1), err, ok.all(axis=1))


def triple(spec: HamiltonianSpec, annulus: Annulus, t: float) -> AbelianTriple:
    """(J_{-1}, J_0, J_1) at energy t, with error flags: the one-energy
    view of ``triples_on_grid``."""
    g = triples_on_grid(spec, annulus, [t])
    return AbelianTriple(t, *g.as_vector()[0].tolist(),
                         tuple(g.err[0].tolist()), bool(g.converged[0]))


def jk_at_loop(spec: HamiltonianSpec, annulus: Annulus, k: int) -> float:
    """J_k(0) = 2 * int x^k sqrt(r(x)) dx, J_0(0) > 0, for k in {0, 1};
    the k = -1 integral diverges logarithmically at the loop.  The loop
    is the slice at t = 0: its ends are 0 and u_r (``slice_span``), its
    third root the other root of r; LIMIT_QUAD_TOL bounds its
    theta-integral (``_jk_lanes``).
    """
    if spec.family is not Family.NORMAL_FORM:
        raise ValueError("loop-limit J_k applies to the normal-form family")
    if k not in (0, 1):
        raise ValueError(f"J_k(0) finite only for k in {{0, 1}}, got k={k}")
    r = spec.slice_r()
    lo, hi = np.sort([[0.0], [slice_span(spec, annulus)[1]]], axis=0)
    third = -r[1] / r[2] - lo - hi if r[2] != 0.0 else np.full(1, math.inf)
    val, err, ok = _jk_lanes(r, lo, hi, third, np.array([k]), LIMIT_QUAD_TOL)
    if not ok[0]:
        raise QuadratureError(f"loop-limit quadrature not converged (err={err[0]})")
    return float(val[0])


# --- appendix-family integrals ------------------------------------------
# The program takes appendix integrals from a = 1 (``melnikov``); this
# one-lane integral stays while the benchmark tracer hooks it by name.


def appendix_oval_integral(
        h: float,
        fe: Callable[[float, float], float]) -> tuple[float, float, bool]:
    """oint f dx over the appendix oval H = h, counterclockwise, for f
    even in x, at QUAD_TOL.

    ``fe(x2, y)`` is f expressed through x^2 (odd-in-x parts integrate
    to zero by symmetry and are rejected by construction), evaluated
    elementwise on numpy arrays.  On the y-graph x = +-sqrt(G(y)) the
    closed integral reduces to int f_e * G'/sqrt(G) dy, which the sin
    substitution makes smooth.  The lane starts graded toward the slice
    end nearer the saddle (``_start_depth``), as every grid lane does.
    """
    g = slice_grid(APPENDIX_SPEC, Annulus.SIGMA_PLUS, [h])
    w = 0.5 * (g.hi - g.lo)
    m = 0.5 * (g.hi + g.lo)

    def f(theta, col, _):
        s = np.sin(theta)[:, col]
        c = np.cos(theta)[:, col]
        y = m + w * s
        ph = phi(g.r, g.third_root, y)
        php = phi_prime(g.r, g.third_root, y)
        x2 = w * w * c * c * ph
        num = w * w * c * c * php - 2.0 * w * ph * s
        return fe(x2, y) * num / np.sqrt(ph)

    val, err, ok = _gk21(f, 1, -HALF_PI, HALF_PI, QUAD_TOL,
                         _start_depth(g.lo, g.hi, w))
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
