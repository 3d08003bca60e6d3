"""Lockstep DOP853: many lanes of one autonomous ODE, advanced together
as numpy arrays.

A lane is one initial state of d >= 2 rows.  Rows 0-1 are the planar
state; further rows ride along (a constant time sign, say) and are
left out of the error control.  Every lane takes its own steps under
the DOP853 tableau (``saddleloop.dop853``, scipy's coefficients) and
scipy's step control (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4-II.6): the err5/err3 norm of rows 0-1, safety 0.9, step factors
in [0.2, 10], exponent -1/8 and select_initial_step's first step.  The
step policy is the engine's own: a caller sets rtol, atol is
ATOL_PER_RTOL*rtol and every step is at most MAX_STEP.
Terminal events, if any, are detected by sign changes at step ends, as
solve_ivp does, and located on the step's dense output; a run may record
its accepted steps instead (``sim --traj``).  A step takes one path for
every batch: masks, not branches, keep each lane's retry of a rejected
step and its own state, and a run returns each lane's status, stopping
event and final state.

The field has one contract: field(e, out) reads a state buffer e of
shape (d + 1, m), whose row 0 is ones and whose rows 1..d are the
lanes' states (``state``), writes their derivatives into every entry of
out, shape (d, m), and returns out.  The row of ones lets a polynomial
field form its constant and linear monomials as products of rows, like
the others.  A step owns its buffers: one state buffer, into which each
stage input is written in place (the last one is the step's end), and
one (13, d, n) stage array, whose rows the field fills.  A step where
lanes hit an event keeps their columns of the stage array; the dense
output (three more stages, in rows 13-15 of the same layout, and the
interpolant rows read from them) is built once per run, for those lanes
only, just before the events are located.

Every sum over stages is accumulated term by term in a fixed order,
never by a matrix product, whose summation order depends on the array
shape.  All other arithmetic is elementwise and correctly rounded
(+ - * /, square roots, abs, min, max), so a lane gives the same bits
alone as in any batch.

Also here: the one bracketed root finder, a lockstep Illinois search
(``illinois``).  It locates the events above, refines the sign-change
cells of sampled values (``sign_changes``, ``grid_roots``) for the cycle
census, both Melnikov zero counts and the centroid line intersections,
and solves the oval slice endpoints whose closed-form start fails its
sign test (``ovals``).  Where the function also returns slopes (the
census), the search takes Newton steps inside each bracket, and where
the sampled values come with slopes (the census's sub-grids) each
bracket starts at the root of its cubic Hermite interpolant.
"""
from __future__ import annotations

import math

import numpy as np

from . import dop853 as _dop

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
MAX_STEP = 0.2          # bound on every step of every lane
ATOL_PER_RTOL = 0.01    # atol of every run, as a share of its rtol
EVENT_TOL = 4.0 * np.finfo(float).eps       # solve_ivp's event-root tolerance
MAXITER = 200           # round cap of every Illinois search


def _terms(row) -> tuple[tuple[int, float], ...]:
    return tuple((j, float(c)) for j, c in enumerate(row) if c != 0.0)


_N_STAGES = _dop.N_STAGES
# Sums over the stages of one step, accumulated as each stage arrives:
# rows 0..10 feed stages 1..11, row 11 (B) feeds y_new, whose derivative
# is stage 12, then the err5 and err3 estimates.  Column j multiplies
# stage j; stage 12 has zero weight in both error estimates.
_W = np.vstack([_dop.A[1:_N_STAGES, :_N_STAGES], _dop.B,
                _dop.E5[:_N_STAGES], _dop.E3[:_N_STAGES]])[:, :, None, None]
# the three extra stages and the interpolant rows of the dense output
_EXTRA = tuple(_terms(_dop.A[s, :s])
               for s in range(_N_STAGES + 1, _dop.N_STAGES_EXTENDED))
_D = tuple(_terms(row) for row in _dop.D)


def _combo(terms, K):
    """sum(c * K[j] for j, c in terms), accumulated in the listed order."""
    (j, c), *rest = terms
    acc = c * K[j]
    for j, c in rest:
        acc += c * K[j]
    return acc


def _root8(x):
    # x**(1/8) from correctly rounded square roots
    return np.sqrt(np.sqrt(np.sqrt(x)))


def _rms(z):
    return np.sqrt(z[0] * z[0] + z[1] * z[1]) / math.sqrt(2.0)


def state(z):
    """The state buffer of lanes z, shape (d, n), that a field reads: a
    (d + 1, n) array whose row 0 is ones and whose rows 1..d are z."""
    e = np.empty((len(z) + 1, z.shape[1]))
    e[0] = 1.0
    e[1:] = z
    return e


def evaluate(field, z):
    """The derivatives of lanes z, shape (d, n), as a new array."""
    return field(state(z), np.empty(z.shape))


def _initial_step(field, z, f, t_end, rtol, atol):
    """scipy's select_initial_step, per lane (error estimator order 7)."""
    scale = atol + np.abs(z) * rtol
    d0, d1 = _rms(z / scale), _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_end)
    d2 = _rms((evaluate(field, z + h0 * f) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                  np.maximum(1e-6, h0 * 1e-3),
                  _root8(0.01 / np.maximum(d1, d2)))
    return np.minimum(np.minimum(100.0 * h0, h1),
                      np.minimum(t_end, MAX_STEP))


def _interpolant(field, K, h, z, y):
    """DOP853 interpolant coefficients, shape (7, d, n), of lanes whose
    steps z -> y of size h have the stages K, shape (13, d, n); the three
    extra stages go into rows 13-15 of one stage array, as in a step."""
    K = np.concatenate([K, np.empty((len(_EXTRA),) + z.shape)])
    e = state(z)
    for s, terms in enumerate(_EXTRA, start=_N_STAGES + 1):
        np.multiply(_combo(terms, K), h, out=e[1:])
        e[1:] += z
        field(e, K[s])
    dy = y - z
    return np.array([dy, h * K[0] - dy, 2.0 * dy - h * (K[_N_STAGES] + K[0])]
                    + [h * _combo(terms, K) for terms in _D])


def _dense_eval(t_old, h, z_old, F, t):
    x = (t - t_old) / h
    y = np.zeros_like(z_old)
    for i, f in enumerate(reversed(F)):
        y += f
        y *= x if i % 2 == 0 else 1.0 - x
    return y + z_old


def illinois(fun, a, b, fa, fb, xtol, rtol, start=None):
    """Lockstep Illinois (modified regula falsi) search for one root in
    each sign-change bracket [a[i], b[i]] with end values fa[i], fb[i],
    safeguarded Newton where fun also returns slopes.

    fun(i, x) evaluates brackets i at points x: their values, or a
    (values, slopes) pair.  A nan value abandons a bracket, whose root is
    then nan.  A bracket's first point is its regula falsi point, or
    start[i] where start is given and start[i] is not nan.  After a
    point x with value v and slope d, the next point is the Newton target
    x - v/d if it lies in the bracket, else the Illinois point (Numerical
    Recipes' rtsafe).  A bracket is done when it is narrower than
    xtol + rtol*|b|, a point evaluates to exactly 0, or a Newton target
    in the bracket lies within xtol + rtol*|x| of x; its root is the last
    point evaluated, also after MAXITER rounds.
    Every point lies half the width tolerance or more inside its bracket
    (brentq's minimum step), so an end at the root cannot stall the
    search.  Each bracket's iterates depend on its own values only.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    root = np.where(fa == 0.0, a, b)
    step = None             # Newton steps v/d at root, once fun gives slopes
    live = (fa != 0.0) & (fb != 0.0)
    kept = np.zeros(a.size, dtype=int)      # end retained last: 1 a, -1 b
    for k in range(MAXITER):
        live &= np.abs(b - a) > xtol + rtol * np.abs(b)
        if step is not None:
            target = root - step
            newton = ((np.minimum(a, b) <= target)
                      & (target <= np.maximum(a, b)))
            live &= ~(newton & (np.abs(step) <= xtol + rtol * np.abs(root)))
        i = np.flatnonzero(live)
        if not i.size:
            break
        ai, bi = a[i], b[i]
        c = (ai * fb[i] - bi * fa[i]) / (fb[i] - fa[i])
        if step is not None:
            c = np.where(newton[i], target[i], c)
        elif k == 0 and start is not None:
            c = np.where(np.isnan(start[i]), c, start[i])
        tol = 0.5 * (xtol + rtol * np.abs(bi))
        c = np.fmax(np.minimum(ai, bi) + tol,
                    np.fmin(c, np.maximum(ai, bi) - tol))
        fc = fun(i, c)
        if isinstance(fc, tuple):
            fc, dc = fc
            if step is None:
                step = np.full(a.size, np.nan)
            with np.errstate(divide="ignore", invalid="ignore"):
                step[i] = fc / dc
        root[i] = np.where(np.isnan(fc), np.nan, c)
        live[i[np.isnan(fc) | (fc == 0.0)]] = False
        to_b, to_a = fc * fb[i] > 0.0, fc * fa[i] > 0.0
        ib, ia = i[to_b], i[to_a]
        fa[ib[kept[ib] == 1]] *= 0.5
        fb[ia[kept[ia] == -1]] *= 0.5
        b[ib], fb[ib], kept[ib] = c[to_b], fc[to_b], 1
        a[ia], fa[ia], kept[ia] = c[to_a], fc[to_a], -1
    return root


# Illinois tolerances of a grid root unless its caller sets its own: both
# Melnikov zero counts (the census refines to its flow's error scale)
ROOT_XTOL, ROOT_RTOL = 1e-10, 8.9e-16


def sign_changes(vals):
    """The exact zeros (vals[i] == 0) and the sign-change cells
    (vals[i] * vals[i+1] < 0) of sampled values, as two index arrays.
    A nan never opens a cell."""
    vals = np.asarray(vals, dtype=float)
    return (np.flatnonzero(vals == 0.0),
            np.flatnonzero(vals[:-1] * vals[1:] < 0.0))


def _hermite_roots(a, b, fa, fb, da, db):
    """A root in each cell [a[i], b[i]] of the cubic Hermite interpolant
    of the end values fa, fb (of opposite signs) and end slopes da, db:
    the same search on the cubic, to EVENT_TOL.  nan where the cubic is
    not finite (a nan or infinite slope), the one case in which it has
    no root in the cell."""
    h, df = b - a, fb - fa
    # H = fa + t*(c1 + t*(c2 + t*c3)) with t = (x - a)/h
    c1 = h * da
    c2 = 3.0 * df - h * (2.0 * da + db)
    c3 = h * (da + db) - 2.0 * df
    f0 = np.where(np.isfinite(c1 + c2 + c3), fa, np.nan)

    def cubic(i, x):
        t = (x - a[i]) / h[i]
        return (f0[i] + t * (c1[i] + t * (c2[i] + t * c3[i])),
                (c1[i] + t * (2.0 * c2[i] + 3.0 * t * c3[i])) / h[i])

    return illinois(cubic, a, b, f0, fb, 0.0, EVENT_TOL)


def grid_roots(fun, grid, vals, slopes=None, xtol=ROOT_XTOL, rtol=ROOT_RTOL):
    """Sorted roots of a function sampled as vals on grid: its exact
    zeros plus one lockstep Illinois root in each sign-change cell, to
    the tolerances xtol and rtol.

    fun maps an array of points to their values, or to a (values,
    slopes) pair for Newton steps; a bracket abandoned on a nan value
    gives a nan root, sorted last.  A nan node separates the cells on
    either side of it.  With slopes at the grid nodes, each cell's
    search starts at a root of its cubic Hermite interpolant
    (``_hermite_roots``), or at its regula falsi point where that is nan.
    """
    grid, vals = np.asarray(grid, dtype=float), np.asarray(vals, dtype=float)
    zeros, i = sign_changes(vals)
    a, b, fa, fb = grid[i], grid[i + 1], vals[i], vals[i + 1]
    start = None
    if slopes is not None:
        slopes = np.asarray(slopes, dtype=float)
        with np.errstate(invalid="ignore"):     # inf - inf: a nan cubic
            start = _hermite_roots(a, b, fa, fb, slopes[i], slopes[i + 1])
    refined = illinois(lambda _, x: fun(x), a, b, fa, fb, xtol, rtol,
                       start)
    return np.sort(np.concatenate([grid[zeros], refined]))


def _event_values(events, z):
    """(len(events), n) values of the event functions at lanes z."""
    return np.array([fn(z) for fn, _ in events]).reshape(len(events),
                                                         z.shape[1])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def advance(field, z, t_end, events, rtol, record=None):
    """Advance lanes z (shape (d, n), d >= 2) from t = 0 to t_end,
    stopping each lane at the first of its terminal events.

    field follows the module's field contract: field(e, out) writes the
    derivatives of the states in rows 1..d of e, whose row 0 is ones, into
    out.  A step evaluates it 12 times, stage j + 1 from the sum of the
    stages before it, into row j + 1 of the step's stage array.  Error
    control and the first step read rows 0-1 only.  events holds (func,
    direction) pairs, possibly none: func maps a (d, m) array to m
    values, direction is as in solve_ivp.  The tolerances are rtol and
    ATOL_PER_RTOL*rtol, and MAX_STEP bounds every step of every lane.
    Every step takes one path, whatever its lanes do: a lane retrying a
    rejected step (a mask from the first step) keeps its reduced step
    and may not grow it, and an event fires where its function rises
    through zero (direction >= 0) or falls through it (direction <= 0).
    Returns (status, which, z_stop) per lane: the status (0 reached
    t_end, 1 event, -1 step size underflow or not finite), the index of
    the event that stopped it (-1 if none), and the state where it
    stopped.
    Event times are roots of the event function on the step's dense
    output, read from the stage array of the step, located to 4 eps as
    solve_ivp does.  A list passed as record receives (t, z) at the end
    of every step for the lanes that accepted it: the steps of a one-lane
    run.
    """
    d, n = z.shape
    status = np.zeros(n, dtype=int)
    which = np.full(n, -1)
    z_stop = z.copy()
    dirs = np.array([dn for _, dn in events]).reshape(len(events), 1)
    rising, falling = dirs >= 0, dirs <= 0
    lane = np.arange(n)
    t = np.zeros(n)
    f = evaluate(field, z)
    atol = ATOL_PER_RTOL * rtol
    h_abs = _initial_step(field, z, f, t_end, rtol, atol)
    retry = np.zeros(n, dtype=bool)     # lanes retrying a rejected step
    g = _event_values(events, z)
    hits = []   # lanes, bracket, step ends, stages and event values
    while lane.size:
        min_step = 10.0 * np.spacing(t)
        h_abs = np.where(retry, h_abs,
                         np.minimum(np.maximum(h_abs, min_step), MAX_STEP))
        failed = ~(h_abs >= min_step)   # a nan step fails too
        t_new = np.minimum(t + h_abs, t_end)
        h = t_new - t
        # the stages, the running sums and the state buffer; each stage
        # input is written into the buffer's rows 1..d, and the last one
        # is the step's end y
        K = np.empty((_N_STAGES + 1, d, lane.size))
        K[0] = f
        S = np.zeros((len(_W), d, lane.size))
        e = np.empty((d + 1, lane.size))
        e[0] = 1.0
        y = e[1:]
        for j in range(_N_STAGES):
            S[j:] += _W[j:, j] * K[j]
            np.multiply(S[j], h, out=y)
            y += z
            field(e, K[j + 1])
        scale = atol + np.maximum(np.abs(z[:2]), np.abs(y[:2])) * rtol
        e53 = S[-2:, :2] / scale
        n53 = np.add.reduce(e53 * e53, axis=1)
        n5, n3 = n53[0], n53[1]
        err = np.where(n53.any(axis=0),
                       h * n5 / np.sqrt((n5 + 0.01 * n3) * 2.0), 0.0)
        ok = (err < 1.0) & ~failed
        # err < 1 puts the factor (inf where err is 0) at or above SAFETY
        # and err >= 1 at or below it, so one clip serves accepted and
        # rejected lanes alike (fmax takes a nan factor to MIN_FACTOR)
        factor = SAFETY / _root8(err)
        h_abs = h * np.fmax(MIN_FACTOR, np.minimum(
            np.where(retry, 1.0, MAX_FACTOR), factor))
        retry = ~ok
        if record is not None:
            record.append((t_new[ok], y[:, ok]))

        g_new = _event_values(events, y)
        act = ok & ((rising & (g <= 0.0) & (g_new >= 0.0))
                    | (falling & (g >= 0.0) & (g_new <= 0.0)))
        fired = act.any(axis=0)
        if fired.any():
            p = np.flatnonzero(fired)
            hits.append((lane[p], t[p], t_new[p], h[p], z[:, p], y[:, p],
                         K[..., p], act[:, p], g[:, p], g_new[:, p]))
        z = np.where(ok, y, z)
        f = np.where(ok, K[-1], f)
        t = np.where(ok, t_new, t)
        g = np.where(ok, g_new, g)
        leave = failed | fired | (t >= t_end)
        if leave.any():
            status[lane[failed]] = -1
            stop = leave & ~fired       # a failed lane stops where it stands
            z_stop[:, lane[stop]] = z[:, stop]
            keep = ~leave
            lane, t, z, f = lane[keep], t[keep], z[:, keep], f[:, keep]
            h_abs, g, retry = h_abs[keep], g[:, keep], retry[keep]

    if hits:
        lanes, t0, t1, h, z0, y1, K, act, ga, gb = (
            np.concatenate(v, axis=-1) for v in zip(*hits))
        F = _interpolant(field, K, h, z0, y1)
        t_hit = np.full(act.shape, np.inf)
        for k, (fn, _) in enumerate(events):
            i = np.flatnonzero(act[k])

            def gk(j, tt, i=i, fn=fn):
                m = i[j]
                return fn(_dense_eval(t0[m], h[m], z0[:, m], F[..., m], tt))

            t_hit[k, i] = illinois(gk, t0[i], t1[i], ga[k, i], gb[k, i],
                                   EVENT_TOL, EVENT_TOL)
        first = np.argmin(t_hit, axis=0)
        th = t_hit[first, np.arange(lanes.size)]
        status[lanes], which[lanes] = 1, first
        z_stop[:, lanes] = _dense_eval(t0, h, z0, F, th)
    return status, which, z_stop
