"""Direct integration of the perturbed flows and limit-cycle detection.

The perturbed system is dH + eps*omega = 0 with omega = f dx + g dy,
i.e. xdot = H_y + eps*g, ydot = -H_x - eps*f, for quadratic f and g.
The appendix family uses f = (16 + c*x - pi*sqrt(3)*y)*y + mu1 + mu2*y,
g = 0.  The field is defined once, as two coefficient tuples
(``FlowSpec.coeffs``); ``FlowSpec.rhs``, ``FlowSpec.jacobian`` and the
lockstep lanes all evaluate those, so ``rhs`` and the lanes see the
same field bit for bit.

Every run is a lockstep DOP853 batch (``saddleloop.lockstep``) at the
flow's tolerance under the engine's own step policy (an atol of
``lockstep.ATOL_PER_RTOL`` times the tolerance and steps of at most
``lockstep.MAX_STEP``); near the saddles, where passage times diverge,
the error control alone sets the step.  All lanes advance together
as numpy arrays, each with its own step control.  The Poincare return
maps (``return_maps``), the census's return slopes, whose third row
integrates the divergence (``_returns_and_slopes``), and the four
separatrix runs of ``separatrix_shifts``, whose stable lanes run
backward through a constant time-sign row, stop on events located on
each lane's dense output; the recorded trajectory of ``sim --traj``
(``integrate``) is one lane with no events.  Also here: a cycle census by
displacement sign changes, refined together by one batch over a
sub-grid of every sign-change cell and then a lockstep Illinois search
that starts each sub-cell at its Hermite root and takes Newton steps
with the refinement lanes' slopes, saddle traces by Newton
continuation, and separatrix shift functions measured in the
Hamiltonian chart on mid-connection transversals.

Cycle detection is fixed-point based rather than attractor settling:
the cycles of interest can be repelling or nearly neutral (traces are
O(eps)), so forward settling would miss them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lockstep import (ATOL_PER_RTOL, advance, evaluate, grid_roots,
                       sign_changes)
from .model import (APPENDIX_SPEC, Annulus, Family, HamiltonianSpec,
                    MelnikovCoeffs, PerturbationSpec, critical_data,
                    require_finite)
from .ovals import SectionSegment, section_segment

FLOW_TOL = 1e-10            # integrator rtol of a flow unless it sets its own
RETURN_T_MAX = 400.0        # return-map time limit unless a caller sets one
CENSUS_POINTS = 100         # default census grid size, also its minimum
SUBGRID_POINTS = 15         # evenly spaced inner points of a census cell
ESCAPE_RADIUS = 12.0        # |z| at which a trajectory has left the loop region
BURN_IN = 1e-3              # return-map lead time before the section event arms
SEPARATRIX_OFFSET = 1e-8    # launch distance along the saddle eigenvectors
SEPARATRIX_T_MAX = 60.0     # time budget for a separatrix to reach x = 0


def _poly_val(c, x, y):
    # the monomials are formed first, the order _lockstep_field uses, so
    # rhs and the lanes see the same field bit for bit
    return (c[0] + c[1] * x + c[2] * y + c[3] * (x * x) + c[4] * (x * y)
            + c[5] * (y * y))


def _poly_dx(c, x, y):
    return c[1] + 2.0 * c[3] * x + c[4] * y


def _poly_dy(c, x, y):
    return c[2] + c[4] * x + 2.0 * c[5] * y


@dataclass(frozen=True)
class QuadraticOneForm:
    """omega = f dx + g dy with quadratic coefficient tuples ordered as
    (1, x, y, x^2, x*y, y^2)."""

    f: tuple[float, float, float, float, float, float]
    g: tuple[float, float, float, float, float, float] = (0.0,) * 6

    def __post_init__(self):
        if len(self.f) != 6 or len(self.g) != 6:
            raise ValueError("quadratic coefficient tuples have 6 entries")
        require_finite("one-form coefficients f, g", *self.f, *self.g)

    def first_order_coeffs(self) -> MelnikovCoeffs:
        """(alpha, beta) of M_1 = alpha*J_0 + beta*J_1 for this form.

        Green's theorem on the clockwise ovals turns the loop integral
        of omega into the area integral of f_y - g_x; the constant and
        x moments give alpha and beta, while the y moment integrates to
        zero by the y-symmetry of the ovals.
        """
        alpha = self.f[2] - self.g[1]
        beta = self.f[4] - 2.0 * self.g[3]
        return MelnikovCoeffs(alpha=alpha, beta=beta, gamma=0.0, order_k=1)

    def gamma_direction(self) -> float:
        """Coefficient of the y moment (2*f02 - g11).  When the first
        order coefficients vanish but this does not, the perturbation is
        gamma-type: M_1 = 0, and on an H even in y the pure form c/2 y^2
        dx is reversible, (x, y, t) -> (x, -y, -t), so all M_k vanish."""
        return 2.0 * self.f[5] - self.g[4]

    @classmethod
    def gamma_type(cls, c: float = 1.0) -> "QuadraticOneForm":
        return cls(f=(0.0, 0.0, 0.0, 0.0, 0.0, 0.5 * c))


@dataclass(frozen=True)
class FlowSpec:
    """The perturbed flow dH + eps*omega = 0 and the relative tolerance
    every integration of it runs at.  ``epsilon`` must be finite, and
    ``tol`` finite, at least 100 float64 machine epsilons (solve_ivp's
    own rtol floor) and below 1: at a tighter one a run need not end, a
    looser one controls no error."""

    hamiltonian: HamiltonianSpec
    epsilon: float
    one_form: QuadraticOneForm
    tol: float = FLOW_TOL

    def __post_init__(self):
        require_finite("flow epsilon", self.epsilon)
        floor = 100.0 * np.finfo(float).eps
        if not floor <= self.tol < 1.0:     # a nan fails both comparisons
            raise ValueError(f"flow tolerance must lie in [{floor:.3g}, 1), "
                             f"got {self.tol}")

    @cached_property
    def coeffs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(xdot, ydot) = (H_y + eps*g, -H_x - eps*f) as quadratic
        coefficient tuples ordered as (1, x, y, x^2, x*y, y^2): the
        flow's one field."""
        hx, hy = self.hamiltonian.grad_H_coeffs()
        e, w = self.epsilon, self.one_form
        return (tuple(p + e * q for p, q in zip(hy, w.g)),
                tuple(-p - e * q for p, q in zip(hx, w.f)))

    def rhs(self, t, z):
        cx, cy = self.coeffs
        x, y = z
        return _poly_val(cx, x, y), _poly_val(cy, x, y)

    def jacobian(self, z) -> np.ndarray:
        cx, cy = self.coeffs
        x, y = z
        return np.array([[_poly_dx(cx, x, y), _poly_dy(cx, x, y)],
                         [_poly_dx(cy, x, y), _poly_dy(cy, x, y)]])

    def energy(self, z) -> float:
        return self.hamiltonian.eval_H(z[0], z[1])


def appendix_flow(pert: PerturbationSpec, tol: float = FLOW_TOL) -> FlowSpec:
    """The appendix flow, with the one-form of the module docstring."""
    f = (pert.mu1, 0.0, 16.0 + pert.mu2, 0.0, pert.c,
         -math.pi * math.sqrt(3.0))
    return FlowSpec(hamiltonian=APPENDIX_SPEC, epsilon=pert.epsilon,
                    one_form=QuadraticOneForm(f=f), tol=tol)


@dataclass
class Trajectory:
    ts: np.ndarray
    states: np.ndarray          # shape (n, 2)
    status: str                 # completed | failed
    n_segments: int = 1         # always 1: one lockstep lane per trajectory


def integrate(flow: FlowSpec, start, T: float) -> Trajectory:
    """The trajectory of ``sim --traj``: one lockstep lane over [0, T]
    with no events, at the flow's tolerance, with the start and every
    accepted step recorded, from a finite start over a finite T > 0.  A
    run whose step size underflows or is not finite (the field
    overflowed) stops there: status failed, at time ``ts[-1]``."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"duration must be positive and finite, got {T}")
    z = np.asarray(start, dtype=float).reshape(2, 1)
    require_finite("start point", *z.ravel().tolist())
    steps = []
    status = advance(_lockstep_field(flow), z, T, (), flow.tol,
                     record=steps)[0]
    ts = np.concatenate([[0.0]] + [t for t, _ in steps])
    states = np.hstack([z] + [y for _, y in steps]).T
    return Trajectory(ts, states, "failed" if status[0] == -1 else "completed")


@dataclass(frozen=True)
class ReturnResult:
    s_return: float | None
    reason: str          # ok | escape | left_annulus | timeout | failed


REASONS = ("ok", "escape", "left_annulus", "timeout", "failed")
_OK, _ESCAPE, _LEFT, _TIMEOUT, _FAILED = range(len(REASONS))


def _escape(z):
    return z[0] * z[0] + z[1] * z[1] - ESCAPE_RADIUS * ESCAPE_RADIUS


def _lockstep_field(flow: FlowSpec):
    """FlowSpec.rhs under the lockstep field contract (``lockstep.advance``):
    it reads a state buffer e, whose rows 0-2 are (1, x, y), and writes
    into out, from the same coefficients and in the same order, with the
    monomials whose coefficients vanish in every component left out.  On
    (2, n) lanes out has two rows.  On (3, n) lanes row 2 integrates the
    divergence -eps*(alpha + beta x + gamma_dir y), exact from the
    one-form's first-order coefficients and y moment
    (``QuadraticOneForm.first_order_coeffs``, ``gamma_direction``), as
    the Hamiltonian part is divergence-free.  Rows of e past row 2 are
    not read.

    The kept monomials come from one gather of their factor rows of e
    (row 0 is ones, so 1 and x are 1*1 and x*1); all components are one
    product with their coefficient columns and one np.add.reduce over
    the monomials into out, which adds the terms monomial by monomial, in
    rhs's order, so rows 0-1 of (3, n) lanes only gain zero terms."""
    w, eps = flow.one_form, flow.epsilon
    m1 = w.first_order_coeffs()
    div = (-eps * m1.alpha, -eps * m1.beta, -eps * w.gamma_direction(),
           0.0, 0.0, 0.0)
    coef = np.array(flow.coeffs + (div,))
    # the monomials (1, x, y, x^2, x*y, y^2) as products of rows of (1, x, y)
    pairs = np.array([(0, 0), (1, 0), (2, 0), (1, 1), (1, 2), (2, 2)])
    by_rows = {}        # out rows: (2, monomial, 1) factor rows of e and
    for rows in (2, 3):     # the (monomial, row, 1) coefficient block
        kept = [0] + [k for k in range(1, 6) if coef[:rows, k].any()]
        by_rows[rows] = (pairs[kept].T[:, :, None],
                         coef[:rows, kept].T[:, :, None])

    def field(e, out):
        factors, c = by_rows[len(out)]
        ab = e.take(factors, axis=0)
        return np.add.reduce(c * (ab[0] * ab[1]), axis=0, out=out)

    return field


@dataclass(frozen=True)
class ReturnLanes:
    """First returns of many starting points, one entry per lane."""

    s_return: np.ndarray        # nan where the lane did not return
    reason: np.ndarray          # entries of REASONS


def _first_returns(field, z, section: SectionSegment, T_max: float,
                   tol: float):
    """First returns of lanes z, shape (d, n), whose rows 0-1 start on the
    section, advanced in lockstep under tol.

    Each lane first runs a BURN_IN lead with only the escape event
    armed, so that the departure itself cannot register as the return.
    Then the section crossing (off-section coordinate, in the section's
    direction) and the escape event are armed until T_max.  A lane's
    reason is ok, escape, left_annulus (it crossed the section line
    outside the annulus: it slipped through a broken connection),
    timeout (no crossing within T_max) or failed (a step size that
    underflows or is not finite).
    Returns per lane the reason code and the state at the return, nan
    where the lane did not return.
    """
    if not BURN_IN < T_max < math.inf:
        raise ValueError(f"T_max must be finite and exceed the burn-in "
                         f"{BURN_IN}, got {T_max}")
    lo, hi = section.s_bounds()
    coord = section.row
    outside = ~((lo <= z[coord]) & (z[coord] <= hi))
    if outside.any():
        raise ValueError(f"s={z[coord][outside][0]} outside section range "
                         f"{section.s_bounds()}")
    reason = np.full(z.shape[1], _FAILED)
    z_ret = np.full(z.shape, np.nan)
    st, _, z = advance(field, z, BURN_IN, ((_escape, 1),), tol)
    reason[st == 1] = _ESCAPE
    go = np.flatnonzero(st == 0)
    events = ((lambda z: z[1 - coord], section.direction), (_escape, 1))
    st, which, z = advance(field, z[:, go], T_max - BURN_IN, events, tol)
    crossed = (st == 1) & (which == 0)
    inside = (lo <= z[coord]) & (z[coord] <= hi)
    r = np.select([crossed & inside, crossed, st == 1, st == 0],
                  [_OK, _LEFT, _ESCAPE, _TIMEOUT], _FAILED)
    reason[go] = r
    ok = r == _OK
    z_ret[:, go[ok]] = z[:, ok]
    return reason, z_ret


def return_maps(flow: FlowSpec, section: SectionSegment, s,
                T_max: float) -> ReturnLanes:
    """First returns to the section from every coordinate in s: one
    lockstep batch of (2, n) lanes under the flow's tolerance
    (``_first_returns``, which defines the reasons)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    c = section.row
    z = np.zeros((2, s.size))
    z[c] = s
    reason, z = _first_returns(_lockstep_field(flow), z, section, T_max,
                               flow.tol)
    return ReturnLanes(z[c], np.array(REASONS)[reason])


def _returns_and_slopes(flow: FlowSpec, section: SectionSegment, s,
                        T_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Return coordinates and slopes P'(s) from every coordinate in s, nan
    where the lane did not return: return_maps' lanes plus a row 2 that
    integrates div f, and P' = f_o(p) / f_o(q) * exp(int div f dt) from
    p to the return q on the section z_o = 0 (Liouville's formula)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    c, o = section.row, 1 - section.row
    z = np.zeros((3, s.size))
    z[c] = s
    field = _lockstep_field(flow)
    _, q = _first_returns(field, z, section, T_max, flow.tol)
    return q[c], (evaluate(field, z[:2])[o] / evaluate(field, q[:2])[o]
                  * np.exp(q[2]))


def return_map(flow: FlowSpec, section: SectionSegment,
               s: float) -> ReturnResult:
    """First return to the section in the flow direction within
    RETURN_T_MAX: one lane of return_maps.  No-return outcomes are
    reported as data, not errors."""
    lanes = return_maps(flow, section, s, T_max=RETURN_T_MAX)
    if lanes.reason[0] != "ok":
        return ReturnResult(None, str(lanes.reason[0]))
    return ReturnResult(float(lanes.s_return[0]), "ok")


def displacement(flow: FlowSpec, section: SectionSegment,
                 s: float) -> float | None:
    res = return_map(flow, section, s)
    return None if res.s_return is None else res.s_return - s


def _sub_grids(grid, vals, cells):
    """The sub-grid of each sign-change cell of the census grid, one row
    per cell, sorted: its two ends, its regula falsi point and
    SUBGRID_POINTS evenly spaced inner points."""
    a, b, fa, fb = grid[cells], grid[cells + 1], vals[cells], vals[cells + 1]
    inner = np.arange(1, SUBGRID_POINTS + 1) / (SUBGRID_POINTS + 1)
    nodes = np.column_stack([a, b, (a * fb - b * fa) / (fb - fa),
                             a[:, None] + (b - a)[:, None] * inner])
    nodes.sort(axis=1)
    return nodes


@dataclass(frozen=True)
class Cycle:
    section_coordinate: float
    energy_estimate: float
    stability: str                      # attracting | repelling | undetermined
    return_derivative: float


@dataclass(frozen=True)
class CycleCensus:
    cycles: tuple[Cycle, ...]
    saddle_traces: tuple[float, float] | None
    shifts: tuple[float, float] | None
    degenerate_continuum: bool
    no_return_count: int
    grid_size: int
    window: tuple[float, float]         # the scanned section coordinates
    outcomes: dict[str, int] = field(default_factory=dict)  # lanes by reason
    refine_rounds: int = 0              # serial refinement batches
    refine_lanes: int = 0               # lanes over all of them
    unresolved_cells: int = 0           # sign-change cells that lost a lane
    # saddle data that raised ("traces", "shifts"): the error message
    unmeasured: dict[str, str] = field(default_factory=dict)


def census(flow: FlowSpec, annulus: Annulus = Annulus.SIGMA_PLUS,
           s_range=None, n: int = CENSUS_POINTS, T_max: float = RETURN_T_MAX,
           with_saddle_data: bool = False) -> CycleCensus:
    """Limit-cycle census by return-map fixed points on one annulus.

    s_range defaults to the full section span (slightly shrunk); pass a
    narrow window near the loop end for near-loop censuses.  The grid is
    one lockstep batch of return maps.  Its exact displacement zeros are
    cycles, and its sign-change cells are refined on (3, n) lanes, whose
    slopes P' (``_returns_and_slopes``) come with each return.  The first
    refinement round is one batch over every sign-change cell's sub-grid
    (``_sub_grids``: its ends, its regula falsi point and SUBGRID_POINTS
    inner points).  Every sign change of a sub-grid is one cycle
    (``lockstep.grid_roots``: all brackets refined in one lockstep
    Illinois search, each root in its own sub-cell, so a cell hiding
    three roots gives three, and none is merged away however close).
    Each search starts at the root of the sub-cell's cubic Hermite
    interpolant of P(s) - s and takes Newton steps until one lies within
    the integrator's error scale at the root, ATOL_PER_RTOL*tol +
    tol*|s| for the flow's tol.  Each root carries the slope of the round
    that evaluated it.  refine_rounds and refine_lanes count the
    refinement batches and their lanes; a census without a sign change
    refines nothing.
    unresolved_cells counts the sign-change cells in which a refinement
    lane did not return, so a cycle there may be missing, and
    no_return_count the grid lanes without a return plus those cells.
    A flow whose perturbation part is zero has a continuum of closed
    orbits and is reported as degenerate_continuum without a scan.
    with_saddle_data adds the saddle traces and connection shifts of an
    appendix flow; either is None when its measurement raises
    RuntimeError (a saddle that Newton loses, a separatrix that misses
    the transversal), and unmeasured keeps the message.
    """
    if n < CENSUS_POINTS:
        raise ValueError(f"census needs a grid of at least {CENSUS_POINTS} "
                         f"points")
    sec = section_segment(flow.hamiltonian, annulus)
    lo, hi = sec.s_bounds()
    if s_range is None:
        span0 = hi - lo
        lo, hi = lo + 1e-3 * span0, hi - 1e-3 * span0
    else:
        lo, hi = float(s_range[0]), float(s_range[1])
        if not (sec.contains(lo) and sec.contains(hi)):
            raise ValueError(f"s_range {s_range} outside section "
                             f"{sec.s_bounds()}")
        if not lo < hi:
            raise ValueError(f"s_range {s_range} must be increasing")
    grid = np.linspace(lo, hi, n)

    if not any(flow.epsilon * q for q in flow.one_form.f + flow.one_form.g):
        return CycleCensus(cycles=(), saddle_traces=None, shifts=None,
                           degenerate_continuum=True, no_return_count=0,
                           grid_size=n, window=(lo, hi))

    lanes = return_maps(flow, sec, grid, T_max=T_max)
    outcomes = {r: int(np.count_nonzero(lanes.reason == r))
                for r in REASONS if r in lanes.reason}
    slope_at = {}       # P' of every refinement point; each root is one
    rounds = []         # lanes of every refinement round
    lost = []           # refinement points that did not return

    def displacements(s):
        s_ret, slopes = _returns_and_slopes(flow, sec, s, T_max)
        slope_at.update(zip(s.tolist(), slopes.tolist()))
        rounds.append(s.size)
        lost.extend(s[np.isnan(s_ret)].tolist())
        return s_ret - s, slopes - 1.0

    vals = lanes.s_return - grid
    zeros, cells = sign_changes(vals)
    roots = grid[zeros]
    if cells.size:
        # one batch of every sign-change cell's sub-grid, then the sub-grids
        # in a row, each closed by a nan node so that no two cells join,
        # without a node that repeats the one before it
        nodes = _sub_grids(grid, vals, cells)
        sep = np.full((cells.size, 1), np.nan)
        sub, d, dd = (np.hstack([v.reshape(nodes.shape), sep]).ravel()
                      for v in (nodes, *displacements(nodes.ravel())))
        keep = np.append(True, sub[1:] != sub[:-1])
        # roots to the integrator's error scale at them
        refined = grid_roots(displacements, sub[keep], d[keep], dd[keep],
                             ATOL_PER_RTOL * flow.tol, flow.tol)
        roots = np.sort(np.append(roots, refined[~np.isnan(refined)]))
    found = roots.tolist()
    unseen = [r for r in found if r not in slope_at]    # exact grid zeros
    if unseen:
        displacements(np.array(unseen))
    lost = np.array(lost)
    unresolved = int(np.count_nonzero(
        ((grid[cells, None] <= lost) & (lost <= grid[cells + 1, None]))
        .any(axis=1)))
    no_return = n - outcomes.get("ok", 0) + unresolved

    cycles = []
    for r in found:
        dv = slope_at[r]
        if math.isnan(dv) or abs(dv - 1.0) < 1e-5:
            stab = "undetermined"
        elif abs(dv) < 1.0:
            stab = "attracting"
        else:
            stab = "repelling"
        cycles.append(Cycle(section_coordinate=r,
                            energy_estimate=sec.energy(r),
                            stability=stab, return_derivative=dv))

    traces = shifts = None
    unmeasured = {}
    if with_saddle_data and flow.hamiltonian.family is Family.APPENDIX_ELLIPSE:
        # one that raises stays None, so the scan is kept
        try:
            tp = saddle_traces(flow)
            traces = (tp.sigma1, tp.sigma2)
        except RuntimeError as exc:
            unmeasured["traces"] = str(exc)
        try:
            sh = separatrix_shifts(flow)
            shifts = (sh.b1, sh.b2)
        except RuntimeError as exc:
            unmeasured["shifts"] = str(exc)
    return CycleCensus(cycles=tuple(cycles), saddle_traces=traces,
                       shifts=shifts, degenerate_continuum=False,
                       no_return_count=no_return, grid_size=n,
                       window=(lo, hi), outcomes=outcomes,
                       refine_rounds=len(rounds), refine_lanes=sum(rounds),
                       unresolved_cells=unresolved, unmeasured=unmeasured)


class NewtonError(RuntimeError):
    pass


def _newton_saddle(flow: FlowSpec, seed) -> np.ndarray:
    z = np.asarray(seed, dtype=float)
    for _ in range(60):
        fx, fy = flow.rhs(0.0, z)
        res = np.array([fx, fy])
        if np.max(np.abs(res)) < 1e-14:
            return z
        step = np.linalg.solve(flow.jacobian(z), res)
        z = z - step
        if not np.all(np.isfinite(z)):
            raise NewtonError(f"saddle continuation diverged from {seed}")
    if np.max(np.abs(np.array(flow.rhs(0.0, z)))) > 1e-10:
        raise NewtonError(f"saddle continuation stalled near {z}")
    return z


def _continued_saddles(flow: FlowSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two saddles of the perturbed flow, by Newton from the
    unperturbed ones (``model.critical_data``)."""
    s1, s2 = critical_data(flow.hamiltonian).saddles
    return _newton_saddle(flow, s1.xy), _newton_saddle(flow, s2.xy)


@dataclass(frozen=True)
class TracePair:
    sigma1: float          # at the saddle continued from (-1, 0)
    sigma2: float          # at the saddle continued from (+1, 0)


def saddle_traces(flow: FlowSpec) -> TracePair:
    """Jacobian traces at the two continued saddles (appendix family)."""
    if flow.hamiltonian.family is not Family.APPENDIX_ELLIPSE:
        raise ValueError("saddle traces are defined for the appendix family")
    s1, s2 = _continued_saddles(flow)
    j1, j2 = flow.jacobian(s1), flow.jacobian(s2)
    return TracePair(sigma1=float(j1[0, 0] + j1[1, 1]),
                     sigma2=float(j2[0, 0] + j2[1, 1]))


def _eig_directions(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unstable, stable) unit eigenvectors of a 2x2 saddle Jacobian."""
    vals, vecs = np.linalg.eig(J)
    if np.iscomplexobj(vals) and np.max(np.abs(vals.imag)) > 1e-12:
        raise NewtonError("saddle eigenvalues are not real")
    vals, vecs = vals.real, vecs.real
    iu, js = int(np.argmax(vals)), int(np.argmin(vals))
    if vals[iu] <= 0.0 or vals[js] >= 0.0:
        raise NewtonError("continued point is not a saddle")
    u = vecs[:, iu] / np.linalg.norm(vecs[:, iu])
    v = vecs[:, js] / np.linalg.norm(vecs[:, js])
    return u, v


@dataclass(frozen=True)
class ShiftPair:
    b1: float       # lower connection (segment through y = 0)
    b2: float       # upper connection (half-ellipse arc)


def _signed_field(flow: FlowSpec):
    """The lockstep field on (3, n) lanes whose row 2 is a constant time
    sign: rows 0-1 of out get the sign times the field, so a lane with
    sign -1 runs the negated field, bit for bit, and row 2 gets 0."""
    rhs = _lockstep_field(flow)

    def signed(e, out):
        rhs(e, out[:2])
        out[:2] *= e[3]
        out[2] = 0.0
        return out

    return signed


def separatrix_shifts(flow: FlowSpec) -> ShiftPair:
    """Shift functions b_1, b_2 of the two broken connections.

    Each b_i is the difference of H-values, measured on the transversal
    x = 0, between the arriving unstable separatrix and the departing
    stable separatrix: b_i = H(unstable) - H(stable).  To first order
    b_1 = 2*eps*mu1 and b_2 = eps*(-2*mu1 - pi*sqrt(3)*mu2).

    Launch points sit SEPARATRIX_OFFSET along the saddle eigenvectors; the
    O(offset^2) manifold curvature error is far below the O(eps*mu) shifts.
    The four separatrices are one lockstep batch under the flow's
    tolerance: the unstable ones run forward, the
    stable ones backward (time sign -1, ``_signed_field``), each until it
    first crosses x = 0 or escapes, within SEPARATRIX_T_MAX.  Every lane
    starts near x = +-1, so its first crossing is the one sought.  A lane
    that escapes, times out or fails raises RuntimeError.
    """
    if flow.hamiltonian.family is not Family.APPENDIX_ELLIPSE:
        raise ValueError("shift functions are defined for the appendix family")
    s1, s2 = _continued_saddles(flow)
    u1, v1 = _eig_directions(flow.jacobian(s1))
    u2, v2 = _eig_directions(flow.jacobian(s2))

    # lower connection: flow runs from s2 to s1 along y = 0.
    u2 = u2 if u2[0] < 0.0 else -u2        # unstable of s2 into the segment
    v1 = v1 if v1[0] > 0.0 else -v1        # stable of s1 from inside
    # upper connection: flow runs from s1 over the arc to s2.
    u1 = u1 if u1[1] > 0.0 else -u1        # unstable of s1, ascending branch
    v2 = v2 if v2[1] > 0.0 else -v2        # stable of s2 from above
    z = np.vstack([np.column_stack([s2 + SEPARATRIX_OFFSET * u2,
                                    s1 + SEPARATRIX_OFFSET * v1,
                                    s1 + SEPARATRIX_OFFSET * u1,
                                    s2 + SEPARATRIX_OFFSET * v2]),
                   [1.0, -1.0, 1.0, -1.0]])
    st, which, z = advance(_signed_field(flow), z, SEPARATRIX_T_MAX,
                           ((lambda z: z[0], 0), (_escape, 1)), flow.tol)
    missed = np.flatnonzero((st != 1) | (which != 0))
    if missed.size:
        k = missed[0]
        outcome = ("escape" if st[k] == 1 else
                   "timeout" if st[k] == 0 else "failed")
        raise RuntimeError(f"separatrix did not reach the transversal "
                           f"({outcome})")
    hu1, hs1, hu2, hs2 = flow.energy(z)
    return ShiftPair(b1=hu1 - hs1, b2=hu2 - hs2)


def alien_witness() -> dict:
    """Committed parameter point whose census exceeds the first-order zero count.

    Returns the fixture dict: family constants, perturbation values, the
    section window holding both cycles, census settings, and the expected
    counts. See data/alien_witness.json for the parameter rationale.
    """
    import json
    from importlib import resources

    path = resources.files("saddleloop").joinpath("data/alien_witness.json")
    return json.loads(path.read_text())


def witness_flow(witness: dict | None = None) -> FlowSpec:
    """Build the perturbed flow at the committed witness point."""
    w = alien_witness() if witness is None else witness
    pert = PerturbationSpec(epsilon=float(w["epsilon"]), mu1=float(w["mu1"]),
                            mu2=float(w["mu2"]), c=float(w["c"]))
    return appendix_flow(pert)
