"""Picard-Fuchs system for the basic integral triple (J_-1, J_0, J_1).

On the normal-form family the triple satisfies a first order linear
system (A1*t + A0) J' = B J with polynomial coefficient matrices.  At
the loop energy t = 0 the system has a triple zero characteristic
exponent, so a fundamental set near 0 is

    P(t)       degree-one polynomial solution,
    Q(t)       analytic power series, Q(0) = (1, 0, 0),
    Q(t) ln t + S(t)   with S analytic.

Every actual triple is lam*(Q ln|t| + S) + mu*P + nu*Q with the log
multiplier lam = -2*sqrt(3*(2-a)) fixed by the saddle data.  The series
coefficients of Q follow from the recursion

    (j*A1 - B) q_j + (j+1) A0 q_{j+1} = 0.

A0 has rank two (zero third row, zero first column), so each level
determines the last two entries of q_{j+1} and the first entry comes
from the third-row constraint of the next level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abelian import default_log_window, triples_on_grid
from .model import Annulus, Family, HamiltonianSpec

STENCIL_STEP = 1e-3     # spacing of finite_difference_residuals' stencil


@dataclass(frozen=True)
class PFSystem:
    """Coefficient matrices of (A1*t + A0) J' = B J."""

    A1: np.ndarray
    A0: np.ndarray
    B: np.ndarray

    def coefficient(self, t: float) -> np.ndarray:
        return self.A1 * t + self.A0

    def residual(self, t: float, J: np.ndarray, Jprime: np.ndarray) -> float:
        """Relative defect of one (J, J') sample in the system."""
        J = np.asarray(J, dtype=float)
        Jprime = np.asarray(Jprime, dtype=float)
        lhs = self.coefficient(t) @ Jprime
        rhs = self.B @ J
        return float(np.linalg.norm(lhs - rhs) / (np.linalg.norm(rhs) + 1e-30))


def pf_system(spec: HamiltonianSpec) -> PFSystem:
    if spec.family is not Family.NORMAL_FORM:
        raise ValueError("Picard-Fuchs system is defined for the "
                         "normal-form family only")
    a = spec.a
    A1 = np.array([[1.0, 0.0, 0.0],
                   [1.0 - a, 2.0 * a, 0.0],
                   [a - 2.0, 2.0 - 2.0 * a, a]])
    A0 = np.array([[0.0, 4.0 - 2.0 * a, a - 1.0],
                   [0.0, 0.0, 3.0 + 2.0 * a - a * a],
                   [0.0, 0.0, 0.0]])
    B = np.array([[1.0 / 3.0, 0.0, 0.0],
                  [0.0, 4.0 * a / 3.0, 0.0],
                  [0.0, 1.5 * (1.0 - a), a]])
    return PFSystem(A1=A1, A0=A0, B=B)


@dataclass(frozen=True)
class FundamentalSeries:
    """P, Q pair of the fundamental system near the loop energy."""

    lam: float
    p_const: np.ndarray
    p_lin: np.ndarray
    q: np.ndarray  # shape (order+1, 3), q[j] multiplies t**j

    def Q(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (3,))
        for coeff in self.q[::-1]:
            out = out * t[..., None] + coeff
        return out

    def log_term(self, k: int) -> tuple[int, float]:
        """Leading log contribution of J_k: returns (power m, coeff c)
        meaning J_k(t) = c * t^m * ln|t| + smoother terms near 0."""
        col = {-1: 0, 0: 1, 1: 2}[k]
        power = {-1: 0, 0: 1, 1: 2}[k]
        return power, self.lam * float(self.q[power, col])


def fundamental(spec: HamiltonianSpec, order: int = 8) -> FundamentalSeries:
    """Compute P and the Q series to the given order.

    Rejects a = 0 and a >= 2, within 1e-12: at a=0 the polynomial
    solution degenerates, at a=2 the loop collapses (the series
    denominators vanish) and beyond it the saddles are complex, so the
    log multiplier -2*sqrt(3*(2-a)) is not real.
    """
    sys = pf_system(spec)
    a = spec.a
    if order < 3:
        raise ValueError("order must be at least 3")
    if abs(a) < 1e-12 or a > 2.0 - 1e-12:
        raise ValueError(f"fundamental system not defined at a={a}: it "
                         "needs a != 0 and real saddles (a < 2)")
    disc = 3.0 + 2.0 * a - a * a  # vanishes at a=-1, 3, off the loop range
    if abs(disc) < 1e-12:
        raise ValueError(f"series recursion breaks down at a={a}")

    p_const = np.array([3.0 * (a - 1.0),
                        3.0 * disc / (4.0 * a),
                        9.0 * (a - 1.0) * disc / (8.0 * a * a)])
    p_lin = np.array([0.0, 0.0, 1.0])
    # P is exactly degree one: (A1 t + A0) p_lin = B (p_const + p_lin t)
    # splits into two constant identities checked here.
    if not (np.allclose(sys.A1 @ p_lin, sys.B @ p_lin, atol=1e-12)
            and np.allclose(sys.A0 @ p_lin, sys.B @ p_const, atol=1e-12)):
        raise AssertionError("polynomial solution P failed the system check")

    q = np.zeros((order + 1, 3))
    q[0] = (1.0, 0.0, 0.0)
    for j in range(order):
        v = -((j * sys.A1 - sys.B) @ q[j])
        # rows of (j+1) A0 q_{j+1} = v: row 2 pins the J_1 entry, row 1
        # then the J_0 entry; row 3 is the consistency condition 0 = v_3.
        qj1 = v[1] / ((j + 1.0) * disc)
        qj0 = (v[0] / (j + 1.0) - (a - 1.0) * qj1) / (4.0 - 2.0 * a)
        # first entry from the zero third row of A0 at level j+1:
        # row3((j+1) A1 - B) . q_{j+1} = 0.
        qjm1 = -(((j + 1.0) * (2.0 - 2.0 * a) + 1.5 * (a - 1.0)) * qj0
                 + j * a * qj1) / ((j + 1.0) * (a - 2.0))
        q[j + 1] = (qjm1, qj0, qj1)
        scale = max(1.0, float(np.max(np.abs(q[j]))))
        if abs(v[2]) > 1e-12 * scale:
            raise AssertionError(
                f"series recursion inconsistent at level {j}: "
                f"consistency defect {v[2]:.3e}")
    # independent re-check: every level equation satisfied.
    for j in range(order):
        res = (j * sys.A1 - sys.B) @ q[j] + (j + 1.0) * (sys.A0 @ q[j + 1])
        scale = max(1.0, float(np.max(np.abs(q[j]))),
                    float(np.max(np.abs(q[j + 1]))))
        if np.max(np.abs(res)) > 1e-12 * scale:
            raise AssertionError(f"series residual {np.max(np.abs(res)):.3e} "
                                 f"at level {j}")

    lam = -2.0 * math.sqrt(3.0 * (2.0 - a))
    return FundamentalSeries(lam=lam, p_const=p_const, p_lin=p_lin, q=q)


def finite_difference_residuals(spec: HamiltonianSpec, ts) -> np.ndarray:
    """System residual at each t with J' from a five-point stencil of
    spacing STENCIL_STEP.

    Quadrature values of the triple feed both sides, so this checks the
    integrals against the ODE with no shared code path.
    """
    sys = pf_system(spec)
    ts = np.asarray(ts, dtype=float)
    weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * STENCIL_STEP)
    # every stencil point of every row in one batch
    stencils = ts[:, None] + STENCIL_STEP * np.arange(-2.0, 3.0)
    J = triples_on_grid(spec, Annulus.SIGMA_PLUS,
                        stencils.ravel()).as_vector().reshape(len(ts), 5, 3)
    return np.array([sys.residual(t, rows[2], weights @ rows)
                     for t, rows in zip(ts, J)])


@dataclass(frozen=True)
class AsymptoticsMatch:
    lam_expected: float
    rel_err: np.ndarray         # per component of the triple


def match_asymptotics(spec: HamiltonianSpec) -> AsymptoticsMatch:
    """Fit each J_k on {Q_k(t) ln|t|, 1, t, t^2, t^3} over
    default_log_window().

    The triple is lam*(Q ln|t| + S) + mu*P + nu*Q with analytic S, so the
    fitted multiplier of the structured log column must reproduce lam on
    every component.  (A direct three-column fit against lam, mu, nu is
    not solvable from data because S is not in the span of P and Q.)
    """
    fs = fundamental(spec)
    window = default_log_window()
    vals = triples_on_grid(spec, Annulus.SIGMA_PLUS, window).as_vector()
    qcols = fs.Q(window)  # (n, 3)
    logs = np.log(np.abs(window))

    lam_fit = np.empty(3)
    for c in range(3):
        cols = np.column_stack([qcols[:, c] * logs,
                                np.ones_like(window),
                                window, window**2, window**3])
        scale = np.linalg.norm(cols, axis=0)
        scale[scale == 0.0] = 1.0
        sol, *_ = np.linalg.lstsq(cols / scale, vals[:, c], rcond=None)
        lam_fit[c] = sol[0] / scale[0]
    return AsymptoticsMatch(lam_expected=fs.lam,
                            rel_err=np.abs(lam_fit - fs.lam) / abs(fs.lam))
