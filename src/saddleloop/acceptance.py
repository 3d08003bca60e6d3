"""Acceptance suite: numbered end-to-end checks with timing budgets.

Each criterion function runs one self-contained check against the pinned
tolerance and returns a CriterionResult whose line() renders the single
pass/fail line printed by the verify subcommand; ``_criterion`` numbers,
titles, budgets and times every check in one place. run() executes a selection
in order; nothing here mutates package state, so criteria can be re-run or
cherry-picked freely.

Criterion 8 is known to fail on its b2 clause: the second-order part of the
upper-connection shift carries a large mu-independent coefficient (about
207*eps^2 at c=17), which at eps=1e-3 swamps the 5% band around the
first-order law. The same measurement passes at eps=1e-6, tested separately
in the regular suite. The criterion is kept at its stated parameters and
reported honestly.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import abelian, centroid, flowsim, melnikov, picard_fuchs
from .model import (Annulus, Family, HamiltonianSpec, MelnikovCoeffs,
                    PerturbationSpec)
from .ovals import section_segment

RANDOM_LINE_SEED = 49053
RANDOM_SCAN_SEED = 20260819


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    runtime_s: float
    budget_s: float
    detail: str

    @property
    def within_budget(self) -> bool:
        return self.runtime_s < self.budget_s

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.number:2d}. {self.title}: {self.detail} "
                f"[{self.runtime_s:.1f}s / {self.budget_s:.0f}s]")


CRITERIA = {}   # number -> criterion function, filled by _criterion


def _criterion(number: int, title: str, budget_s: float):
    """Register a check as criterion ``number``.  The check returns
    (passed, detail); the registered function times it and returns its
    CriterionResult."""
    def register(check):
        @functools.wraps(check)
        def criterion() -> CriterionResult:
            t0 = time.time()
            passed, detail = check()
            return CriterionResult(number, title, bool(passed),
                                   time.time() - t0, budget_s, detail)
        CRITERIA[number] = criterion
        return criterion
    return register


@_criterion(1, "loop-limit identity, 7 a-values", 5.0)
def criterion_1():
    """Loop-limit identity between J0(0), J1(0) (``jk_at_loop``) and the
    saddle energy gap, to that quadrature's own tolerance."""
    worst = 0.0
    ok = True
    for a in (-0.9, -0.5, 0.3, 0.7, 1.0, 1.5, 1.9):
        spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
        j0 = abelian.jk_at_loop(spec, Annulus.SIGMA_PLUS, 0)
        j1 = abelian.jk_at_loop(spec, Annulus.SIGMA_PLUS, 1)
        term0 = 1.5 * (a - 1.0) * j0
        term1 = -a * j1
        const = (2.0 / 3.0) * (3.0 * (2.0 - a)) ** 1.5
        # backward-error scale: the combination cancels two O(1) terms,
        # so the residual is judged against the sum of term magnitudes
        scale = abs(term0) + abs(term1) + const
        rel = abs(term0 + term1 + const) / scale
        worst = max(worst, rel)
        ok = ok and rel <= abelian.LIMIT_QUAD_TOL
    return ok, (f"max residual {worst:.2e} of term-sum scale "
                f"(tol {abelian.LIMIT_QUAD_TOL:g})")


@_criterion(2, "ODE-system residual on 40 quadrature rows", 10.0)
def criterion_2():
    """Quadrature triples satisfy the ODE system via central differences."""
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=1.0)
    ts = np.linspace(-1.8, -0.05, 40)
    res = picard_fuchs.finite_difference_residuals(spec, ts)
    worst = float(np.max(res))
    ok = bool(np.all(res <= 1e-6))
    return ok, f"max row residual {worst:.2e} (tol 1e-6)"


def _reference_q(a: float, k: int) -> np.ndarray:
    """Closed-form series coefficients of the analytic fundamental solution."""
    d = a - 2.0
    if k == 1:
        return -np.array([(a - 1.0) / (12.0 * d ** 2),
                          1.0 / (6.0 * d),
                          0.0])
    if k == 2:
        return -np.array([(11.0 * a * a - 22.0 * a + 15.0) / (576.0 * d ** 4),
                          (a - 1.0) / (48.0 * d ** 3),
                          1.0 / (72.0 * d ** 2)])
    if k == 3:
        return -np.array([35.0 * (a - 1.0) * (5.0 * a * a - 10.0 * a + 9.0)
                          / (20736.0 * d ** 6),
                          (85.0 * a * a - 170.0 * a + 105.0) / (10368.0 * d ** 5),
                          5.0 * (a - 1.0) / (864.0 * d ** 4)])
    raise ValueError(k)


@_criterion(3, "series coefficients q1..q3, 4 a-values", 1.0)
def criterion_3():
    """Series recursion reproduces the closed-form coefficients."""
    worst = 0.0
    worst_p = 0.0
    for a in (-0.5, 0.5, 1.0, 1.5):
        spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
        sys = picard_fuchs.pf_system(spec)
        fund = picard_fuchs.fundamental(spec, order=4)
        for k in (1, 2, 3):
            err = float(np.max(np.abs(fund.q[k] - _reference_q(a, k))))
            worst = max(worst, err)
        # polynomial solution: (A1 t + A0) P' = B P exactly, sampled
        for t in (-1.0, -0.3, 0.5):
            lhs = (sys.A1 * t + sys.A0) @ fund.p_lin
            rhs = sys.B @ (fund.p_const + fund.p_lin * t)
            worst_p = max(worst_p, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-10 and worst_p <= 1e-10
    return ok, f"max coeff err {worst:.2e}, poly residual {worst_p:.2e}"


@_criterion(4, "log coefficient of J_{-1}, 3 a-values", 10.0)
def criterion_4():
    """Fitted log coefficient of the k=-1 integral near the loop."""
    worst = 0.0
    ok = True
    for a in (0.5, 1.0, 1.5):
        spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
        fit = abelian.log_coefficient(spec, -1)
        expected = -2.0 * math.sqrt(3.0 * (2.0 - a))
        rel = abs(fit.coeffs["t^0*log"] - expected) / abs(expected)
        worst = max(worst, rel)
        ok = ok and rel <= 1e-3
    return ok, f"max rel err {worst:.2e} (tol 1e-3)"


@_criterion(5, "upper-arc closed forms", 1.0)
def criterion_5():
    """Closed-form arc integrals of the ellipse family.  On the loop the
    segment y = 0 adds nothing to either moment, so the mapped a = 1
    loop limits are the Gamma2 arc integrals."""
    a1, plus = melnikov.APPENDIX_NORMAL_FORM, Annulus.SIGMA_PLUS
    iy = melnikov.APPENDIX_Y_PER_J0 * abelian.jk_at_loop(a1, plus, 0)
    iy2 = melnikov.APPENDIX_Y2_PER_J1 * abelian.jk_at_loop(a1, plus, 1)
    e1 = abs(iy + math.pi * math.sqrt(3.0))
    e2 = abs(iy2 + 16.0)
    ok = e1 <= 1e-10 and e2 <= 1e-10
    return ok, f"|I_y+pi*sqrt3|={e1:.2e}, |I_y2+16|={e2:.2e} (tol 1e-10)"


@_criterion(6, "centroid shape and endpoints", 20.0)
def criterion_6():
    """Centroid curves: monotone, fixed curvature sign, and samples that
    extrapolate to the analytic center endpoint."""
    checks = []
    for a, annuli in ((1.0, (Annulus.SIGMA_PLUS,)),
                      (0.5, (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS))):
        spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
        for ann in annuli:
            curve = centroid.sample_curve(spec, ann, n=200)
            shape = centroid.verify_shape(curve)
            got = curve.endpoint_extrapolated()
            exp = centroid.center_endpoint(spec, ann)
            end_err = max(abs(got[0] - exp[0]), abs(got[1] - exp[1]))
            checks.append((shape.passed, end_err, curve.converged))
    converged = all(c[2] for c in checks)
    ok = (all(c[0] for c in checks) and all(c[1] <= 1e-6 for c in checks)
          and converged)
    worst = max(c[1] for c in checks)
    return ok, (f"shape {'ok' if all(c[0] for c in checks) else 'BAD'}, "
                f"max endpoint err {worst:.2e} (tol 1e-6)"
                + ("" if converged else ", not converged"))


@_criterion(7, "line-intersection bounds, 1000 seeded draws", 30.0)
def criterion_7():
    """Intersection bounds: random lines against the centroid curve."""
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=1.0)
    curve = centroid.sample_curve(spec, Annulus.SIGMA_PLUS, n=200)
    rng = default_rng(RANDOM_LINE_SEED)
    worst_general = 0
    worst_vertical = 0
    for _ in range(1000):
        alpha, beta, gamma = rng.uniform(-1.0, 1.0, 3)
        n = centroid.line_intersections(
            curve, MelnikovCoeffs(alpha=alpha, beta=beta, gamma=gamma,
                                  order_k=2)).count
        worst_general = max(worst_general, n)
        m = centroid.line_intersections(
            curve, MelnikovCoeffs(alpha=alpha, beta=beta, gamma=0.0)).count
        worst_vertical = max(worst_vertical, m)
    xi_zero = centroid.line_intersections(
        curve, MelnikovCoeffs(alpha=0.0, beta=1.0, gamma=0.0)).count
    ok = (worst_general <= 2 and worst_vertical <= 1 and xi_zero == 0
          and curve.converged)
    return ok, (f"max general {worst_general} (<=2), "
                f"max gamma=0 {worst_vertical} (<=1), xi=0 line {xi_zero} (=0)"
                + ("" if curve.converged else ", not converged"))


@_criterion(8, "trace/shift first-order laws, 3x3 grid", 60.0)
def criterion_8():
    """First-order trace and shift laws on a 3x3 mu-grid at eps=1e-3."""
    spec = HamiltonianSpec(family=Family.APPENDIX_ELLIPSE)
    eps = 1e-3
    grid = (-0.01, 0.007, 0.01)
    worst = {"sigma1": 0.0, "sigma2": 0.0, "b1": 0.0, "b2": 0.0}
    for mu1 in grid:
        for mu2 in grid:
            pert = PerturbationSpec(epsilon=eps, mu1=mu1, mu2=mu2, c=17.0)
            flow = flowsim.appendix_flow(spec, pert)
            tr = flowsim.saddle_traces(flow)
            sh = flowsim.separatrix_shifts(flow)
            exp_s1 = -16.0 + pert.c - mu2
            exp_s2 = -16.0 - pert.c - mu2
            exp_b1 = 2.0 * mu1
            exp_b2 = -2.0 * mu1 - math.pi * math.sqrt(3.0) * mu2
            worst["sigma1"] = max(worst["sigma1"],
                                  abs(tr.sigma1 / eps - exp_s1) / abs(exp_s1))
            worst["sigma2"] = max(worst["sigma2"],
                                  abs(tr.sigma2 / eps - exp_s2) / abs(exp_s2))
            worst["b1"] = max(worst["b1"], abs(sh.b1 / eps - exp_b1) / abs(exp_b1))
            worst["b2"] = max(worst["b2"], abs(sh.b2 / eps - exp_b2) / abs(exp_b2))
    ok = all(v <= 0.05 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1%}" for k, v in worst.items()) + " (tol 5%)"
    return ok, detail


@_criterion(9, "alien-cycle witness", 120.0)
def criterion_9():
    """Committed witness: two cycles where first order predicts at most one."""
    w = flowsim.alien_witness()
    flow = flowsim.witness_flow(w)
    res = flowsim.census(flow,
                         s_range=tuple(w["section_window"]),
                         n=int(w["grid_points"]),
                         T_max=float(w["t_max"]))
    n_cycles = len(res.cycles)
    stabs = tuple(c.stability for c in res.cycles)
    coords_ok = all(
        abs(c.section_coordinate - e) <= float(w["coord_tolerance"])
        for c, e in zip(res.cycles, w["expected_section_coords"]))
    zc = melnikov.appendix_count_zeros(flow.hamiltonian, float(w["mu2"]),
                                       tuple(w["energy_window"]))
    ok = (n_cycles == int(w["expected_cycles"])
          and list(stabs) == list(w["expected_stabilities"])
          and coords_ok
          and zc.count <= int(w["melnikov_max_zeros"])
          and zc.converged)
    return ok, (f"census {n_cycles} cycles {stabs}, "
                f"first-order zeros {zc.count} (<= {w['melnikov_max_zeros']})"
                + ("" if zc.converged else ", not converged"))


def scan_draws() -> list[tuple]:
    """The 200 draws of criterion 10's seeded scan, as (pure_gamma,
    flow, s_range) triples.

    Every seventh draw is a pure x^{-1}-direction one-form in a tight
    window hugging the loop; the rest are general forms in the wide
    near-loop window.  All share the normal form at a=1 and eps=1e-3.
    """
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=1.0)
    sect = section_segment(spec, Annulus.SIGMA_PLUS)
    rng = default_rng(RANDOM_SCAN_SEED)

    def window(t_deep: float, t_near: float) -> tuple[float, float]:
        s1 = sect.coord_for_energy(t_deep)
        s2 = sect.coord_for_energy(t_near)
        return (min(s1, s2), max(s1, s2))

    general_window = window(-0.4, -1e-3)
    gamma_window = window(-0.08, -5e-4)
    draws = []
    for trial in range(200):
        pure_gamma = trial % 7 == 0
        if pure_gamma:
            one_form = flowsim.QuadraticOneForm.gamma_type(
                c=float(rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))))
            s_range = gamma_window
        else:
            one_form = flowsim.QuadraticOneForm(
                f=tuple(rng.uniform(-1.0, 1.0, 6)),
                g=tuple(rng.uniform(-1.0, 1.0, 6)))
            s_range = general_window
        flow = flowsim.FlowSpec(hamiltonian=spec, epsilon=1e-3,
                                one_form=one_form)
        draws.append((pure_gamma, flow, s_range))
    return draws


@_criterion(10, "census bound, 200 seeded one-forms", 600.0)
def criterion_10():
    """Cycle-count bound over a seeded scan of random quadratic one-forms.

    Every seventh draw is a pure x^{-1}-direction one-form, censused in
    a tight window hugging the loop.  Its flow is reversible, so every
    Melnikov function vanishes and its displacement is integration error
    (tested): a cycle found there would be a sign change of that error.
    The remaining draws are generic (their x^{-1} coefficient is almost
    surely nonzero too, but a generic draw may legitimately grow a
    cycle at interior zeros of its first-order function, even close to
    the loop when that coefficient is small, so only the global <= 3
    bound applies to them); they get the wide near-loop window.
    """
    max_general = 0
    max_gamma = 0
    for pure_gamma, flow, s_range in scan_draws():
        res = flowsim.census(flow, annulus=Annulus.SIGMA_PLUS,
                             s_range=s_range, n=100, T_max=60.0)
        if pure_gamma:
            max_gamma = max(max_gamma, len(res.cycles))
        else:
            max_general = max(max_general, len(res.cycles))
    ok = max_general <= 3 and max_gamma == 0
    return ok, (f"max count {max_general} (<=3), "
                f"max pure-gamma count {max_gamma} (=0)")


QUICK = (1, 2, 3, 4, 5, 6, 7)
DEFAULT = (1, 2, 3, 4, 5, 6, 7, 8, 9)
ALL = tuple(range(1, 11))


def run(numbers=None) -> list[CriterionResult]:
    if numbers is None:
        numbers = DEFAULT
    return [CRITERIA[int(n)]() for n in numbers]


def format_table(results) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
