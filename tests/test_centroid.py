import dataclasses
import warnings

import numpy as np
import pytest

from saddleloop.model import Annulus, Family, HamiltonianSpec, MelnikovCoeffs
from saddleloop.abelian import jk_at_loop, triples_on_grid
from saddleloop.centroid import (
    TANGENCY_BAND,
    center_endpoint,
    line_intersections,
    sample_curve,
    verify_shape,
)
from saddleloop.melnikov import count_zeros

from oracle_values import LOOP_LIMITS, SIGMA_PLUS_TRIPLES


def _loop_abscissa(spec, annulus):
    """xi(0) = J_1(0)/J_0(0), the annulus's vertical asymptote."""
    return jk_at_loop(spec, annulus, 1) / jk_at_loop(spec, annulus, 0)


def test_center_endpoint_closed_forms():
    spec1 = HamiltonianSpec(family=Family.NORMAL_FORM, a=1.0)
    assert center_endpoint(spec1, Annulus.SIGMA_PLUS) == (1.0, 1.0)
    spec05 = HamiltonianSpec(family=Family.NORMAL_FORM, a=0.5)
    xi, eta = center_endpoint(spec05, Annulus.SIGMA_MINUS)
    assert xi == pytest.approx(-3.0, rel=1e-14)
    assert eta == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_loop_abscissa_matches_oracle_ratio(spec_a1):
    j0, j1 = LOOP_LIMITS[1.0]
    assert _loop_abscissa(spec_a1, Annulus.SIGMA_PLUS) == pytest.approx(
        j1 / j0, rel=1e-12)


def test_curve_passes_through_oracle_point(spec_a1):
    # the samples are the triple ratios, whose lanes carry the same bits
    # in any batch: the curve's map holds at the oracle energy t = -1 too
    jm1, j0, j1 = SIGMA_PLUS_TRIPLES[(1.0, -1.0)]
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, n=20)
    tr = triples_on_grid(spec_a1, Annulus.SIGMA_PLUS, np.append(curve.ts, -1.0))
    assert curve.xi.tobytes() == (tr.j1 / tr.j0)[:-1].tobytes()
    assert curve.eta.tobytes() == (tr.jm1 / tr.j0)[:-1].tobytes()
    assert tr.j1[-1] / tr.j0[-1] == pytest.approx(j1 / j0, rel=1e-10)
    assert tr.jm1[-1] / tr.j0[-1] == pytest.approx(jm1 / j0, rel=1e-10)


def test_shape_report_plus(spec_a1):
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, n=80)
    assert curve.converged
    rep = verify_shape(curve)
    assert rep.passed
    assert rep.first_violation is None
    # samples extrapolated to the center energy against the closed form
    xi_c, eta_c = center_endpoint(spec_a1, Annulus.SIGMA_PLUS)
    xi_e, eta_e = curve.endpoint_extrapolated()
    assert abs(xi_e - xi_c) < 1e-6
    assert abs(eta_e - eta_c) < 1e-6
    # the sample nearest the loop, at |t| = 2e-6, lies 3.5e-6 (relative)
    # off the vertical asymptote: xi's t*ln|t| term
    assert curve.xi[-1] == pytest.approx(
        _loop_abscissa(spec_a1, Annulus.SIGMA_PLUS), rel=1e-5)


def test_shape_report_minus(spec_a05):
    curve = sample_curve(spec_a05, Annulus.SIGMA_MINUS, n=80)
    rep = verify_shape(curve)
    assert rep.passed
    assert rep.first_violation is None


def test_shape_report_names_first_violation(spec_a1):
    # each break of the shape, named by the first test it fails, in the
    # order xi, eta, curvature
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, n=40)
    xi, eta = curve.xi.copy(), curve.eta.copy()
    xi[11], eta[21] = xi[10], eta[20]
    cases = {"xi not decreasing at index 10": dict(xi=xi, eta=eta),
             "eta not increasing at index 20": dict(eta=eta),
             # points on a line: every cross product is exactly zero
             "curvature sign not constant": dict(xi=-curve.ts, eta=curve.ts),
             "curvature sign -1, expected 1": dict(
                 t_center=-curve.t_center)}
    for violation, changes in cases.items():
        rep = verify_shape(dataclasses.replace(curve, **changes))
        assert (rep.passed, rep.first_violation) == (False, violation)


def test_line_intersections_planted(spec_a1):
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, n=120)
    _, j0, j1 = SIGMA_PLUS_TRIPLES[(1.0, -1.0)]
    # alpha + beta*xi = 0 at xi(-1) = j1/j0 crosses the graph once
    li = line_intersections(curve, MelnikovCoeffs(alpha=1.0, beta=-j0 / j1))
    assert li.count == 1
    assert not li.contains_curve


def test_near_tangent_line_flags_tangency(spec_a1):
    # the line through sample i parallel to the chord of its neighbours
    # leaves both neighbours on one side of the convex curve; moved
    # toward them by half the band, it misses sample i narrowly
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, n=120)
    i = 60
    beta = curve.eta[i + 1] - curve.eta[i - 1]
    gamma = curve.xi[i - 1] - curve.xi[i + 1]
    touch = MelnikovCoeffs(alpha=-(beta * curve.xi[i] + gamma * curve.eta[i]),
                           beta=beta, gamma=gamma, order_k=2)
    g = curve.functional(touch)
    scale = (abs(touch.alpha) + abs(beta) * np.max(np.abs(curve.xi))
             + abs(gamma) * np.max(np.abs(curve.eta)))
    assert g[i - 1] * g[i + 1] > 0.0
    offset = 0.5 * TANGENCY_BAND * scale * np.sign(g[i - 1])
    near = MelnikovCoeffs(alpha=touch.alpha + offset, beta=beta, gamma=gamma,
                          order_k=2)
    g = curve.functional(near)
    assert 0.0 < g[i] * g[i - 1] and abs(g[i]) < TANGENCY_BAND * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        li = line_intersections(curve, near)
    assert li.count == 0
    assert li.tangency_suspected
    assert not li.contains_curve


def test_line_intersections_bounds(spec_a1):
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, n=120)
    # the xi = 0 axis misses the curve entirely
    assert line_intersections(curve, MelnikovCoeffs(0.0, 1.0)).count == 0
    # eta = 0 misses it too (eta >= 1 on the plus annulus)
    assert line_intersections(curve, MelnikovCoeffs(0.0, 0.0, 1.0, order_k=2)).count == 0
    # a generic gamma!=0 line never crosses more than twice
    rng = np.random.default_rng(7)
    for _ in range(40):
        a, b, g = rng.uniform(-1.0, 1.0, 3)
        li = line_intersections(curve, MelnikovCoeffs(a, b, g, order_k=2))
        assert li.count <= 2


def test_minus_annulus_counts_agree():
    # M = J_0 * (alpha + beta*xi + gamma*eta) with J_0 > 0: on the minus
    # annulus, and on the plus one, its zeros are the curve's crossings
    for annulus in (Annulus.SIGMA_MINUS, Annulus.SIGMA_PLUS):
        rng = np.random.default_rng(7)
        seen = set()
        for a in (0.5, 1.0, 1.5):
            spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
            curve = sample_curve(spec, annulus)
            for _ in range(12):
                coeffs = MelnikovCoeffs(*rng.uniform(-1.0, 1.0, 3), order_k=2)
                on_curve = line_intersections(curve, coeffs).count
                seen.add(on_curve)
                assert count_zeros(spec, coeffs, annulus).count == on_curve
        assert seen == {0, 1}, annulus


@pytest.mark.parametrize("a", [round(0.1 * k, 1) for k in range(1, 20)])
def test_loop_sign_fact_over_a(a):
    # the two-annulus count rests on xi_-(+0) < 0 < xi_+(-0): a gamma = 0
    # line that meets the plus loop condition misses the minus one
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    xp = _loop_abscissa(spec, Annulus.SIGMA_PLUS)
    xm = _loop_abscissa(spec, Annulus.SIGMA_MINUS)
    assert xm < 0.0 < xp
    # (alpha, beta) = (-xp, 1): alpha + beta*xi_+ = 0 by construction,
    # alpha + beta*xi_- stays outside a 1e-3 band, so no such line
    # meets both loop conditions at once
    alpha, beta = -xp, 1.0
    band = 1e-3 * (abs(alpha) + abs(beta))
    assert abs(alpha + beta * xp) <= band
    assert abs(alpha + beta * xm) > band
