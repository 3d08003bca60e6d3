import warnings

import numpy as np
import pytest

from saddleloop.model import Annulus, Family, HamiltonianSpec, MelnikovCoeffs
from saddleloop.centroid import (
    LOOP_BAND,
    TANGENCY_BAND,
    center_endpoint,
    line_intersections,
    loop_abscissa_exact,
    sample_curve,
    simultaneous_loop_test,
    total_line_intersections,
    verify_shape,
)
from saddleloop.melnikov import count_zeros

from oracle_values import LOOP_LIMITS, SIGMA_PLUS_TRIPLES


def test_center_endpoint_closed_forms():
    spec1 = HamiltonianSpec(family=Family.NORMAL_FORM, a=1.0)
    assert center_endpoint(spec1, Annulus.SIGMA_PLUS) == (1.0, 1.0)
    spec05 = HamiltonianSpec(family=Family.NORMAL_FORM, a=0.5)
    xi, eta = center_endpoint(spec05, Annulus.SIGMA_MINUS)
    assert xi == pytest.approx(-3.0, rel=1e-14)
    assert eta == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_loop_abscissa_matches_oracle_ratio(spec_a1):
    j0, j1 = LOOP_LIMITS[1.0]
    assert loop_abscissa_exact(spec_a1, Annulus.SIGMA_PLUS) == pytest.approx(
        j1 / j0, rel=1e-12)


def test_curve_passes_through_oracle_point(spec_a1):
    jm1, j0, j1 = SIGMA_PLUS_TRIPLES[(1.0, -1.0)]
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, t_grid=np.array([-1.1, -1.0, -0.9]))
    assert curve.xi[1] == pytest.approx(j1 / j0, rel=1e-10)
    assert curve.eta[1] == pytest.approx(jm1 / j0, rel=1e-10)


def test_shape_report_plus(spec_a1):
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, n=80)
    assert curve.converged
    rep = verify_shape(curve)
    assert rep.xi_decreasing
    assert rep.eta_increasing
    assert rep.curvature_constant_sign
    assert rep.curvature_sign == rep.expected_curvature_sign
    assert rep.first_violation is None
    # samples extrapolated to the center energy against the closed form
    xi_c, eta_c = center_endpoint(spec_a1, Annulus.SIGMA_PLUS)
    xi_e, eta_e = curve.endpoint_extrapolated()
    assert abs(xi_e - xi_c) < 1e-6
    assert abs(eta_e - eta_c) < 1e-6
    # the sample nearest the loop, at |t| = 2e-6, lies 3.5e-6 (relative)
    # off the vertical asymptote: xi's t*ln|t| term
    assert curve.xi[-1] == pytest.approx(
        loop_abscissa_exact(spec_a1, Annulus.SIGMA_PLUS), rel=1e-5)


def test_shape_report_minus(spec_a05):
    curve = sample_curve(spec_a05, Annulus.SIGMA_MINUS, n=80)
    rep = verify_shape(curve)
    assert rep.curvature_constant_sign
    assert rep.first_violation is None


def test_line_intersections_planted(spec_a1):
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, n=120)
    _, j0, j1 = SIGMA_PLUS_TRIPLES[(1.0, -1.0)]
    # alpha + beta*xi = 0 at xi(-1) = j1/j0 crosses the graph once
    li = line_intersections(curve, MelnikovCoeffs(alpha=1.0, beta=-j0 / j1))
    assert li.count == 1
    assert li.ts[0] == pytest.approx(-1.0, abs=5e-3)
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


def test_total_intersections_sum(spec_a05):
    coeffs = MelnikovCoeffs(1.0, 0.5)
    tot = total_line_intersections(spec_a05, coeffs, n=80)
    per = sum(
        line_intersections(sample_curve(spec_a05, ann, n=80), coeffs).count
        for ann in (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS)
    )
    assert tot == per


def test_minus_annulus_counts_agree():
    # M = J_0 * (alpha + beta*xi + gamma*eta) with J_0 > 0: on the minus
    # annulus its zeros are the minus curve's crossings, and with
    # gamma != 0 total_line_intersections adds both curves
    rng = np.random.default_rng(7)
    seen = set()
    for a in (0.5, 1.0, 1.5):
        spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
        plus = sample_curve(spec, Annulus.SIGMA_PLUS)
        minus = sample_curve(spec, Annulus.SIGMA_MINUS)
        for _ in range(12):
            coeffs = MelnikovCoeffs(*rng.uniform(-1.0, 1.0, 3), order_k=2)
            on_minus = line_intersections(minus, coeffs).count
            seen.add(on_minus)
            assert count_zeros(spec, coeffs,
                               Annulus.SIGMA_MINUS).count == on_minus
            assert total_line_intersections(spec, coeffs) == (
                line_intersections(plus, coeffs).count + on_minus)
    assert seen == {0, 1}


def test_simultaneous_loop_report(spec_a05):
    rep = simultaneous_loop_test(spec_a05, MelnikovCoeffs(1.0, 0.5))
    assert not rep.annihilates_both
    assert rep.sign_fact_ok
    # the two loop abscissas have opposite signs at a=0.5
    assert rep.xi_plus_loop > 0 > rep.xi_minus_loop


@pytest.mark.parametrize("a", [round(0.1 * k, 1) for k in range(1, 20)])
def test_loop_sign_fact_over_a(a):
    # the two-annulus count rests on xi_-(+0) < 0 < xi_+(-0): a gamma = 0
    # line that meets the plus loop condition misses the minus one
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    xp = loop_abscissa_exact(spec, Annulus.SIGMA_PLUS)
    xm = loop_abscissa_exact(spec, Annulus.SIGMA_MINUS)
    assert xm < 0.0 < xp
    rep = simultaneous_loop_test(spec, MelnikovCoeffs(-xp, 1.0))
    assert (rep.xi_plus_loop, rep.xi_minus_loop) == (xp, xm)
    assert rep.sign_fact_ok
    # alpha + beta*xi_+ = 0 by construction; alpha + beta*xi_- is not
    assert abs(-xp + xm) > LOOP_BAND * (abs(-xp) + 1.0)
    assert not rep.annihilates_both
