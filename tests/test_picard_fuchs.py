import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from saddleloop.abelian import log_coefficient
from saddleloop.model import Family, HamiltonianSpec
from saddleloop.picard_fuchs import (
    finite_difference_residuals,
    fundamental,
    match_asymptotics,
    pf_system,
)

from oracle_values import SIGMA_PLUS_TRIPLES


def nf(a):
    return HamiltonianSpec(family=Family.NORMAL_FORM, a=a)


def reference_q1(a):
    return (-(a - 1) / (12 * (a - 2) ** 2),
            -1 / (6 * (a - 2)),
            0.0)


def reference_q2(a):
    return (-(11 * a**2 - 22 * a + 15) / (576 * (a - 2) ** 4),
            -(a - 1) / (48 * (a - 2) ** 3),
            -1 / (72 * (a - 2) ** 2))


def reference_q3(a):
    return (-35 * (a - 1) * (5 * a**2 - 10 * a + 9) / (20736 * (a - 2) ** 6),
            -(85 * a**2 - 170 * a + 105) / (10368 * (a - 2) ** 5),
            -5 * (a - 1) / (864 * (a - 2) ** 4))


def reference_p_const(a):
    return (3 * (a - 1),
            3 * (3 + 2 * a - a**2) / (4 * a),
            9 * (a - 1) * (3 + 2 * a - a**2) / (8 * a**2))


@pytest.mark.parametrize("a", [-0.5, 0.5, 1.0, 1.5])
def test_recursion_reproduces_reference_series(a):
    fs = fundamental(nf(a), order=4)
    assert fs.lam == pytest.approx(-2 * math.sqrt(3 * (2 - a)), rel=1e-14)
    assert tuple(fs.q[0]) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)
    for k, known in ((1, reference_q1), (2, reference_q2), (3, reference_q3)):
        got = np.asarray(fs.q[k])
        want = np.asarray(known(a))
        assert np.max(np.abs(got - want)) < 1e-12, f"q{k} at a={a}"


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
def test_polynomial_solution_reference_and_exact(a):
    fs = fundamental(nf(a), order=3)
    assert np.asarray(fs.p_const) == pytest.approx(np.asarray(reference_p_const(a)), rel=1e-13)
    assert tuple(fs.p_lin) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    # P(t) solves the system exactly: (A1 t + A0) P' - B P = 0
    sysm = pf_system(nf(a))
    A1, A0, B = (np.asarray(m, float) for m in (sysm.A1, sysm.A0, sysm.B))
    p0 = np.asarray(fs.p_const, float)
    p1 = np.asarray(fs.p_lin, float)
    for t in (-1.5, -0.2, 0.7):
        res = (A1 * t + A0) @ p1 - B @ (p0 + p1 * t)
        assert np.max(np.abs(res)) < 1e-12


@pytest.mark.parametrize("a", [0.0, 2.0])
def test_series_rejects_degenerate_parameters(a):
    with pytest.raises(Exception):
        fundamental(nf(a), order=3)


def test_ode_continuation_connects_quadrature_points():
    # third route: the frozen quadrature triple at t=-1 transported by
    # the linear system must land on the frozen triple at t=-0.5
    sysm = pf_system(nf(1.0))
    A1, A0, B = (np.asarray(m, float) for m in (sysm.A1, sysm.A0, sysm.B))

    def rhs(t, J):
        return np.linalg.solve(A1 * t + A0, B @ J)

    j_start = np.array(SIGMA_PLUS_TRIPLES[(1.0, -1.0)])
    j_end = np.array(SIGMA_PLUS_TRIPLES[(1.0, -0.5)])
    sol = solve_ivp(rhs, (-1.0, -0.5), j_start, rtol=1e-12, atol=1e-14,
                    method="DOP853")
    assert sol.success
    assert np.max(np.abs(sol.y[:, -1] - j_end)) < 1e-9

    # and backwards from deep in the annulus
    j_deep = np.array(SIGMA_PLUS_TRIPLES[(1.0, -1.9)])
    sol = solve_ivp(rhs, (-1.9, -1.0), j_deep, rtol=1e-12, atol=1e-14,
                    method="DOP853")
    assert np.max(np.abs(sol.y[:, -1] - j_start)) < 1e-9


@pytest.mark.parametrize("a", [1.0, 1.5])
def test_quadrature_satisfies_system(a):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    ts = np.linspace(0.8 * (a - 3.0), -0.3, 8)
    res = finite_difference_residuals(spec, ts)
    assert res.shape == (8,)
    assert np.max(res) < 1e-6


def test_asymptotics_match(spec_a1):
    am = match_asymptotics(spec_a1)
    assert am.lam_expected == pytest.approx(-2 * math.sqrt(3.0), rel=1e-14)
    # fitted log coefficients per component; the k=1 coefficient enters
    # only at t^2 ln t, so its fit is the loosest
    assert am.rel_err[0] < 1e-8
    assert am.rel_err[1] < 1e-5
    assert am.rel_err[2] < 1e-2


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
def test_series_log_term_matches_quadrature_fit(a):
    # J_0 = c*t*ln|t| + ...: the series coefficient against a fit of
    # quadrature data (J_1's t^2*ln|t| fit is too loose to pin down)
    power, c = fundamental(nf(a)).log_term(0)
    assert power == 1
    assert log_coefficient(nf(a), 0).coeffs["t^1*log"] == pytest.approx(
        c, rel=1e-3)


def test_system_matrices_regular_inside_annulus(spec_a1):
    sysm = pf_system(spec_a1)
    A1, A0 = np.asarray(sysm.A1, float), np.asarray(sysm.A0, float)
    for t in np.linspace(-1.9, -0.1, 10):
        assert abs(np.linalg.det(A1 * t + A0)) > 1e-12


def test_pf_rejects_appendix_family(appendix_spec):
    with pytest.raises(ValueError, match="normal-form family only"):
        pf_system(appendix_spec)
    with pytest.raises(ValueError, match="normal-form family only"):
        fundamental(appendix_spec)
