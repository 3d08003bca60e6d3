import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from saddleloop import abelian, melnikov
from saddleloop.centroid import sample_curve
from saddleloop.model import Annulus, MelnikovCoeffs
from saddleloop.picard_fuchs import fundamental
from saddleloop.melnikov import (
    APPENDIX_NORMAL_FORM,
    APPENDIX_T_PER_H,
    ZeroFunctionError,
    appendix_coeffs,
    appendix_count_zeros,
    classify_cyclicity,
    count_zeros,
    value,
    values_on_grid,
)

from oracle_values import APPENDIX_MOMENTS, APPENDIX_ZEROS, SIGMA_PLUS_TRIPLES


def test_value_is_oracle_combination(spec_a1):
    jm1, j0, j1 = SIGMA_PLUS_TRIPLES[(1.0, -1.0)]
    coeffs = MelnikovCoeffs(alpha=0.4, beta=-0.7, gamma=0.2, order_k=2)
    got = value(spec_a1, coeffs, Annulus.SIGMA_PLUS, -1.0)
    assert got == pytest.approx(0.4 * j0 - 0.7 * j1 + 0.2 * jm1, rel=1e-10)


def test_values_on_grid_matches_pointwise(spec_a1):
    coeffs = MelnikovCoeffs(alpha=1.0, beta=-1.2)
    ts = np.array([-1.5, -1.0, -0.4])
    vals, conv = values_on_grid(spec_a1, coeffs, Annulus.SIGMA_PLUS, ts)
    assert conv.all()
    for t, v in zip(ts, vals):
        assert v == pytest.approx(value(spec_a1, coeffs, Annulus.SIGMA_PLUS, t), rel=1e-12)


def test_count_zeros_finds_planted_zero(spec_a1):
    # plant a zero at t=-1 using the frozen triple there
    _, j0, j1 = SIGMA_PLUS_TRIPLES[(1.0, -1.0)]
    coeffs = MelnikovCoeffs(alpha=1.0, beta=-j0 / j1)
    zc = count_zeros(spec_a1, coeffs, Annulus.SIGMA_PLUS)
    assert zc.count == 1
    assert zc.zeros[0] == pytest.approx(-1.0, abs=1e-6)
    oracle = brentq(lambda t: value(spec_a1, coeffs, Annulus.SIGMA_PLUS, t),
                    -1.1, -0.9, xtol=1e-14)
    assert abs(zc.zeros[0] - oracle) < 1e-10


def test_count_zeros_none_for_single_sign(spec_a1):
    zc = count_zeros(spec_a1, MelnikovCoeffs(alpha=1.0, beta=0.0), Annulus.SIGMA_PLUS)
    assert zc.count == 0
    assert zc.zeros == ()


def test_count_zeros_rejects_zero_function(spec_a1):
    with pytest.raises(ZeroFunctionError):
        count_zeros(spec_a1, MelnikovCoeffs(0.0, 0.0), Annulus.SIGMA_PLUS)


def test_count_zeros_independent_of_scale(spec_a1):
    # M is linear in its coefficients: scaled by 2**-50 it has the same
    # zeros to the bit, and a small M is not an identically zero one
    zc = count_zeros(spec_a1, MelnikovCoeffs(1.0, -1.19), Annulus.SIGMA_PLUS)
    assert zc.count == 1
    scaled = MelnikovCoeffs(2.0**-50, -1.19 * 2.0**-50)
    assert count_zeros(spec_a1, scaled, Annulus.SIGMA_PLUS) == zc
    small = count_zeros(spec_a1, MelnikovCoeffs(1e-14, -1.19e-14),
                        Annulus.SIGMA_PLUS)
    assert small.count == 1
    assert abs(small.zeros[0] - zc.zeros[0]) < 1e-10


def test_pure_gamma_zero_free_near_loop(spec_a1):
    # the x^{-1} integral is positive and log-divergent at the loop, so
    # a pure-gamma function cannot vanish near it
    coeffs = MelnikovCoeffs(alpha=0.0, beta=0.0, gamma=0.5, order_k=2)
    zc = count_zeros(spec_a1, coeffs, Annulus.SIGMA_PLUS, t_range=(-0.5, -1e-4))
    assert zc.count == 0


def _line_through(p1, p2):
    """alpha + beta*xi + gamma*eta = 0 through two centroid points."""
    beta, gamma = p2[1] - p1[1], p1[0] - p2[0]
    return MelnikovCoeffs(alpha=-(beta * p1[0] + gamma * p1[1]), beta=beta,
                          gamma=gamma, order_k=2)


@pytest.mark.parametrize("descending", [False, True],
                         ids=["ascending", "descending"])
def test_close_zeros_flag_grid_coarse(spec_a1, descending):
    # M = J0 * (line functional) vanishes where the line meets the
    # centroid curve: here at two energies about two grid cells apart,
    # on a grid run in either direction
    lo, hi = melnikov._default_range(spec_a1, Annulus.SIGMA_PLUS)
    step = (hi - lo) / (melnikov.GRID_POINTS - 1)
    ts = lo + step * np.array([100.3, 102.3])
    curve = sample_curve(spec_a1, Annulus.SIGMA_PLUS, t_grid=ts)
    coeffs = _line_through(*zip(curve.xi, curve.eta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zc = count_zeros(spec_a1, coeffs, Annulus.SIGMA_PLUS,
                         t_range=(hi, lo) if descending else (lo, hi))
    assert zc.count == 2
    assert np.allclose(zc.zeros, ts, rtol=0.0, atol=1e-9)
    assert zc.grid_coarse
    assert zc.converged


def _clear_one_mask_entry(monkeypatch, at_call):
    """Wrap values_on_grid so that its at_call-th call (0 is the grid)
    reports its first point unconverged; the values are untouched."""
    calls = []

    def wrapped(*args, **kwargs):
        vals, ok = values_on_grid(*args, **kwargs)
        if len(calls) == at_call:
            ok = ok.copy()
            ok[0] = False
        calls.append(len(ok))
        return vals, ok

    monkeypatch.setattr(melnikov, "values_on_grid", wrapped)
    return calls


@pytest.mark.parametrize("at_call", [0, 1])
def test_unconverged_quadrature_clears_zero_count_flag(spec_a1, monkeypatch,
                                                       at_call):
    # one unconverged point, on the grid or in the first Illinois round
    _, j0, j1 = SIGMA_PLUS_TRIPLES[(1.0, -1.0)]
    coeffs = MelnikovCoeffs(alpha=1.0, beta=-j0 / j1)
    clean = count_zeros(spec_a1, coeffs, Annulus.SIGMA_PLUS)
    assert clean.converged
    calls = _clear_one_mask_entry(monkeypatch, at_call)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zc = count_zeros(spec_a1, coeffs, Annulus.SIGMA_PLUS)
    assert len(calls) > 1
    assert not zc.converged
    assert (zc.count, zc.zeros, zc.grid_coarse) == (
        clean.count, clean.zeros, clean.grid_coarse)


def test_d1_expected_closed_form(spec_a1):
    # at a=1 only the alpha channel contributes at order t*ln(t), and
    # J_0's log term is lam * q1[J0] * t*ln|t| = -2*sqrt(3)/6 * t*ln|t|
    power, coeff = fundamental(spec_a1).log_term(0)
    assert power == 1
    assert coeff == pytest.approx(-math.sqrt(3.0) / 3.0, rel=1e-12)


_LOOP = "cycle(s) from the loop"


@pytest.mark.parametrize("coeffs, d0_is_zero, expected", [
    (MelnikovCoeffs(0.0, 0.0), False, ZeroFunctionError),
    (MelnikovCoeffs(0.5, 0.1), True,
     f"order k=1, M1(0) = 0: <= 2 {_LOOP}, <= 0 from the open annulus"),
    (MelnikovCoeffs(0.5, 0.1), False,
     f"order k=1, M1(0) != 0: <= 0 {_LOOP}, <= 1 from the closed annulus"),
    (MelnikovCoeffs(0.0, 0.0, gamma=1.0, order_k=2), True,
     f"order k=2, gamma != 0: <= 0 {_LOOP}, <= 2 from the closed annulus"),
    (MelnikovCoeffs(0.0, 0.4, order_k=2), True, ValueError),
    (MelnikovCoeffs(0.5, 0.1, order_k=2), True,
     f"order k=2, gamma = 0, M_k(0) = 0: <= 2 {_LOOP}, "
     "<= 0 from the open annulus"),
    (MelnikovCoeffs(0.5, 0.1, order_k=3), False,
     f"order k=3, gamma = 0, alpha != 0, M_k(0) != 0: <= 0 {_LOOP}, "
     "<= 1 from the closed annulus"),
    # the paper's bound: up to three cycles from the two-saddle loop
    (MelnikovCoeffs(0.0, 0.4, order_k=2), False,
     f"order k=2, gamma = alpha = 0, beta != 0: <= 3 {_LOOP}, "
     "<= 0 from the open annulus"),
], ids=["all-zero", "k1-loop", "k1-annulus", "gamma", "d0-inconsistent",
        "k2-loop", "k3-annulus", "beta-only"])
def test_classification_table(coeffs, d0_is_zero, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            classify_cyclicity(coeffs, d0_is_zero)
        return
    assert str(classify_cyclicity(coeffs, d0_is_zero)) == expected


def _appendix_first_order(mu2, hs):
    """(values, converged) of the appendix first-order function on an
    h-grid: M on the a = 1 normal form at the mapped energies."""
    return values_on_grid(APPENDIX_NORMAL_FORM, appendix_coeffs(mu2),
                          Annulus.SIGMA_PLUS,
                          APPENDIX_T_PER_H * np.asarray(hs, dtype=float))


@pytest.mark.parametrize("h", sorted(APPENDIX_MOMENTS))
def test_appendix_first_order_from_moments(h):
    iy, iy2 = APPENDIX_MOMENTS[h]
    mu2 = 0.3
    want = (16.0 + mu2) * iy - math.pi * math.sqrt(3.0) * iy2
    (got,), (ok,) = _appendix_first_order(mu2, [h])
    assert got == pytest.approx(want, rel=1e-9)
    assert ok


def test_appendix_loop_value_is_mu2_line():
    # M(0-) -> -pi*sqrt(3)*mu2: the mu1 channel integrates to zero over
    # a closed oval and the remaining terms cancel at the loop, exactly
    # in the loop limits J_0(0), J_1(0)
    j0, j1 = (abelian.jk_at_loop(APPENDIX_NORMAL_FORM, Annulus.SIGMA_PLUS, k)
              for k in (0, 1))
    for mu2 in (0.2, -0.4):
        c = appendix_coeffs(mu2)
        want = -math.pi * math.sqrt(3.0) * mu2
        assert c.alpha * j0 + c.beta * j1 == pytest.approx(want, rel=1e-12)
        (got,), _ = _appendix_first_order(mu2, [-1e-7])
        assert got == pytest.approx(want, rel=1e-4)


def test_appendix_zero_location(appendix_spec):
    # with mu2=0.657 the first-order function changes sign once around
    # h ~ -0.061 and nowhere in the witness window
    zc = appendix_count_zeros(appendix_spec, 0.657, (-0.1, -0.01))
    assert zc.count == 1
    assert abs(zc.zeros[0] - APPENDIX_ZEROS[(0.657, -0.1, -0.01)]) < 1e-10
    zc2 = appendix_count_zeros(appendix_spec, 0.657, (-0.004, -0.00115))
    assert zc2.count == 0
    assert zc.converged and zc2.converged


def test_appendix_unconverged_moments_clear_zero_count_flag(appendix_spec,
                                                            monkeypatch):
    # one panel per lane: the moments off the center side do not
    # converge, which the count reports instead of raising
    monkeypatch.setattr(abelian, "QUAD_LIMIT", 1)
    zc = appendix_count_zeros(appendix_spec, 0.657, (-0.1, -0.01))
    assert not zc.converged
