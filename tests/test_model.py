import math

import pytest

from saddleloop.model import (
    Family,
    HamiltonianSpec,
    MelnikovCoeffs,
    PerturbationSpec,
    critical_data,
)


def grad_H(spec, x, y):
    """(H_x, H_y) from the coefficient tuples of grad_H_coeffs."""
    basis = (1.0, x, y, x * x, x * y, y * y)
    return tuple(sum(c * m for c, m in zip(cs, basis))
                 for cs in spec.grad_H_coeffs())


@pytest.mark.parametrize("a", [-0.9, -0.5, 0.3, 0.7, 1.0, 1.5, 1.9])
def test_normal_form_critical_points(a):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    data = critical_data(spec)

    assert data.center0.xy == (1.0, 0.0)
    assert data.center0.energy == pytest.approx(a - 3.0, abs=1e-14)
    # the center is a critical point of H
    assert grad_H(spec, *data.center0.xy) == (pytest.approx(0.0),
                                              pytest.approx(0.0))

    ys = math.sqrt(3.0 * (2.0 - a))
    assert len(data.saddles) == 2
    for s in data.saddles:
        assert s.energy == 0.0
        assert abs(abs(s.xy[1]) - ys) < 1e-14
        gx, gy = grad_H(spec, *s.xy)
        assert abs(gx) < 1e-13 and abs(gy) < 1e-13
    assert spec.two_saddle_loop


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 1.9])
def test_second_center_exists_inside_zero_two(a):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    data = critical_data(spec)
    assert data.center1 is not None
    xc = (a - 2.0) / a
    t1 = (a + 1.0) * (a - 2.0) ** 2 / a**2
    assert data.center1.xy[0] == pytest.approx(xc, rel=1e-14)
    assert data.center1.energy == pytest.approx(t1, rel=1e-14)
    assert spec.eval_H(xc, 0.0) == pytest.approx(t1, rel=1e-13)
    gx, gy = grad_H(spec, *data.center1.xy)
    assert abs(gx) < 1e-13 and abs(gy) < 1e-13


@pytest.mark.parametrize("a", [-0.5, -0.9, 2.5])
def test_second_center_absent_outside_zero_two(a):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    assert critical_data(spec).center1 is None


def test_loop_flag_boundary():
    assert not HamiltonianSpec(family=Family.NORMAL_FORM, a=-1.0).two_saddle_loop
    assert HamiltonianSpec(family=Family.NORMAL_FORM, a=-0.999).two_saddle_loop
    assert HamiltonianSpec(family=Family.NORMAL_FORM, a=1.999).two_saddle_loop
    assert not HamiltonianSpec(family=Family.NORMAL_FORM, a=2.0).two_saddle_loop
    # saddles become a complex pair past a=2
    assert critical_data(HamiltonianSpec(family=Family.NORMAL_FORM, a=2.5)).saddles == ()


def test_appendix_critical_points():
    spec = HamiltonianSpec(family=Family.APPENDIX_ELLIPSE)
    data = critical_data(spec)
    assert data.center0.xy == (0.0, 2.0)
    assert data.center0.energy == pytest.approx(-4.0 / 3.0, rel=1e-15)
    assert spec.eval_H(0.0, 2.0) == pytest.approx(-4.0 / 3.0, rel=1e-15)
    assert {s.xy for s in data.saddles} == {(-1.0, 0.0), (1.0, 0.0)}
    assert all(s.energy == 0.0 for s in data.saddles)
    for p in (data.center0, *data.saddles):
        assert grad_H(spec, *p.xy) == (0.0, 0.0)
    assert data.center1 is None
    assert spec.two_saddle_loop


def test_appendix_requires_c_above_16():
    with pytest.raises(ValueError, match="c > 16"):
        PerturbationSpec(1e-3, c=16.0)
    with pytest.raises(ValueError, match="c > 16"):
        PerturbationSpec(1e-3, c=15.0)
    assert PerturbationSpec(1e-3, c=16.01).c == 16.01
    # positional (epsilon, mu1, mu2) keeps working, at the default c
    assert PerturbationSpec(1e-3, 0.1, 0.2).c == 17.0


def test_gradient_matches_finite_difference():
    d = 1e-6
    for spec in (HamiltonianSpec(family=Family.NORMAL_FORM, a=0.7),
                 HamiltonianSpec(family=Family.NORMAL_FORM, a=-0.5),
                 HamiltonianSpec(family=Family.APPENDIX_ELLIPSE)):
        for x, y in ((0.8, 0.6), (-1.3, 0.2), (0.1, -1.7)):
            hx = (spec.eval_H(x + d, y) - spec.eval_H(x - d, y)) / (2 * d)
            hy = (spec.eval_H(x, y + d) - spec.eval_H(x, y - d)) / (2 * d)
            gx, gy = grad_H(spec, x, y)
            assert gx == pytest.approx(hx, abs=1e-8)
            assert gy == pytest.approx(hy, abs=1e-8)


def test_melnikov_coeffs_validation():
    with pytest.raises(ValueError):
        MelnikovCoeffs(1.0, 0.0, gamma=0.5)  # order 1 forbids the x^{-1} term
    with pytest.raises(ValueError):
        MelnikovCoeffs(1.0, 0.0, order_k=0)
    c = MelnikovCoeffs(0.0, 0.0, gamma=0.5, order_k=2)
    assert not c.all_zero
    assert MelnikovCoeffs(0.0, 0.0).all_zero

