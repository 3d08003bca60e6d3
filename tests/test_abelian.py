import math

import numpy as np
import pytest
from scipy.integrate import quad

from saddleloop import abelian, cli
from saddleloop.centroid import default_grid
from saddleloop.melnikov import (APPENDIX_NORMAL_FORM, APPENDIX_T_PER_H,
                                 APPENDIX_Y2_PER_J1, APPENDIX_Y_PER_J0)
from saddleloop.model import Annulus, Family, HamiltonianSpec, critical_data
from saddleloop.abelian import (
    QUAD_LIMIT,
    appendix_oval_integral,
    default_log_window,
    fit_log_basis,
    jk_at_loop,
    jk_on_slice,
    log_coefficient,
    triple,
    triples_on_grid,
)
from saddleloop.ovals import phi, slice_oval

from oracle_values import (
    APPENDIX_MOMENTS,
    LOOP_LIMITS,
    SIGMA_MINUS_LOOP_LIMITS,
    SIGMA_MINUS_TRIPLES,
    SIGMA_PLUS_TRIPLES,
)


@pytest.mark.parametrize("a,t", sorted(SIGMA_PLUS_TRIPLES))
def test_sigma_plus_triples_against_oracle(a, t):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    tr = triple(spec, Annulus.SIGMA_PLUS, t)
    ref = SIGMA_PLUS_TRIPLES[(a, t)]
    assert tr.converged
    assert tr.jm1 == pytest.approx(ref[0], rel=1e-10)
    assert tr.j0 == pytest.approx(ref[1], rel=1e-10)
    assert tr.j1 == pytest.approx(ref[2], rel=1e-10)


@pytest.mark.parametrize("a,t", sorted(SIGMA_MINUS_TRIPLES))
def test_sigma_minus_triples_against_oracle(a, t):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    tr = triple(spec, Annulus.SIGMA_MINUS, t)
    ref = SIGMA_MINUS_TRIPLES[(a, t)]
    assert tr.converged
    assert tr.jm1 == pytest.approx(ref[0], rel=1e-10)
    assert tr.j0 == pytest.approx(ref[1], rel=1e-10)
    assert tr.j1 == pytest.approx(ref[2], rel=1e-10)


@pytest.mark.parametrize("a", sorted(LOOP_LIMITS))
def test_loop_limits_against_oracle(a):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    ref0, ref1 = LOOP_LIMITS[a]
    assert jk_at_loop(spec, Annulus.SIGMA_PLUS, 0) == pytest.approx(ref0, rel=1e-11)
    assert jk_at_loop(spec, Annulus.SIGMA_PLUS, 1) == pytest.approx(ref1, rel=1e-11)


@pytest.mark.parametrize("a", sorted(SIGMA_MINUS_LOOP_LIMITS))
def test_minus_loop_limits_against_oracle(a):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    ref0, ref1 = SIGMA_MINUS_LOOP_LIMITS[a]
    assert jk_at_loop(spec, Annulus.SIGMA_MINUS, 0) == pytest.approx(ref0, rel=1e-11)
    assert jk_at_loop(spec, Annulus.SIGMA_MINUS, 1) == pytest.approx(ref1, rel=1e-11)


def test_loop_limits_mirror_at_a1(spec_a1):
    # at a=1, H = x*(y^2 + x^2 - 3) is odd in x: x -> -x maps one loop
    # onto the other, so J_0 agrees and J_1 flips sign
    plus = [jk_at_loop(spec_a1, Annulus.SIGMA_PLUS, k) for k in (0, 1)]
    minus = [jk_at_loop(spec_a1, Annulus.SIGMA_MINUS, k) for k in (0, 1)]
    assert minus[0] == pytest.approx(plus[0], rel=1e-14)
    assert minus[1] == pytest.approx(-plus[1], rel=1e-14)


def test_loop_limit_closed_form_a1(spec_a1):
    # at a=1 the loop is y^2 = 3 - x^2: J_0(0) = 3*pi/2 exactly
    assert jk_at_loop(spec_a1, Annulus.SIGMA_PLUS, 0) == pytest.approx(1.5 * math.pi, rel=1e-12)


def test_error_estimates_honest(spec_a1):
    tr = triple(spec_a1, Annulus.SIGMA_PLUS, -1.0)
    ref = SIGMA_PLUS_TRIPLES[(1.0, -1.0)]
    for est, val, r in zip(tr.err, (tr.jm1, tr.j0, tr.j1), ref):
        assert est < 1e-8
        assert abs(val - r) <= max(10 * est, 1e-12 * abs(r))


def _same_row(grid, i, single):
    # row i of a grid triple carries the one-energy triple's bits
    assert grid.as_vector()[i].tobytes() == single.as_vector().tobytes()
    assert grid.err[i].tobytes() == np.array(single.err).tobytes()
    assert grid.converged[i] == single.converged


def test_triples_on_grid_matches_pointwise(spec_a1):
    ts = [-1.5, -1.0, -0.3]
    grid = triples_on_grid(spec_a1, Annulus.SIGMA_PLUS, ts)
    assert grid.t.tolist() == ts
    for i, t in enumerate(ts):
        _same_row(grid, i, triple(spec_a1, Annulus.SIGMA_PLUS, t))
    # a grid triple holds arrays of grid length; the one-energy view
    # holds a float per integral and a bool, which the benchmark tracer
    # reads
    for col in (grid.t, grid.jm1, grid.j0, grid.j1, grid.converged):
        assert isinstance(col, np.ndarray) and col.shape == (3,)
    assert grid.err.shape == (3, 3) and grid.converged.dtype == bool
    one = triple(spec_a1, Annulus.SIGMA_PLUS, -1.0)
    assert all(type(v) is float for v in (one.jm1, one.j0, one.j1, *one.err))
    assert type(one.converged) is bool


def test_kernel_lanes_batch_invariant():
    # a lane gives the same bits alone as in any batch
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=0.7)
    for annulus in (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS):
        ts = default_grid(spec, annulus, n=40)
        grid = triples_on_grid(spec, annulus, ts)
        for i in range(0, len(ts), 5):
            _same_row(grid, i, triple(spec, annulus, ts[i]))


def _appendix_moments(hs):
    """(oint y dx, oint y^2 dx, converged) on the appendix ovals of an
    h-grid, from the a = 1 triples at the mapped energies."""
    tr = triples_on_grid(APPENDIX_NORMAL_FORM, Annulus.SIGMA_PLUS,
                         APPENDIX_T_PER_H * np.asarray(hs, dtype=float))
    return APPENDIX_Y_PER_J0 * tr.j0, APPENDIX_Y2_PER_J1 * tr.j1, tr.converged


def _appendix_loop_moments():
    """The closed moments at h = 0 from the mapped a = 1 loop limits."""
    j0, j1 = (jk_at_loop(APPENDIX_NORMAL_FORM, Annulus.SIGMA_PLUS, k)
              for k in (0, 1))
    return APPENDIX_Y_PER_J0 * j0, APPENDIX_Y2_PER_J1 * j1


def test_one_energy_views_match_grids(spec_a05, appendix_spec):
    # jk_on_slice, which the benchmark tracer wraps, carries the bits of
    # the grid rows, the degenerate center slice of SigmaMinus included;
    # appendix_oval_integral, which it wraps too, agrees with the mapped
    # a = 1 moments
    t_center = critical_data(spec_a05).center1.energy
    for annulus in (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS):
        ts = default_grid(spec_a05, annulus, n=8)
        if annulus is Annulus.SIGMA_MINUS:
            ts = np.append(ts, t_center)
        grid = triples_on_grid(spec_a05, annulus, ts)
        for i, t in enumerate(ts):
            v, e, ok = zip(*(jk_on_slice(slice_oval(spec_a05, annulus, t), k)
                             for k in (-1, 0, 1)))
            assert np.array(v).tobytes() == grid.as_vector()[i].tobytes()
            assert np.array(e).tobytes() == grid.err[i].tobytes()
            assert all(ok) == grid.converged[i]
    hs = np.linspace(-1.3, -1e-3, 6)
    iy, iy2, ok = _appendix_moments(hs)
    assert ok.all()
    for h, m1, m2 in zip(hs, iy, iy2):
        one = [appendix_oval_integral(appendix_spec, h, fe)
               for fe in (lambda x2, y: y, lambda x2, y: y * y)]
        assert one[0][0] == pytest.approx(m1, rel=1e-12, abs=0.0)
        assert one[1][0] == pytest.approx(m2, rel=1e-12, abs=0.0)
        assert one[0][2] and one[1][2]


def _quadpack_jk(sl, k):
    # jk_on_slice's integrand and tolerance through scipy's QUADPACK qags
    w = 0.5 * (sl.hi - sl.lo)
    m = 0.5 * (sl.hi + sl.lo)

    def f(theta):
        x = m + w * math.sin(theta)
        c = math.cos(theta)
        return x**k * math.sqrt(phi(sl.r, sl.third_root, x)) * c * c

    q = 0.25 * abelian.QUAD_TOL / max(w * w, 1e-30)
    val, _ = quad(f, -0.5 * math.pi, 0.5 * math.pi, epsabs=q, epsrel=q,
                  limit=QUAD_LIMIT)
    return 2.0 * w * w * val


@pytest.mark.parametrize("a,annulus", [
    (a, ann) for a in (-0.5, 0.0, 0.5, 1.0, 1.9)
    for ann in (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS)
    if ann is Annulus.SIGMA_PLUS or 0.0 < a < 2.0])
def test_kernel_matches_quadpack(a, annulus):
    # a = 0 is the r2 == 0 slice; the plus grids add the log window,
    # down to t = -1e-6
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    ts = default_grid(spec, annulus)
    if annulus is Annulus.SIGMA_PLUS:
        ts = np.concatenate([ts, default_log_window()])
    j = triples_on_grid(spec, annulus, ts).as_vector()
    for t, row in zip(ts, j):
        sl = slice_oval(spec, annulus, t)
        for k, v in zip((-1, 0, 1), row):
            assert v == pytest.approx(_quadpack_jk(sl, k), rel=1e-13, abs=0.0)


def test_budget_exhausted_lane_flagged_and_isolated():
    # lane 1 oscillates faster than QUAD_LIMIT panels resolve: its error
    # never falls, so it runs out of panels and says so, while its
    # neighbours keep the bits they have alone
    def integrand(theta, j):
        return np.where(j == 0, np.cos(theta) ** 2,
                        np.where(j == 1, np.cos(1e4 * theta + 0.3),
                                 np.exp(np.sin(theta))))

    evals = []

    def f(theta, lane):
        evals.append(np.count_nonzero(lane == 1))
        return integrand(theta, lane)

    val, err, ok = abelian._gk21(f, 3, -0.5 * math.pi, 0.5 * math.pi, 1e-11)
    assert ok.tolist() == [True, False, True]
    assert err[1] > 0.0
    panels = (sum(evals) + 1) // 2      # each bisection adds two panels
    assert QUAD_LIMIT // 2 < panels <= QUAD_LIMIT
    for j in (0, 2):
        alone = abelian._gk21(lambda x, lane: integrand(x, np.full_like(lane, j)),
                              1, -0.5 * math.pi, 0.5 * math.pi, 1e-11)
        assert alone[0].tobytes() == val[j:j + 1].tobytes()
        assert alone[1].tobytes() == err[j:j + 1].tobytes()
        assert alone[2][0]


def test_tolerance_floor(spec_a1, tmp_path, capsys):
    with pytest.raises(ValueError, match="quadrature tolerance"):
        triples_on_grid(spec_a1, Annulus.SIGMA_PLUS, [-1.0], tol=1e-13)
    # the appendix first-order function is the a = 1 grid's, behind the
    # command line: its --tol meets the same floor, a config error
    out = tmp_path / "m.csv"
    code = cli.main(["melnikov", "--family", "appendix", "--mu2", "0.657",
                     "--h-grid=-0.5:-0.1:3", "--tol", "1e-13",
                     "--out", str(out)])
    assert code == 2
    assert "quadrature tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
def test_log_coefficient_of_divergent_integral(a):
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    fit = log_coefficient(spec, -1)
    expected = -2.0 * math.sqrt(3.0 * (2.0 - a))
    assert fit.coeffs["t^0*log"] == pytest.approx(expected, rel=1e-6)


def test_log_fit_recovers_synthetic_basis():
    ts = default_log_window()
    lt = np.log(np.abs(ts))
    vals = 2.0 + 0.5 * ts - 3.0 * lt + 0.25 * ts * lt
    fit = fit_log_basis(ts, vals)
    assert fit.coeffs["t^0"] == pytest.approx(2.0, abs=1e-9)
    assert fit.coeffs["t^1"] == pytest.approx(0.5, abs=1e-6)
    assert fit.coeffs["t^0*log"] == pytest.approx(-3.0, abs=1e-9)
    assert fit.coeffs["t^1*log"] == pytest.approx(0.25, abs=1e-6)


def test_appendix_segment_closed_forms():
    # on the loop the lower segment y = 0 adds nothing to either moment,
    # so the closed moments at h = 0 are the Gamma2 arc integrals
    i_y, i_y2 = _appendix_loop_moments()
    assert i_y == pytest.approx(-math.pi * math.sqrt(3.0), abs=1e-12)
    assert i_y2 == pytest.approx(-16.0, abs=1e-12)


@pytest.mark.parametrize("h", sorted(APPENDIX_MOMENTS))
def test_appendix_oval_moments_against_oracle(h):
    (iy,), (iy2,), (ok,) = _appendix_moments([h])
    ref = APPENDIX_MOMENTS[h]
    assert ok
    assert iy == pytest.approx(ref[0], rel=1e-10)
    assert iy2 == pytest.approx(ref[1], rel=1e-10)


def test_appendix_moments_approach_loop_values():
    # as h -> 0- the oval tends to the upper loop arc plus the segment,
    # where the moments take the mapped loop limits
    (iy,), (iy2,), (ok,) = _appendix_moments([-1e-6])
    loop_y, loop_y2 = _appendix_loop_moments()
    assert ok
    assert iy == pytest.approx(loop_y, rel=1e-3)
    assert iy2 == pytest.approx(loop_y2, rel=1e-3)


def test_loop_identity_cross_check(spec_a1):
    # (3/2)(a-1) J0 - a J1 at the loop equals -(2/3)(3(2-a))^{3/2}; at
    # a=1 that reduces to J1(0) = 2*sqrt(3), a one-line closed form
    assert jk_at_loop(spec_a1, Annulus.SIGMA_PLUS, 1) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
