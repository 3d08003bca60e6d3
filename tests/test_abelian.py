import math

import numpy as np
import pytest
from scipy.integrate import quad

from saddleloop import abelian, cli
from saddleloop.centroid import center_endpoint, default_grid
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
    NEAR_LOOP_TRIPLES,
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


@pytest.mark.parametrize("annulus,a,t", sorted(NEAR_LOOP_TRIPLES))
def test_near_loop_triples_against_oracle(annulus, a, t):
    # next to the loop J_1's integrand changes on the scale of the slice
    # end at the saddle, which a start from [-pi/2, pi/2] left
    # unresolved while its error estimate passed; J_0 and J_1 hold to
    # 1e-13 and within their err.  J_-1 is left out: x = m + w*sin(theta)
    # sees that end only to about eps/|u_e| relative
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    annulus = Annulus[annulus]
    tr = triple(spec, annulus, t)
    ref = NEAR_LOOP_TRIPLES[(annulus.name, a, t)]
    assert tr.converged
    for got, est, want in zip((tr.j0, tr.j1), tr.err[1:], ref[1:]):
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
        assert abs(got - want) <= est
    # the row carries the same bits in a whole grid
    grid = triples_on_grid(spec, annulus,
                           np.append(default_grid(spec, annulus), t))
    _same_row(grid, -1, tr)


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


@pytest.mark.parametrize("a", np.linspace(0.05, 1.95, 39).tolist())
def test_sigma_minus_is_sigma_plus_at_two_minus_a(a):
    # X = -lam*x, Y = mu*y (lam = a/(2-a), mu = sqrt(lam)) take H at a to
    # -kappa*H' at 2 - a, kappa = ((2-a)/a)^2, and SigmaMinus onto
    # SigmaPlus: J_k^-(t; a) = (-1)^k lam^-(k+1) mu^-1 J_k^+(-t/kappa; 2-a).
    # The whole minus path (slices, kernel, loop limits) against the plus
    # path, with no reference values
    lam = a / (2.0 - a)
    kappa = ((2.0 - a) / a) ** 2
    minus = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    plus = HamiltonianSpec(family=Family.NORMAL_FORM, a=2.0 - a)
    scale = [(-1) ** k * lam ** -(k + 1) / math.sqrt(lam) for k in (-1, 0, 1)]
    ts = np.concatenate([np.linspace(0.999, 1e-6, 6),
                         np.geomspace(0.999, 1e-6, 6)])
    ts *= critical_data(minus).center1.energy
    got = triples_on_grid(minus, Annulus.SIGMA_MINUS, ts).as_vector()
    want = scale * triples_on_grid(plus, Annulus.SIGMA_PLUS,
                                   -ts / kappa).as_vector()
    # J_-1 keeps the cancellation of x = m + w*sin(theta) next to the loop
    bound = np.array([1e-10, 1e-12, 1e-12])
    assert np.all(np.abs(got - want) <= bound * np.maximum(1.0, np.abs(got)))
    for k in (0, 1):
        assert jk_at_loop(minus, Annulus.SIGMA_MINUS, k) == pytest.approx(
            scale[k + 1] * jk_at_loop(plus, Annulus.SIGMA_PLUS, k), rel=4e-15)
    # the centroid's center ends: xi^- = -xi^+/lam, eta^- = -lam*eta^+
    xi, eta = center_endpoint(plus, Annulus.SIGMA_PLUS)
    assert center_endpoint(minus, Annulus.SIGMA_MINUS) == pytest.approx(
        (-xi / lam, -lam * eta), rel=1e-15)


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
    # a lane gives the same bits alone as in any batch, and so in a batch
    # that integrates J_0 and J_1 only, whose converged flag covers those
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=0.7)
    for annulus in (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS):
        ts = default_grid(spec, annulus, n=40)
        grid = triples_on_grid(spec, annulus, ts)
        sub = triples_on_grid(spec, annulus, ts, ks=(0, 1))
        assert sub.jm1 is None and np.isnan(sub.err[:, 0]).all()
        for i in range(0, len(ts), 5):
            one = triple(spec, annulus, ts[i])
            _same_row(grid, i, one)
            assert np.array([sub.j0[i], sub.j1[i]]).tobytes() == \
                np.array([one.j0, one.j1]).tobytes()
            assert sub.err[i, 1:].tobytes() == np.array(one.err[1:]).tobytes()
            sl = slice_oval(spec, annulus, ts[i])
            assert sub.converged[i] == all(jk_on_slice(sl, k)[2]
                                           for k in (0, 1))


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


def test_one_energy_views_match_grids(spec_a05):
    # jk_on_slice, which the benchmark tracer wraps, carries the bits of
    # the grid rows; appendix_oval_integral, which it wraps too, agrees
    # with the mapped a = 1 moments
    for annulus in (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS):
        ts = default_grid(spec_a05, annulus, n=8)
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
        one = [appendix_oval_integral(h, fe)
               for fe in (lambda x2, y: y, lambda x2, y: y * y)]
        assert one[0][0] == pytest.approx(m1, rel=1e-12, abs=0.0)
        assert one[1][0] == pytest.approx(m2, rel=1e-12, abs=0.0)
        assert one[0][2] and one[1][2]


def _start_points(sl):
    # the inner ends of the slice lane's start panels in the kernel:
    # the midpoints of the panels it splits toward its graded end
    w = 0.5 * (sl.hi - sl.lo)
    start = int(abelian._start_depth(np.array([sl.lo]), np.array([sl.hi]),
                                     w)[0])
    a, b, points = -0.5 * math.pi, 0.5 * math.pi, []
    for _ in range(abs(start)):
        points.append(0.5 * (a + b))
        a, b = (a, points[-1]) if start < 0 else (points[-1], b)
    return points


def _quadpack_jk(sl, k):
    # jk_on_slice's integrand and tolerance through scipy's QUADPACK,
    # qagp with the lane's start panel ends as breakpoints
    w = 0.5 * (sl.hi - sl.lo)
    m = 0.5 * (sl.hi + sl.lo)

    def f(theta):
        x = m + w * math.sin(theta)
        c = math.cos(theta)
        return x**k * math.sqrt(phi(sl.r, sl.third_root, x)) * c * c

    q = 0.25 * abelian.QUAD_TOL / max(w * w, 1e-30)
    val, _ = quad(f, -0.5 * math.pi, 0.5 * math.pi, epsabs=q, epsrel=q,
                  limit=QUAD_LIMIT, points=_start_points(sl) or None)
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

    def f(theta, col, lane):
        evals.append(np.count_nonzero(lane == 1))
        return integrand(theta[:, col], lane)

    val, err, ok = abelian._gk21(f, 3, -0.5 * math.pi, 0.5 * math.pi, 1e-11,
                                 0)
    assert ok.tolist() == [True, False, True]
    assert err[1] > 0.0
    panels = (sum(evals) + 1) // 2      # each bisection adds two panels
    assert QUAD_LIMIT // 2 < panels <= QUAD_LIMIT
    for j in (0, 2):
        alone = abelian._gk21(
            lambda x, col, lane: integrand(x[:, col], np.full_like(lane, j)),
            1, -0.5 * math.pi, 0.5 * math.pi, 1e-11, 0)
        assert alone[0].tobytes() == val[j:j + 1].tobytes()
        assert alone[1].tobytes() == err[j:j + 1].tobytes()
        assert alone[2][0]


def test_round_evaluates_each_distinct_panel_once(monkeypatch):
    # the lanes of a grid start graded toward the loop and bisect one
    # interval, so a round's lane-panels share few distinct panels: each
    # round hands the integrand one node column per distinct panel,
    # every column read by some lane-panel, a grid takes few rounds, and
    # no lane's bits depend on the batch
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=0.7)
    kernel = abelian._gk21
    batches = []

    def recording(f, n, lo, hi, tol, start):
        rounds = []

        def g(theta, col, lane):
            rounds.append((theta.copy(), col.copy()))
            return f(theta, col, lane)

        out = kernel(g, n, lo, hi, tol, start)
        batches.append((f, n, lo, hi, np.broadcast_to(tol, (n,)), start,
                        rounds, out))
        return out

    monkeypatch.setattr(abelian, "_gk21", recording)
    for annulus in (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS):
        triples_on_grid(spec, annulus, default_grid(spec, annulus))
    monkeypatch.undo()
    assert len(batches) == 2
    for f, n, lo, hi, tol, start, rounds, out in batches:
        assert n == 600 and 1 < len(rounds) <= 4
        for theta, col in rounds:
            assert theta.shape[0] == 21
            assert len(np.unique(theta.T, axis=0)) == theta.shape[1]
            assert np.array_equal(np.unique(col), np.arange(theta.shape[1]))
        columns = sum(theta.shape[1] for theta, _ in rounds)
        assert columns <= min(64, 0.03 * sum(len(col) for _, col in rounds))
        for j in range(n):
            alone = kernel(
                lambda x, col, lane: f(x, col, np.full_like(lane, j)),
                1, lo, hi, tol[j], start[j])
            for got, one in zip(out, alone):
                assert got[j:j + 1].tobytes() == one.tobytes()


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


@pytest.mark.parametrize("h", sorted(APPENDIX_MOMENTS))
def test_appendix_oval_integral_err_bounds_its_error(h):
    # the one-lane view starts graded toward the saddle end of its slice,
    # so next to the loop its error estimate still covers its true error
    for fe, ref in zip((lambda x2, y: y, lambda x2, y: y * y),
                       APPENDIX_MOMENTS[h]):
        val, err, ok = appendix_oval_integral(h, fe)
        assert ok
        assert abs(val - ref) <= err


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
