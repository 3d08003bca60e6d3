import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from saddleloop import abelian, centroid, cli, melnikov
from saddleloop.flowsim import appendix_flow
from saddleloop.lockstep import ROOT_XTOL, grid_roots
from saddleloop.model import (Annulus, Family, HamiltonianSpec, MelnikovCoeffs,
                              PerturbationSpec, critical_data)
from saddleloop.picard_fuchs import fundamental
from saddleloop.melnikov import (
    APPENDIX_NORMAL_FORM,
    APPENDIX_T_PER_H,
    APPENDIX_Y2_PER_J1,
    APPENDIX_Y_PER_J0,
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
    # on a linear grid run in either direction
    lo, hi = -1.998, -2e-6
    step = (hi - lo) / (centroid.CURVE_POINTS - 1)
    ts = lo + step * np.array([100.3, 102.3])
    tr = abelian.triples_on_grid(spec_a1, Annulus.SIGMA_PLUS, ts)
    coeffs = _line_through(*zip(tr.j1 / tr.j0, tr.jm1 / tr.j0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zc = count_zeros(spec_a1, coeffs, Annulus.SIGMA_PLUS,
                         t_range=(hi, lo) if descending else (lo, hi))
    assert zc.count == 2
    assert np.allclose(zc.zeros, ts, rtol=0.0, atol=1e-9)
    assert zc.grid_coarse
    assert zc.converged


@pytest.mark.parametrize("annulus", [Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS],
                         ids=["plus", "minus"])
@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
def test_near_loop_pairs_counted(a, annulus):
    # a line through the centroid points at (10^-k, 10^-(k+1))*t_c, t_c
    # the center energy, plants two zeros of M next to the loop: the
    # default grid counts both, each to the root tolerance or flagged as
    # closer than three of its cells, and so does the sampled curve
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    t_c = critical_data(spec).center_of(annulus).energy
    curve = centroid.sample_curve(spec, annulus)
    for k in range(1, 5):
        ts = t_c * np.array([10.0 ** -k, 10.0 ** -(k + 1)])
        tr = abelian.triples_on_grid(spec, annulus, ts)
        coeffs = _line_through(*zip(tr.j1 / tr.j0, tr.jm1 / tr.j0))
        zc = count_zeros(spec, coeffs, annulus)
        assert zc.count == 2, f"k={k}"
        assert zc.grid_coarse or np.allclose(zc.zeros, np.sort(ts), rtol=0.0,
                                             atol=ROOT_XTOL), f"k={k}"
        assert centroid.line_intersections(curve, coeffs).count == 2, f"k={k}"


def _clear_one_mask_entry(monkeypatch, at_call):
    """Wrap values_on_grid so that its at_call-th call (0 is the first
    Illinois round) reports its first point unconverged; the values are
    untouched."""
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
    # one unconverged point, in the first or the second Illinois round
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


def _minus_one_lanes_unconverged(monkeypatch):
    """Wrap abelian._jk_lanes so that every k = -1 lane reports
    unconverged; the values are untouched."""
    exact = abelian._jk_lanes

    def wrapped(r, lo, hi, third_root, k, tol):
        val, err, ok = exact(r, lo, hi, third_root, k, tol)
        return val, err, ok & (k != -1)

    monkeypatch.setattr(abelian, "_jk_lanes", wrapped)


def test_flags_cover_the_weighted_integrals(spec_a1, monkeypatch, tmp_path,
                                            capsys):
    # failed J_-1 lanes clear the flags of a form that weights J_-1, and
    # of none that does not: the zero count, the grid mask and the
    # command line's row flags
    _minus_one_lanes_unconverged(monkeypatch)
    _, j0, j1 = SIGMA_PLUS_TRIPLES[(1.0, -1.0)]
    ts = np.array([-1.5, -1.0, -0.4])
    for gamma in (0.0, 1e-3):
        coeffs = MelnikovCoeffs(alpha=1.0, beta=-j0 / j1, gamma=gamma,
                                order_k=2 if gamma else 1)
        weighted = gamma != 0.0
        assert count_zeros(spec_a1, coeffs, Annulus.SIGMA_PLUS).converged \
            is not weighted
        _, ok = values_on_grid(spec_a1, coeffs, Annulus.SIGMA_PLUS, ts)
        assert ok.tolist() == [not weighted] * len(ts)
        out = tmp_path / f"m{gamma}.csv"
        code = cli.main(["melnikov", "--family", "normal", "--a", "1",
                         "--alpha", "0.3", "--beta", "-0.2", "--gamma",
                         str(gamma), "--t-grid=-1.5:-0.1:4", "--out",
                         str(out)])
        man = json.loads(out.with_name(out.name + ".manifest.json")
                         .read_text())
        assert (code, len(man["flags"])) == ((3, 4) if weighted else (0, 0))
    capsys.readouterr()


def _count_from_full_columns(spec, coeffs, annulus, t_range=None):
    """(count, zeros, grid_coarse, tangency_suspected) of count_zeros,
    from all three J_k on the grid and in every Illinois round, with M
    and its sign-stage functional summed over all three terms."""
    grid = (centroid.default_grid(spec, annulus) if t_range is None else
            np.linspace(t_range[0], t_range[1], centroid.CURVE_POINTS))
    tr = abelian.triples_on_grid(spec, annulus, grid)
    xi, eta = tr.j1 / tr.j0, tr.jm1 / tr.j0
    g = coeffs.alpha + coeffs.beta * xi + coeffs.gamma * eta

    def values(ts):
        t = abelian.triples_on_grid(spec, annulus, ts)
        return coeffs.alpha * t.j0 + coeffs.beta * t.j1 + coeffs.gamma * t.jm1

    zeros = grid_roots(values, grid, tr.j0 * g)
    cell = np.interp(zeros, np.sort(grid), np.argsort(grid))
    curve = centroid.curve_of(spec, annulus, grid, tr)
    return (zeros.size, zeros.tobytes(),
            bool(np.any(np.abs(np.diff(cell)) < 3.0)),
            centroid.line_intersections(curve, coeffs).tangency_suspected)


def _seeded_forms():
    """40 (spec, annulus, coeffs): gamma = 0 lines through a seeded
    point between two grid energies (a planted zero that Illinois rounds
    refine), every fifth a constant-sign alpha-only form, and every
    seventh a gamma != 0 line through two such points."""
    rng = np.random.default_rng(20261020)
    for i in range(40):
        spec = HamiltonianSpec(family=Family.NORMAL_FORM,
                               a=float(rng.uniform(0.1, 1.9)))
        annulus = (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS)[i % 2]
        grid = centroid.default_grid(spec, annulus)
        j = int(rng.integers(20, len(grid) - 20))
        ts = grid[[j, j + 5]] + rng.uniform(0.2, 0.8, 2) * (grid[j + 1] - grid[j])
        tr = abelian.triples_on_grid(spec, annulus, ts)
        beta = float(rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0)))
        if i % 7 == 6:
            coeffs = _line_through(*zip(tr.j1 / tr.j0, tr.jm1 / tr.j0))
        elif i % 5 == 4:
            coeffs = MelnikovCoeffs(beta, 0.0)
        else:
            coeffs = MelnikovCoeffs(-beta * tr.j1[0] / tr.j0[0], beta)
        yield spec, annulus, coeffs


def test_weighted_count_launches_no_unread_lanes(monkeypatch):
    # a gamma = 0 count integrates no J_-1 lane on its grid or in any
    # Illinois round, and its count, zeros and flags carry the bits of
    # the count from all three integrals
    batches = []
    exact = abelian._jk_lanes

    def recorded(r, lo, hi, third_root, k, tol):
        batches.append(k.copy())
        return exact(r, lo, hi, third_root, k, tol)

    def weighted_count(spec, coeffs, annulus, t_range=None):
        batches.clear()
        monkeypatch.setattr(abelian, "_jk_lanes", recorded)
        zc = count_zeros(spec, coeffs, annulus, t_range)
        monkeypatch.setattr(abelian, "_jk_lanes", exact)
        return (zc.count, np.array(zc.zeros).tobytes(), zc.grid_coarse,
                zc.tangency_suspected)

    kinds = set()
    for spec, annulus, coeffs in _seeded_forms():
        got = weighted_count(spec, coeffs, annulus)
        ks = set(np.concatenate(batches).tolist())
        assert ks == {0, 1, -1} - {k for k, c in ((1, coeffs.beta),
                                                 (-1, coeffs.gamma)) if c == 0.0}
        assert got == _count_from_full_columns(spec, coeffs, annulus)
        kinds.add((coeffs.gamma != 0.0, coeffs.beta != 0.0, got[0],
                   len(batches) > 1))
    # planted zeros refined in Illinois rounds, alpha-only forms without
    # a zero, and gamma != 0 lines with their two zeros
    assert {(False, True, 1, True), (False, False, 0, False),
            (True, True, 2, True)} <= kinds
    # the appendix window of the witness, and one with a zero
    for h_range in ((-0.004, -0.00115), (-0.1, -0.01)):
        t_range = tuple(APPENDIX_T_PER_H * h for h in h_range)
        got = weighted_count(APPENDIX_NORMAL_FORM, appendix_coeffs(0.657),
                             Annulus.SIGMA_PLUS, t_range)
        assert -1 not in np.concatenate(batches)
        assert got == _count_from_full_columns(
            APPENDIX_NORMAL_FORM, appendix_coeffs(0.657), Annulus.SIGMA_PLUS,
            t_range)


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


def test_appendix_one_form_states_appendix_coeffs():
    # the appendix flow's one-form and appendix_coeffs state the same
    # perturbation: its y and y^2 coefficients, times the oval moments
    # per J_0 and J_1, are alpha and beta exactly
    for mu2 in (0.0, 0.657, -16.5, 3.25e-3):
        form = appendix_flow(PerturbationSpec(epsilon=1e-3, mu1=0.01,
                                              mu2=mu2)).one_form
        coeffs = appendix_coeffs(mu2)
        assert form.f[2] * APPENDIX_Y_PER_J0 == coeffs.alpha
        assert form.f[5] * APPENDIX_Y2_PER_J1 == coeffs.beta


def test_appendix_zero_location():
    # with mu2=0.657 the first-order function changes sign once around
    # h ~ -0.061 and nowhere in the witness window
    zc = appendix_count_zeros(0.657, (-0.1, -0.01))
    assert zc.count == 1
    assert abs(zc.zeros[0] - APPENDIX_ZEROS[(0.657, -0.1, -0.01)]) < 1e-10
    zc2 = appendix_count_zeros(0.657, (-0.004, -0.00115))
    assert zc2.count == 0
    assert zc.converged and zc2.converged


def test_appendix_unconverged_moments_clear_zero_count_flag(monkeypatch):
    # one panel per lane: the moments off the center side do not
    # converge, which the count reports instead of raising
    monkeypatch.setattr(abelian, "QUAD_LIMIT", 1)
    zc = appendix_count_zeros(0.657, (-0.1, -0.01))
    assert not zc.converged
