import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from saddleloop import ovals
from saddleloop.centroid import default_grid
from saddleloop.model import (Annulus, Family, HamiltonianSpec, critical_data,
                              slice_span)
from saddleloop.ovals import (OvalRangeError, phi, phi_prime, section_segment,
                              slice_grid, slice_oval)

NF, APP = Family.NORMAL_FORM, Family.APPENDIX_ELLIPSE

# every case the shared slice path serves: a = 0 is the r2 == 0 case
SLICE_CASES = pytest.mark.parametrize("family,a,annulus,t", [
    (NF, 1.0, Annulus.SIGMA_PLUS, -1.0),
    (NF, -0.5, Annulus.SIGMA_PLUS, -1.0),
    (NF, 0.0, Annulus.SIGMA_PLUS, -1.0),
    (NF, 0.5, Annulus.SIGMA_MINUS, 1.0),
    (APP, 1.0, Annulus.SIGMA_PLUS, -0.5),
], ids=["a1-plus", "a-0.5-plus", "a0-plus", "a0.5-minus", "appendix"])


def _branch_sq(sl, u):
    # branch^2(u) = t/u + r(u) on the slice axis
    r0, r1, r2 = sl.r
    return sl.t / u + (r2 * u * u + r1 * u + r0)


@SLICE_CASES
def test_slice_endpoints_lie_on_level_set(family, a, annulus, t):
    spec = HamiltonianSpec(family=family, a=a)
    sl = slice_oval(spec, annulus, t)
    for u in (sl.lo, sl.hi):
        x, y = (u, 0.0) if spec.slice_axis == "x" else (0.0, u)
        assert spec.eval_H(x, y) == pytest.approx(t, abs=1e-10)
    # interior of the span carries a real branch
    um = 0.5 * (sl.lo + sl.hi)
    assert _branch_sq(sl, um) > 0.0


@SLICE_CASES
def test_slice_factored_weight_consistent(family, a, annulus, t):
    sl = slice_oval(HamiltonianSpec(family=family, a=a), annulus, t)
    for u in np.linspace(sl.lo + 1e-3, sl.hi - 1e-3, 7):
        direct = _branch_sq(sl, u)
        weight = phi(sl.r, sl.third_root, u)
        factored = (u - sl.lo) * (sl.hi - u) * weight
        assert direct == pytest.approx(factored, rel=1e-12)
        assert weight > 0.0
    # phi_prime by central difference
    u0 = 0.5 * (sl.lo + sl.hi)
    d = 1e-6
    fd = (phi(sl.r, sl.third_root, u0 + d)
          - phi(sl.r, sl.third_root, u0 - d)) / (2 * d)
    assert phi_prime(sl.r, sl.third_root, u0) == pytest.approx(fd, abs=1e-8)


def _exact_root(r, t, u):
    # Newton on the cubic t + u*r(u) in 60-digit decimal arithmetic,
    # started at the float root
    with localcontext() as ctx:
        ctx.prec = 60
        r0, r1, r2 = (Decimal(v) for v in r)
        t, x = Decimal(t), Decimal(u)
        for _ in range(8):
            x -= (t + x * (r0 + x * (r1 + x * r2))) / (r0 + x * (2 * r1 + 3 * r2 * x))
        return float(x - Decimal(u))


def _cubic_bound(r, t, u):
    # the rounding of the cubic t + u*r(u) at u, eps times the summed
    # magnitudes of its terms over |c'(u)|, plus eps*|u|
    r0, r1, r2 = r
    terms = abs(t) + abs(u) * (abs(r2) * u * u + abs(r1 * u) + abs(r0))
    slope = abs(3.0 * r2 * u * u + 2.0 * r1 * u + r0)
    return np.finfo(float).eps * (terms / slope + abs(u))


def _near_ends(spec, annulus, n=40):
    # energies in from the annulus's center and in from the loop,
    # geometric from 1e-13 to 1e-1 of its energy span
    tc = critical_data(spec).center_of(annulus).energy
    near = np.copysign(np.geomspace(1e-13, 1e-1, n) * abs(tc), tc)
    return np.sort(np.concatenate([tc - near, near]))


# cases where the slice cubic is hard: r2 -> 0 (a -> 0), a center that
# runs off to infinity (SigmaMinus at small a), and the ends of the
# two-saddle range of a
HARD_CASES = [
    (NF, 1e-12, Annulus.SIGMA_PLUS), (NF, -1e-12, Annulus.SIGMA_PLUS),
    (NF, 1e-8, Annulus.SIGMA_PLUS), (NF, 1e-8, Annulus.SIGMA_MINUS),
    (NF, -0.999999, Annulus.SIGMA_PLUS), (NF, 1.999999, Annulus.SIGMA_PLUS),
    (NF, 1.999999, Annulus.SIGMA_MINUS)]
HARD_IDS = ["a1e-12-plus", "a-1e-12-plus", "a1e-8-plus", "a1e-8-minus",
            "a-0.999999-plus", "a1.999999-plus", "a1.999999-minus"]


@pytest.mark.parametrize("family,a,annulus", [
    (NF, -0.5, Annulus.SIGMA_PLUS), (NF, 0.0, Annulus.SIGMA_PLUS),
    (NF, 1.7, Annulus.SIGMA_PLUS), (NF, 1.7, Annulus.SIGMA_MINUS),
    (NF, 0.3, Annulus.SIGMA_MINUS), (APP, 1.0, Annulus.SIGMA_PLUS)]
    + HARD_CASES)
def test_slice_endpoints_as_accurate_as_their_cubic(family, a, annulus):
    # each endpoint is within the rounding of its cubic.  Near the center
    # energy c'(u) is small (the two endpoints merge in a
    # double root), so ~1e-14 relative is the best any solver gets there
    spec = HamiltonianSpec(family=family, a=a)
    if family is NF:
        ts = default_grid(spec, annulus)
    else:
        ts = np.linspace(-4.0 / 3.0 + 1e-5, -1e-6, 200)
    near = _near_ends(spec, annulus)
    ts = np.concatenate([ts, near])
    g = slice_grid(spec, annulus, ts)
    for t, lo, hi in zip(ts, g.lo, g.hi):
        for u in (float(lo), float(hi)):
            assert abs(_exact_root(g.r, t, u)) <= _cubic_bound(g.r, t, u)
    # a slice alone has the bits of its grid entry
    for j in range(ts.size - near.size, ts.size):
        sl = slice_oval(spec, annulus, ts[j])
        assert (sl.lo, sl.hi, sl.third_root) == (
            g.lo[j], g.hi[j], g.third_root[j])


@pytest.mark.parametrize("a", [-0.5, 0.1, 0.5, 1.0, 1.5, 1.9])
def test_slice_grid_needs_no_bracketed_search(monkeypatch, a):
    # the closed-form start passes its sign test on every endpoint of a
    # centroid curve's grid, so the Illinois search never runs there
    calls = []
    search = ovals.illinois

    def counted(fun, lo, *args):
        calls.append(len(lo))
        return search(fun, lo, *args)

    monkeypatch.setattr(ovals, "illinois", counted)
    spec = HamiltonianSpec(family=NF, a=a)
    annuli = [Annulus.SIGMA_PLUS] + ([Annulus.SIGMA_MINUS] if a > 0 else [])
    for annulus in annuli:
        slice_grid(spec, annulus, default_grid(spec, annulus))
    assert calls == []
    # next to the loop of a = 1e-8 on SigmaMinus the upper endpoint and
    # the third root nearly merge in w = 1/(u - u_c), the closed form
    # fails its sign test, and those few of the grid's 160 endpoints go
    # to the search in one call
    spec = HamiltonianSpec(family=NF, a=1e-8)
    slice_grid(spec, Annulus.SIGMA_MINUS, _near_ends(spec, Annulus.SIGMA_MINUS))
    assert len(calls) == 1 and 0 < calls[0] < 16


def test_slice_grid_matches_slice_oval(spec_a05):
    ts = default_grid(spec_a05, Annulus.SIGMA_MINUS, n=30)
    g = slice_grid(spec_a05, Annulus.SIGMA_MINUS, ts)
    for j, t in enumerate(ts):
        sl = slice_oval(spec_a05, Annulus.SIGMA_MINUS, t)
        assert (sl.lo, sl.hi, sl.third_root) == (
            g.lo[j], g.hi[j], g.third_root[j])


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_annulus_ends_are_not_slices(a):
    # each annulus holds the energies strictly between its center's and
    # the loop's: neither end energy is an oval, on either annulus
    spec = HamiltonianSpec(family=Family.NORMAL_FORM, a=a)
    for annulus in (Annulus.SIGMA_PLUS, Annulus.SIGMA_MINUS):
        for t in (critical_data(spec).center_of(annulus).energy, 0.0):
            with pytest.raises(OvalRangeError, match=annulus.name):
                slice_oval(spec, annulus, t)


@pytest.mark.parametrize("family,a,annulus", [
    (NF, 1.0, Annulus.SIGMA_PLUS), (NF, 0.5, Annulus.SIGMA_MINUS),
    (APP, 1.0, Annulus.SIGMA_PLUS)])
def test_section_chart_holds_the_open_annulus(family, a, annulus):
    # the chart inverts the energies of the annulus's ovals only: its
    # center's energy and the loop's are ends of the section, not ovals
    spec = HamiltonianSpec(family=family, a=a)
    sect = section_segment(spec, annulus)
    for t in (critical_data(spec).center_of(annulus).energy, 0.0):
        with pytest.raises(OvalRangeError, match=annulus.name):
            sect.coord_for_energy(t)


def test_slice_shrinks_to_center(spec_a1):
    # t just above the center energy a-3 = -2
    sl = slice_oval(spec_a1, Annulus.SIGMA_PLUS, -2.0 + 1e-6)
    assert sl.hi - sl.lo < 5e-3
    assert sl.lo < 1.0 < sl.hi


def test_slice_range_errors(spec_a1, spec_a05):
    with pytest.raises(OvalRangeError):
        slice_oval(spec_a1, Annulus.SIGMA_PLUS, -3.5)  # below center energy
    with pytest.raises(OvalRangeError):
        slice_oval(spec_a1, Annulus.SIGMA_PLUS, 0.1)  # above the loop
    no_minus = HamiltonianSpec(family=Family.NORMAL_FORM, a=-0.5)
    with pytest.raises(OvalRangeError):
        slice_oval(no_minus, Annulus.SIGMA_MINUS, 1.0)
    t1 = critical_data(spec_a05).center1.energy
    with pytest.raises(OvalRangeError):
        slice_oval(spec_a05, Annulus.SIGMA_MINUS, t1 + 0.1)
    # no two-saddle loop, so no SigmaPlus annulus to slice
    for a in (2.5, -1.0):
        with pytest.raises(OvalRangeError, match="no two-saddle loop"):
            slice_oval(HamiltonianSpec(family=Family.NORMAL_FORM, a=a),
                       Annulus.SIGMA_PLUS, 0.5 * (a - 3.0))


def test_sigma_minus_slice_negative_x(spec_a05):
    sl = slice_oval(spec_a05, Annulus.SIGMA_MINUS, 1.0)
    assert sl.hi < 0.0
    xc = (spec_a05.a - 2.0) / spec_a05.a
    assert sl.lo < xc < sl.hi


def test_appendix_slice(appendix_spec):
    sl = slice_oval(appendix_spec, Annulus.SIGMA_PLUS, -0.5)
    assert sl.spec.slice_axis == "y"
    assert 0.0 < sl.lo < 2.0 < sl.hi
    for u in (sl.lo, sl.hi):
        assert appendix_spec.eval_H(0.0, u) == pytest.approx(-0.5, abs=1e-10)
    with pytest.raises(OvalRangeError):
        slice_oval(appendix_spec, Annulus.SIGMA_MINUS, 0.5)


def _exact_r_root(r, u):
    # Newton on r in 50-digit arithmetic, started at the float root
    with mpmath.workdps(50):
        r0, r1, r2 = (mpmath.mpf(v) for v in r)
        x = mpmath.mpf(u)
        for _ in range(8):
            x -= (r2 * x * x + r1 * x + r0) / (2 * r2 * x + r1)
        return x


@pytest.mark.parametrize("family,a", [(NF, a) for a in (
    0.0, 1e-12, -1e-12, -0.999999, 0.5, 1.0, 1.5, 1.999999)] + [(APP, 1.0)])
def test_loop_root_as_accurate_as_r(family, a):
    # slice_span's loop end u_r is within the rounding of r at it, eps
    # times r's summed term magnitudes over |r'(u_r)|, of r's exact
    # root, and lies beyond the center, on the far side from u = 0,
    # with r's other root outside [u_c, u_r]
    spec = HamiltonianSpec(family=family, a=a)
    r0, r1, r2 = r = spec.slice_r()
    annuli = [Annulus.SIGMA_PLUS] + ([Annulus.SIGMA_MINUS]
                                     if family is NF and 0.0 < a < 2.0 else [])
    for annulus in annuli:
        uc, ur = slice_span(spec, annulus)
        terms = abs(r2) * ur * ur + abs(r1 * ur) + abs(r0)
        bound = np.finfo(float).eps * (terms / abs(2.0 * r2 * ur + r1)
                                       + abs(ur))
        assert abs(float(_exact_r_root(r, ur) - ur)) <= bound, annulus
        assert 0.0 < uc / ur < 1.0, annulus
        if r2 != 0.0:
            other = -r1 / r2 - ur
            assert (other - uc) * (other - ur) > 0.0, annulus
    if (family, a) == (NF, 1.0):
        assert slice_span(spec, Annulus.SIGMA_PLUS)[1] == math.sqrt(3.0)
    if family is APP:
        assert slice_span(spec, Annulus.SIGMA_PLUS)[1] == math.sqrt(12.0)


def test_section_energy_chart_monotone(spec_a1):
    sect = section_segment(spec_a1, Annulus.SIGMA_PLUS)
    lo, hi = sect.s_bounds()
    ss = np.linspace(lo, hi, 50)
    es = np.array([sect.energy(s) for s in ss])
    diffs = np.diff(es)
    assert np.all(diffs > 0) or np.all(diffs < 0)
    # endpoints: center energy and loop energy
    assert sect.energy(sect.s_center) == pytest.approx(-2.0, rel=1e-12)
    assert sect.energy(sect.s_loop) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("annulus,t", [(Annulus.SIGMA_PLUS, -1.3), (Annulus.SIGMA_MINUS, 2.0)])
def test_coord_for_energy_inverts_energy(spec_a05, annulus, t):
    sect = section_segment(spec_a05, annulus)
    s = sect.coord_for_energy(t)
    assert sect.contains(s)
    assert sect.energy(s) == pytest.approx(t, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("family,a,annulus", [
    (NF, 1.0, Annulus.SIGMA_PLUS), (NF, 1.0, Annulus.SIGMA_MINUS),
    (NF, 0.5, Annulus.SIGMA_PLUS), (NF, 0.5, Annulus.SIGMA_MINUS),
    (APP, 1.0, Annulus.SIGMA_PLUS)] + HARD_CASES,
    ids=["a1-plus", "a1-minus", "a0.5-plus", "a0.5-minus", "appendix"]
    + HARD_IDS)
def test_coord_for_energy_matches_brentq(family, a, annulus):
    # the section lies on the slice axis, so the chart inversion is a root
    # of the slice cubic: it sits within that cubic's rounding bound of
    # the exact root, as the slice endpoints do, and so within brentq's
    # tolerance of brentq's root.  brentq's absolute xtol = 1e-15 alone
    # exceeds the bound next to the loop end, where the root is ~1e-6
    spec = HamiltonianSpec(family=family, a=a)
    sect = section_segment(spec, annulus)
    lo, hi = sect.s_bounds()
    e_lo, e_hi = sorted((sect.energy(lo), sect.energy(hi)))
    span = e_hi - e_lo
    near = np.geomspace(1e-13, 1e-2, 12) * span
    ts = np.concatenate([np.linspace(e_lo, e_hi, 62)[1:-1], e_lo + near,
                         e_hi - near])
    if (family, a, annulus) == (NF, 1.0, Annulus.SIGMA_PLUS):
        ts = np.append(ts, [-0.4, -1e-3, -0.08, -5e-4])    # criterion 10
    r = spec.slice_r()
    for t in map(float, ts):
        s = sect.coord_for_energy(t)
        bound = _cubic_bound(r, t, s)
        assert abs(_exact_root(r, t, s)) <= bound, t
        ref = brentq(lambda u: sect.energy(u) - t, lo, hi, xtol=1e-15,
                     rtol=8.9e-16)
        assert abs(s - ref) <= bound + 2.0 * (1e-15 + 8.9e-16 * abs(ref)), t
    for t in (e_lo - 0.1 * span, e_hi + 0.1 * span):
        with pytest.raises(OvalRangeError):
            sect.coord_for_energy(t)


def test_appendix_section(appendix_spec):
    sect = section_segment(appendix_spec, Annulus.SIGMA_PLUS)
    assert sect.axis == "y"
    assert sect.energy(sect.s_center) == pytest.approx(-4.0 / 3.0, rel=1e-12)
    assert sect.energy(sect.s_loop) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(OvalRangeError):
        section_segment(appendix_spec, Annulus.SIGMA_MINUS)
