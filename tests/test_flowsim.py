import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from saddleloop.model import (
    Annulus,
    Family,
    HamiltonianSpec,
    PerturbationSpec,
)
from saddleloop.ovals import OvalRangeError, section_segment
from saddleloop.acceptance import scan_draws
from saddleloop import flowsim
from saddleloop.lockstep import (ATOL_PER_RTOL, MAX_STEP, advance, evaluate,
                                 grid_roots, illinois, sign_changes, state)
from saddleloop.flowsim import (
    BURN_IN,
    FlowSpec,
    QuadraticOneForm,
    _escape,
    _first_returns,
    _lockstep_field,
    _returns_and_slopes,
    _signed_field,
    alien_witness,
    appendix_flow,
    census,
    integrate,
    return_map,
    return_maps,
    saddle_traces,
    separatrix_shifts,
    witness_flow,
)


def unperturbed(spec):
    return FlowSpec(hamiltonian=spec, epsilon=0.0,
                    one_form=QuadraticOneForm.gamma_type(0.0))


# --- conservative checks ------------------------------------------------


def test_energy_conserved_normal_form(spec_a1):
    flow = unperturbed(spec_a1)
    traj = integrate(flow, np.array([1.5, 0.2]), 100.0)
    assert traj.status == "completed"
    hs = np.array([flow.energy(z) for z in traj.states])
    assert np.max(np.abs(hs - hs[0])) < 1e-7


def test_energy_conserved_appendix():
    flow = appendix_flow(PerturbationSpec(epsilon=0.0))
    start = np.array([0.0, 1.0])
    assert flow.energy(start) == pytest.approx(-11.0 / 12.0, rel=1e-15)
    traj = integrate(flow, start, 100.0)
    hs = np.array([flow.energy(z) for z in traj.states])
    assert np.max(np.abs(hs + 11.0 / 12.0)) < 1e-7


@pytest.mark.parametrize("tol", [0.0, 1e-30, 2e-14, -1.0, 1.0, 1e3,
                                 math.nan, math.inf])
def test_flow_tolerance_outside_range_rejected(spec_a1, tol):
    # every way of building a flow checks its tolerance; nothing is
    # integrated (at tol 0 or 1e-30 a trajectory need not end)
    with pytest.raises(ValueError, match="flow tolerance must lie in"):
        FlowSpec(hamiltonian=spec_a1, epsilon=0.0,
                 one_form=QuadraticOneForm.gamma_type(0.0), tol=tol)
    with pytest.raises(ValueError, match="flow tolerance must lie in"):
        appendix_flow(PerturbationSpec(epsilon=1e-3), tol=tol)
    with pytest.raises(ValueError, match="flow tolerance must lie in"):
        dataclasses.replace(unperturbed(spec_a1), tol=tol)
    # the floor itself, 100 machine epsilons, is a valid tolerance
    floor = 100.0 * np.finfo(float).eps
    assert dataclasses.replace(unperturbed(spec_a1), tol=floor).tol == floor


def test_reversibility_normal_form(spec_a1):
    # the unperturbed field is odd under (x, y, t) -> (x, -y, -t): a lane
    # with time sign -1 from the mirrored start runs along the mirrored
    # forward trajectory
    flow = unperturbed(spec_a1)
    start = np.array([1.5, 0.3])
    lanes = np.array([[start[0]] * 3, [-start[1]] * 3, [-1.0] * 3])
    worst = 0.0
    for k, T in enumerate((1.0, 2.5, 5.0)):
        fwd = integrate(flow, start, T).states[-1]
        st, _, back = advance(_signed_field(flow), lanes[:, k:k + 1], T,
                              ((_escape, 1),), flow.tol)
        assert st[0] == 0
        worst = max(worst, abs(fwd[0] - back[0, 0]), abs(fwd[1] + back[1, 0]))
    assert worst < 1e-8


def test_return_identity_unperturbed(spec_a1):
    flow = unperturbed(spec_a1)
    sect = section_segment(spec_a1, Annulus.SIGMA_PLUS)
    s = sect.coord_for_energy(-1.0)
    res = return_map(flow, sect, s)
    assert res.reason == "ok"
    assert abs(res.s_return - s) < 1e-8


def test_integrate_validation(spec_a1):
    flow = unperturbed(spec_a1)
    with pytest.raises(ValueError):
        integrate(flow, np.array([1.5, 0.2]), -1.0)


def test_integrate_reports_a_failed_run(spec_a1):
    # a finite-time blow-up: the run stops where the step size underflows
    g = (0.0, 0.0, 0.0, 5.0, 0.0, 0.0)
    flow = FlowSpec(hamiltonian=spec_a1, epsilon=1.0,
                    one_form=QuadraticOneForm(f=(0.0,) * 6, g=g))
    traj = integrate(flow, np.array([3.0, 0.0]), 10.0)
    assert traj.status == "failed"
    assert f"{traj.ts[-1]:.4f}" == "0.0810"
    assert len(traj.ts) == len(traj.states) > 100
    assert np.all(np.diff(traj.ts) > 0.0)


def test_integrate_rows_as_accurate_as_solve_ivp(spec_a1):
    # the README trajectory: solve_ivp's row count at the same settings,
    # and every row as close to a tight reference as solve_ivp's own
    flow = unperturbed(spec_a1)
    start = np.array([1.0, 0.5])
    traj = integrate(flow, start, 20.0)
    assert traj.status == "completed"
    assert len(traj.ts) == 237
    assert traj.ts[0] == 0.0 and traj.ts[-1] == 20.0
    assert traj.states[0].tolist() == start.tolist()
    ref = solve_ivp(flow.rhs, (0.0, 20.0), start, method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=True)
    assert np.max(np.abs(ref.sol(traj.ts).T - traj.states)) < 1e-8


def test_return_map_rejects_out_of_section(spec_a1):
    flow = unperturbed(spec_a1)
    sect = section_segment(spec_a1, Annulus.SIGMA_PLUS)
    lo, hi = sect.s_bounds()
    with pytest.raises(ValueError):
        return_map(flow, sect, hi + 0.5)
    with pytest.raises(ValueError):
        return_maps(flow, sect, 0.5 * (lo + hi), T_max=BURN_IN)


# --- one-form bookkeeping -----------------------------------------------


def test_one_form_first_order_coeffs():
    f = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    g = (0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
    w = QuadraticOneForm(f=f, g=g)
    coeffs = w.first_order_coeffs()
    assert coeffs.alpha == pytest.approx(f[2] - g[1])
    assert coeffs.beta == pytest.approx(f[4] - 2 * g[3])
    assert w.gamma_direction() == pytest.approx(2 * f[5] - g[4])


def test_one_form_validation():
    with pytest.raises(ValueError):
        QuadraticOneForm(f=(1.0, 2.0), g=(0.0,) * 6)


def test_gamma_type_constructor():
    w = QuadraticOneForm.gamma_type(0.8)
    coeffs = w.first_order_coeffs()
    assert coeffs.alpha == 0.0 and coeffs.beta == 0.0
    assert w.gamma_direction() == pytest.approx(0.8)


# --- saddle quantities ---------------------------------------------------


def test_jacobian_matches_finite_difference(spec_a05):
    d = 1e-6
    draw = scan_draws()[1][1]
    for flow in (draw, witness_flow(),
                 FlowSpec(hamiltonian=spec_a05, epsilon=0.1,
                          one_form=draw.one_form)):
        for z in ((0.8, 0.6), (-1.3, 0.2), (0.1, -1.7)):
            fd = np.column_stack([
                (np.array(flow.rhs(0.0, np.add(z, dz)))
                 - np.array(flow.rhs(0.0, np.subtract(z, dz)))) / (2 * d)
                for dz in ((d, 0.0), (0.0, d))])
            assert np.max(np.abs(flow.jacobian(z) - fd)) < 1e-7


def test_traces_vanish_unperturbed():
    flow = appendix_flow(PerturbationSpec(epsilon=0.0))
    tp = saddle_traces(flow)
    assert tp.sigma1 == pytest.approx(0.0, abs=1e-12)
    assert tp.sigma2 == pytest.approx(0.0, abs=1e-12)


def test_traces_first_order_law():
    eps, mu1, mu2 = 1e-6, 0.005, 0.003
    pert = PerturbationSpec(eps, mu1, mu2)
    c = pert.c
    flow = appendix_flow(pert)
    tp = saddle_traces(flow)
    assert tp.sigma1 / eps == pytest.approx(-16.0 + c - mu2, rel=1e-2)
    assert tp.sigma2 / eps == pytest.approx(-16.0 - c - mu2, rel=1e-2)
    # c > 16 makes the traces differ in sign
    assert tp.sigma1 > 0 > tp.sigma2


def test_traces_reject_normal_form(spec_a1):
    with pytest.raises(ValueError):
        saddle_traces(unperturbed(spec_a1))


def test_shifts_first_order_law():
    # at eps=1e-6 the eps^2 contamination of the connection shifts sits
    # near 1e-2 relative; at eps=1e-3 it dominates b2 and the law fails
    eps, mu1, mu2 = 1e-6, 0.005, 0.003
    flow = appendix_flow(PerturbationSpec(eps, mu1, mu2))
    sh = separatrix_shifts(flow)
    assert sh.b1 / eps == pytest.approx(2 * mu1, rel=5e-2)
    assert sh.b2 / eps == pytest.approx(-2 * mu1 - math.pi * math.sqrt(3.0) * mu2,
                                        rel=5e-2)


def test_shift_second_order_coefficients():
    # criterion 8's b2 clause fails because b2 carries a term near
    # 207.5*eps^2 at c=17, whatever mu; b1 has almost none.  The
    # coefficients converge linearly in eps, so one Richardson step
    # from eps and eps/2 extrapolates them.
    for mu1, mu2 in ((0.0, 0.0), (0.007, -0.01)):
        b2_1 = -2.0 * mu1 - math.pi * math.sqrt(3.0) * mu2
        q2 = []
        for eps in (1e-3, 5e-4):
            sh = separatrix_shifts(appendix_flow(
                PerturbationSpec(eps, mu1, mu2)))
            q2.append((sh.b2 - eps * b2_1) / eps ** 2)
            assert abs((sh.b1 - 2.0 * eps * mu1) / eps ** 2) < 0.5
        assert 2.0 * q2[1] - q2[0] == pytest.approx(207.5, rel=1e-2)


def test_separatrix_shifts_match_tight_tolerance():
    # near the saddles the error control alone sets the step; the shifts
    # at the default tol 1e-10 agree with the same runs at tol 1e-13
    corner = appendix_flow(PerturbationSpec(1e-3, 0.007, -0.01))
    for flow in (witness_flow(), corner):
        sh = separatrix_shifts(flow)
        ref = separatrix_shifts(dataclasses.replace(flow, tol=1e-13))
        assert abs(sh.b1 - ref.b1) < 5e-10
        assert abs(sh.b2 - ref.b2) < 5e-10


def test_witness_separatrix_runs_take_few_steps(monkeypatch):
    # the four separatrix runs of the witness start 1e-8 from a saddle;
    # their slow departures must not cost thousands of steps.  They are
    # one lockstep batch; a DOP853 step evaluates the field 12 times.
    batches, lane_evals = [], []

    def counted(field, z, *args):
        def counting(e, out):
            lane_evals.append(e.shape[1])
            return field(e, out)

        batches.append(z.shape)
        return advance(counting, z, *args)

    monkeypatch.setattr(flowsim, "advance", counted)
    separatrix_shifts(witness_flow())
    assert batches == [(3, 4)]
    assert sum(lane_evals) / 12 < 400


def test_separatrix_lane_without_crossing_raises(monkeypatch):
    # no separatrix reaches x = 0 within a time budget of 1e-3
    monkeypatch.setattr(flowsim, "SEPARATRIX_T_MAX", 1e-3)
    with pytest.raises(RuntimeError, match=r"transversal \(timeout\)"):
        separatrix_shifts(witness_flow())


# --- census --------------------------------------------------------------


def test_census_unperturbed_degenerate(spec_a1):
    res = census(unperturbed(spec_a1), n=100)
    assert res.degenerate_continuum
    assert res.cycles == ()


def test_census_zero_one_form_degenerate(spec_a1):
    # eps != 0 with a zero one-form leaves the Hamiltonian field, whose
    # orbits are all closed; a nonzero form at eps = 0 does too
    for eps, form in ((1e-3, QuadraticOneForm(f=(0.0,) * 6)),
                      (0.0, QuadraticOneForm.gamma_type(0.5))):
        res = census(FlowSpec(hamiltonian=spec_a1, epsilon=eps,
                              one_form=form), n=100)
        assert res.degenerate_continuum
        assert res.cycles == () and res.outcomes == {}


def test_census_validation(spec_a1):
    flow = FlowSpec(hamiltonian=spec_a1, epsilon=1e-3,
                    one_form=QuadraticOneForm.gamma_type(0.5))
    with pytest.raises(ValueError):
        census(flow, n=50)
    with pytest.raises(ValueError):
        census(flow, n=100, s_range=(0.0, 99.0))
    lo, hi = section_segment(spec_a1, Annulus.SIGMA_PLUS).s_bounds()
    mid = 0.5 * (lo + hi)
    for s_range in ((mid, mid), (mid + 0.1, mid)):
        with pytest.raises(ValueError, match="increasing"):
            census(flow, n=100, s_range=s_range)
    with pytest.raises(OvalRangeError):
        census(appendix_flow(PerturbationSpec(epsilon=1e-3)),
               annulus=Annulus.SIGMA_MINUS, n=100)


@pytest.mark.parametrize("eps", [1e-3, 4e-2])
def test_pure_gamma_displacement_is_integration_error(eps):
    # with omega = c/2 y^2 dx and H even in y the flow is reversible under
    # (x, y, t) -> (x, -y, -t), so every orbit through the section closes
    # and every Melnikov function vanishes: criterion 10's pure-gamma
    # draws displace by integration error only, at any eps
    draws = scan_draws()
    for trial in (0, 7, 14):
        pure_gamma, flow, s_range = draws[trial]
        assert pure_gamma
        sect = section_segment(flow.hamiltonian, Annulus.SIGMA_PLUS)
        grid = np.linspace(*s_range, 100)
        err = []
        for tol in (1e-10, 1e-12):
            run = dataclasses.replace(flow, epsilon=eps, tol=tol)
            lanes = return_maps(run, sect, grid, T_max=60.0)
            assert (lanes.reason == "ok").all()
            err.append(np.max(np.abs(lanes.s_return - grid)))
        assert err[0] < 2e-10
        assert err[0] >= 50.0 * err[1]


# --- committed witness ---------------------------------------------------


def test_witness_fixture_contents():
    w = alien_witness()
    for key in ("family", "c", "epsilon", "mu1", "mu2", "section_window",
                "energy_window", "grid_points", "t_max",
                "expected_cycles", "expected_stabilities",
                "expected_section_coords", "coord_tolerance",
                "melnikov_max_zeros"):
        assert key in w, key
    assert w["expected_cycles"] == 2
    assert w["c"] > 16.0


def test_witness_census_replay():
    w = alien_witness()
    flow = witness_flow()
    res = census(flow, s_range=tuple(w["section_window"]),
                 n=int(w["grid_points"]), T_max=float(w["t_max"]))
    assert len(res.cycles) == w["expected_cycles"]
    stabs = [c.stability for c in res.cycles]
    assert stabs == list(w["expected_stabilities"])
    for cyc, ref in zip(res.cycles, w["expected_section_coords"]):
        assert abs(cyc.section_coordinate - ref) < w["coord_tolerance"]
    # repeller inside, attractor outside, per the return derivatives
    assert res.cycles[0].return_derivative > 1.0
    assert res.cycles[1].return_derivative < 1.0
    # five grid lanes near the loop end slip through the broken upper
    # connection and cross the section line outside the annulus
    assert res.outcomes == {"ok": 155, "left_annulus": 5}
    assert res.no_return_count == 5


def test_census_keeps_close_cycle_pair(monkeypatch):
    # a second root 0.5e-8 of the window above the repeller is a second
    # cycle: the census merges no roots, so a close pair is never hidden
    w = alien_witness()
    lo, hi = w["section_window"]
    found = []

    def close_pair(*args):
        roots = grid_roots(*args)
        found.extend([roots[0], roots[0] + 0.5e-8 * (hi - lo)])
        return np.sort(np.append(roots, found[1]))

    monkeypatch.setattr(flowsim, "grid_roots", close_pair)
    res = census(witness_flow(), s_range=(lo, hi), n=int(w["grid_points"]),
                 T_max=float(w["t_max"]))
    coords = [c.section_coordinate for c in res.cycles]
    assert len(coords) == 3
    assert coords[:2] == found
    assert [c.stability for c in res.cycles[:2]] == ["repelling"] * 2


def test_witness_refinement_newton_rounds(monkeypatch):
    # one batch evaluates both sign-change cells' sub-grids with their
    # slopes; each bracket then starts at its Hermite root and takes
    # Newton steps until one lands within the root tolerance, one lane
    # per live bracket a round, so each root is a fixed point to far
    # below that tolerance (Illinois leaves a Newton residual of about
    # 5e-11)
    w = alien_witness()
    flow, sect, _, T_max = _witness_grid()
    lanes = []
    run = flowsim._returns_and_slopes

    def counted(flow, sect, s, T_max):
        lanes.append(s.size)
        return run(flow, sect, s, T_max)

    monkeypatch.setattr(flowsim, "_returns_and_slopes", counted)
    res = census(flow, s_range=tuple(w["section_window"]),
                 n=int(w["grid_points"]), T_max=T_max)
    assert len(lanes) <= 3 and lanes[0] == 2 * (flowsim.SUBGRID_POINTS + 3)
    assert all(k <= 2 for k in lanes[1:])
    assert (res.refine_rounds, res.refine_lanes) == (len(lanes), sum(lanes))
    roots = np.array([c.section_coordinate for c in res.cycles])
    s_ret, slopes = run(flow, sect, roots, T_max)
    assert slopes.tolist() == [c.return_derivative for c in res.cycles]
    assert np.all(np.abs((s_ret - roots) / (slopes - 1.0)) <= 1e-12)


def test_census_flags_a_cell_that_lost_a_lane(monkeypatch):
    # refinement lanes within 1.2e-6 of the repeller do not return: its
    # cell's sub-grid (nodes 1.1e-6 apart) loses the sign change, and the
    # census counts the cell instead of dropping the cycle silently
    w = alien_witness()
    s_rep = w["expected_section_coords"][0]
    run = flowsim._returns_and_slopes

    def lossy(flow, sect, s, T_max):
        s_ret, slopes = run(flow, sect, s, T_max)
        return np.where(np.abs(s - s_rep) > 1.2e-6, s_ret, np.nan), slopes

    monkeypatch.setattr(flowsim, "_returns_and_slopes", lossy)
    res = census(witness_flow(), s_range=tuple(w["section_window"]),
                 n=int(w["grid_points"]), T_max=float(w["t_max"]))
    assert [c.stability for c in res.cycles] == ["attracting"]
    assert res.unresolved_cells == 1
    assert res.no_return_count == 5 + 1


def test_census_finds_three_roots_in_one_cell(monkeypatch):
    # a displacement with three roots inside one grid cell: every sign
    # change of the cell's sub-grid is a cycle, with alternating
    # stabilities (the grid sees one sign change there)
    flow = witness_flow()
    lo, hi = 1.15e-3, 4.0e-3
    grid = np.linspace(lo, hi, 100)
    cell = grid[40] + (grid[41] - grid[40]) * np.array([0.22, 0.53, 0.81])

    def disp(s):
        d, dd = _cubic(s, cell)
        return 1e9 * d, 1e9 * dd

    def maps(flow, sect, s, T_max):
        return flowsim.ReturnLanes(s + disp(s)[0], np.full(s.size, "ok"))

    def slopes(flow, sect, s, T_max):
        d, dd = disp(s)
        return s + d, 1.0 + dd

    monkeypatch.setattr(flowsim, "return_maps", maps)
    monkeypatch.setattr(flowsim, "_returns_and_slopes", slopes)
    res = census(flow, s_range=(lo, hi), n=100, T_max=80.0)
    coords = [c.section_coordinate for c in res.cycles]
    assert np.all(np.abs(np.array(coords) - cell) <= 1e-12)
    assert [c.stability for c in res.cycles] == [
        "repelling", "attracting", "repelling"]
    assert res.refine_rounds == 2 and res.unresolved_cells == 0


def test_witness_cycle_is_fixed_point():
    w = alien_witness()
    flow = witness_flow()
    sect = section_segment(flow.hamiltonian, Annulus.SIGMA_PLUS)
    s_rep = w["expected_section_coords"][0]
    lanes = return_maps(flow, sect, s_rep, T_max=float(w["t_max"]))
    assert lanes.reason[0] == "ok"
    assert abs(lanes.s_return[0] - s_rep) < 5e-7


# --- lockstep return maps ------------------------------------------------


def _draw_grid(trial):
    _, flow, s_range = scan_draws()[trial]
    sect = section_segment(flow.hamiltonian, Annulus.SIGMA_PLUS)
    return flow, sect, np.linspace(s_range[0], s_range[1], 100)


def test_lockstep_field_matches_rhs(spec_a05):
    rng = np.random.default_rng(5)
    z = rng.uniform(-2.0, 2.0, (2, 2000))
    draw = scan_draws()[1][1]
    flows = [draw, FlowSpec(hamiltonian=spec_a05, epsilon=0.1,
                            one_form=draw.one_form), witness_flow(),
             appendix_flow(PerturbationSpec(epsilon=0.0))]
    z3 = np.vstack([z, np.full((1, 2000), np.nan)])     # row 2 is not read
    for flow in flows:
        field = _lockstep_field(flow)
        # the field reads a ones-row state buffer and writes into out,
        # which it returns; rows of the buffer past (1, x, y) are not read
        e, out = state(z), np.full(z.shape, np.nan)
        got = field(e, out)
        assert got is out
        assert np.array_equal(got, np.array(flow.rhs(0.0, z)))
        assert np.array_equal(e, np.vstack([np.ones((1, 2000)), z]))
        # (3, n) lanes: the same rows 0-1, and the divergence in row 2,
        # which is the trace of the Jacobian up to the rounding of its
        # terms (the Hamiltonian ones cancel): a few ulps of their sum
        div = field(state(z3), np.full(z3.shape, np.nan))
        assert np.array_equal(div[:2], got)
        assert div.tobytes() == evaluate(field, z3).tobytes()
        jac = flow.jacobian(z)
        cx, cy = np.abs(flow.coeffs)
        ax, ay = np.abs(z)
        terms = (cx[1] + 2.0 * cx[3] * ax + cx[4] * ay
                 + cy[2] + cy[4] * ax + 2.0 * cy[5] * ay)
        err = np.abs(div[2] - (jac[0, 0] + jac[1, 1]))
        assert np.all(err <= 4.0 * np.spacing(terms))
        # a lane alone has its bits in the batch
        for i in (0, 1, 1999):
            alone = evaluate(field, z[:, i:i + 1])
            assert alone.tobytes() == got[:, i:i + 1].tobytes()
            alone = evaluate(field, z3[:, i:i + 1])
            assert alone.tobytes() == div[:, i:i + 1].tobytes()
    assert {f.hamiltonian.family for f in flows} == set(Family)


def test_signed_field_rows():
    # rows 0-1 of a lane with time sign +-1 are +-rhs bit for bit, and the
    # sign row's derivative is exactly +0.0
    flow = witness_flow()
    z = np.random.default_rng(7).uniform(-2.0, 2.0, (2, 1000))
    sign = np.tile([1.0, -1.0], 500)
    out = evaluate(_signed_field(flow), np.vstack([z, sign]))
    ref = np.array(flow.rhs(0.0, z))
    assert out[:2, ::2].tobytes() == ref[:, ::2].tobytes()
    assert out[:2, 1::2].tobytes() == (-ref[:, 1::2]).tobytes()
    assert out[2].tobytes() == np.zeros(1000).tobytes()


def test_dop853_table_matches_scipy():
    # the lanes step as solve_ivp's DOP853 only if every coefficient has
    # scipy's bits
    from scipy.integrate._ivp import dop853_coefficients as ref

    from saddleloop import dop853

    assert (dop853.N_STAGES, dop853.N_STAGES_EXTENDED) == \
        (ref.N_STAGES, ref.N_STAGES_EXTENDED)
    for name in ("A", "B", "E3", "E5", "D"):
        ours, theirs = getattr(dop853, name), getattr(ref, name)
        assert ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name


def test_illinois_lockstep_roots():
    # three brackets of x^3 - k, one abandoned by a nan evaluation
    ks = np.array([2.0, 5.0, 7.0])

    def fun(i, x):
        v = x ** 3 - ks[i]
        return np.where(ks[i] == 5.0, np.nan, v)

    a, b = np.ones(3), np.full(3, 2.0)
    roots = illinois(fun, a, b, a ** 3 - ks, b ** 3 - ks, 1e-13, 0.0)
    assert abs(roots[0] - 2.0 ** (1 / 3)) < 1e-12
    assert np.isnan(roots[1])
    assert abs(roots[2] - 7.0 ** (1 / 3)) < 1e-12


def test_illinois_newton_steps_from_slopes():
    # x^3 - k with slope 3x^2: Newton steps inside each bracket reach the
    # value-only roots in fewer rounds, each bracket as alone in a batch
    ks = np.array([2.0, 5.0, 7.0, 9.5])
    a, b = np.ones(4), np.full(4, 2.5)
    fa, fb = a ** 3 - ks, b ** 3 - ks

    def search(slope, k=ks, fa=fa, fb=fb, a=a, b=b):
        rounds = []

        def fun(i, x):
            rounds.append(i.size)
            v = x ** 3 - k[i]
            return v if slope is None else (v, slope(x))

        return illinois(fun, a, b, fa, fb, 1e-14, 0.0), len(rounds)

    plain, plain_rounds = search(None)
    roots, rounds = search(lambda x: 3.0 * x * x)
    assert np.all(np.abs(roots - plain) <= 1e-13)
    assert np.all(np.abs(roots - np.cbrt(ks)) <= 1e-13)
    assert rounds < plain_rounds
    for j in range(ks.size):
        alone, _ = search(lambda x: 3.0 * x * x, ks[j:j + 1], fa[j:j + 1],
                          fb[j:j + 1], a[j:j + 1], b[j:j + 1])
        assert alone.tobytes() == roots[j:j + 1].tobytes()
    # a zero, nan or wrong-sign slope puts the Newton target outside the
    # bracket: the Illinois point is taken, so the iterates are the
    # value-only ones
    for slope in (np.zeros_like, lambda x: np.full_like(x, np.nan),
                  lambda x: -3.0 * x * x):
        assert search(slope)[0].tobytes() == plain.tobytes()

    # a nan value abandons its bracket whatever the slope
    def fun(i, x):
        v = np.where(ks[i] == 5.0, np.nan, x ** 3 - ks[i])
        return v, 3.0 * x * x

    roots = illinois(fun, a, b, fa, fb, 1e-14, 0.0)
    assert np.isnan(roots[1])
    assert np.all(np.abs(roots[[0, 2, 3]] - np.cbrt(ks[[0, 2, 3]])) <= 1e-13)


def test_illinois_event_search_takes_few_rounds(monkeypatch):
    # the event search of the 100 grid lanes of criterion-10 draw 0: an
    # iterate that would round onto a bracket end steps half a tolerance
    # in, so no lane is held to linear convergence (35 rounds when such
    # an iterate bisected instead)
    from saddleloop import lockstep

    rounds = []
    search = lockstep.illinois

    def counted(fun, *args):
        def fun_counted(i, x):
            rounds.append(i.size)
            return fun(i, x)
        return search(fun_counted, *args)

    monkeypatch.setattr(lockstep, "illinois", counted)
    flow, sect, grid = _draw_grid(0)
    lanes = return_maps(flow, sect, grid, T_max=60.0)
    assert (lanes.reason == "ok").all()
    assert len(rounds) <= 10


def test_sign_changes_zeros_and_cells():
    zeros, cells = sign_changes([1.0, -1.0, 2.0, -3.0])    # alternating
    assert zeros.tolist() == [] and cells.tolist() == [0, 1, 2]
    # exact zeros at the first and last index open no cell
    zeros, cells = sign_changes([0.0, 1.0, -1.0, 0.0])
    assert zeros.tolist() == [0, 3] and cells.tolist() == [1]
    # a nan never opens a cell; a zero next to a nan is still a zero
    zeros, cells = sign_changes([1.0, np.nan, -1.0, 0.0, np.nan, 2.0, -2.0])
    assert zeros.tolist() == [3] and cells.tolist() == [5]


def test_grid_roots_zeros_cells_and_abandoned():
    grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])

    def fun(x):
        # roots at 0.5 and 2.5; the cell (3, 4) has no finite values inside
        return np.where(x > 3.0, np.nan, np.cos(np.pi * x))

    vals = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    roots = grid_roots(fun, grid, vals)
    assert np.allclose(roots[:3], [0.5, 1.5, 2.5], atol=1e-10)
    assert np.isnan(roots[3])
    roots = grid_roots(fun, grid, np.array([0.0, -1.0, 1.0, 0.0, 2.0]))
    assert roots[0] == 0.0 and roots[2] == 3.0
    assert abs(roots[1] - 1.5) < 1e-10


def test_grid_roots_keep_their_bits_without_slopes():
    # without node slopes (or with nan starts) every bracket starts at its
    # regula falsi point: these roots are pinned bit for bit
    grid = np.linspace(0.0, 3.0, 7)

    def f(x):
        return np.cos(np.pi * x) - 0.25 * x

    def f_df(x):
        return f(x), -np.pi * np.sin(np.pi * x) - 0.25

    assert [r.hex() for r in grid_roots(f, grid, f(grid))] == [
        "0x1.da2e5ab6341afp-2", "0x1.a24a176647356p+0",
        "0x1.26fbc5727f17bp+1"]
    assert [r.hex() for r in grid_roots(f_df, grid, f(grid))] == [
        "0x1.da2e5ab558508p-2", "0x1.a24a17667e2bfp+0",
        "0x1.26fbc57263fe6p+1"]
    ks = np.array([2.0, 5.0, 7.0])
    a, b = np.ones(3), np.full(3, 2.0)
    for start in (None, np.full(3, np.nan)):
        roots = illinois(lambda i, x: x ** 3 - ks[i], a, b, a ** 3 - ks,
                         b ** 3 - ks, 1e-13, 0.0, start)
        assert [r.hex() for r in roots] == [
            "0x1.428a2f98d728bp+0", "0x1.b5c0fbcfec5b4p+0",
            "0x1.e9b5dba5817bdp+0"]


def _cubic(x, r):
    """(x - r0)(x - r1)(x - r2) and its slope."""
    d = x[:, None] - r
    return (np.prod(d, axis=1),
            d[:, 1] * d[:, 2] + d[:, 0] * d[:, 2] + d[:, 0] * d[:, 1])


_CUBIC_ROOTS = np.array([0.3, 1.45, 2.9])


def _cubic_search(slopes):
    """grid_roots of the cubic with _CUBIC_ROOTS on the nodes 0..3 with
    the given node slopes, and the points of every round."""
    grid = np.arange(4.0)
    rounds = []

    def fun(x):
        rounds.append(x)
        return _cubic(x, _CUBIC_ROOTS)

    return grid_roots(fun, grid, _cubic(grid, _CUBIC_ROOTS)[0],
                      slopes), rounds


def test_grid_roots_start_at_the_hermite_root():
    # the Hermite interpolant of a cubic is the cubic: each cell's first
    # point is its root, where the search ends
    r = _CUBIC_ROOTS
    slopes = _cubic(np.arange(4.0), r)[1]
    roots, rounds = _cubic_search(slopes)
    assert len(rounds) == 1
    assert np.all(np.abs(rounds[0] - r) <= 1e-15)
    assert rounds[0].tolist() == roots.tolist()
    # without slopes the first points are the regula falsi points
    _, plain = _cubic_search(None)
    assert np.all(np.abs(plain[0] - r) > 1e-2)
    # a nan slope, or an infinite one, whose cubic is not finite and so has
    # no root in the cell, puts the cells next to it back on that point
    for bad in (np.nan, np.inf):
        spoilt = slopes.copy()
        spoilt[1] = bad
        roots, rounds = _cubic_search(spoilt)
        assert rounds[0][:2].tobytes() == plain[0][:2].tobytes()
        assert abs(rounds[0][2] - r[2]) <= 1e-15
        assert np.all(np.abs(roots - r) <= 1e-10)


def test_return_maps_batch_invariant():
    # the 100 grid lanes of one criterion-10 draw (two of them without a
    # return), alone, as their own batch and inside a batch of 500
    flow, sect, grid = _draw_grid(2)
    batch = np.concatenate([grid, np.linspace(grid[0], grid[-1], 400)])
    big = return_maps(flow, sect, batch, T_max=60.0)
    own = return_maps(flow, sect, grid, T_max=60.0)
    assert big.s_return[:100].tobytes() == own.s_return.tobytes()
    assert list(big.reason[:100]) == list(own.reason)
    assert set(own.reason) == {"ok", "left_annulus", "escape"}
    for i in (0, 17, 34, 51, 68, 85, 98, 99):
        alone = return_maps(flow, sect, grid[i:i + 1], T_max=60.0)
        assert alone.s_return.tobytes() == own.s_return[i:i + 1].tobytes()
        assert alone.reason[0] == own.reason[i]


def _witness_grid():
    w = alien_witness()
    flow = witness_flow(w)
    sect = section_segment(flow.hamiltonian, Annulus.SIGMA_PLUS)
    grid = np.linspace(*w["section_window"], int(w["grid_points"]))
    return flow, sect, grid, float(w["t_max"])


def test_advance_extra_row_keeps_planar_bits():
    # the witness grid lanes, after return_maps' burn-in, run to their
    # section or escape events once as (2, n) lanes and once with a third
    # row of zero derivative: rows 0-1 and events keep their bits
    flow, sect, grid, T_max = _witness_grid()
    coord = sect.row
    rhs = _lockstep_field(flow)
    z = np.zeros((2, grid.size))
    z[coord] = grid
    _, _, z = advance(rhs, z, BURN_IN, ((_escape, 1),), flow.tol)
    events = ((lambda z: z[1 - coord], sect.direction), (_escape, 1))
    planar = advance(rhs, z, T_max, events, flow.tol)

    def padded(e, out):
        rhs(e, out[:2])
        out[2] = 0.0
        return out

    extra = advance(padded, np.vstack([z, np.full((1, grid.size), 0.5)]),
                    T_max, events, flow.tol)
    assert (planar[0] == 1).all() and (planar[1] == 0).all()
    for a, b in zip(planar[:2], extra[:2]):
        assert a.tobytes() == b.tobytes()
    assert planar[2].tobytes() == extra[2][:2].tobytes()
    assert (extra[2][2] == 0.5).all()


def test_advance_without_events():
    # the witness grid lanes with no events take the bits of a run whose
    # one event never fires, and each stops at t_end with the bits of
    # its one-lane trajectory's last step
    flow, sect, grid, _ = _witness_grid()
    z = np.zeros((2, grid.size))
    z[sect.row] = grid
    rhs = _lockstep_field(flow)
    bare = advance(rhs, z, 5.0, (), flow.tol)
    never = advance(rhs, z, 5.0, ((lambda z: np.full(z.shape[1], -1.0), 1),),
                    flow.tol)
    assert (bare[0] == 0).all() and (bare[1] == -1).all()
    for a, b in zip(bare, never):
        assert a.tobytes() == b.tobytes()
    for k in (0, grid.size - 1):
        traj = integrate(flow, z[:, k], 5.0)
        assert traj.ts[-1] == 5.0
        assert traj.states[-1].tobytes() == bare[2][:, k].tobytes()


def test_advance_fails_lanes_whose_step_is_not_finite():
    # a nan start and a field that overflows give nan step sizes, which
    # never underflow: each such lane fails where it stands, and the
    # finite lanes of the batch keep the bits of a run without them
    rhs = _lockstep_field(FlowSpec(HamiltonianSpec(Family.NORMAL_FORM, 1.0),
                                   1e-3, QuadraticOneForm(f=(1.0,) * 6)))
    z = np.array([[1.2, np.nan, 1e200, 1.5], [0.0, 0.5, 1e200, 0.0]])
    st, which, zs = advance(rhs, z, 5.0, (), 1e-10)
    assert st.tolist() == [0, -1, -1, 0]
    assert zs[:, [1, 2]].tobytes() == z[:, [1, 2]].tobytes()
    finite = advance(rhs, z[:, [0, 3]], 5.0, (), 1e-10)
    for a, b in zip((st, which, zs), finite):
        assert a[..., [0, 3]].tobytes() == b.tobytes()


def test_sign_lane_runs_negated_field():
    # lanes with time sign -1, batched with forward lanes, give the bits
    # of a run of the negated field; the events are the separatrix runs'
    flow, _, grid, _ = _witness_grid()
    starts = np.vstack([np.full(8, 0.5), grid[::20]])
    rhs = _lockstep_field(flow)
    events = ((lambda z: z[0], 0), (_escape, 1))
    lanes = np.vstack([np.hstack([starts, starts]),
                       np.repeat([[1.0, -1.0]], 8, axis=1)])
    both = advance(_signed_field(flow), lanes, 20.0, events, flow.tol)
    fwd = advance(rhs, starts, 20.0, events, flow.tol)

    def negated(e, out):
        return np.negative(rhs(e, out), out=out)

    back = advance(negated, starts, 20.0, events, flow.tol)
    assert (both[0] == 1).all()
    for k, ref in enumerate((fwd, back)):
        i = slice(8 * k, 8 * k + 8)
        for a, b in zip(ref[:2], both[:2]):
            assert a.tobytes() == b[i].tobytes()
        assert ref[2].tobytes() == both[2][:2, i].tobytes()


def _oracle_return(flow, sect, s, T_max):
    """The return map from scipy's solve_ivp under the same step settings:
    a burn-in lead with the escape event, then the section and escape
    events.  Returns (s_return, reason)."""
    return _oracle_return_timed(flow, sect, s, T_max)[:2]


def _oracle_return_timed(flow, sect, s, T_max):
    """_oracle_return plus the return time, None without a return."""
    off = 1 - sect.row

    def escape(t, z):
        return _escape(z)

    def section(t, z):
        return z[off]

    escape.terminal, escape.direction = True, 1
    section.terminal, section.direction = True, sect.direction
    def run(start, T, events):
        return solve_ivp(flow.rhs, (0.0, T), start, method="DOP853",
                         rtol=flow.tol, atol=ATOL_PER_RTOL * flow.tol,
                         max_step=MAX_STEP, events=events)

    lead = run(sect.point(s), BURN_IN, [escape])
    if lead.status != 0:
        return None, "escape" if lead.status == 1 else "failed", None
    tr = run(lead.y[:, -1], T_max - BURN_IN, [section, escape])
    if len(tr.t_events[0]):
        s_ret = float(tr.y_events[0][0][1 - off])
        if not sect.contains(s_ret):
            return None, "left_annulus", None
        return s_ret, "ok", BURN_IN + float(tr.t_events[0][0])
    if tr.status == 1:
        return None, "escape", None
    return None, "failed" if tr.status < 0 else "timeout", None


@pytest.mark.parametrize("trial", [2, 11])
def test_return_maps_match_integrate_oracle(trial):
    flow, sect, grid = _draw_grid(trial)
    lanes = [0, 13, 26, 39, 52, 65, 78, 97, 98, 99]
    got = return_maps(flow, sect, grid[lanes], T_max=60.0)
    reasons = []
    for k, i in enumerate(lanes):
        s_ret, reason = _oracle_return(flow, sect, grid[i], 60.0)
        reasons.append(reason)
        assert got.reason[k] == reason
        if s_ret is not None:
            assert abs(got.s_return[k] - s_ret) < 1e-9
    assert reasons.count("ok") < len(lanes)


def test_near_saddle_returns_match_tight_oracle():
    # witness lanes next to the loop, where the error control alone sets
    # the step: each ok orbit passes within 0.07 of both saddles (its
    # step ends already do).  Lanes 3 and 4 slip through the broken upper
    # connection; lane 5 starts next to the repelling cycle.
    flow, sect, grid, T_max = _witness_grid()
    tight = dataclasses.replace(flow, tol=1e-13)
    lanes = [3, 4, 5, 6, 8, 10, 14, 20, 30, 40]
    got = return_maps(flow, sect, grid[lanes], T_max=T_max)
    saddles = flowsim._continued_saddles(flow)
    for k, i in enumerate(lanes):
        s_ret, reason, t_ret = _oracle_return_timed(tight, sect, grid[i],
                                                    T_max)
        assert got.reason[k] == reason
        if s_ret is None:
            continue
        assert abs(got.s_return[k] - s_ret) < 2e-10
        orbit = integrate(flow, sect.point(grid[i]), t_ret).states
        for saddle in saddles:
            assert np.min(np.hypot(*(orbit - saddle).T)) < 0.07
    assert list(got.reason[:2]) == ["left_annulus"] * 2


# --- return slopes -------------------------------------------------------


def test_divergence_lanes_keep_return_bits():
    # the witness grid (five lanes slip through the broken connection) as
    # (3, n) lanes: rows 0-1 return return_maps' bits
    flow, sect, grid, T_max = _witness_grid()
    planar = return_maps(flow, sect, grid, T_max=T_max)
    assert sect.axis == "y"
    z = np.zeros((3, grid.size))
    z[1] = grid
    reason, z = _first_returns(_lockstep_field(flow), z, sect, T_max,
                               flow.tol)
    assert [flowsim.REASONS[r] for r in reason] == list(planar.reason)
    assert z[1].tobytes() == planar.s_return.tobytes()
    # a slope lane gives the same bits alone as in the batch
    s_ret, slopes = _returns_and_slopes(flow, sect, grid, T_max)
    assert s_ret.tobytes() == planar.s_return.tobytes()
    assert np.isnan(slopes).sum() == 5
    for i in (0, 3, 5, 40, 159):
        alone = _returns_and_slopes(flow, sect, grid[i:i + 1], T_max)[1]
        assert alone.tobytes() == slopes[i:i + 1].tobytes()


def _oracle_slope(flow, sect, s, T_max):
    """P'(s) from scipy's solve_ivp on the variational system (x, y, u, v)
    at rtol 1e-13: a burn-in lead, then the section event, where the
    tangent is projected along the field onto the section."""
    c = sect.row

    def rhs(t, w):
        return [*flow.rhs(t, w[:2]), *(flow.jacobian(w[:2]) @ w[2:])]

    def section(t, w):
        return w[1 - c]

    section.terminal, section.direction = True, sect.direction
    start = np.zeros(4)
    start[c], start[2 + c] = s, 1.0
    steps = dict(method="DOP853", rtol=1e-13, atol=1e-15,
                 max_step=MAX_STEP)
    lead = solve_ivp(rhs, (0.0, BURN_IN), start, **steps)
    tr = solve_ivp(rhs, (0.0, T_max - BURN_IN), lead.y[:, -1],
                   events=[section], **steps)
    w = tr.y_events[0][0]
    f = flow.rhs(0.0, w[:2])
    return w[2 + c] - f[c] * w[3 - c] / f[1 - c]


@pytest.mark.parametrize("trial", [85, 97, 138])
def test_scan_slopes_match_variational_oracle(trial):
    # the three criterion-10 draws whose cycle sits at a first-order zero;
    # their slopes lie within 3e-3 of 1, so the stability label rests on
    # the slope's accuracy
    _, flow, s_range = scan_draws()[trial]
    sect = section_segment(flow.hamiltonian, Annulus.SIGMA_PLUS)
    res = census(flow, s_range=s_range, n=100, T_max=60.0)
    (cyc,) = res.cycles
    # one sub-grid batch, the Hermite start and at most one Newton step
    assert res.refine_rounds == {85: 2, 97: 2, 138: 3}[trial]
    oracle = _oracle_slope(flow, sect, cyc.section_coordinate, 60.0)
    assert abs(cyc.return_derivative - oracle) < 1e-9
    assert cyc.stability == ("attracting" if oracle < 1.0 else "repelling")


def test_witness_slopes_match_variational_oracle():
    # the slopes from the divergence integral are the true slopes of the
    # return map, not only those of the map at the census's tolerance
    w = alien_witness()
    flow, sect, _, T_max = _witness_grid()
    res = census(flow, s_range=tuple(w["section_window"]),
                 n=int(w["grid_points"]), T_max=T_max)
    oracle = [_oracle_slope(flow, sect, c.section_coordinate, T_max)
              for c in res.cycles]
    # P' changes by about 3e4 per unit of s at the repeller, so the
    # oracle itself moves by 1e-6 across the roots' 1e-10 tolerance
    assert oracle == pytest.approx([1.2307329, 0.9372720], abs=2e-6)
    for cyc, ref in zip(res.cycles, oracle):
        assert abs(cyc.return_derivative - ref) < 1e-7


# --- bit pins ------------------------------------------------------------

# sha256 digests of flow-simulation outputs.  A change that moves one of
# them moves the engine's numbers, and says why.
_PINNED = {
    "draw0_s": "6e1072a52cddee89c9d6c7421f846f54212442daf817bad5199af547849ede23",
    "draw0_reason": "34098f92530ea488cbe7f171225b9242bde4afa1beced988ae9d65f054ec4592",
    "draw2_s": "d2de083ec72badcbd97ee0045f368fc96e2a70dce8b1b73d0af50f6c5f17d6e9",
    "draw2_reason": "cf97507779d5263f8905b4a196de4efc0bae7468ec55ecbbef57ac665c09cb51",
    "draw11_s": "b2e4ae304be73a2147cec1bf50c51100c0d923cde54eb4ef08dcf19d0df56c35",
    "draw11_reason": "ed7da00fd467053908d91fcb17f2633c4cbc0558220810b7995446609a5785c8",
    "witness_reason": "05d09a7267b08ff1ef236bcb43cd7a12337500f9b5445d83d2e4f7eea5c1312e",
    "witness_states": "99049912ed03644f87598c5849fe95e22fe94c7de44d22b088b8e88a9990c92c",
    "cycles_reason": "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    "cycles_states": "c9b950ad83e843a57d636fecf436e39c0c06f708079b0ea338b2fca72afffb6f",
    "traj_states": "15de7915d72a8d157c43a5b35b67a09fb33c667b4d3d62ccd66ad0d5b0bca3f9",
}
_PINNED_SHIFTS = ("0x1.3879aadb4fcaap-9", "-0x1.9ea4c6b5221c0p-8")


def _sha256(data):
    if isinstance(data, np.ndarray):
        data = data.tobytes()
    return hashlib.sha256(data).hexdigest()


def test_flow_outputs_keep_their_bits(spec_a1):
    # criterion-10 draws 0 (pure gamma, tight window), 2 and 11, the
    # witness grid as (3, n) lanes with the divergence row (the slopes are
    # left out: np.exp is not correctly rounded), a two-lane (3, n) batch
    # at the witness cycles, the shape of the census's late refinement
    # rounds, the witness separatrix shifts and the README trajectory
    got = {}
    for k in (0, 2, 11):
        flow, sect, grid = _draw_grid(k)
        lanes = return_maps(flow, sect, grid, T_max=60.0)
        got[f"draw{k}_s"] = _sha256(lanes.s_return)
        got[f"draw{k}_reason"] = _sha256(",".join(lanes.reason).encode())
    flow, sect, grid, T_max = _witness_grid()
    z = np.zeros((3, grid.size))
    z[sect.row] = grid
    reason, z = _first_returns(_lockstep_field(flow), z, sect, T_max,
                               flow.tol)
    got["witness_reason"] = _sha256(reason.astype(np.int64))
    got["witness_states"] = _sha256(z)
    z = np.zeros((3, 2))
    z[sect.row] = alien_witness()["expected_section_coords"]
    reason, z = _first_returns(_lockstep_field(flow), z, sect, T_max,
                               flow.tol)
    got["cycles_reason"] = _sha256(reason.astype(np.int64))
    got["cycles_states"] = _sha256(z)
    traj = integrate(unperturbed(spec_a1), np.array([1.0, 0.5]), 20.0)
    got["traj_states"] = _sha256(traj.states)
    assert got == _PINNED
    sh = separatrix_shifts(flow)
    assert (sh.b1.hex(), sh.b2.hex()) == _PINNED_SHIFTS
