"""One test per acceptance criterion, at the stated tolerances.

Each test prints the criterion's one-line verdict (visible with -s or
in failure output) and asserts both the verdict and the runtime budget.

Known red: criterion 8's b2 clause. At eps=1e-3, c=17 the measured
upper-connection shift carries a second-order contribution of about
207*eps^2, which is ~8x the entire first-order value at mu-grid scale
1e-2, so no correct measurement can sit within 5% of the first-order
law at those parameters. The criterion is implemented exactly as
stated and left failing; the first-order shift laws themselves are
verified at eps=1e-6 in test_flowsim.py, where the contamination is
three orders of magnitude smaller.
"""

import pytest

from saddleloop import acceptance, centroid


def _check(number: int):
    result = acceptance.CRITERIA[number]()
    print(result.line())
    assert result.passed, result.detail
    assert result.within_budget, (
        f"criterion {number} took {result.runtime_s:.1f}s, "
        f"budget {result.budget_s:.0f}s")


def test_criterion_1_loop_identity():
    _check(1)


def test_criterion_2_ode_residual():
    _check(2)


def test_criterion_3_series_coefficients():
    _check(3)


def test_criterion_4_log_asymptotics():
    _check(4)


def test_criterion_5_segment_closed_forms():
    _check(5)


def test_criterion_6_centroid_shape():
    _check(6)


def test_criterion_6_measures_endpoint(monkeypatch):
    # an extrapolated endpoint 0.1 off the analytic one must fail the check
    exact = centroid.CentroidCurve.endpoint_extrapolated
    monkeypatch.setattr(centroid.CentroidCurve, "endpoint_extrapolated",
                        lambda self: tuple(v + 0.1 for v in exact(self)))
    result = acceptance.criterion_6()
    assert not result.passed
    assert "shape ok, max endpoint err 1.00e-01" in result.detail


def test_criterion_7_intersection_bounds():
    _check(7)


def test_criterion_8_trace_and_shift_laws():
    _check(8)


def test_criterion_9_alien_cycles():
    _check(9)


@pytest.mark.slow
def test_criterion_10_census_bound():
    _check(10)
