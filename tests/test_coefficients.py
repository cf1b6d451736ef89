import math

import numpy as np
import pytest
from scipy.integrate import quad

from varheat import build_travel_time, log_derivative, make_conductivity
from varheat.coefficients import _rational9000_raw_sq
from varheat.errors import (
    DomainError,
    MalformedTable,
    NonPositiveConductivity,
    ToleranceNotReached,
)

from conftest import PARABOLIC_TAU_TOTAL


def test_constant_catalog():
    c = make_conductivity("constant", c=1.0)
    xs = np.linspace(0, 1, 17)
    assert np.all(c.sigma(xs) == 1.0)
    assert np.all(c.dsigma(xs) == 0.0)


def test_parabolic_closed_form_samples(parabolic):
    c, _ = parabolic
    assert c.sigma_sq(0.5) == pytest.approx(0.125, abs=1e-15)
    assert c.sigma_sq(0.0) == pytest.approx(1.0 / 12.0, abs=1e-15)
    xs = np.linspace(0, 1, 1000)
    exact = (3.0 - (2.0 * xs - 1.0) ** 2) / 24.0
    assert np.max(np.abs(c.sigma(xs) ** 2 - exact)) < 5e-16
    # derivative consistent with second-order centered differences
    h = 1e-5
    interior = np.linspace(0.05, 0.95, 31)
    fd = (c.sigma(interior + h) - c.sigma(interior - h)) / (2 * h)
    assert np.max(np.abs(c.dsigma(interior) - fd)) < 1e-9


def test_rational_matches_raw_quotient(rational):
    c, _ = rational
    xs = np.linspace(0, 1, 1000)
    raw = _rational9000_raw_sq(xs)
    assert np.max(np.abs(c.sigma(xs) ** 2 - raw) / np.abs(raw)) < 5e-13


def test_rational_is_positive_and_smooth(rational):
    c, _ = rational
    xs = np.linspace(0, 1, 5001)
    vals = c.sigma(xs)
    assert vals.min() > 0.0
    # derivative consistent with finite differences, including near the
    # removable point of the raw quotient (~0.3488)
    for x in (0.2, 0.3488, 0.34881154, 0.7, 0.95):
        h = 1e-6
        fd = (c.sigma(x + h) - c.sigma(x - h)) / (2 * h)
        assert c.dsigma(x) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_nonpositive_rejected():
    with pytest.raises(NonPositiveConductivity):
        make_conductivity("constant", c=-2.0)
    with pytest.raises(NonPositiveConductivity):
        make_conductivity("tabulated", x=np.linspace(0, 1, 5),
                          sigma_sq=np.array([1.0, 0.5, -0.1, 0.5, 1.0]))


def test_unknown_kind_and_params():
    with pytest.raises(DomainError):
        make_conductivity("gaussian")
    with pytest.raises(DomainError):
        make_conductivity("parabolic24", width=2.0)


def test_tabulated_csv_roundtrip(tmp_path, parabolic):
    c, _ = parabolic
    xs = np.linspace(0, 1, 201)
    path = tmp_path / "sigma.csv"
    rows = "\n".join(f"{x:.17g},{c.sigma_sq(x):.17g}" for x in xs)
    path.write_text(rows + "\n")
    tab = make_conductivity("tabulated", table=str(path))
    probe = np.linspace(0.01, 0.99, 97)
    assert np.max(np.abs(tab.sigma(probe) - c.sigma(probe))) < 1e-7


def test_malformed_tables(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n0.5,1.0\n0.4,1.0\n1.0,1.0\n")  # non-monotone x
    with pytest.raises(MalformedTable):
        make_conductivity("tabulated", table=str(bad))
    short = tmp_path / "short.csv"
    short.write_text("0.1,1.0\n0.5,1.0\n0.7,1.0\n1.0,1.0\n")  # does not reach 0
    with pytest.raises(MalformedTable):
        make_conductivity("tabulated", table=str(short))


def test_malformed_arrays():
    # the array path shares the CSV path's checks and error types
    x = np.linspace(0.0, 1.0, 5)
    for bad_x, s2 in (
        (x[:3], np.ones(3)),                            # too few samples
        (x, np.ones(4)),                                # lengths differ
        (x[[0, 2, 1, 3, 4]], np.ones(5)),               # non-monotone x
        (np.linspace(0.1, 1.0, 5), np.ones(5)),         # does not reach 0
    ):
        with pytest.raises(MalformedTable):
            make_conductivity("tabulated", x=bad_x, sigma_sq=s2)
    c = make_conductivity("tabulated", x=x, sigma_sq=np.ones(5))
    assert np.array_equal(c.params["knots"], x)


@pytest.mark.parametrize("params, missing", [
    ({}, "x, sigma_sq"),
    ({"x": np.linspace(0.0, 1.0, 5)}, "sigma_sq"),
    ({"sigma_sq": np.ones(5)}, "x"),
])
def test_tabulated_missing_params(params, missing):
    # neither a table nor both arrays: a typed error naming what is missing
    with pytest.raises(DomainError, match=f"missing {missing}"):
        make_conductivity("tabulated", **params)


def test_log_derivative_values(parabolic):
    c, _ = parabolic
    assert log_derivative(c, 0.5) == pytest.approx(0.0, abs=1e-15)
    # centered finite difference of ln sigma as the independent oracle
    h = 1e-5
    fd = (math.log(c.sigma(0.25 + h)) - math.log(c.sigma(0.25 - h))) / (2 * h)
    assert log_derivative(c, 0.25) == pytest.approx(fd, abs=1e-8)
    with pytest.raises(DomainError):
        log_derivative(c, 1.5)


def test_travel_time_constant(const1, const2):
    c1, tt1 = const1
    assert tt1.total == pytest.approx(1.0, abs=1e-14)
    xs = np.linspace(0, 1, 101)
    assert np.max(np.abs(tt1.tau(xs) - xs)) < 1e-13
    _, tt2 = const2
    assert tt2.total == pytest.approx(0.5, abs=1e-14)


def test_travel_time_parabolic_total(parabolic):
    _, tt = parabolic
    closed = 2.0 * math.sqrt(6.0) * math.asin(1.0 / math.sqrt(3.0))
    assert closed == pytest.approx(PARABOLIC_TAU_TOTAL, abs=1e-14)
    assert tt.total == pytest.approx(closed, abs=1e-10)


def test_travel_time_matches_quadrature_everywhere(parabolic, rational):
    for c, tt in (parabolic, rational):
        for x in (0.1, 0.3488, 0.5, 0.77, 1.0):
            ref = quad(lambda s: 1.0 / float(c.sigma(s)), 0, x,
                       epsabs=1e-13, epsrel=1e-13)[0]
            assert float(tt.tau(x)) == pytest.approx(ref, abs=5e-10)


def test_travel_time_monotone_all_catalog(parabolic, rational, const2):
    xs = np.linspace(0, 1, 2001)
    for c, tt in (parabolic, rational, const2):
        vals = tt.tau(xs)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] == 0.0


def test_travel_time_derivative_is_inverse_sigma(parabolic):
    c, tt = parabolic
    xs = np.linspace(0.05, 0.95, 19)
    h = 1e-5
    fd = (tt.tau(xs + h) - tt.tau(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - 1.0 / c.sigma(xs))) < 1e-8


def test_travel_time_refinement_stable(parabolic):
    c, _ = parabolic
    tt_tight = build_travel_time(c, tol=1e-12)
    tt_loose = build_travel_time(c, tol=1e-8)
    xs = np.linspace(0, 1, 313)
    assert np.max(np.abs(tt_tight.tau(xs) - tt_loose.tau(xs))) < 1e-8


def test_travel_time_tolerance_cap(parabolic):
    c, _ = parabolic
    with pytest.raises(ToleranceNotReached):
        build_travel_time(c, tol=1e-30, max_level=10)
    with pytest.raises(DomainError):
        build_travel_time(c, tol=-1.0)
