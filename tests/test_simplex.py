import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varheat import SeriesSpec, make_conductivity, build_travel_time, simplex
from varheat.errors import DomainError, OrderTooHigh, ShiftTooSmall
from varheat.simplex import (
    _grid,
    abs_log_derivative_integral,
    build_term_tables,
    simplex_terms,
    term_bound,
)
from varheat.spectrum import find_eigenvalues
from varheat.transform import Contour, delta_values, solve_grid

from conftest import PARABOLIC_TAU_TOTAL, exp_sine_profile, stacked_series
from tuples import tuple_terms

# Frozen from an adaptive-quadrature oracle with the closed-form travel
# time tau(y) = sqrt(6)(asin((2y-1)/sqrt 3) + asin(1/sqrt 3)):
#   0.5 * quad(mu(y) sin(k (2 tau(y) - tau(1))), 0, 1), k = 1.
S1_PARABOLIC_K1 = -0.1374387176069552
# Frozen from a dblquad oracle of the ordered two-variable integral, k = 2.
S2_PARABOLIC_K2 = -0.004953134620424728


def test_spec_validation(parabolic):
    # the spec holds the truncation and the tolerance only; the quadrature
    # order is an argument of the reference tuples, which check it
    assert [f.name for f in dataclasses.fields(SeriesSpec)] == ["truncation_N", "tol"]
    with pytest.raises(DomainError):
        SeriesSpec(truncation_N=-1)
    with pytest.raises(DomainError):
        build_term_tables(*parabolic, 0.0, 1.0, SeriesSpec(), quad_order=1)
    with pytest.raises(DomainError):
        SeriesSpec(tol=0.0)


def test_spec_orders_are_integers_and_tol_finite(parabolic):
    for bad in ({"truncation_N": 2.5}, {"tol": math.nan}, {"tol": math.inf}, {"tol": -1e-10}):
        with pytest.raises(DomainError):
            SeriesSpec(**bad)
    for bad in (8.5, "8"):
        with pytest.raises(DomainError, match="quad_order"):
            build_term_tables(*parabolic, 0.0, 1.0, SeriesSpec(), quad_order=bad)
    spec = SeriesSpec(truncation_N=np.int64(2))
    assert spec.truncation_N == 2 and type(spec.truncation_N) is int
    assert build_term_tables(*parabolic, 0.0, 1.0, spec, np.int32(8))[2].weights.shape == (1, 64)


def test_order0_is_sine_of_travel_time(parabolic, spec3):
    c, tt = parabolic
    for k in (0.5, 1.0, 3.7):
        v = simplex_terms(c, tt, 0.0, 1.0, k, spec3)[0]
        assert v == pytest.approx(math.sin(k * PARABOLIC_TAU_TOTAL), abs=1e-10)


def test_order1_vanishes_for_constant(const1, spec3):
    c, tt = const1
    assert simplex_terms(c, tt, 0.2, 0.9, 1.7, spec3)[1] == 0.0


def test_order1_against_adaptive_oracle(parabolic, spec3):
    c, tt = parabolic
    v = simplex_terms(c, tt, 0.0, 1.0, 1.0, spec3)[1]
    assert v.imag == 0.0
    assert v.real == pytest.approx(S1_PARABOLIC_K1, abs=1e-8)


def test_order2_against_dblquad_oracle(parabolic, spec3):
    c, tt = parabolic
    v = simplex_terms(c, tt, 0.0, 1.0, 2.0, spec3)[2]
    assert v.real == pytest.approx(S2_PARABOLIC_K2, abs=1e-9)


def test_domain_and_order_errors(parabolic, spec3):
    # the tuples refuse an order past their limit; the recursion has none
    c, tt = parabolic
    with pytest.raises(DomainError):
        simplex_terms(c, tt, 0.7, 0.2, 1.0, spec3)
    with pytest.raises(DomainError):
        tuple_terms(c, tt, 0.7, 0.2, 1.0, 1)
    # every upper limit is checked
    for b, match in (([0.3, 1.5, 0.6], r"\[0, 1\]"), ([0.3, math.nan], r"\[0, 1\]"),
                     ([[0.5], [0.1]], "a <= b")):
        with pytest.raises(DomainError, match=match):
            simplex_terms(c, tt, 0.2, np.array(b), 1.0, spec3)
    for bad in (math.nan, math.inf, complex(1.0, math.nan)):
        with pytest.raises(DomainError, match="finite wavenumber"):
            simplex_terms(c, tt, 0.2, 0.7, bad, spec3)
        with pytest.raises(DomainError, match="finite wavenumber"):
            simplex_terms(c, tt, 0.2, 0.7, bad, spec3, shift=tt.total)
    # term_bound's order used to escape math.factorial as ValueError or
    # TypeError, and a NaN k gave a finite bound
    for n, k in ((-1, 1.0), (2.5, 1.0), (2, math.nan)):
        with pytest.raises(DomainError):
            term_bound(c, tt, n, 0.0, 1.0, k)
    with pytest.raises(OrderTooHigh):
        tuple_terms(c, tt, 0.0, 1.0, 1.0, 7)
    v = simplex_terms(c, tt, 0.0, 1.0, 1.0, SeriesSpec(truncation_N=7))[7]
    assert abs(v) < term_bound(c, tt, 7, 0.0, 1.0, 1.0)


def test_high_order_cap_is_reachable(parabolic):
    c, tt = parabolic
    v = tuple_terms(c, tt, 0.0, 1.0, 1.0, 6, quad_order=4)[6]
    assert abs(v) < term_bound(c, tt, 6, 0.0, 1.0, 1.0)


def test_oddness_and_reality(parabolic, rational, spec2):
    for fixture in (parabolic, rational):
        c, tt = fixture
        for k in (0.7, 2.3, 1.0 + 0.5j, 4.0 - 1.0j):
            plus = simplex_terms(c, tt, 0.0, 1.0, k, spec2).sum()
            minus = simplex_terms(c, tt, 0.0, 1.0, -k, spec2).sum()
            assert abs(plus + minus) < 1e-12 * max(1.0, abs(plus))
        for k in (0.9, 3.1):
            assert abs(simplex_terms(c, tt, 0.1, 0.8, k, spec2).sum().imag) < 1e-12


def test_empty_interval(parabolic, spec3):
    c, tt = parabolic
    assert simplex_terms(c, tt, 0.4, 0.4, 2.0, spec3).sum() == 0.0


def test_series_constant_sigma_reduces_to_sine(const2, spec3):
    c, tt = const2
    for k in (1.0, 2.5 + 0.3j):
        v = simplex_terms(c, tt, 0.0, 1.0, k, spec3).sum()
        assert v == pytest.approx(np.sin(k * 0.5), abs=1e-12)


def test_term_decay_consistent_with_factorial_bound(parabolic, spec3):
    c, tt = parabolic
    k = 2.0
    integral = abs_log_derivative_integral(c, 0.0, 1.0)
    assert integral == pytest.approx(math.log(1.5), abs=1e-10)
    values = list(np.abs(simplex_terms(c, tt, 0.0, 1.0, k, spec3)))
    bounds = [term_bound(c, tt, n, 0.0, 1.0, k) for n in range(4)]
    for v, b in zip(values, bounds):
        assert v <= b + 1e-12
    # partial sums are Cauchy at the factorial rate
    tails = [abs(values[n]) for n in (2, 3)]
    assert tails[1] < tails[0] * (integral / 2.0)


def test_term_bound_matrix(parabolic, rational, const1):
    ks = (0.7, 2.0, 5.0 * np.exp(1j * np.pi / 8), 3.0j, 1.0 + 2.0j)
    intervals = ((0.0, 1.0), (0.3, 0.8), (0.0, 0.5))
    spec = SeriesSpec(truncation_N=3)
    for c, tt in (parabolic, rational, const1):
        for a, b in intervals:
            for k in ks:
                terms = simplex_terms(c, tt, a, b, k, spec)
                for n in range(4):
                    v = abs(terms[n])
                    assert v <= term_bound(c, tt, n, a, b, k) * (1 + 1e-12) + 1e-300


def test_quadrature_convergence_on_doubling(parabolic):
    c, tt = parabolic
    tol = SeriesSpec().tol
    for k in (1.0, 3.0 + 1.0j):
        lo = tuple_terms(c, tt, 0.0, 1.0, k, 2, quad_order=32)
        hi = tuple_terms(c, tt, 0.0, 1.0, k, 2, quad_order=64)
        assert np.max(np.abs(lo - hi)[1:]) < tol


def test_regularized_closed_form_constant(const1, spec3):
    c, tt = const1
    v = simplex_terms(c, tt, 0.0, 1.0, 10j, spec3, shift=1.0)[0]
    assert v == pytest.approx(0.5j * (1.0 - math.exp(-20.0)), abs=1e-14)
    assert simplex_terms(c, tt, 0.0, 1.0, 2j, spec3, shift=1.0)[1] == 0.0


def test_regularized_matches_plain_at_moderate_k(parabolic, spec3):
    c, tt = parabolic
    k = 5.0 * np.exp(1j * np.pi / 8)
    shift = tt.total
    reg = simplex_terms(c, tt, 0.0, 1.0, k, spec3, shift=shift)
    plain = np.exp(1j * k * shift) * simplex_terms(c, tt, 0.0, 1.0, k, spec3)
    assert abs(reg[2] - plain[2]) < 1e-10
    sreg = reg.sum()
    splain = plain.sum()
    assert abs(sreg - splain) < 1e-10


def _finer_recursion(c, tt, a, b, k, N, factor, shift=None):
    """S_n(a, b; k), n <= N (exp(ik*shift) S_n with a ``shift``), from the
    prefix recursion on ``factor`` times the panels of the panel rule."""
    k = complex(k)
    sign = -1.0 if shift is None and k.imag < 0.0 else 1.0
    k *= sign
    grid, (i, j) = _grid(c, tt, factor * simplex._panel_count(k, tt.total), (a, b))
    edge = stacked_series(grid.between(i, j), k, N, nodes=False)[:, -1, 0]
    span = grid.tau_edges[j] - grid.tau_edges[i]
    return sign * np.exp(1j * k * ((0.0 if shift is None else shift) - span)) * edge


def test_regularized_stays_bounded_high_up(parabolic, spec2):
    c, tt = parabolic
    k = 200j  # plain path would overflow: exp(Im k * tau) ~ exp(600)
    v = simplex_terms(c, tt, 0.0, 1.0, k, spec2, shift=tt.total).sum()
    assert np.isfinite(v.real) and np.isfinite(v.imag)
    assert abs(v) < 10.0
    # resolved there: the recursion on 32x the panels agrees, term by term
    # and in the sum (the q = 32 tuples are 0.56% off in the n = 1 term at
    # 200j on [0, 0.4])
    shift = float(tt.tau(0.4))
    for k in (200j, 3.0 + 300j):
        ref = _finer_recursion(c, tt, 0.0, 0.4, k, 2, 32, shift)
        terms = simplex_terms(c, tt, 0.0, 0.4, k, spec2, shift=shift)
        for n in range(3):
            v = terms[n]
            assert abs(v - ref[n]) <= 1e-13 * abs(ref[n]), (n, k)
        v = terms.sum()
        assert abs(v - ref.sum()) <= 1e-13 * abs(ref.sum()), k


def test_shift_too_small(parabolic, spec3):
    c, tt = parabolic
    with pytest.raises(ShiftTooSmall):
        simplex_terms(c, tt, 0.0, 1.0, 1j, spec3, shift=0.5 * tt.total)
    with pytest.raises(ShiftTooSmall):  # the shift must reach the largest span
        simplex_terms(c, tt, 0.0, [0.2, 1.0], 1j, spec3, shift=0.5 * tt.total)
    with pytest.raises(DomainError):
        simplex_terms(c, tt, 0.0, 1.0, -1j, spec3, shift=2.0 * tt.total)


@pytest.mark.parametrize("shift", [math.nan, math.inf])
@pytest.mark.parametrize("entry", ["simplex_integral", "series_sum", "term_table"])
def test_regularized_rejects_non_finite_shift(parabolic, spec2, entry, shift):
    # NaN fails the shift >= span comparison, and an infinite shift makes
    # exp(ik shift) meaningless, so both must raise rather than return NaN,
    # for one term, for the sum of the terms and for the tuples
    c, tt = parabolic
    k = 1.0 + 1.0j
    with pytest.raises(DomainError, match="finite shift"):
        if entry == "simplex_integral":
            simplex_terms(c, tt, 0.0, 1.0, k, spec2, shift=shift)[1]
        elif entry == "series_sum":
            simplex_terms(c, tt, 0.0, 1.0, k, spec2, shift=shift).sum()
        else:
            build_term_tables(c, tt, 0.0, 1.0, spec2)[1].eval_regularized(k, shift)


def test_batched_regularized_requires_upper_half_plane(parabolic, spec2):
    # E- and E+ of the sweep stay <= 1 only for Im k >= 0, as in the scalar path
    c, tt = parabolic
    for tab in build_term_tables(c, tt, 0.0, 1.0, spec2):
        for ks in (1.0 - 2.0j, np.array([1.0 + 1.0j, 2.0 - 1e-9j])):
            with pytest.raises(DomainError, match="Im k"):
                tab.eval_regularized(ks, tt.total)
        assert np.isfinite(tab.eval_regularized(2.0 - 1e-13j, tt.total)).all()


def test_batched_regularized_stays_bounded_high_up(parabolic, spec2):
    # Batched twin of test_regularized_stays_bounded_high_up: sin(kP) alone
    # overflows here, so a kernel that formed it before the shift gives NaN.
    c, tt = parabolic
    a = np.array([0.0, 0.0, 0.3])
    b = np.array([0.4, 1.0, 0.9])
    shifts = tt.tau(b) - tt.tau(a)
    ks = np.array([200.0j, 3.0 + 300.0j])
    refs = [[tuple_terms(c, tt, a[m], b[m], k, 2, shift=float(shifts[m])) for k in ks]
            for m in range(a.size)]
    for tab in build_term_tables(c, tt, a, b, spec2):
        vals = tab.eval_regularized(ks, shifts)
        assert np.all(np.isfinite(vals))
        for m in range(a.size):
            for j, k in enumerate(ks):
                ref = refs[m][j][tab.n]
                assert abs(vals[m, j] - ref) <= 1e-12 * abs(ref), (tab.n, m, k)


PUBLIC_INTERVALS = ((0.0, 1.0), (0.1, 0.8), (0.37, 0.41), (0.0, 0.5), (0.4, 0.4))
PUBLIC_KS = (0.5, 2.0, 7.3, 20.0, 1.0 + 1.0j, 3.0 - 0.5j)


@pytest.mark.parametrize("profile", ["parabolic", "rational"])
def test_public_functions_match_tuples(profile, spec3, request):
    # on smooth profiles the q = 64 tuples converge, and the four public
    # functions, which run on the recursion, agree with them to roundoff
    c, tt = request.getfixturevalue(profile)
    for a, b in PUBLIC_INTERVALS:
        span = float(tt.tau(b) - tt.tau(a))
        for k in PUBLIC_KS:
            ref = tuple_terms(c, tt, a, b, k, 3, quad_order=64)
            got = simplex_terms(c, tt, a, b, k, spec3)
            scale = np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(got - ref) <= 1e-13 * scale), (a, b, k)
            total = got.sum()
            assert abs(total - ref.sum()) <= 1e-13 * max(1.0, abs(ref.sum())), (a, b, k)
            if k.imag >= 0.0:
                reg = np.exp(1j * k * span) * ref
                got = simplex_terms(c, tt, a, b, k, spec3, shift=span)
                assert np.all(np.abs(got - reg) <= 1e-13 * scale), (a, b, k)
                total = got.sum()
                assert abs(total - reg.sum()) <= 1e-13 * max(1.0, abs(reg.sum())), (a, b, k)


@pytest.mark.parametrize("profile", ["table33", "rational"])
def test_simplex_integral_resolved_on_random_intervals(profile, spec3, request):
    # the tuples straddle table knots; simplex_terms agrees with the
    # recursion on 8x the panels on any interval, for complex k on both
    # sides of the real axis
    c = (exp_sine_profile(33, (0.2, -0.1, 0.05), (0.3, 1.9, 4.0)) if profile == "table33"
         else request.getfixturevalue(profile)[0])
    tt = build_travel_time(c)
    rng = np.random.default_rng(21)
    for _ in range(12):
        a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        k = complex(*rng.uniform((-30.0, -3.0), (30.0, 3.0)))
        ref = _finer_recursion(c, tt, a, b, k, 3, 8)
        terms = simplex_terms(c, tt, a, b, k, spec3)
        for n in range(4):
            v = terms[n]
            assert abs(v - ref[n]) <= 1e-13 * max(1.0, abs(ref[n])), (n, a, b, k)


def test_public_functions_build_no_term_tables(parabolic, spec2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a public function built term tables")

    monkeypatch.setattr(simplex, "build_term_tables", refuse)
    c, tt = parabolic
    k, shift = 2.0 + 1.0j, tt.total
    values = (simplex_terms(c, tt, 0.1, 0.9, k, spec2),
              simplex_terms(c, tt, 0.1, 0.9, k, spec2, shift=shift))
    assert np.all(np.isfinite(values))


@functools.cache
def _terms_profile(name):
    c = (exp_sine_profile(33, (0.2, -0.1, 0.05), (0.3, 1.9, 4.0)) if name == "table33"
         else make_conductivity(name))
    return c, build_travel_time(c)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["parabolic24", "rational9000", "table33"]),
       points=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=9),
       k=st.builds(complex, st.floats(-1.0, 1.0), st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
       shifted=st.booleans())
def test_batched_upper_limits_match_one_call_each(name, points, k, shifted):
    # every b read off one recursion agrees with a call for that b alone:
    # the batched grid is cut at every b, so it is another quadrature of
    # the same fineness, and the two agree to roundoff.  The plain form
    # takes |Re k| <= 12, |Im k| <= 1; further out the two grids differ by
    # the panel rule's own error, which the plain form scales by
    # e^{|Im k| span} (9.6e-13 in S_2 of rational9000 at k = 29.6 - 0.89i).
    # The shifted form takes |Re k| <= 30 and Im k up to 40.
    c, tt = _terms_profile(name)
    a, *b = sorted(points)
    shift = None
    if shifted:
        k, shift = complex(30.0 * k.real, 40.0 * abs(k.imag)), tt.total
    else:
        k = complex(12.0 * k.real, k.imag)
    spec = SeriesSpec(truncation_N=3)
    batched = simplex_terms(c, tt, a, np.array(b), k, spec, shift=shift)
    assert batched.shape == (4, len(b))
    for j, end in enumerate(b):
        one = simplex_terms(c, tt, a, end, k, spec, shift=shift)
        assert np.all(np.abs(batched[:, j] - one) <= 1e-13 * np.maximum(1.0, np.abs(one))), end


def test_simplex_terms_shapes_types_and_one_recursion(parabolic, spec2, monkeypatch):
    # terms first, then the shape of b; real only for real k without a
    # shift; every upper limit from one recursion call
    c, tt = parabolic
    calls = []
    recursion = simplex._prefix_series
    monkeypatch.setattr(simplex, "_prefix_series",
                        lambda *args, **kwargs: calls.append(args[1]) or recursion(*args, **kwargs))
    b = np.linspace(0.1, 0.9, 12).reshape(3, 4)
    for k, shift, dtype in ((1.3, None, float), (-1.3, None, float), (1.3 + 0.1j, None, complex),
                            (-2.0 - 1.0j, None, complex), (1.3, tt.total, complex)):
        terms = simplex_terms(c, tt, 0.05, b, k, spec2, shift=shift)
        assert terms.shape == (3, 3, 4) and terms.dtype == dtype, (k, shift)
        assert terms[:, 1, 2] == pytest.approx(
            simplex_terms(c, tt, 0.05, b[1, 2], k, spec2, shift=shift), rel=1e-13, abs=1e-13)
    assert len(calls) == 10  # one per call above
    assert simplex_terms(c, tt, 0.05, 0.5, 1.3, spec2).shape == (3,)
    assert simplex_terms(c, tt, 0.05, np.array([]), 1.3, spec2).shape == (3, 0)
    assert simplex_terms(c, tt, 0.05, np.empty((2, 0)), 1j, spec2, shift=1.0).shape == (3, 2, 0)


def _einsum_sweep(tab, ks, shift):
    """Complex reference: sum_j W exp(ik shift) sin(kP) over whole arrays."""
    P = (tab.const[:, None] + tab.phases)[:, :, None]
    ks = np.atleast_1d(ks)[None, None, :]
    shift = np.broadcast_to(shift, tab.span.shape)[:, None, None]
    terms = np.exp(1j * ks * shift) * np.sin(ks * P)
    return np.einsum("mj,mjk->mk", tab.weights, terms)


@pytest.mark.parametrize("chunk", [simplex._CHUNK_LIMIT, 5000])
@pytest.mark.parametrize("profile", ["parabolic", "const1"])
def test_term_table_blocks_match_complex_reference(profile, chunk, spec2, request,
                                                   monkeypatch):
    # (0, y) rows on a 48-point Chebyshev grid at K = 31 contour nodes; a
    # chunk of 5000 (tuple, wavenumber) pairs takes the nodes 3 at a time at
    # n = 1, leaving a partial last chunk, and one at a time at n = 2.
    # Constant sigma has zero weights for n >= 1.
    monkeypatch.setattr(simplex, "_CHUNK_LIMIT", chunk)
    c, tt = request.getfixturevalue(profile)
    ygrid = 0.5 * (1.0 - np.cos(np.pi * np.arange(48) / 47))  # Chebyshev-Lobatto
    cont = Contour.for_times([0.25, 1.0, 4.0])
    nodes = cont.nodes()[0][cont.half_count:]
    assert nodes.size == 31
    for tab in build_term_tables(c, tt, 0.0, ygrid, spec2):
        for ks in (1.3 + 0.7j, nodes):
            for got, want in ((tab.eval_plain(ks), _einsum_sweep(tab, ks, 0.0)),
                              (tab.eval_regularized(ks, tab.span),
                               _einsum_sweep(tab, ks, tab.span))):
                assert got.shape == (48, np.size(ks))
                assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
                if profile == "const1" and tab.n > 0:
                    assert not np.any(got)


def test_term_tables_match_scalar_path(parabolic, spec2):
    c, tt = parabolic
    a = np.array([0.0, 0.0, 0.3])
    b = np.array([0.4, 0.8, 0.9])
    tables = build_term_tables(c, tt, a, b, spec2)
    ks = np.array([0.5, 1.5 + 0.2j])
    for tab in tables:
        vals = tab.eval_plain(ks)
        for m in range(a.size):
            for j, k in enumerate(ks):
                ref = tuple_terms(c, tt, a[m], b[m], k, tab.n)[tab.n]
                assert abs(vals[m, j] - ref) < 1e-13
    # regularized table path against the one-interval regularized tuples
    shifts = tt.tau(b) - tt.tau(a)
    for tab in tables:
        vals = tab.eval_regularized(np.array([1.0 + 1.0j]), shifts)
        for m in range(a.size):
            ref = tuple_terms(c, tt, a[m], b[m], 1.0 + 1.0j, tab.n, shift=float(shifts[m]))
            assert abs(vals[m, 0] - ref[tab.n]) < 1e-13


PREFIX_XS = np.array([0.1, 0.37, 0.5, 0.93, 1.0])


def _prefix_terms_at(c, tt, panels, k, N, xs=PREFIX_XS):
    # S_n = Re(e^{-ik tau} R_n) at real k
    grid, at_x = _grid(c, tt, panels, xs)
    at_edges = stacked_series(grid, k, N)[1][:, at_x, 0]
    return (np.exp(-1j * k * grid.tau_edges[at_x]) * at_edges).real


@pytest.mark.parametrize("profile", ["parabolic", "rational"])
def test_prefix_recursion_matches_scalar_path(profile, spec2, request):
    # Where the tuples converge (smooth profiles, quad_order = 64) the
    # recursion reproduces every order with its sign and 2^-n scale.
    c, tt = request.getfixturevalue(profile)
    pairs = find_eigenvalues(c, tt, spec2, 8)
    for k in (pairs[0].kappa, pairs[3].kappa, pairs[7].kappa):
        terms = _prefix_terms_at(c, tt, 64, k, 3)
        ref = np.array([tuple_terms(c, tt, 0.0, float(x), k, 3, quad_order=64).real
                        for x in PREFIX_XS]).T
        assert np.max(np.abs(terms - ref)) < 1e-9


def test_prefix_recursion_converged_on_pchip_profile():
    # 33 table nodes put the PCHIP knots on the 32-panel edges, where the
    # panel rule is spectrally accurate.
    x = np.linspace(0.0, 1.0, 33)
    c = make_conductivity("tabulated", x=x,
                          sigma_sq=0.1 * np.exp(0.2 * np.sin(np.pi * x + 0.7)
                                                - 0.1 * np.sin(3.0 * np.pi * x)))
    tt = build_travel_time(c)
    for k in (2.0, 25.0):
        coarse = _prefix_terms_at(c, tt, 32, k, 3)
        fine = _prefix_terms_at(c, tt, 256, k, 3)
        assert np.max(np.abs(coarse - fine)) < 1e-10


def test_term_tables_refuse_before_expanding(parabolic, monkeypatch):
    # the top order is checked against the tuple limit first, so a refused
    # request expands nothing
    c, tt = parabolic
    expanded = []

    def counting(*args):
        expanded.append(args[0].size)
        return expand(*args)

    expand = simplex._expand_level
    monkeypatch.setattr(simplex, "_expand_level", counting)
    for N in (7, 5):  # 32**5 tuples already exceed _TABLE_LIMIT
        with pytest.raises(OrderTooHigh):
            build_term_tables(c, tt, 0.0, np.linspace(0.0, 1.0, 67), SeriesSpec(truncation_N=N))
    assert expanded == []


@pytest.mark.parametrize("profile", ["parabolic", "rational"])
def test_prefix_recursion_complex_k_and_reflection(profile, request):
    # e^{ik tau(y)} S_n(0, y) and, on the reflected panels,
    # e^{ik (tau(1) - tau(y))} S_n(y, 1), against the scalar regularized path
    c, tt = request.getfixturevalue(profile)
    xs = np.array([0.1, 0.4, 0.77])
    ks = np.array([1.3, 5.0 + 3.0j, -4.0 + 6.0j])
    panels, at_x = _grid(c, tt, 64, xs)
    left = stacked_series(panels, ks, 3)[1][:, at_x]
    right = stacked_series(panels.reflected(), ks, 3)[1][:, -1 - at_x]
    for i, x in enumerate(xs):
        for j, k in enumerate(ks):
            tau_x = float(tt.tau(x))
            ref = tuple_terms(c, tt, 0.0, x, k, 3, quad_order=64, shift=tau_x)
            assert np.max(np.abs(left[:, i, j] - ref)) <= 1e-12, (x, k)
            ref = tuple_terms(c, tt, x, 1.0, k, 3, quad_order=64, shift=tt.total - tau_x)
            assert np.max(np.abs(right[:, i, j] - ref)) <= 1e-12, (x, k)


def test_prefix_recursion_blocks_match_one_block(parabolic, monkeypatch):
    # At Im k = 40 the phase factors grow by e^{2 Im k tau(1)} ~ e^{241}
    # across [0, 1]: still finite, so one block is a reference for the
    # blocked carries (8 blocks at the default growth bound).
    c, tt = parabolic
    panels = _grid(c, tt, 256)[0]
    ks = np.array([5.0 + 40.0j, 40.0j, 1.0 + 1.0j])
    blocked = stacked_series(panels, ks, 3)
    monkeypatch.setattr(simplex, "_GROWTH", 1e9)
    single = stacked_series(panels, ks, 3)
    for got, want in zip(blocked, single):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-14


def test_prefix_recursion_requires_upper_half_plane(parabolic):
    c, tt = parabolic
    panels = _grid(c, tt, 32)[0]
    with pytest.raises(DomainError, match="Im k"):
        stacked_series(panels, [1.0 - 0.5j], 2)


def test_panel_count_rule(parabolic):
    # max(16, ceil(2 |k| tau(1) / 6)) rounded up to a power of two, for any
    # direction of k; the figure-2 contour then needs one panel grid
    c, tt = parabolic
    mods = np.concatenate([[0.0], np.geomspace(1e-3, 3e3, 400)])
    wanted = np.maximum(simplex._MIN_PANELS,
                        np.ceil(2.0 * mods * tt.total / simplex._PANEL_PHASE))
    for arg in (0.0, math.pi / 8, math.pi / 2):
        counts = simplex._panel_count(mods * np.exp(1j * arg), tt.total)
        assert np.all(counts & (counts - 1) == 0)  # powers of two
        assert counts.min() == simplex._MIN_PANELS == 16
        assert np.all(np.diff(counts) >= 0)
        assert np.all((wanted <= counts) & (counts < 2 * wanted))
    ks = Contour.for_times([0.25, 1.0, 4.0]).nodes()[0]
    assert set(simplex._panel_count(ks, tt.total)) == {16}


def test_panel_count_ceiling_refuses_before_building(parabolic, spec2, monkeypatch):
    # k = 1e9 would ask for 2^30 panels of 12 nodes, tens of GB; past
    # _MAX_PANELS every entry point raises before a grid is built
    c, tt = parabolic
    limit = simplex._MAX_PANELS * simplex._PANEL_PHASE / (2.0 * tt.total)
    assert simplex._panel_count(0.999 * limit, tt.total) == simplex._MAX_PANELS == 1 << 16
    # the contour of t = 1e-5 stays far below the ceiling
    assert simplex._panel_count(Contour.for_times([1e-5]).nodes()[0], tt.total).max() == 2048

    def refuse(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(simplex, "_edges", refuse)
    monkeypatch.setattr(simplex, "_panels", refuse)
    far = Contour(step=0.5, end=14.0)
    assert np.abs(far.nodes()[0]).max() > 2.0 * limit
    refused = "panels, more than 65536"
    with pytest.raises(DomainError, match=f"k = 1e\\+09\\S* needs .* {refused}"):
        delta_values(c, tt, [1.0, 1e9], spec2)
    with pytest.raises(DomainError, match=refused):
        delta_values(c, tt, [1.001 * limit], spec2)
    with pytest.raises(DomainError, match=refused):
        simplex_terms(c, tt, 0.0, 1.0, 1e9, spec2)
    with pytest.raises(DomainError, match=refused):
        simplex_terms(c, tt, 0.0, 0.5, 1e9j, spec2, shift=tt.total)
    with pytest.raises(DomainError, match=refused):
        solve_grid(c, tt, lambda x: x * (1.0 - x), [0.5], [1.0], spec2, contour=far)


@pytest.mark.parametrize("call, outcome", [
    (lambda c, tt: simplex_terms(c, tt, 0.0, 1.5, 1.0, SeriesSpec()), DomainError),
    (lambda c, tt: abs_log_derivative_integral(c, 0.4, 0.4), 0.0),
], ids=["b-past-1", "empty-interval"])
def test_interval_edge_cases(parabolic, call, outcome):
    if outcome is DomainError:
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            call(*parabolic)
    else:
        assert call(*parabolic) == outcome
