"""Panel grids: the rule that cuts them and the per-profile table
(``TravelTimeMap.grids``) that keeps them.

The breakpoints of a grid are 0, 1, the knots of a tabulated profile and
the requested points; each gap g between them is cut into ceil(g count)
equal panels.  Every consumer of the prefix recursion takes its panel grids
from the table of its travel-time map: Delta_N and its roots, the
eigenfunctions and the solve.  Sharing must not change a single bit, must
build each grid once and must keep the table bounded.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varheat import SeriesSpec, build_travel_time, make_conductivity, simplex, spectrum, transform
from varheat.errors import DomainError, RootMissed
from varheat.spectrum import eigenfunction, find_eigenvalues
from varheat.transform import solve_grid

from conftest import exp_sine_profile, quadratic

SPEC = SeriesSpec(truncation_N=2)
XS = np.linspace(0.0, 1.0, 101)
FIGURE2_XS = np.linspace(0.0, 1.0, 21)
FIGURE2_TS = (0.25, 1.0, 4.0)


def _profiles():
    # the two closed forms and a 33-knot table like the benchmark's
    return [make_conductivity("parabolic24"), make_conductivity("rational9000"),
            exp_sine_profile(33, (0.2, -0.1, 0.05), (0.3, 1.9, 4.0))]


def _figure2(c, tt):
    res = solve_grid(c, tt, quadratic, FIGURE2_XS, FIGURE2_TS, SPEC, all_orders=True)
    return np.array([[[s.value for s in res[t][n]] for n in res[t]] for t in FIGURE2_TS])


def _modes(c, tt, pairs):
    """Values at XS, indexed by mode, in the order of ``pairs``."""
    return {pair.m: eigenfunction(c, tt, pair, SPEC)(XS) for pair in pairs}


def _counting_builds(monkeypatch):
    built = []
    plain = simplex._panels

    def counting(c, tt, edges):
        built.append(edges)
        return plain(c, tt, edges)

    monkeypatch.setattr(simplex, "_panels", counting)
    return built


def _built_edges(c, tt, count, points=()):
    """The edges that a fresh table builds for :func:`simplex._grid`."""
    tt.grids.clear()
    with pytest.MonkeyPatch.context() as patch:
        built = _counting_builds(patch)
        panels, at = simplex._grid(c, tt, count, points)
    assert len(built) == 1 and panels.pts.shape[0] == built[0].size - 1
    return built[0], at


PARABOLIC = make_conductivity("parabolic24")
PARABOLIC_TT = build_travel_time(PARABOLIC)


@settings(max_examples=60, deadline=None)
@given(knots=st.lists(st.floats(0.0, 1.0), max_size=12),
       points=st.lists(st.floats(0.0, 1.0), max_size=12),
       count=st.sampled_from([2**p for p in range(4, 10)]))
def test_grid_rule_cuts_every_gap_into_the_fewest_panels(knots, points, count):
    # the rule reads only the knots of the profile, so a smooth profile
    # carries the drawn ones; its sigma, and so its tau, is unchanged, so
    # the parabolic map is recorded for it (building one fails on panels
    # of subnormal width)
    c = dataclasses.replace(PARABOLIC, knots=np.array(knots))
    tt = dataclasses.replace(PARABOLIC_TT)
    object.__setattr__(tt, "c", c)
    edges, at = _built_edges(c, tt, count, points)
    breaks = np.unique(np.concatenate([[0.0, 1.0], knots, points]))
    assert edges[0] == 0.0 and edges[-1] == 1.0 and np.all(np.diff(edges) > 0.0)
    assert np.all(np.isin(breaks, edges)) and np.array_equal(edges[at], points)
    assert np.max(np.diff(edges)) <= (1.0 + 1e-12) / count
    assert edges.size - 1 == np.ceil(np.diff(breaks) * count).sum()
    assert edges.size <= np.union1d(np.linspace(0.0, 1.0, count + 1), breaks).size


def test_points_outside_the_unit_interval_raise():
    # the solve and simplex_terms check their points first; the table
    # refuses them too, NaN included, before anything is built
    for bad in ([1.2], [-0.1], [0.5, np.nan]):
        with pytest.raises(DomainError, match="series points"):
            simplex._grid(PARABOLIC, PARABOLIC_TT, 16, bad)


def test_plain_grids_keep_their_edges():
    # without points: the uniform panels of the closed forms, and on the
    # benchmark's 33-knot table the union with its knots, to the bit
    table = _profiles()[2]
    table_tt, knots = build_travel_time(table), table.knots
    for count in [2**p for p in range(4, 13)]:
        uniform = np.linspace(0.0, 1.0, count + 1)
        edges, _ = _built_edges(PARABOLIC, PARABOLIC_TT, count)
        assert edges.tobytes() == uniform.tobytes()
        edges, _ = _built_edges(table, table_tt, count)
        assert edges.tobytes() == np.union1d(uniform, knots).tobytes()


def test_points_cut_the_grid_instead_of_adding_to_it():
    # the figure-2 x (step 0.05) share 5 edges with 16 uniform panels: the
    # union made 32 panels, the rule 20; at 101 x the union made 112 and 128
    assert _built_edges(PARABOLIC, PARABOLIC_TT, 16, FIGURE2_XS)[0].size - 1 == 20
    for count in (16, 32):
        assert _built_edges(PARABOLIC, PARABOLIC_TT, count, XS)[0].size - 1 == 100


def test_lookups_build_nothing_twice(monkeypatch):
    # a repeated _grid or _grid_groups call is a table hit: no edges, no panels
    c = _profiles()[2]
    tt = build_travel_time(c)
    built = []

    def counting(name):
        plain = getattr(simplex, name)

        def count(*args):
            built.append(name)
            return plain(*args)
        return count

    for name in ("_edges", "_panels"):
        monkeypatch.setattr(simplex, name, counting(name))
    counts = simplex._panel_count(np.linspace(0.5, 40.0, 50), tt.total)
    for points in ((), FIGURE2_XS):
        simplex._grid(c, tt, 16, points)
        groups = [group for _, _, group in simplex._grid_groups(c, tt, counts, points)]
        assert built and len(groups) == 2  # 16 and 32 panels share the knots' grid
        built.clear()
        simplex._grid(c, tt, 16, points)
        simplex._grid(c, tt, 32, points)
        again = [group for _, _, group in simplex._grid_groups(c, tt, counts, points)]
        assert built == [] and all(map(np.array_equal, again, groups))


def _irregular_table():
    rng = np.random.default_rng(2)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, 13)), [1.0]])
    return make_conductivity("tabulated", x=x, sigma_sq=0.1 * np.exp(0.3 * np.sin(3.0 * np.pi * x)))


@pytest.mark.parametrize("profile", range(4))
def test_solves_beside_uniform_edges_match_eight_times_the_panels(profile, monkeypatch):
    # x drawn at random and within 1e-13..1e-6 of the uniform edges of 16
    # panels, where the rule cuts a gap just over 1/16 into two panels; the
    # largest gap to 8x the panels on the four profiles was 2.2e-16
    c = (_profiles() + [_irregular_table()])[profile]
    rng = np.random.default_rng(profile)
    beside = rng.integers(1, 16, 4) / 16 + rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-13, -6, 4)
    xs = np.concatenate([rng.uniform(0.0, 1.0, 6), beside])
    ts = [0.01, 0.25, 1.0, 4.0]

    def values(spec):
        res = solve_grid(c, build_travel_time(c), quadratic, xs, ts, spec)
        return np.array([[s.value for s in res[t]] for t in ts])

    got = [values(SeriesSpec(truncation_N=N)) for N in (2, 4)]
    rule = simplex._panel_count
    monkeypatch.setattr(transform, "_panel_count", lambda k, total: 8 * rule(k, total))
    for N, vals in zip((2, 4), got):
        assert np.max(np.abs(vals - values(SeriesSpec(truncation_N=N)))) <= 1e-12


@pytest.mark.parametrize("profile", range(3))
def test_warm_table_is_bitwise_fresh(profile):
    # a table warmed by roots, eigenfunctions at other x and a solve gives
    # the same bits as a fresh one, and mode order does not matter
    c = _profiles()[profile]
    fresh = build_travel_time(c)
    pairs = find_eigenvalues(c, fresh, SPEC, 30)
    modes = _modes(c, fresh, pairs[:8])
    figure2 = _figure2(c, build_travel_time(c))

    warm = build_travel_time(c)
    _modes(c, warm, find_eigenvalues(c, warm, SPEC, 12)[::3])
    eigenfunction(c, warm, pairs[0], SPEC)(np.linspace(0.05, 0.95, 7))
    assert np.array_equal(_figure2(c, warm), figure2)
    again = find_eigenvalues(c, warm, SPEC, 30)
    assert [p.kappa for p in again] == [p.kappa for p in pairs]
    for got in (_modes(c, warm, again[7::-1]), _modes(c, build_travel_time(c), pairs[7::-1])):
        for m, vals in modes.items():
            assert np.array_equal(got[m], vals), m


@pytest.mark.parametrize("profile", range(3))
def test_modes_build_at_most_one_grid_per_count(profile, monkeypatch):
    # the norm and the values come from the grid that the x cut, so a fresh
    # table builds no plain grid for the modes
    c = _profiles()[profile]
    tt = build_travel_time(c)
    pairs = find_eigenvalues(c, tt, SPEC, 8)
    counts = {int(spectrum._panel_count(p.kappa, tt.total)) for p in pairs}
    built = _counting_builds(monkeypatch)
    fresh = build_travel_time(c)
    for pair in pairs:
        eigenfunction(c, fresh, pair, SPEC)(XS)
    assert 0 < len(built) <= len(counts)
    assert all(XS.size <= edges.size for edges in built)
    # the roots' plain grids in the table are not used: only merged ones are new
    built.clear()
    for pair in pairs:
        eigenfunction(c, tt, pair, SPEC)(XS)
    assert 0 < len(built) <= len(counts)
    assert all(XS.size <= edges.size for edges in built)


def test_table_knots_make_one_recursion_call_per_grid_in_each_delta_call(monkeypatch):
    # On a 33-knot table the knots hold the edges of 16 and 32 uniform
    # panels, so the wavenumbers below 64 panels share one grid; the samples
    # of the proxy reach 64 panels, and each Delta_N call makes one
    # recursion call per grid its wavenumbers need
    c = _profiles()[2]
    tt = build_travel_time(c)
    recursions, evaluations = [], []
    plain_series, plain_delta = transform._prefix_series, spectrum.delta_values

    def counting_series(panels, k, N, *args, **kwargs):
        recursions.append((panels.pts.shape[0], np.size(k)))
        return plain_series(panels, k, N, *args, **kwargs)

    def counting_delta(c, tt, ks, spec):
        evaluations.append(np.asarray(ks))
        return plain_delta(c, tt, ks, spec)

    monkeypatch.setattr(transform, "_prefix_series", counting_series)
    monkeypatch.setattr(spectrum, "delta_values", counting_delta)
    assert len(find_eigenvalues(c, tt, SPEC, 30)) == 30
    expected = []
    for ks in evaluations:
        counts = simplex._panel_count(ks, tt.total)
        for panels, _, group in simplex._grid_groups(c, tt, counts):
            expected.append((panels.pts.shape[0], np.count_nonzero(group)))
    assert recursions == expected
    assert [panels for panels, _ in recursions] == [32, 64, 32, 32]


def test_positive_delta_raises_root_missed(monkeypatch):
    # |Delta_N| < 1 on parabolic24, so Delta_N + 2 has no root for the proxy to find
    c = make_conductivity("parabolic24")
    tt = build_travel_time(c)
    plain = spectrum.delta_values
    monkeypatch.setattr(spectrum, "delta_values",
                        lambda c, tt, ks, spec: plain(c, tt, ks, spec) + 2.0)
    with pytest.raises(RootMissed, match="found 0 roots"):
        find_eigenvalues(c, tt, SPEC, 30)


def test_solves_at_many_x_sets_keep_the_table_bounded():
    # one plain grid per count, and beside it only the latest grid with points
    c = make_conductivity("parabolic24")
    tt = build_travel_time(c)
    find_eigenvalues(c, tt, SPEC, 30)
    rng = np.random.default_rng(3)
    sizes = []
    for _ in range(20):
        xs = np.sort(rng.uniform(0.0, 1.0, 9))
        solve_grid(c, tt, quadratic, xs, [0.01, 1.0], SPEC)
        eigenfunction(c, tt, find_eigenvalues(c, tt, SPEC, 1)[0], SPEC)(xs[::2])
        sizes.append(len(tt.grids))
    counts = {count for count, _ in tt.grids}
    assert len(set(sizes)) == 1 and sizes[0] <= 2 * len(counts)


def test_another_profile_on_the_same_map_raises():
    # tau of one profile with sigma of another gave silently wrong numbers (a
    # figure-2 value of 0.08678 for 0.09191, kappa_1 = 0.9425 for 1.0003);
    # the map records its profile, so every series call checks the pair (an
    # eigenfunction when it is evaluated)
    first = make_conductivity("parabolic24")
    tt = build_travel_time(first)
    ks = np.linspace(0.5, 30.0, 40)
    warm = transform.delta_values(first, tt, ks, SPEC)
    pair = find_eigenvalues(first, tt, SPEC, 1)[0]
    for other in (make_conductivity("rational9000"), make_conductivity("parabolic24")):
        for call in (lambda: transform.delta_values(other, tt, ks, SPEC),
                     lambda: solve_grid(other, tt, quadratic, FIGURE2_XS, FIGURE2_TS, SPEC),
                     lambda: find_eigenvalues(other, tt, SPEC, 1),
                     lambda: eigenfunction(other, tt, pair, SPEC)(FIGURE2_XS)):
            with pytest.raises(DomainError, match="another profile"):
                call()
    assert np.array_equal(transform.delta_values(first, tt, ks, SPEC), warm)
