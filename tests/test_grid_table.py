"""The per-profile table of panel grids (``TravelTimeMap.grids``).

Every consumer of the prefix recursion takes its panel grids from the
table of its travel-time map: Delta_N and its roots, the eigenfunctions and
the solve.  Sharing must not change a single bit, must build each grid once
and must keep the table bounded.
"""

import numpy as np
import pytest

from varheat import SeriesSpec, build_travel_time, make_conductivity, simplex, spectrum, transform
from varheat.errors import RootMissed
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
    """Normalizations and values at XS, indexed by mode, in the order of ``pairs``."""
    out = {}
    for pair in pairs:
        ef = eigenfunction(c, tt, pair, SPEC)
        out[pair.m] = (ef.normalization, ef(XS))
    return out


def _counting_builds(monkeypatch):
    built = []
    plain = simplex._panels

    def counting(c, tt, edges):
        built.append(edges)
        return plain(c, tt, edges)

    monkeypatch.setattr(simplex, "_panels", counting)
    return built


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
        for m, (scale, vals) in modes.items():
            assert got[m][0] == scale and np.array_equal(got[m][1], vals), m


@pytest.mark.parametrize("profile", range(3))
def test_modes_build_one_plain_and_one_merged_grid_per_count(profile, monkeypatch):
    c = _profiles()[profile]
    tt = build_travel_time(c)
    pairs = find_eigenvalues(c, tt, SPEC, 8)
    counts = {int(spectrum._panel_count(p.kappa, tt.total)) for p in pairs}
    built = _counting_builds(monkeypatch)
    fresh = build_travel_time(c)
    for pair in pairs:
        eigenfunction(c, fresh, pair, SPEC)(XS)
    assert 0 < len(built) <= 2 * len(counts)
    # the roots left the plain grids in their table: only merged ones are new
    built.clear()
    for pair in pairs:
        eigenfunction(c, tt, pair, SPEC)(XS)
    assert 0 < len(built) <= len(counts)
    assert all(XS.size <= edges.size for edges in built)


def test_table_knots_make_one_grid_and_one_recursion_call_per_iteration(monkeypatch):
    # On a 33-knot table the knots hold the edges of 16 and 32 uniform
    # panels, so every Delta_N call below 64 panels is one recursion call
    c = _profiles()[2]
    tt = build_travel_time(c)
    recursions, evaluations = [], []
    plain_series, plain_evaluator = transform._prefix_series, spectrum._delta_evaluator

    def counting_series(panels, k, N, *args, **kwargs):
        recursions.append((panels.pts.shape[0], np.size(k)))
        return plain_series(panels, k, N, *args, **kwargs)

    def counting_evaluator(*args):
        delta = plain_evaluator(*args)

        def counting(ks):
            evaluations.append(np.asarray(ks))
            return delta(ks)

        return counting

    monkeypatch.setattr(transform, "_prefix_series", counting_series)
    monkeypatch.setattr(spectrum, "_delta_evaluator", counting_evaluator)
    assert len(find_eigenvalues(c, tt, SPEC, 30)) == 30
    assert len(recursions) == len(evaluations)
    assert {panels for panels, _ in recursions} == {32}
    # the scan stops at the 30th sign change: one call on the shared grid,
    # none on the 64-panel grid; then all 30 brackets in each iteration
    scan, first_iteration = evaluations[:2]
    assert recursions[0] == (32, scan.size) and first_iteration.size == 30
    assert all(simplex._panel_count(ks, tt.total).max() <= 32 for ks in evaluations)


def test_scan_evaluates_all_grids_before_root_missed(monkeypatch):
    # with too few sign changes the scan reaches the ceiling on every grid
    c = make_conductivity("parabolic24")
    tt = build_travel_time(c)
    scanned = []
    plain = spectrum._delta_evaluator

    def positive(*args):
        delta = plain(*args)

        def evaluate(ks):
            scanned.append(np.asarray(ks))
            return np.abs(delta(ks)) + 1.0

        return evaluate

    monkeypatch.setattr(spectrum, "_delta_evaluator", positive)
    with pytest.raises(RootMissed, match="found 0 sign changes"):
        find_eigenvalues(c, tt, SPEC, 30)
    ceiling = 33 * np.pi / tt.total
    assert len(scanned) == 3  # 16, 32 and 64 panels
    assert np.concatenate(scanned).max() > ceiling - np.pi / (4.0 * tt.total)


def test_solves_at_many_x_sets_keep_the_table_bounded():
    # one plain grid per edge set, and beside it only the latest merged grid
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
    edge_sets = {plain_edges for plain_edges, _ in tt.grids}
    assert len(set(sizes)) == 1 and sizes[0] <= 2 * len(edge_sets)
    assert all(held[0] is c for held in tt.grids.values())


def test_another_profile_on_the_same_map_rebuilds():
    # entries hold the conductivity they were built for, so a map warmed by
    # one profile gives another profile its own grids
    first, second = make_conductivity("parabolic24"), make_conductivity("rational9000")
    ks = np.linspace(0.5, 30.0, 40)
    warm = build_travel_time(first)
    transform.delta_values(first, warm, ks, SPEC)
    fresh = transform.delta_values(second, build_travel_time(first), ks, SPEC)
    assert np.array_equal(transform.delta_values(second, warm, ks, SPEC), fresh)
    assert all(held[0] is second for held in warm.grids.values())
