import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from varheat import SeriesSpec, build_travel_time, make_conductivity, simplex
from varheat.oracles import InterfacePartition

# Closed form 2*sqrt(6)*asin(1/sqrt(3)), confirmed by adaptive quadrature.
PARABOLIC_TAU_TOTAL = 3.015222466558585


@pytest.fixture(scope="session")
def parabolic():
    c = make_conductivity("parabolic24")
    return c, build_travel_time(c)


@pytest.fixture(scope="session")
def const1():
    c = make_conductivity("constant", c=1.0)
    return c, build_travel_time(c)


@pytest.fixture(scope="session")
def const2():
    c = make_conductivity("constant", c=2.0)
    return c, build_travel_time(c)


@pytest.fixture(scope="session")
def rational():
    c = make_conductivity("rational9000")
    return c, build_travel_time(c)


@pytest.fixture(scope="session")
def spec2():
    return SeriesSpec(truncation_N=2)


@pytest.fixture(scope="session")
def spec3():
    return SeriesSpec(truncation_N=3)


@functools.lru_cache(maxsize=None)
def parabolic_exact_kappas(count):
    """The first ``count`` roots kappa_m of parabolic24, exact to double precision.

    With z = (2x - 1)/sqrt(3) the operator (sigma^2 y')' becomes
    (1/6) d/dz((1 - z^2) y_z) on |z| <= 1/sqrt(3), a Legendre equation, so
    kappa^2 = nu(nu + 1)/6, where nu is a root of 2F1(-nu/2, (nu+1)/2; 1/2; 1/3)
    for odd m (eigenfunctions even in z) and of
    2F1((1-nu)/2, (nu+2)/2; 3/2; 1/3) for even m (odd in z).  Each root is
    solved at 30 digits from nu(nu + 1) = 6 (m pi / tau(1))^2.
    """
    with mpmath.workdps(30):
        total = 2 * mpmath.sqrt(6) * mpmath.asin(1 / mpmath.sqrt(3))
        third = mpmath.mpf(1) / 3
        kappas = []
        for m in range(1, count + 1):
            if m % 2:
                def f(nu):
                    return mpmath.hyp2f1(-nu / 2, (nu + 1) / 2, mpmath.mpf(1) / 2, third)
            else:
                def f(nu):
                    return mpmath.hyp2f1((1 - nu) / 2, (nu + 2) / 2, mpmath.mpf(3) / 2, third)
            start = m * mpmath.pi / total
            nu = mpmath.findroot(f, (mpmath.sqrt(1 + 24 * start**2) - 1) / 2)
            kappas.append(float(mpmath.sqrt(nu * (nu + 1) / 6)))
    return np.array(kappas)


def quadratic(x):
    return x * (1.0 - x)


def sine(x):
    return np.sin(np.pi * x)


def stacked_series(panels, k, N, *args, nodes=True):
    """The orders that ``simplex._prefix_series`` yields, stacked on a leading
    axis: (nodes, edges) of shapes (N + 1, P, q, K) and (N + 1, P + 1, K), or
    the edges alone with ``nodes`` false."""
    pairs = list(simplex._prefix_series(panels, k, N, *args, nodes=nodes))
    edges = np.array([e for _, e in pairs])
    return (np.array([n for n, _ in pairs]), edges) if nodes else edges


def exp_sine_profile(knots, amp, phase):
    """Tabulated sigma^2 = 0.1 exp(sum_j amp_j sin(j pi x + phase_j)) on
    ``knots`` equispaced knots, the benchmark's random profile family."""
    x = np.linspace(0.0, 1.0, knots)
    j = np.arange(1, len(amp) + 1)
    log_s2 = (np.array(amp)[:, None]
              * np.sin(j[:, None] * np.pi * x + np.array(phase)[:, None])).sum(axis=0)
    return make_conductivity("tabulated", x=x, sigma_sq=0.1 * np.exp(log_s2))


# Positive profiles: exp-sine tables (|amp_j| <= 0.25/j) with any knot
# count, and constants.
profiles = st.one_of(
    st.builds(lambda c: make_conductivity("constant", c=c), st.floats(0.2, 3.0)),
    st.builds(
        exp_sine_profile,
        st.integers(4, 80),
        st.tuples(*(st.floats(-0.25 / j, 0.25 / j) for j in (1, 2, 3))),
        st.tuples(*(st.floats(0.0, 2.0 * math.pi) for _ in range(3))),
    ),
)


def _weighted_partition(weights, sigmas):
    # Widths proportional to weights in [1, 100]: with at most 10 cells each
    # width is at least 1/901 > 1e-3.
    cuts = np.cumsum(weights)[:-1] / np.sum(weights)
    nodes = np.concatenate([[0.0], cuts, [1.0]])
    return InterfacePartition(nodes=nodes, sigmas=np.array(sigmas), sigma0=sigmas[0])


# The family `verify determinant` draws: 1-10 cells of width >= 1e-3 with
# sigma in [0.25, 2.5], paired with |k| >= 0.05, Re k in [-6, 6],
# Im k in [-2, 2].
partitions = st.integers(1, 10).flatmap(lambda n: st.builds(
    _weighted_partition,
    st.lists(st.floats(1.0, 100.0), min_size=n, max_size=n),
    st.lists(st.floats(0.25, 2.5), min_size=n, max_size=n),
))
wavenumbers = st.builds(complex, st.floats(-6.0, 6.0), st.floats(-2.0, 2.0)).filter(
    lambda k: abs(k) >= 0.05)
