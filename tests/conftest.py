import math

import numpy as np
import pytest
from hypothesis import strategies as st

from varheat import SeriesSpec, build_travel_time, make_conductivity

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
    return SeriesSpec(truncation_N=2, quad_order=32)


@pytest.fixture(scope="session")
def spec3():
    return SeriesSpec(truncation_N=3, quad_order=32)


def quadratic(x):
    return x * (1.0 - x)


def sine(x):
    return np.sin(np.pi * x)


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
