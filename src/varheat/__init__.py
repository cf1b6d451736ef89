"""varheat: heat equation with variable conductivity via contour integrals.

Solves q_t = (sigma^2(x) q_x)_x on [0, 1] with homogeneous Dirichlet data
through an explicit contour-integral representation built from ordered-simplex
integrals of sigma'/sigma, computes the associated Sturm-Liouville spectrum as
roots of the characteristic function, and ships independent finite-difference,
Fourier, and discrete-interface reference models for validation.
"""

from .coefficients import (
    Conductivity,
    TravelTimeMap,
    build_travel_time,
    load_sigma_table,
    log_derivative,
    make_conductivity,
)
from .simplex import SeriesSpec, simplex_terms

__version__ = "0.1.0"

__all__ = [
    "Conductivity",
    "TravelTimeMap",
    "make_conductivity",
    "log_derivative",
    "build_travel_time",
    "load_sigma_table",
    "SeriesSpec",
    "simplex_terms",
    "__version__",
]
