"""The piecewise-constant interface model and its continuum limit.

Freezing sigma on N cells turns the PDE into N coupled constant-coefficient
problems; transforms of each cell give a 2N x 2N system A(k) X = Y.  The
scaled determinant (i/2) det A / prod(Lambda_p^+) equals a signed sum over
binary entry vectors exactly, and as the partition refines it converges to
the continuum characteristic function at first order in the cell width.
Cramer's rule recovers the solution at an interface from the same data, and
that solution tends to the variable-coefficient one at second order.
"""

import math

import numpy as np

from varheat import SeriesSpec, build_travel_time, make_conductivity
from varheat.oracles import (
    dn_bruteforce,
    dn_det,
    dn_switchform,
    interface_solution,
    uniform_partition,
)
from varheat.transform import delta_values

c = make_conductivity("parabolic24")
tt = build_travel_time(c)

# determinant identity on a small partition
part = uniform_partition(c, 8)
k = 1.3 + 0.4j
print("determinant identity, N=8, k=1.3+0.4j:")
print(f"  (i/2) det A / prod Lambda+ = {dn_det(part, k):.12f}")
print(f"  entry-vector sum           = {dn_bruteforce(part, k):.12f}")

# convergence of the discrete model to the characteristic function
spec3 = SeriesSpec(truncation_N=3)
print("\n|D_N(k) - Delta_3(k)| under refinement (3-switch truncation):")
for k in (0.5, 2.0):
    ref = float(delta_values(c, tt, np.array([k]), spec3)[0])
    errs = [abs(dn_switchform(uniform_partition(c, n), k, 3) - ref)
            for n in (250, 500, 1000, 2000)]
    orders = [math.log(a / b) / math.log(2) for a, b in zip(errs, errs[1:])]
    print(f"  k={k}: " + "  ".join(f"{e:.2e}" for e in errs)
          + "   orders " + ", ".join(f"{o:.2f}" for o in orders))

# interface solution vs the exact benchmark: the paper's limit.  A(k) is
# banded, so each contour node costs one O(N) band solve and the model runs
# at a thousand cells; its error falls 4x per halving of the cell width.
exact = 0.25 * math.exp(-1.0)
print(f"\ninterface solution at x=0.5, t=1 against exact {exact:.10f}:")
print("   cells   q_N(0.5, 1)      error      ratio")
prev = None
for n in (64, 128, 256, 512, 1024):
    val = interface_solution(uniform_partition(c, n), lambda y: y * (1.0 - y), n // 2, 1.0)
    err = abs(val - exact)
    ratio = f"{prev / err:8.3f}" if prev else ""
    print(f"  {n:6d}   {val:.10f}   {err:.3e}   {ratio}")
    prev = err
