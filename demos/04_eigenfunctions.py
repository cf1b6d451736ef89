"""Explicit eigenfunctions against the grid eigensolver.

X_m(x) = sigma(x)^(-1/2) sum_{n<=N} S_n(0, x; kappa_m), normalized to unit
L^2 norm with positive slope at x = 0.  For the parabolic benchmark the
order-0 sum is already close; the rational coefficient needs order 1 to
overlay the grid reference.
"""

import numpy as np

from varheat import SeriesSpec, build_travel_time, make_conductivity
from varheat.oracles import fd_eigenvector
from varheat.spectrum import eigenfunction, find_eigenvalues
from varheat.svg import LineSeries, write_line_plot

xs = np.linspace(0.0, 1.0, 301)

for name in ("parabolic24", "rational9000"):
    c = make_conductivity(name)
    tt = build_travel_time(c)
    series = []
    gx, gv = fd_eigenvector(c, 1, 1024)
    print(f"\n{name}: sup gap to grid eigenvector, mode 1")
    for N in (0, 1):
        spec = SeriesSpec(truncation_N=N)
        pair = find_eigenvalues(c, tt, spec, 1)[0]
        ef = eigenfunction(c, tt, pair, spec)
        vals = ef(xs)
        gap = np.max(np.abs(vals - np.interp(xs, gx, gv)))
        print(f"  N={N}: {gap:.3e}")
        series.append(LineSeries(xs, vals, f"m=1, N={N}"))
    series.append(LineSeries(gx[::4], gv[::4], "grid reference", dashed=True))
    out = f"demo04_{name}.svg"
    write_line_plot(out, series, title=f"first eigenfunction, {name}",
                    xlabel="x", ylabel="X_1")
    print(f"wrote {out}")
