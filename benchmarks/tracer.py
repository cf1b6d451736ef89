"""Outside-in tracer for the varheat layers.

The tracer edits nothing inside the package.  It replaces the public
functions of each layer module with timing wrappers: the module attribute,
every name another varheat module bound to the same function with
``from .x import y`` (``spectrum.delta_values``, ``transform.build_term_tables``,
...), and the methods on the classes that carry the sweeps.  Spans
(name, start, end, parent, counts) stay in memory; ``write`` saves them once
at the end of a run.  Counts come from the shapes of arguments and return
values, so they repeat exactly between runs.

Layers are the package modules ``coefficients``, ``simplex``, ``transform``,
``spectrum`` and ``oracles``; the front ends (``config``, ``cli``, ``svg``,
``verify``) only re-compose these calls and are not timed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

ORACLE_FUNCTIONS = ("fd_eigenvalues", "crank_nicolson", "interface_solution",
                    "dn_det", "dn_bruteforce", "dn_switchform")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    counts: dict


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._restore = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._open.pop()
                counts = count(args, result) if count is not None and result is not None else {}
                self.spans[index] = Span(name, start, end, parent, counts)

        return traced

    def _patch(self, owner, attr, name, count):
        original = owner.__dict__[attr]
        traced = self._wrap(name, original, count)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [mod for key, mod in list(sys.modules.items())
                       if key == "varheat" or key.startswith("varheat.")]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, key, value))
                    setattr(holder, key, traced)

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        try:
            for owner, attr, name, count in _layer_targets():
                self._patch(owner, attr, name, count)
            yield self
        finally:
            while self._restore:
                holder, key, value = self._restore.pop()
                setattr(holder, key, value)

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": [asdict(s) for s in self.spans]}, handle)
            handle.write("\n")


# ---------------------------------------------------------------------------
# Counts derived from arguments and results
# ---------------------------------------------------------------------------


def _sweep_size(args):
    table, k = args[0], args[1]
    if not table.weights.any():  # the sweep returns zeros without evaluating
        return 0, k
    m, j = table.phases.shape
    return m * j * np.atleast_1d(np.asarray(k)).size, k


def _count_plain(args, result):
    # sin(P[:, :, None] * k): the product and the sine are (M, J, K) arrays.
    elems, k = _sweep_size(args)
    itemsize = 16 if np.iscomplexobj(k) else 8
    return {"sin_evals": elems, "sweep_bytes": 2 * itemsize * elems}


def _count_regularized(args, result):
    # Two complex (M, J, K) products, their two exponentials and the difference.
    elems, _ = _sweep_size(args)
    return {"exp_evals": 2 * elems, "sweep_bytes": 5 * 16 * elems}


def _count_tuples(args, result):
    return {"tuples": sum(int(tab.weights.size) for tab in result)}


def _count_nodes(args, result):
    return {"nodes": int(result[0].size)}


def _count_roots(args, result):
    return {"roots": len(result)}


def _layer_targets():
    from varheat import coefficients, oracles, simplex, spectrum, transform

    return [
        (coefficients, "make_conductivity", "coefficients.make_conductivity", None),
        (coefficients, "build_travel_time", "coefficients.build_travel_time", None),
        (simplex.TermTable, "eval_plain", "simplex.eval_plain", _count_plain),
        (simplex.TermTable, "eval_regularized", "simplex.eval_regularized", _count_regularized),
        (simplex, "build_term_tables", "simplex.build_term_tables", _count_tuples),
        (transform, "solve_grid", "transform.solve_grid", None),
        (transform.Contour, "nodes", "transform.contour", _count_nodes),
        (transform, "delta_values", "transform.delta_values", None),
        (spectrum, "find_eigenvalues", "spectrum.find_eigenvalues", _count_roots),
        (spectrum, "eigenfunction", "spectrum.eigenfunction", None),
        (spectrum.Eigenfunction, "__call__", "spectrum.eigfun_eval", None),
    ] + [(oracles, f, f"oracles.{f}", None) for f in ORACLE_FUNCTIONS]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "coefficients.make_conductivity.s": "s",
    "coefficients.build_travel_time.s": "s",
    "simplex.eval_plain.calls": "count",
    "simplex.eval_plain.self_s": "s",
    "simplex.eval_plain.sin_evals": "count",
    "simplex.eval_regularized.calls": "count",
    "simplex.eval_regularized.self_s": "s",
    "simplex.eval_regularized.exp_evals": "count",
    "simplex.sweep_bytes": "B",
    "simplex.sweep_share": "1",
    "simplex.build_term_tables.calls": "count",
    "simplex.build_term_tables.self_s": "s",
    "simplex.build_term_tables.tuples": "count",
    "simplex.build_term_tables.share": "1",
    "transform.solve_grid.self_s": "s",
    "transform.contour.nodes": "count",
    "transform.contour.builds_per_solve": "count",
    "transform.delta_values.calls": "count",
    "transform.delta_values.self_s": "s",
    "spectrum.find_eigenvalues.self_s": "s",
    "spectrum.delta_calls_per_root": "count",
    "spectrum.eigenfunction.self_s": "s",
    "spectrum.eigfun_eval.self_s": "s",
    **{f"oracles.{f}.self_s": "s" for f in ORACLE_FUNCTIONS},
    "traced_pass_s": "s",
    "trace_overhead_s": "s",
}


def layer_totals(spans, part):
    """Per span name over ``spans[part]``: calls, self seconds, summed counts.

    Self time is a span's duration minus that of its direct children; calls
    run on one thread, so children never overlap.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    out = {}
    for i in range(len(spans))[part]:
        span = spans[i]
        agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += span.end - span.start
        agg["self_s"] += span.end - span.start - child_s[i]
        for key, value in span.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out


def calls_under(spans, part, name, ancestor):
    """Spans in ``spans[part]`` called ``name`` with an ``ancestor`` span above."""
    hits = 0
    for span in spans[part]:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != ancestor:
            parent = spans[parent].parent
        hits += parent >= 0
    return hits


def layer_metrics(spans, setup_count, passes, traced_pass_s, overhead_s):
    """Per-layer metrics for the set-up once plus one average traced pass.

    ``spans[:setup_count]`` cover the set-up, the rest ``passes`` passes.

    Every ratio names its base: ``*.share`` is self time over
    ``traced_pass_s``, ``builds_per_solve`` is contour builds over
    ``solve_grid`` plus ``interface_solution`` calls, ``delta_calls_per_root``
    is ``delta_values`` calls inside ``find_eigenvalues`` over roots found.
    """
    setup_part, pass_part = slice(0, setup_count), slice(setup_count, None)
    setup = layer_totals(spans, setup_part)
    per_pass = layer_totals(spans, pass_part)

    def get(name, key):
        return (setup.get(name, {}).get(key, 0)
                + per_pass.get(name, {}).get(key, 0) / passes)

    def share(*names):
        busy = sum(per_pass.get(n, {}).get("self_s", 0.0) for n in names) / passes
        return busy / traced_pass_s

    solves = get("transform.solve_grid", "calls") + get("oracles.interface_solution", "calls")
    roots = get("spectrum.find_eigenvalues", "roots")
    delta_in_find = sum(
        calls_under(spans, part, "transform.delta_values", "spectrum.find_eigenvalues") / scale
        for part, scale in ((setup_part, 1), (pass_part, passes)))
    out = {
        "coefficients.make_conductivity.s": get("coefficients.make_conductivity", "total_s"),
        "coefficients.build_travel_time.s": get("coefficients.build_travel_time", "total_s"),
        "simplex.eval_plain.calls": get("simplex.eval_plain", "calls"),
        "simplex.eval_plain.self_s": get("simplex.eval_plain", "self_s"),
        "simplex.eval_plain.sin_evals": get("simplex.eval_plain", "sin_evals"),
        "simplex.eval_regularized.calls": get("simplex.eval_regularized", "calls"),
        "simplex.eval_regularized.self_s": get("simplex.eval_regularized", "self_s"),
        "simplex.eval_regularized.exp_evals": get("simplex.eval_regularized", "exp_evals"),
        "simplex.sweep_bytes": (get("simplex.eval_plain", "sweep_bytes")
                                + get("simplex.eval_regularized", "sweep_bytes")),
        "simplex.sweep_share": share("simplex.eval_plain", "simplex.eval_regularized"),
        "simplex.build_term_tables.calls": get("simplex.build_term_tables", "calls"),
        "simplex.build_term_tables.self_s": get("simplex.build_term_tables", "self_s"),
        "simplex.build_term_tables.tuples": get("simplex.build_term_tables", "tuples"),
        "simplex.build_term_tables.share": share("simplex.build_term_tables"),
        "transform.solve_grid.self_s": get("transform.solve_grid", "self_s"),
        "transform.contour.nodes": get("transform.contour", "nodes"),
        "transform.contour.builds_per_solve":
            get("transform.contour", "calls") / solves if solves else 0.0,
        "transform.delta_values.calls": get("transform.delta_values", "calls"),
        "transform.delta_values.self_s": get("transform.delta_values", "self_s"),
        "spectrum.find_eigenvalues.self_s": get("spectrum.find_eigenvalues", "self_s"),
        "spectrum.delta_calls_per_root": delta_in_find / roots if roots else 0.0,
        "spectrum.eigenfunction.self_s": get("spectrum.eigenfunction", "self_s"),
        "spectrum.eigfun_eval.self_s": get("spectrum.eigfun_eval", "self_s"),
        **{f"oracles.{f}.self_s": get(f"oracles.{f}", "self_s") for f in ORACLE_FUNCTIONS},
        "traced_pass_s": traced_pass_s,
        "trace_overhead_s": overhead_s,
    }
    assert list(out) == list(LAYER_METRICS)
    return out
