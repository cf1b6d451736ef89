"""Run configuration: flat key-value files with dotted keys.

The format is deliberately plain text, diffable, and schema-light::

    # comment
    sigma.kind = parabolic24
    series.N = 2
    solve.times = 0.25, 1, 4

Unknown keys are rejected with the offending line number; every value is
validated against the owning module's ranges when the objects are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .coefficients import KINDS, make_conductivity
from .errors import ConfigError, DomainError, NonPositiveConductivity
from .simplex import SeriesSpec

__all__ = ["RunConfig", "parse_config", "parse_config_text", "named_profile"]


def _parse_bool(s):
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s):
    return [float(v) for v in s.replace(",", " ").split()]


def _parse_int_list(s):
    return [int(v) for v in s.replace(",", " ").split()]


@dataclass
class RunConfig:
    """Validated run configuration shared by all CLI commands."""

    sigma_kind: str = "parabolic24"
    sigma_value: float = 1.0          # constant sigma level
    sigma_table: str = ""             # CSV path for tabulated sigma^2
    profile_kind: str = "quadratic"   # quadratic | sine | table
    profile_table: str = ""
    series_N: int = 2
    series_tol: float = 1e-10
    solve_x_points: int = 101
    solve_times: list = field(default_factory=lambda: [0.25, 1.0, 4.0])
    eigs_count: int = 4
    eigs_oracle: bool = True
    eigfuns_modes: list = field(default_factory=lambda: [1, 2, 3, 4])
    eigfuns_truncations: list = field(default_factory=list)  # empty = [series_N]
    eigfuns_x_points: int = 201
    output_format: str = "csv"
    output_path: str = ""
    output_svg: str = ""
    verify_seed: int = 1234
    # (profile kind, table) -> profile(); a table is read once per config
    _profile: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def series_spec(self) -> SeriesSpec:
        return SeriesSpec(truncation_N=self.series_N, tol=self.series_tol)

    def conductivity(self):
        if self.sigma_kind == "constant":
            return make_conductivity("constant", c=self.sigma_value)
        if self.sigma_kind == "tabulated":
            if not self.sigma_table:
                raise ConfigError("sigma.kind = tabulated requires sigma.table")
            return make_conductivity("tabulated", table=self.sigma_table)
        return make_conductivity(self.sigma_kind)

    def profile(self):
        """(q0, knots): the initial profile, and the abscissae of a table
        profile, where its PCHIP interpolant is not smooth (else empty).

        The profile is built on first use and kept while ``profile.kind``
        and ``profile.table`` stay the same, so the table that validation
        reads is the one the commands use."""
        key = (self.profile_kind, self.profile_table)
        if self._profile is None or self._profile[0] != key:
            q0 = named_profile(*key)
            self._profile = key, (q0, q0.x if self.profile_kind == "table" else ())
        return self._profile[1]

    def is_parabolic_benchmark(self) -> bool:
        return self.sigma_kind == "parabolic24" and self.profile_kind == "quadratic"


_SCHEMA = {
    "sigma.kind": ("sigma_kind", lambda s: s, KINDS),
    "sigma.value": ("sigma_value", float, None),
    "sigma.table": ("sigma_table", lambda s: s, None),
    "profile.kind": ("profile_kind", lambda s: s, ("quadratic", "sine", "table")),
    "profile.table": ("profile_table", lambda s: s, None),
    "series.N": ("series_N", int, None),
    "series.tol": ("series_tol", float, None),
    "solve.x_points": ("solve_x_points", int, None),
    "solve.times": ("solve_times", _parse_float_list, None),
    "eigs.count": ("eigs_count", int, None),
    "eigs.oracle": ("eigs_oracle", _parse_bool, None),
    "eigfuns.modes": ("eigfuns_modes", _parse_int_list, None),
    "eigfuns.truncations": ("eigfuns_truncations", _parse_int_list, None),
    "eigfuns.x_points": ("eigfuns_x_points", int, None),
    "output.format": ("output_format", lambda s: s, ("csv", "json")),
    "output.path": ("output_path", lambda s: s, None),
    "output.svg": ("output_svg", lambda s: s, None),
    "verify.seed": ("verify_seed", int, None),
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        attr, conv, allowed = _SCHEMA[key]
        try:
            parsed = conv(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        if allowed is not None and parsed not in allowed:
            raise ConfigError(
                f"{source}:{lineno}: {key!r} must be one of {allowed}, got {parsed!r}"
            )
        setattr(cfg, attr, parsed)
    _validate(cfg)
    return cfg


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, source=path)


def _validate(cfg: RunConfig):
    try:
        cfg.series_spec()
    except DomainError as exc:
        raise ConfigError(f"series: {exc}") from exc
    if cfg.sigma_kind == "constant":
        try:
            cfg.conductivity()
        except NonPositiveConductivity as exc:
            raise ConfigError(f"sigma.value: {exc}") from exc
    if cfg.profile_kind == "table":
        cfg.profile()
    if cfg.solve_x_points < 2:
        raise ConfigError("solve.x_points must be >= 2")
    if not all(math.isfinite(t) and t > 0 for t in cfg.solve_times):
        raise ConfigError("solve.times must be finite and positive")
    if cfg.eigs_count < 1:
        raise ConfigError("eigs.count must be >= 1")
    if not cfg.eigfuns_modes or any(m < 1 for m in cfg.eigfuns_modes):
        raise ConfigError("eigfuns.modes must be positive mode indices")
    if any(N < 0 for N in cfg.eigfuns_truncations):
        raise ConfigError("eigfuns.truncations must be >= 0")
    if cfg.eigfuns_x_points < 2:
        raise ConfigError("eigfuns.x_points must be >= 2")


def named_profile(kind: str, table: str = ""):
    """Initial-profile evaluator by name: quadratic x(1-x), sine, or table.

    A table is a CSV of finite 'x,q0' rows with x strictly increasing from 0
    to 1; its evaluator is the PCHIP interpolant, whose knots are its ``x``.
    """
    if kind == "quadratic":
        return lambda x: x * (1.0 - x)
    if kind == "sine":
        return lambda x: np.sin(np.pi * x)
    if kind == "table":
        if not table:
            raise ConfigError("profile.kind = table requires profile.table")
        try:
            data = np.loadtxt(table, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read profile table {table!r}: {exc}") from exc
        if data.shape[1] != 2 or np.any(np.diff(data[:, 0]) <= 0):
            raise ConfigError("profile table needs strictly increasing 'x,q0' rows")
        if not np.all(np.isfinite(data)):
            raise ConfigError(f"profile.table {table!r}: x and q0 must be finite")
        x = data[:, 0]
        # the end check of coefficients._check_table for sigma^2 tables
        if abs(x[0]) > 1e-12 or abs(x[-1] - 1.0) > 1e-12:
            raise ConfigError(
                f"profile.table {table!r}: x must cover [0, 1] (got [{x[0]:g}, {x[-1]:g}])")
        return PchipInterpolator(x, data[:, 1])
    raise ConfigError(f"unknown profile kind {kind!r}")
