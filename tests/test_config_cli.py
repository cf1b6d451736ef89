import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from varheat import cli
from varheat.cli import main
from varheat.config import _SCHEMA, parse_config_text, named_profile
from varheat.errors import ConfigError, DomainError
from varheat.svg import LineSeries, _ticks, write_line_plot

# a q0 table on [0.2, 0.8] only
PARTIAL_Q0_TABLE = Path(__file__).parent / "data" / "q0_partial.csv"

BASE_CFG = """
sigma.kind = parabolic24
profile.kind = quadratic
series.N = 2
solve.x_points = 11
solve.times = 1
eigs.count = 3
"""


def test_parse_defaults_and_overrides():
    cfg = parse_config_text(BASE_CFG)
    assert cfg.sigma_kind == "parabolic24"
    assert cfg.solve_times == [1.0]
    assert cfg.solve_x_points == 11
    assert cfg.eigs_count == 3
    spec = cfg.series_spec()
    assert spec.truncation_N == 2
    for flag, value in (("no", False), ("yes", True)):
        assert parse_config_text(f"eigs.oracle = {flag}\n").eigs_oracle is value


def test_parse_comments_and_lists():
    cfg = parse_config_text("solve.times = 0.25, 1, 4  # three times\n")
    assert cfg.solve_times == [0.25, 1.0, 4.0]


def test_keys_are_the_run_config_fields():
    # the keys are derived from RunConfig's field names: pin them, so that
    # renaming a field cannot silently rename a key
    assert set(_SCHEMA) == {
        "sigma.kind", "sigma.value", "sigma.table", "profile.kind", "profile.table",
        "series.N", "solve.x_points", "solve.times", "eigs.count", "eigs.oracle",
        "eigfuns.modes", "eigfuns.truncations", "eigfuns.x_points", "output.format",
        "output.path", "output.svg", "verify.seed",
    }
    cfg = parse_config_text("eigfuns.truncations = 0 2\nverify.seed = 7\noutput.svg = a.svg\n")
    assert (cfg.eigfuns_truncations, cfg.verify_seed, cfg.output_svg) == ([0, 2], 7, "a.svg")


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError) as err:
        parse_config_text("sigma.kindd = constant\n", source="bad.cfg")
    assert "sigma.kindd" in str(err.value)
    assert "bad.cfg:1" in str(err.value)


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("series.N = two\n")
    with pytest.raises(ConfigError):
        parse_config_text("sigma.kind = gaussian\n")
    with pytest.raises(ConfigError):
        parse_config_text("solve.times = -1\n")


@pytest.mark.parametrize("text, where", [
    ("series.N = -1", "truncation_N"),
    ("series.tol = 1e-10", "unknown key 'series.tol'"),
    ("solve.times = 1, nan", "solve.times"),
    ("solve.times = inf", "solve.times"),
    ("solve.times =", "solve.times"),
    ("sigma.kind = constant\nsigma.value = nan", "sigma.value"),
    ("sigma.kind = constant\nsigma.value = 0", "sigma.value"),
    ("sigma.kind = constant\nsigma.value = -1", "sigma.value"),
    ("eigfuns.x_points = -3", "eigfuns.x_points"),
    ("eigfuns.x_points = 0", "eigfuns.x_points"),
    ("eigfuns.truncations = -1", "eigfuns.truncations"),
    ("eigs.oracle = maybe", "eigs.oracle"),
    ("solve.x_points = 1", "solve.x_points"),
    ("eigfuns.modes = 0", "eigfuns.modes"),
    ("sigma.kind parabolic24", "expected 'key = value'"),
    ("sigma.kind = tabulated", "sigma.table"),
    pytest.param(f"profile.kind = table\nprofile.table = {PARTIAL_Q0_TABLE}", "profile.table",
                 id="profile.table = q0_partial.csv-profile.table"),
])
def test_out_of_range_values_exit_2(tmp_path, capsys, text, where):
    # range errors in the file are configuration errors, not numerical failures
    with pytest.raises(ConfigError, match=where):
        parse_config_text(text + "\n")
    assert main(["solve", "--config", _write_cfg(tmp_path, text + "\n")]) == 2
    assert where in capsys.readouterr().err


def test_named_profiles():
    q = named_profile("quadratic")
    assert q(np.array([0.5]))[0] == 0.25
    s = named_profile("sine")
    assert s(np.array([0.5]))[0] == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        named_profile("table")
    with pytest.raises(ConfigError, match="unknown profile kind"):
        named_profile("gaussian")


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_solve_csv(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "solve.csv"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "x,t,q,imag_residual,N"
    assert lines[-1] == ""  # LF-terminated
    # 11 points x 3 truncations
    assert len([ln for ln in lines if ln]) == 1 + 33
    report = capsys.readouterr().out
    assert "max |q_N - exact|" in report


def test_cli_solve_merges_table_profile_knots(tmp_path):
    # A rough 15-knot q0 table: the CLI solve takes its abscissae as panel
    # edges (q0_knots), which moves the samples by far more than roundoff.
    from varheat import build_travel_time, make_conductivity
    from varheat.transform import solve_grid

    rng = np.random.default_rng(7)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, 13)), [1.0]])
    q = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 13), [0.0]])
    table = tmp_path / "q0.csv"
    table.write_text("".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, q)))
    cfg = _write_cfg(tmp_path, BASE_CFG + f"profile.kind = table\nprofile.table = {table}\n")
    out = tmp_path / "s.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    got = np.array([float(r[2]) for r in rows if r[4] == "2"])
    c = make_conductivity("parabolic24")
    tt = build_travel_time(c)
    q0 = named_profile("table", str(table))
    xs = np.linspace(0.0, 1.0, 11)
    spec = parse_config_text(BASE_CFG).series_spec()
    merged, plain = ([s.value for s in solve_grid(c, tt, q0, xs, [1.0], spec,
                                                  q0_knots=knots)[1.0]]
                     for knots in (x, ()))
    assert np.max(np.abs(got - merged)) <= 1e-15
    assert np.max(np.abs(got - plain)) > 1e-8


def test_cli_solve_reads_a_table_profile_once(tmp_path, monkeypatch):
    # validation in parse_config, the re-validation after the overrides and
    # the solve itself share one read of the q0 table
    table = tmp_path / "q0.csv"
    table.write_text("0,0\n0.5,0.25\n1,0\n")
    cfg = _write_cfg(tmp_path, BASE_CFG + f"profile.kind = table\nprofile.table = {table}\n")
    reads = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: reads.append(a) or loadtxt(*a, **kw))
    assert main(["solve", "--config", cfg, "--N", "1", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(reads) == 1


def test_cli_solve_constant_matches_fourier(tmp_path):
    from varheat.oracles import fourier_solution

    cfg = _write_cfg(tmp_path, """
sigma.kind = constant
sigma.value = 1
profile.kind = sine
series.N = 1
solve.x_points = 9
solve.times = 0.1
""")
    out = tmp_path / "s.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    for x_, t_, q_, res_, n_ in rows:
        ref = fourier_solution(1.0, lambda v: np.sin(np.pi * v), float(x_),
                               float(t_), 50)
        assert abs(float(q_) - ref) < 1e-8


def test_cli_solve_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_solve_svg(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG + f"output.svg = {tmp_path}/fig.svg\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    tree = ET.parse(tmp_path / "fig.svg")
    root = tree.getroot()
    assert root.tag.endswith("svg")
    assert root.attrib.get("version") == "1.1"
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) >= 4  # three truncations + exact overlay


@pytest.mark.parametrize("x, y", [([0.5], [2.0]), ([0.3, 0.3], [1.0, 2.0]),
                                  ([0.0, 1.0], [1.0, 1.0]), ([1e20], [-1e17])],
                         ids=["one-point", "constant-x", "constant-y", "large-point"])
def test_svg_widens_a_zero_width_range(tmp_path, x, y):
    # a single point or a constant x used to divide by zero in the x map,
    # and a constant beyond 2**53 to lose its unit widening to rounding
    write_line_plot(tmp_path / "p.svg", [LineSeries(x, y, "s")])
    points = next(el for el in ET.parse(tmp_path / "p.svg").getroot().iter()
                  if el.tag.endswith("polyline")).attrib["points"]
    assert all(math.isfinite(float(v)) for xy in points.split() for v in xy.split(","))


def test_svg_ticks_stay_in_range():
    # 1.0 lies within the rule's rounding slack past hi, yet outside the
    # range, so it is not a tick
    assert _ticks(0.0, 1.0 - 1e-13) == [0.0, 0.2, 0.4, 0.6, 0.8]
    for lo, hi in ((0.0, 1.0), (-0.3, 0.7), (1e-13, 1.0), (-2.5e-7, 3.1e-6)):
        ticks = _ticks(lo, hi)
        assert ticks and all(lo <= t <= hi for t in ticks)
    assert _ticks(0.0, 1.0)[-1] == 1.0


@pytest.mark.parametrize("series", [lambda: [], lambda: [LineSeries([], [], "empty")],
                                    lambda: [LineSeries([0.0, 1.0], [1.0, math.nan], "nan")],
                                    lambda: [LineSeries([0.0, math.inf], [1.0, 2.0], "inf")],
                                    lambda: [LineSeries([0.0, 1.0, 2.0], [1.0, 2.0], "short")]],
                         ids=["no-series", "no-points", "nan", "inf", "length-mismatch"])
def test_svg_rejects_empty_and_non_finite_input(tmp_path, series):
    # NaN used to escape from math.floor in the tick rule, no series as an
    # untyped ValueError, and a y shorter than x was cut off by zip
    with pytest.raises(DomainError):
        write_line_plot(tmp_path / "p.svg", series())
    assert not (tmp_path / "p.svg").exists()


def test_cli_eigs_json_roundtrip(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "eigs.json"
    rc = main(["eigs", "--config", cfg, "--count", "4", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    records = json.loads(out.read_text())
    assert [r["m"] for r in records] == [1, 2, 3, 4]
    for rec, ref in zip(records, (-1.0006, -4.2542, -9.6814, -17.2801)):
        assert abs(rec["lambda"] - ref) < 5e-4
        assert rec["N"] == 2
        assert rec["abs_diff"] == abs(rec["lambda"] - rec["fd_lambda"])
    # serialize -> parse -> serialize is the identity
    text2 = json.dumps(records, indent=2, sort_keys=True) + "\n"
    assert text2 == out.read_text()


def test_cli_eigs_constant(tmp_path):
    cfg = _write_cfg(tmp_path, "sigma.kind = constant\nsigma.value = 1\n")
    out = tmp_path / "e.json"
    assert main(["eigs", "--config", cfg, "--count", "2", "--format", "json",
                 "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    for rec, m in zip(records, (1, 2)):
        assert abs(rec["lambda"] + (m * math.pi) ** 2) < 1e-9


def test_cli_eigfuns(tmp_path):
    cfg = _write_cfg(tmp_path, """
sigma.kind = parabolic24
eigfuns.modes = 1,2
eigfuns.x_points = 41
eigfuns.truncations = 0,2
""" + f"output.svg = {tmp_path}/ef.svg\n")
    out = tmp_path / "ef.csv"
    assert main(["eigfuns", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,X1_N0,X2_N0,X1_N2,X2_N2"
    assert len(lines) == 42
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert all(abs(v) < 1e-8 for v in first[1:])
    assert all(abs(v) < 1e-7 for v in last[1:])
    assert (tmp_path / "ef.svg").exists()


def test_cli_exit_code_2_on_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sigma.what = 3\n")
    rc = main(["solve", "--config", str(bad)])
    assert rc == 2
    assert "sigma.what" in capsys.readouterr().err


def test_cli_exit_code_2_on_missing_file():
    assert main(["solve", "--config", "/nonexistent/x.cfg"]) == 2


def test_cli_exit_code_2_on_bad_contour(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "contour.r = 9\ncontour.kmax = 2\nsolve.x_points = 3\n")
    assert main(["solve", "--config", cfg]) == 2
    assert "contour" in capsys.readouterr().err


@pytest.mark.parametrize("args, where", [(["--N", "-1"], "truncation_N"),
                                         (["--count", "0"], "eigs.count")])
def test_cli_overrides_take_the_range_checks(capsys, args, where):
    assert main(["eigs"] + args) == 2
    assert where in capsys.readouterr().err


def test_cli_eigs_count_beyond_the_oracle_grid_exits_2(tmp_path, monkeypatch, capsys):
    # the FD oracle column has 511 modes: 512 is a configuration error that
    # names both keys, raised before any root is searched or file written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "find_eigenvalues", lambda *a: pytest.fail("roots searched"))
    assert main(["eigs", "--count", "512"]) == 2
    err = capsys.readouterr().err
    assert "eigs.count" in err and "eigs.oracle" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_exit_code_1_on_numerical_failure(tmp_path, capsys):
    # a sigma^2 table with a sharp dip that its knots do not resolve raises
    # ToleranceNotReached in the travel-time build
    x = np.linspace(0.0, 1.0, 9)
    table = tmp_path / "dip.csv"
    np.savetxt(table, np.column_stack([x, np.where(x == 0.5, 1e-4, 1.0)]), delimiter=",")
    cfg = _write_cfg(tmp_path, f"sigma.kind = tabulated\nsigma.table = {table}\n")
    rc = main(["eigs", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "numerical failure" in capsys.readouterr().err


# table files that break the 'x,y' format, each a configuration error
BAD_TABLES = {
    "missing": None,
    "three-columns": "0,1,1\n0.5,1,1\n0.7,1,1\n1,1,1\n",
    "non-finite": "0,1\n0.5,nan\n0.7,1\n1,1\n",
    "disordered": "0,1\n0.5,1\n0.4,1\n1,1\n",
    "partial": "0.1,1\n0.5,1\n0.7,1\n1,1\n",
    "close-abscissae": "0,1\n1e-30,1\n0.5,1.2\n1,1\n",
}


@pytest.mark.parametrize("fault", BAD_TABLES)
@pytest.mark.parametrize("kind, key", [("sigma.kind = tabulated", "sigma.table"),
                                       ("profile.kind = table", "profile.table")],
                         ids=["sigma", "profile"])
def test_cli_malformed_tables_exit_2(tmp_path, capsys, fault, kind, key):
    table = tmp_path / "table.csv"
    if BAD_TABLES[fault] is not None:
        table.write_text(BAD_TABLES[fault])
    cfg = _write_cfg(tmp_path, f"{kind}\n{key} = {table}\n")
    assert main(["eigs", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert f"configuration error: {key}: {table}" in capsys.readouterr().err


def test_cli_eigs_reads_a_sigma_table_once(tmp_path, monkeypatch):
    # validation in parse_config, the re-validation after the overrides and
    # the command itself share one conductivity
    x = np.linspace(0.0, 1.0, 9)
    table = tmp_path / "sigma.csv"
    np.savetxt(table, np.column_stack([x, 1.0 + 0.2 * x]), delimiter=",")
    cfg = _write_cfg(tmp_path, f"sigma.kind = tabulated\nsigma.table = {table}\n"
                               "eigs.count = 1\neigs.oracle = false\n")
    reads = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: reads.append(a) or loadtxt(*a, **kw))
    assert main(["eigs", "--config", cfg, "--N", "1", "--out", str(tmp_path / "e.csv")]) == 0
    assert len(reads) == 1


def test_cli_exit_code_2_on_quad_order_key(tmp_path, capsys):
    # the quadrature order is no configuration key: only the references use it
    cfg = _write_cfg(tmp_path, "series.quad_order = 32\n")
    assert main(["eigs", "--config", cfg]) == 2
    assert "series.quad_order" in capsys.readouterr().err


def test_cli_eigs_above_the_old_order_cap(tmp_path):
    # the roots run on the prefix recursion, which has no order cap
    cfg = _write_cfg(tmp_path, "series.N = 7\neigs.count = 3\neigs.oracle = false\n")
    out = tmp_path / "eigs.csv"
    assert main(["eigs", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().count("\n") >= 3


def test_cli_verify_table1(capsys):
    rc = main(["verify", "table1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 12
    assert "12/12" in out


def test_cli_verify_determinant(capsys):
    rc = main(["verify", "determinant"])
    assert rc == 0
    assert "[PASS]" in capsys.readouterr().out


def test_cli_verify_convergence(capsys):
    rc = main(["verify", "convergence"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_cmd_verify_unknown_suite_names_the_suites():
    from varheat.cli import cmd_verify
    from varheat.config import RunConfig

    with pytest.raises(ConfigError, match=r"'nope'; choose table1\|figure2\|determinant"
                                          r"\|convergence\|all"):
        cmd_verify(RunConfig(), "nope")


@pytest.mark.parametrize("suite, passes", [("figure2", 3), ("all", 19)])
def test_cli_verify_figure2_and_all(capsys, suite, passes):
    rc = main(["verify", suite])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == passes
    assert f"{passes}/{passes}" in out
