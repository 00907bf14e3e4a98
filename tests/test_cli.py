"""CLI behavior: input parsing, exit codes, artifact formats, determinism."""

import contextlib
import csv
import io
import json
import math
import random
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from gaussherm.cli import (
    GRID_N_CAP,
    KMAX_CAP,
    T_GRID_CAP,
    W_COUNT_CAP,
    CliParseError,
    build_parser,
    load_config,
    main,
    parse_complex,
    parse_input_spec,
    render_table,
)
from gaussherm import gaussians as ga
from gaussherm import oscillator as osc
from gaussherm.errors import NumericalDomainError
from gaussherm.gaussians import GeneralizedGaussian, fourier_gaussian
from gaussherm.grid import DEFAULT_GRID, GridSpec
from gaussherm.hermite import BASIS_BYTES_CAP
from gaussherm.oscillator import evolve_gaussian


def exit_code(argv) -> int:
    """main's exit code, also where argparse refuses argv by SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gaussherm", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_parse_complex_forms():
    assert parse_complex("1") == 1
    assert parse_complex("-0.5") == -0.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("0.5-0.3i") == 0.5 - 0.3j
    assert parse_complex("2e-1+1e0i") == 0.2 + 1j
    with pytest.raises(CliParseError):
        parse_complex("abc")


def test_parse_input_specs(tmp_path):
    g = parse_input_spec("gaussian:A=2,b=0.5+0.1i")
    assert g.state.amplitude == 2
    assert g.state.width == 0.5 + 0.1j
    h = parse_input_spec("hermite:k=3")
    assert np.all(h.state.coeffs == np.array([0, 0, 0, 1], dtype=complex))
    c = parse_input_spec("chirp:alpha=0.27465")
    assert c.default_a == pytest.approx(math.tanh(2 * 0.27465))
    s = parse_input_spec("squeezed:beta=0.5")
    assert isinstance(s.state, GeneralizedGaussian)
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"coeffs": [[1.0, 0.0], [0.0, -1.0]]}))
    e = parse_input_spec(f"expansion:@{path}")
    assert np.all(e.state.coeffs == np.array([1.0, -1.0j]))


@pytest.mark.parametrize(
    "spec",
    ["nonsense", "gaussian:b=", "gaussian:A=1", "hermite:k=-1", "chirp:beta=1",
     "expansion:nofile", "gaussian:b=0.5,zz=1", "expansion:@list.json",
     "expansion:@number.json"],
)
def test_parse_input_spec_rejects(spec, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1e300, 1e300, 2e300]")  # not an object
    (tmp_path / "number.json").write_text("3")
    with pytest.raises(CliParseError):
        parse_input_spec(spec)


@pytest.mark.parametrize("spec,message", [
    ("chirp:alpha=0.2,x=1,b=2", "unknown chirp parameters ['b', 'x']"),
    ("squeezed:beta=0.3,alpha=1", "unknown squeezed parameters ['alpha']"),
    ("chirp:beta=1", "cannot parse input spec 'chirp:beta=1': 'alpha'"),
    ("squeezed:alpha=1", "cannot parse input spec 'squeezed:alpha=1': 'beta'"),
    ("squeezed:beta=x", "cannot parse input spec 'squeezed:beta=x': "
                        "could not convert string to float: 'x'"),
    ("chirp:alpha", "expected key=value pairs in 'chirp:alpha'"),
])
def test_one_parameter_specs_refuse_with_their_own_texts(spec, message):
    with pytest.raises(CliParseError) as refused:
        parse_input_spec(spec)
    assert str(refused.value) == message


def test_one_parameter_specs_take_a_from_their_parameter():
    for spec, state in (("chirp:alpha=0.27465", ga.boundary_chirp(0.27465)),
                        ("squeezed:beta=0.85", ga.squeezed_state(0.85))):
        inp = parse_input_spec(spec)
        assert (inp.state, inp.default_a) == (state, math.tanh(2 * float(spec.split("=")[1])))


def test_load_config_precedence(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"kmax": 12, "format": "json", "grid_L": 10.0}))
    cfg = load_config(str(cfg_file), "norms", {"kmax": 20})
    assert cfg.kmax == 20  # flag wins
    assert cfg.output_format == "json"
    assert cfg.grid_l == 10.0
    assert cfg.grid == GridSpec(10.0, 4096)
    with pytest.raises(CliParseError, match="unknown config key 'grid_L' for coeffs"):
        load_config(str(cfg_file), "coeffs", {})
    with pytest.raises(CliParseError):
        load_config(str(cfg_file), "norms", {"output_format": "xml"})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    with pytest.raises(CliParseError):
        load_config(str(bad), "norms", {})
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"kmax": 12, "tolerances": {"reflection": 1e-8}}))
    with pytest.raises(CliParseError, match="unknown config key 'tolerances'"):
        load_config(str(stale), "norms", {})


#: The config-backed options: flag, config key, attribute, flag value and
#: config value.
CONFIG_OPTIONS = [
    ("--grid-L", "grid_L", "grid_l", "12", 12.0),
    ("--grid-N", "grid_N", "grid_n", "2048", 2048),
    ("--kmax", "kmax", "kmax", "10", 10),
    ("--t-grid", "t_grid_size", "t_grid_size", "8", 8),
    ("--format", "format", "output_format", "json", "json"),
    ("--out", "out", "output_path", "-", "-"),
]

#: Each command, the arguments it needs, and the options of CONFIG_OPTIONS it
#: takes beyond --format and --out.
COMMAND_TAKES = {
    "coeffs": (["hermite:k=3"], {"--kmax"}),
    "envelope": (["hermite:k=3"], set()),
    "bargmann": (["hermite:k=3"], set()),
    "evolve": (["hermite:k=3"], {"--t-grid", "--grid-L", "--grid-N"}),
    "confine": (["hermite:k=3", "--beta", "0.5", "--gamma", "0.4"],
                {"--t-grid", "--grid-L", "--grid-N"}),
    "norms": ([], {"--kmax", "--grid-L", "--grid-N"}),
    "verify-all": ([], {"--kmax", "--grid-L", "--grid-N"}),
}


@pytest.mark.parametrize("flag, key, dest, flag_value, key_value", CONFIG_OPTIONS,
                         ids=[o[0] for o in CONFIG_OPTIONS])
@pytest.mark.parametrize("command", COMMAND_TAKES)
def test_each_command_takes_exactly_its_options(command, flag, key, dest, flag_value,
                                                key_value, tmp_path, capsys):
    """A (command, option) pair is accepted, as a flag and as a config key,
    exactly when the command takes the option; otherwise both exit 2, the
    flag through argparse, the key as an unknown one."""
    base, takes = COMMAND_TAKES[command]
    argv = [command, *base, flag, flag_value]
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({key: key_value}))
    if flag in takes or flag in ("--format", "--out"):
        args = build_parser().parse_args(argv)
        assert getattr(args, dest) == type(key_value)(flag_value)
        assert getattr(load_config(str(cfg_file), command, {}), dest) == key_value
        return
    assert exit_code(argv) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert main([command, *base, "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown config key {key!r} for {command}\n"


def test_coeffs_table_structure(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["coeffs", "gaussian:b=0.5", "--kmax", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_bytes().decode().split("\r\n")
    assert lines[0].startswith("k,abs_coeff,log10_abs_coeff")
    assert len(lines) == 11  # header + 9 rows + trailing empty
    # bounds dominate wherever the coefficient is nonzero
    for row in lines[1:-1]:
        cells = row.split(",")
        k, margin_env, margin_con = int(cells[0]), cells[5], cells[6]
        if k >= 2 and k % 2 == 0:
            assert float(margin_env) > 0
            assert float(margin_con) > 0


def test_coeffs_chirp_sharpness_ratio_column(tmp_path):
    """The contour bound is rate-sharp on the boundary chirp: its margin
    column (log10 of bound/coeff) stays inside a fixed window on even k."""
    out = tmp_path / "c.csv"
    assert main(["coeffs", "chirp:alpha=0.27465", "--kmax", "60",
                 "--out", str(out)]) == 0
    for row in out.read_bytes().decode().strip().split("\r\n")[1:]:
        cells = row.split(",")
        k = int(cells[0])
        if k >= 2 and k % 2 == 0:
            ratio = 10.0 ** float(cells[6])
            assert 0.1 <= ratio <= 10.0


def test_coeffs_hermite_input_is_delta_table(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["coeffs", "hermite:k=5", "--kmax", "8", "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    col = [float(r.split(",")[1]) for r in rows]
    assert col[5] == 1.0
    assert all(c == 0.0 for i, c in enumerate(col) if i != 5)


def test_coeffs_exit_codes(tmp_path):
    assert main(["coeffs", "garbage-input"]) == 2
    # valid spec, but Uf = 2^0.25 (1.5)^-0.5 e^{w^2/12} at w = 1000 is past
    # the double range, so the closed form refuses
    code = main(["bargmann", "gaussian:b=0.5", "--w-ring", "1000",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert not (tmp_path / "x.csv").exists()  # no partial artifact


def test_bargmann_of_phi2_is_its_taylor_monomial(capsys):
    # no grid: U(phi_2)(w) = w^2/sqrt(8) also where Re w = 34 is past 2L
    assert main(["bargmann", "hermite:k=2", "--w-ring", "34", "--w-count", "4"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    for row in rows:
        w = complex(float(row[0]), float(row[1]))
        u = complex(float(row[2]), float(row[3]))
        assert abs(u - w * w / math.sqrt(8.0)) <= 1e-14 * abs(w * w) / math.sqrt(8.0)
    assert float(rows[0][4]) == pytest.approx(34.0 ** 2 / math.sqrt(8.0), rel=1e-14)


def test_confine_divergence_exit_code(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["confine", "squeezed:beta=0.5", "--beta", "0.5", "--gamma", "0.7",
                 "--out", str(out)])
    assert code == 4
    assert not out.exists()


def test_confine_report(tmp_path):
    out = tmp_path / "c.json"
    code = main(["confine", "squeezed:beta=0.5", "--beta", "0.5", "--gamma", "0.5",
                 "--format", "json", "--t-grid", "32", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    r = math.exp(-1.0)
    assert data["sup_constant"] == pytest.approx((1 - r) ** -0.5, rel=1e-9)
    t_star = 3 * math.pi / 8
    assert min(abs(t - t_star) for t in data["attained_ts"]) < 1e-9
    assert data["columns"] == ["t", "envelope_constant_time", "envelope_constant_frequency"]
    assert len(data["rows"]) == 32


def test_confine_gaussian_sup_and_divergence_are_over_all_t(capsys):
    """This Gaussian's flow leaves the class tanh(0.5001) from t = 0.373071,
    between two of the 64 default times; its sup and attaining time lie
    between them too."""
    spec = "gaussian:b=0.786607-0.668532i"
    assert main(["confine", spec, "--beta", "0.5", "--gamma", "0.5001"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("first offending t = 0.373071\n")
    assert main(["confine", spec, "--beta", "0.5", "--gamma", "0.4999", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sup_constant"] == pytest.approx(1.287871504960084, rel=1e-12)
    assert data["worst_t"] == pytest.approx(0.380427260537, abs=1e-12)
    assert data["attained_ts"][0] == data["worst_t"]
    assert data["attained_ts"][1] == pytest.approx(data["worst_t"] + math.pi / 4, abs=1e-15)


def test_envelope_json(tmp_path):
    out = tmp_path / "e.json"
    assert main(["envelope", "gaussian:b=0.5", "--a", "0.5", "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["member"] is True
    rows = dict((r[0], r) for r in data["rows"])
    assert rows["time"][2] == pytest.approx(1.0)
    assert rows["frequency"][2] == pytest.approx(math.sqrt(2), rel=1e-12)


def test_norms_table(tmp_path):
    out = tmp_path / "n.csv"
    assert main(["norms", "--kmax", "4", "--a", "0.5", "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    closed = [float(r.split(",")[1]) for r in rows]
    assert closed[0] == pytest.approx(math.sqrt(2), rel=1e-12)
    assert closed[1] == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    quad = [float(r.split(",")[3]) for r in rows]
    for c, q in zip(closed, quad):
        assert q == pytest.approx(c, rel=1e-6)


@pytest.mark.parametrize("grid_l,resolved", [(8.0, 19), (1.0, -1)])
def test_norms_table_past_band_limit_is_nan(tmp_path, grid_l, resolved):
    out = tmp_path / "n.csv"
    assert main(["norms", "--kmax", "22", "--a", "0.3", "--grid-L", str(grid_l),
                 "--grid-N", "1024", "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    quad = [float(r.split(",")[3]) for r in rows]
    assert len(quad) == 23
    assert all(math.isnan(q) for q in quad[resolved + 1:])
    assert all(math.isfinite(q) for q in quad[:min(resolved + 1, 10)])


def test_norms_with_input(tmp_path):
    out = tmp_path / "n.csv"
    assert main(["norms", "gaussian:b=1", "--a-list", "0.2,0.5", "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert vals[0.5] == pytest.approx(1.0, rel=1e-9)  # ||g_1||_{1/2}^2 = 1


@pytest.mark.parametrize("base, flag, value, key", [
    (["gaussian:b=1"], "--kmax", "8", "kmax"),
    (["gaussian:b=1"], "--a", "0.5", None),
    ([], "--a-list", "0.2,0.5", None),
], ids=["input-kmax", "input-a", "table-a-list"])
def test_norms_refuses_the_other_modes_options(base, flag, value, key, tmp_path, capsys):
    """With an input norms reads --a-list alone, without one --a and --kmax:
    the other case's option exits 2, as a flag and as a config key, and the
    grid flags stay accepted in both."""
    grid = ["--grid-L", "12", "--grid-N", "2048"]
    assert main(["norms", *base, *grid, flag, value]) == 2
    err = capsys.readouterr().err
    mode = "without" if base else "with"
    assert err == f"error: unrecognized arguments: {flag} (norms reads it only {mode} an input)\n"
    if key is not None:
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({key: int(value)}))
        assert main(["norms", *base, "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err == f"error: unknown config key {key!r} for norms\n"
    assert main(["norms", *base, *grid, "--out", str(tmp_path / "n.csv")]) == 0


def test_integer_config_keys_refuse_floats(tmp_path, capsys):
    """A count's config value is an integer, as its flag is: t_grid_size 8.0
    and kmax 8.5 exit 2 (8.5 stopped in np.arange, an internal error)."""
    for command, key, value in (("evolve", "t_grid_size", 8.0), ("coeffs", "kmax", 8.5)):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({key: value}))
        assert main([command, "hermite:k=3", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err == f"error: {key} must be an integer, got {value!r}\n"


def _norms_rows(argv, out):
    assert main([*argv, "--out", str(out)]) == 0
    return [[float(v) for v in r.split(",")]
            for r in out.read_bytes().decode().strip().split("\r\n")[1:]]


def test_norms_table_on_narrow_grid_is_right_or_refused(tmp_path):
    rows = _norms_rows(["norms", "--grid-L", "12", "--a", "0.7", "--kmax", "40"],
                       tmp_path / "n.csv")
    assert len(rows) == 41
    assert math.isnan(rows[19][3])
    printed = [(closed, quad) for _, closed, _, quad in rows if not math.isnan(quad)]
    assert len(printed) >= 10
    assert all(abs(quad - closed) <= 1e-6 * closed for closed, quad in printed)


def test_norms_table_past_the_double_range_prints_inf(tmp_path, capsys):
    rows = _norms_rows(["norms", "--a", "0.9", "--kmax", "300"], tmp_path / "n.csv")
    assert capsys.readouterr().err == ""
    assert len(rows) == 301
    assert math.isfinite(rows[200][1]) and rows[300][1] == math.inf
    assert rows[300][2] == math.inf


@pytest.mark.parametrize("spec, a_list, expected, rel", [
    ("chirp:alpha=0.27465", "0.3,0.45", [1.5812, 3.1624], 1e-4),
    ("hermite:k=40", "0.8", [3.12e37], 1e-3),
    ("hermite:k=74", "0.33275", [1.9511106402115332e21], 1e-13),
    ("squeezed:beta=0.878998", "0.561826", [1.1297319581455425], 1e-15),
], ids=["chirp", "hermite-40", "hermite-74", "squeezed"])
def test_norms_with_input_is_the_closed_form(tmp_path, spec, a_list, expected, rel):
    rows = _norms_rows(["norms", spec, "--a-list", a_list], tmp_path / "n.csv")
    assert [v for _, v in rows] == pytest.approx(expected, rel=rel)


def test_norms_with_expansion_file_is_the_gram_form(tmp_path):
    """``norms`` of an expansion file is its Gram form, formed through the
    weighted dilation as g (||c M||^2 + ||chat M||^2) / 2, and meets the
    closed form of the squeezed state it truncates."""
    from gaussherm.gaussians import hermite_coeffs, squeezed_state, weighted_norm_sq_gaussian

    sq = squeezed_state(0.5)
    coeffs = hermite_coeffs(sq, 300).coeffs
    path = tmp_path / "sq.json"
    path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in coeffs]}))
    # the truncation error weighs like (r/mu)^k, r = e^{-1}: small for
    # mu = (1-a)/(1+a) well above r, so a <= 0.3 here
    rows = _norms_rows(["norms", f"expansion:@{path}", "--a-list", "0.2,0.3"],
                       tmp_path / "n.csv")
    for a, value in rows:
        assert value == pytest.approx(weighted_norm_sq_gaussian(sq, a), rel=1e-12)


@pytest.mark.parametrize("k, a, expected", [
    (200_000, "0.001", "1.4755420907274416e+172"),
    (320_000, "0.5", "inf"),
])
def test_norms_of_a_high_hermite_function_is_linear_in_k(k, a, expected, capsys):
    """||phi_k||_a^2 of one Hermite function sums S_k alone, in O(k): these
    took 5.0 s and 18.3 s when every S_0..S_k was convolved."""
    argv = ["norms", f"hermite:k={k}", "--a-list", a]
    with _call_time_bound(argv):
        assert main(argv) == 0
    assert capsys.readouterr().out.split("\r\n")[1] == f"{float(a)!r},{expected}"


def test_norms_gaussian_outside_its_class_is_nan(tmp_path):
    rows = _norms_rows(["norms", "gaussian:b=0.5", "--a-list", "0.2,0.7"], tmp_path / "n.csv")
    assert math.isfinite(rows[0][1]) and math.isnan(rows[1][1])


@pytest.mark.parametrize("argv", [
    ["norms", "gaussian:b=0.5", "--a-list", "0.2,1.5"],
    ["norms", "hermite:k=3", "--a-list", "0"],
    ["norms", "--a", "1.0"],
    ["coeffs", "gaussian:b=0.5", "--a", "1.5"],
    ["coeffs", "hermite:k=3", "--a", "0"],
    ["bargmann", "gaussian:b=0.5", "--a", "-0.5"],
], ids=["norms-a-list-1.5", "norms-a-list-0", "norms-table-a-1", "coeffs-a-1.5",
        "coeffs-a-0", "bargmann-a-negative"])
def test_weight_outside_unit_interval_exits_3(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a must be in (0,1)" in captured.err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_bargmann_w_count_below_one_exits_2(count, capsys):
    assert main(["bargmann", "gaussian:b=0.5", "--w-count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--w-count" in captured.err


@pytest.mark.parametrize("argv", [
    ["evolve", "--times", "0"],
    ["envelope"],
    ["confine", "--beta", "0.75", "--gamma", "0.5"],
], ids=["evolve", "envelope", "confine"])
def test_expansion_past_the_default_band_limit_is_answered(argv, capsys):
    """The default grid resolves phi_k up to k = 81; past it an expansion is
    sampled on the wider grid of its own degree (k = 82 and 120 exited 3)."""
    for k in (81, 82, 120):
        assert main([argv[0], f"hermite:k={k}", *argv[1:]]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row[1:3])


def test_evolve_times(tmp_path):
    out = tmp_path / "ev.csv"
    assert main(["evolve", "squeezed:beta=0.5", "--times", "0,0.39269908169872414",
                 "--a", "0.5", "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    n0 = float(rows[0].split(",")[1])
    n1 = float(rows[1].split(",")[1])
    assert n1 == pytest.approx(n0, rel=1e-10)  # the flow is unitary


@pytest.mark.parametrize("argv, norm_sq", [
    (["chirp:alpha=1e-6", "--t-grid", "4"], 500.0),
    (["gaussian:b=0.01", "--a", "0.005", "--times", "0,0.2"], 0.02 ** -0.5),
], ids=["chirp-wider-than-grid", "gaussian-wider-than-grid"])
def test_evolve_gaussian_norm_does_not_depend_on_the_grid(argv, norm_sq, tmp_path):
    out = tmp_path / "ev.csv"
    assert main(["evolve", *argv, "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    assert rows
    for row in rows:
        assert float(row.split(",")[1]) == pytest.approx(norm_sq, rel=1e-9)


def test_evolve_gaussian_at_huge_times_is_closed_form():
    res = subprocess.run(
        [sys.executable, "-m", "gaussherm", "evolve", "gaussian:b=0.5",
         "--times", "1e6,1e12,1e300"],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    rows = res.stdout.strip().split("\n")[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1e6, 1e12, 1e300]
    for row in rows:
        assert float(row.split(",")[1]) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["coeffs"],
    ["envelope"],
    ["bargmann"],
    ["evolve", "--times", "0"],
    ["confine", "--beta", "0.5", "--gamma", "0.4"],
    ["norms"],
], ids=["coeffs", "envelope", "bargmann", "evolve", "confine", "norms"])
def test_zero_amplitude_gaussian_exits_2(argv, capsys):
    for spec in ("gaussian:A=0,b=0.5", "gaussian:A=0+0i,b=0.5-0.2i"):
        assert main([argv[0], spec, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "amplitude A must be nonzero" in captured.err


def test_all_zero_expansion_file_exits_2_for_every_command(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"coeffs": [[0, 0], [0, 0]]}))
    spec = f"expansion:@{path}"
    for argv in (["coeffs"], ["envelope"], ["bargmann"], ["evolve", "--times", "0"],
                 ["confine", "--beta", "0.5", "--gamma", "0.4"], ["norms"]):
        assert main([argv[0], spec, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "must not all be zero" in captured.err


@pytest.mark.parametrize("spec", ["gaussian:b=0.5", "hermite:k=3"])
def test_evolve_time_whose_phase_overflows_exits_3(spec, capsys):
    """1e308 is finite but 2t (7t for hermite:k=3) is not: a refusal naming
    the time, with no numpy warning on the way; 1e300 still runs."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", spec, "--times", "1e308"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "t=1e+308" in captured.err
        assert main(["evolve", spec, "--times", "1e300"]) == 0
    assert capsys.readouterr().out.split("\n")[1].startswith("1.0000000000000001e+300,")


@pytest.mark.parametrize("spec", [
    "squeezed:beta=0.878998",
    "gaussian:A=0.7-1.3i,b=0.6+0.45i",
    "chirp:alpha=0.2",
    "hermite:k=5",
    "expansion:@",
])
def test_envelope_and_evolve_at_t0_print_the_same_constants(spec, tmp_path):
    """envelope and the t = 0 row of evolve take one two-sided verdict, the
    flow generator's at t = 0, so their constants agree bit for bit."""
    if spec == "expansion:@":
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"coeffs": [[0.8, 0.1], [0.0, -0.3], [0.25, 0.2]]}))
        spec += str(path)
    env, evo = tmp_path / "env.csv", tmp_path / "evo.csv"
    assert main(["envelope", spec, "--a", "0.4", "--out", str(env)]) == 0
    assert main(["evolve", spec, "--a", "0.4", "--times", "0", "--out", str(evo)]) == 0
    env_rows = [r.split(",") for r in env.read_bytes().decode().strip().split("\r\n")[1:]]
    (evo_row,) = [r.split(",") for r in evo.read_bytes().decode().strip().split("\r\n")[1:]]
    assert [row[2] for row in env_rows] == evo_row[2:4]
    assert [row[4] for row in env_rows] == evo_row[4:6]


@pytest.mark.parametrize("command", ["envelope", "evolve"])
@pytest.mark.parametrize("spec", ["gaussian:b=0.5", "hermite:k=3"])
@pytest.mark.parametrize("a", ["0", "-0.5"])
def test_nonpositive_envelope_weight_exits_3(command, spec, a, capsys):
    assert main([command, spec, "--a", a]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a must be positive" in captured.err


@pytest.mark.parametrize("argv", [
    ["coeffs", "gaussian:b=0.5", "--grid-N", "0"],
    ["evolve", "gaussian:b=0.5", "--grid-N", "15"],
    ["confine", "squeezed:beta=0.5", "--beta", "0.5", "--gamma", "0.4", "--grid-L", "-1"],
    ["norms", "gaussian:b=0.5", "--grid-L", "0"],
], ids=["coeffs-N-0", "evolve-N-odd", "confine-L-negative", "norms-L-0"])
def test_bad_grid_flags_exit_2_for_every_command(argv, capsys):
    """coeffs takes no grid flag, so argparse refuses it; the others refuse
    the value."""
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["evolve", "squeezed:beta=0.5", "--times", "0,inf"],
    ["norms", "gaussian:b=0.5", "--a-list", "0.2,nan"],
], ids=["evolve-times-inf", "norms-a-list-nan"])
def test_non_finite_list_values_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["evolve", "hermite:k=3", "--times="],
    ["norms", "gaussian:b=0.5", "--a-list="],
], ids=["evolve-times", "norms-a-list"])
def test_empty_list_values_exit_2(argv, capsys):
    """A list flag given empty is refused, not read as absent."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad {argv[-1][:-1]} list:")


@pytest.mark.parametrize("argv, flag, value", [
    (["evolve", "squeezed:beta=0.5"], "--times", "-1,2"),
    (["evolve", "squeezed:beta=0.5", "--a", "0.5"], "--times", "-.25,1e-3"),
    (["norms", "gaussian:b=0.5"], "--a-list", "-0.5,0.5"),
    (["norms", "gaussian:b=0.5"], "--a-list", "-1e-3"),
], ids=["evolve-times", "evolve-times-dot", "norms-a-list", "norms-a-list-exponent"])
def test_list_value_starting_with_minus_is_read_as_the_value(argv, flag, value, capsys):
    """``--times -1,2`` is read as ``--times=-1,2``, not as an option."""
    code = main(argv + [flag, value])
    separate = capsys.readouterr()
    assert code == main(argv + [f"{flag}={value}"])
    assert separate == capsys.readouterr()
    assert "expected one argument" not in separate.err


@pytest.mark.parametrize("argv, err", [
    (["envelope", "gaussian:b=0.5", "--a", "-1e-3"], "a must be positive, got -0.001"),
    (["evolve", "hermite:k=3", "--a", "-2E-1"], "a must be positive, got -0.2"),
    (["coeffs", "gaussian:b=0.5", "--a", "-1e-3"], "a must be in (0,1), got -0.001"),
    (["bargmann", "hermite:k=3", "--a", "-.5e0"], "a must be in (0,1), got -0.5"),
    (["confine", "squeezed:beta=0.5", "--beta", "-1e-3", "--gamma", "0.4"],
     "beta and gamma must be positive"),
    (["confine", "squeezed:beta=0.5", "--beta", "0.5", "--gamma", "-4e-1"],
     "beta and gamma must be positive"),
], ids=["envelope-a", "evolve-a", "coeffs-a", "bargmann-a", "confine-beta", "confine-gamma"])
def test_negative_scalar_in_scientific_notation_is_read_as_the_value(argv, err, capsys):
    """``--a -1e-3`` is read as ``--a=-1e-3`` and refused for its value
    (exit 3), not taken for an option (exit 2)."""
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {err}\n"


def test_negative_w_ring_in_scientific_notation_is_read_as_the_value(capsys):
    assert main(["bargmann", "gaussian:b=0.5", "--w-ring", "-2e0", "--w-count", "2"]) == 0
    assert capsys.readouterr().out.split("\r\n")[1].startswith("-2,0,")


def test_envelope_of_phi40_at_a_099_is_the_sup_off_the_grid(capsys):
    """phi_40 e^{0.99 x^2/2} peaks at |x| = 63.40026 (mpmath:
    2.837268821823778e45), four times past the default grid's edge; the
    dilated samples reach it, where the grid scan read 1.07e29 at x = -16
    and called both sides divergent."""
    assert main(["envelope", "hermite:k=40", "--a", "0.99"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [row[0] for row in rows] == ["time", "frequency"]
    for row in rows:
        assert float(row[2]) == pytest.approx(2.837268821823778e45, rel=1e-3)
        assert abs(abs(float(row[3])) - 63.4) <= 0.1
        assert row[4] == "false"


def test_coeffs_of_phi40_at_a_099_prints_finite_bounds(capsys):
    """With C taken from the dilated samples, every row k >= 2 carries both
    bounds (they were nan: the grid scan called phi_40 a non-member)."""
    assert main(["coeffs", "hermite:k=40", "--a", "0.99", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["C"] == pytest.approx(2.837268821823778e45, rel=1e-3)
    assert all(math.isfinite(row[3]) and math.isfinite(row[4]) for row in data["rows"][2:])


def test_confine_of_an_expansion_never_diverges_below_a_equal_1(capsys):
    """The flow keeps phi_60's degree, so it stays in every class a < 1
    (it exited 4 when the grid scan's edge window saw growth)."""
    assert main(["confine", "hermite:k=60", "--beta", "2", "--gamma", "1.5"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("gamma", ["18", "20"])
def test_confine_refuses_gamma_whose_tanh_loses_1_minus_a(gamma, capsys):
    """Past gamma of about 8.7 the double tanh(gamma) leaves 1 - a off by
    more than 1e-9 relative; an expansion's constant depends on it, so it is
    refused: at gamma = 18, 1 - a = 4.44e-16 against 4.64e-16 (the sup read
    1.7e23, off by several percent); at 20, a rounds to 1 (it exited 4, a
    divergence verdict for a = 1).  A Gaussian's verdict takes a to 1e-12
    relative and still runs."""
    assert main(["confine", "hermite:k=3", "--beta", "25", "--gamma", gamma]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: a = tanh({float(gamma)}) is not resolved in double")
    assert main(["confine", "hermite:k=3", "--beta", "25", "--gamma", "8"]) == 0
    assert main(["confine", "squeezed:beta=0.5", "--beta", "25", "--gamma", gamma]) == 4


@pytest.mark.parametrize("argv", [
    ["envelope"],
    ["coeffs"],
    ["bargmann", "--w-count", "8"],
    ["evolve", "--t-grid", "8"],
    ["confine", "--beta", "0.75", "--gamma", "0.5", "--t-grid", "8"],
], ids=lambda argv: argv[0])
def test_expansion_outputs_do_not_depend_on_the_grid_flags(argv, tmp_path, capsys):
    """An expansion is sampled on the grid of its own degree, so evolve and
    confine, which take ``--grid-L/--grid-N``, print byte-identical output
    on every grid, with no warning: on ``--grid-L 100`` e^{a x^2/2}
    overflows past |x| = 37.7, which the dilated samples never form (the
    grid scan warned twice and exited 3).  envelope, coeffs and bargmann
    refuse the flags (exit 2)."""
    rng = np.random.default_rng(20261022)
    coeffs = (rng.normal(size=31) + 1j * rng.normal(size=31)) * 0.8 ** np.arange(31)
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in coeffs]}))
    for spec in ("hermite:k=40", f"expansion:@{path}"):
        outs = []
        for grid in ([], ["--grid-L", "12", "--grid-N", "4096"], ["--grid-N", "2048"],
                     ["--grid-L", "100"]):
            if grid and argv[0] not in ("evolve", "confine"):
                assert exit_code([argv[0], spec, *argv[1:], *grid]) == 2
                assert f"unrecognized arguments: {grid[0]}" in capsys.readouterr().err
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([argv[0], spec, *argv[1:], *grid]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            outs.append(out)
        assert outs[1:] == outs[:-1], spec


@pytest.mark.parametrize("k, member, constant", [
    (0, True, 2 ** 0.25), (2, False, 2 ** 0.25 / math.sqrt(2)), (3, False, 0.0)])
def test_envelope_at_a_equal_1_follows_the_degree_rule(k, member, constant, capsys):
    """At a = 1 only multiples of phi_0 are members, at every t; each side
    reports its modulus at x = 0 (phi_3(0) = 0)."""
    assert main(["envelope", f"hermite:k={k}", "--a", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["member"] is member
    for row in data["rows"]:
        assert row[2] == pytest.approx(constant, rel=1e-15)
        assert row[3] == 0.0 and row[4] is not member
    assert main(["evolve", f"hermite:k={k}", "--a", "1", "--t-grid", "4", "--format", "json"]) == 0
    for row in json.loads(capsys.readouterr().out)["rows"]:
        assert row[2:4] == pytest.approx([constant, constant], rel=1e-15)
        assert row[4] is row[5] is not member


@pytest.mark.parametrize("argv", [
    ["envelope", "gaussian:b=0.5", "--a", "nan"],
    ["bargmann", "gaussian:b=0.5", "--w-ring", "nan"],
    ["evolve", "gaussian:b=0.5", "--a", "nan"],
    ["coeffs", "gaussian:b=0.5", "--a", "inf"],
    ["confine", "gaussian:b=0.5", "--beta", "nan", "--gamma", "0.5"],
    ["confine", "gaussian:b=0.5", "--beta", "0.3", "--gamma", "inf"],
    ["norms", "hermite:k=3", "--grid-L", "inf"],
], ids=["envelope-a-nan", "bargmann-w-ring-nan", "evolve-a-nan", "coeffs-a-inf",
        "confine-beta-nan", "confine-gamma-inf", "norms-grid-L-inf"])
def test_non_finite_float_flags_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "finite" in captured.err


def test_non_finite_config_grid_l_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"grid_L": math.inf}))
    assert main(["norms", "hermite:k=3", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["confine", "hermite:k=4", "--beta", "0.75", "--gamma", "0.5"],
    ["evolve", "hermite:k=4", "--a", "0.4"],
], ids=["confine", "evolve"])
def test_expansion_flow_builds_basis_once(argv, monkeypatch, tmp_path):
    """The flow of an expansion builds one basis, the default grid's whole
    band, and a repeat on that grid reads it from the cache."""
    import gaussherm.hermite as hermite

    build = hermite.hermite_phi_all  # every basis build, grid_basis's among them
    kmaxes = []

    def counting(kmax, xs):
        kmaxes.append(kmax)
        return build(kmax, xs)

    for module in (hermite, osc):
        monkeypatch.setattr(module, "hermite_phi_all", counting)
    monkeypatch.setattr(hermite, "_GRID_BASIS", None)
    assert main([*argv, "--t-grid", "16", "--out", str(tmp_path / "o.csv")]) == 0
    assert kmaxes == [hermite.band_limit(DEFAULT_GRID)]
    assert main([*argv, "--t-grid", "16", "--out", str(tmp_path / "o.csv")]) == 0
    assert kmaxes == [hermite.band_limit(DEFAULT_GRID)]


def test_single_term_flow_prints_its_envelope_at_every_time(capsys):
    """``evolve`` and ``confine`` of hermite:k print, at every t, the
    constants ``envelope`` prints for t = 0, and ``confine`` attains its sup
    at every t."""
    assert main(["envelope", "hermite:k=40", "--a", "0.3"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    want = [rows[1][2], rows[2][2]]
    assert main(["evolve", "hermite:k=40", "--a", "0.3", "--t-grid", "64"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == 64 and all(row[2:4] == want for row in rows)
    gamma = str(math.atanh(0.3))
    assert main(["confine", "hermite:k=40", "--beta", "1", "--gamma", gamma, "--t-grid", "7",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len({tuple(row[1:]) for row in data["rows"]}) == 1
    assert len(data["attained_ts"]) == 7


def test_warm_expansion_envelope_allocates_no_basis(tmp_path):
    """Once the grid's real basis is cached, an expansion's t = 0 sides are
    two real products against it: no (K+1) x N basis is allocated."""
    import tracemalloc

    argv = ["envelope", "hermite:k=81", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # one real 82 x 4096 basis is 2.7 MB


def test_confine_memory_does_not_grow_with_the_times_scanned(tmp_path):
    """An expansion's times run in blocks: with the basis cached, the peak of
    ``confine hermite:k=81`` at 4,096 times stays below 4 MB, well below one
    whole (2T, K+1) complex array (10.7 MB).  What it holds beyond the 64-time
    run is the reply's rows and text, about 0.4 KB per time."""
    import tracemalloc

    peaks = {}
    for t_grid in (64, 4096):
        argv = ["confine", "hermite:k=81", "--beta", "0.5", "--gamma", "0.45",
                "--t-grid", str(t_grid), "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[t_grid] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] < 4e6
    assert peaks[4096] - peaks[64] < 1e3 * (4096 - 64)


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["envelope", "gaussian:b=0.5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}")
    assert not out.parent.exists()


def test_unexpected_exception_exits_3_without_traceback(monkeypatch, capsys, tmp_path):
    """An exception outside the handled types is an internal error (exit 3),
    never exit 1, which verify-all reserves for failed criteria."""
    import gaussherm.cli as cli

    def boom(args, cfg):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(cli, "cmd_envelope", boom)
    out = tmp_path / "e.csv"
    assert main(["envelope", "gaussian:b=0.5", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error (RuntimeError): kaboom\n"
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_bargmann_table(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bargmann", "gaussian:b=0.5", "--w-count", "8", "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    assert len(rows) == 8
    for row in rows:
        cells = row.split(",")
        abs_u, quadrant = float(cells[4]), float(cells[5])
        assert abs_u <= quadrant * (1 + 1e-9)


def test_bargmann_growth_bound_past_double_range_exits_3(tmp_path, capsys):
    """On the ring |w| = 90 the growth bounds overflow at w = 90 first (Uf
    itself, e^{-w^2/6}/sqrt(3/2) at b = 0.5, stays finite there), and the
    refusal leaves no output file."""
    out = tmp_path / "F"
    assert main(["bargmann", "gaussian:b=0.5", "--w-ring", "90", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: growth bound at w=(90+0j) is past the double range\n"
    assert not out.exists()


def test_bargmann_bound_past_double_range_by_its_constant_exits_3(capsys):
    """At w = 67.6059 and a = 0.5 the exponential e^659.7 is finite, but
    times the class constant of hermite:k=343 the bound is not: refused,
    not printed as inf."""
    assert main(["bargmann", "hermite:k=343", "--w-ring", "67.6059", "--w-count", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: growth bound at w=(67.6059+0j) is past the double range\n"


def test_bargmann_in_sector_is_the_finite_sector_bound(capsys):
    """On the default 16-point ring at a = 0.5 (sector [pi/6, pi/3] folded),
    in_sector is false and sector_bound nan exactly at the points whose arg
    folds outside the sector: the axes and their neighbours at pi/8 off."""
    assert main(["bargmann", "gaussian:b=0.5", "--a", "0.5"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == 16
    for j, row in enumerate(rows):
        th = (2 * math.pi * j / 16) % math.pi
        th = min(th, math.pi - th)
        inside = math.pi / 6 <= th <= math.pi / 3
        assert row[7] == ("true" if inside else "false"), j
        assert (row[6] == "nan") is not inside, j
        assert math.isfinite(float(row[5])), j
    assert sum(row[7] == "true" for row in rows) == 4  # the diagonals, pi/4 + k pi/2


def test_bargmann_edge_points_are_in_the_sector(capsys):
    """On the 12-point ring at a = 0.5, the default weight of a Hermite
    function, all 8 points off the axes lie on the sector's edges (pi/6 and
    pi/3 folded) and read in_sector true with a finite sector bound, whatever
    the last bit of their rounded angle; the 4 axis points read false."""
    assert main(["bargmann", "hermite:k=3", "--w-count", "12"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == 12
    for j, row in enumerate(rows):
        on_edge = j % 3 != 0
        assert row[7] == ("true" if on_edge else "false"), j
        assert math.isfinite(float(row[6])) is on_edge, j


def test_verify_all_json_schema_and_exit(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify-all", "--format", "json", "--kmax", "20", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert isinstance(data["criteria"], list) and len(data["criteria"]) == 11
    for crit in data["criteria"]:
        assert set(crit) == {"name", "pass", "measured", "threshold", "detail"}
        assert crit["pass"] is True
        assert isinstance(crit["measured"], float)
    assert set(data["config"]) == {"grid_L", "grid_N", "kmax", "grid_kmax",
                                   "wide_grid_L", "wide_grid_N"}
    assert data["config"]["kmax"] == 60  # the criteria ran with max(kmax, 60)
    assert data["config"]["grid_kmax"] == 81  # the default grid's band limit
    assert (data["config"]["wide_grid_L"], data["config"]["wide_grid_N"]) == (24.0, 6144)


def test_csv_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["coeffs", "chirp:alpha=0.27465", "--kmax", "20",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_import_loads_no_scipy():
    """Nor numpy.polynomial, a few ms of set-up nothing at import needs, nor
    dataclasses: the records are NamedTuple or slotted classes, because a
    frozen dataclass generates and compiles its methods at import."""
    code = ("import sys, gaussherm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.polynomial') or m == 'dataclasses'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_verify_all_loads_no_numpy_random():
    """verify pins its one seeded draw, so a fresh interpreter running
    verify-all loads neither numpy.random nor the secrets/hashlib stack that
    comes with it."""
    code = ("import contextlib, io, sys\n"
            "from gaussherm import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(['verify-all', '--format', 'json'])\n"
            "print(status, sorted(m for m in ('numpy.random', 'secrets') if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0 []"


def test_cli_subprocess_entry_point(tmp_path):
    res = run_cli(["envelope", "gaussian:b=0.5", "--a", "0.5"])
    assert res.returncode == 0
    assert res.stdout.startswith("side,a,constant")
    res = run_cli(["coeffs", "bad spec"])
    assert res.returncode == 2
    assert "error:" in res.stderr


def _sweep_spec(rng, files) -> str:
    """One input spec of a random kind, its parameters drawn partly outside
    their valid range."""
    kind = rng.integers(5)
    if kind == 0:
        amp = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-0.2, 3), rng.uniform(-2, 2))
        return (f"gaussian:A={amp.real:.6g}{amp.imag:+.6g}i,"
                f"b={b.real:.6g}{b.imag:+.6g}i")
    if kind == 1:
        return f"hermite:k={rng.integers(0, 101)}"
    if kind == 2:
        return f"chirp:alpha={rng.uniform(-0.1, 2):.6g}"
    if kind == 3:
        return f"squeezed:beta={rng.uniform(-0.1, 2):.6g}"
    return files[rng.integers(len(files))]


#: Wall-clock bound on one call of a seeded sweep; every draw is small and
#: ends in milliseconds, so only a hang (such as a walk that grows with |t|)
#: can reach it.
SWEEP_CALL_SECONDS = 10


@contextlib.contextmanager
def _call_time_bound(argv):
    """Fail the test, by SIGALRM, if the body runs past SWEEP_CALL_SECONDS,
    instead of waiting out a hung call (the alarm interrupts Python code,
    not a single long numpy operation)."""
    def expire(signum, frame):
        pytest.fail(f"{argv} ran past {SWEEP_CALL_SECONDS} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, SWEEP_CALL_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_sweep_time_bound_fails_a_hung_call(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "SWEEP_CALL_SECONDS", 0.05)
    with pytest.raises(pytest.fail.Exception, match="ran past 0.05 s"):
        with _call_time_bound(["hang"]):
            while True:
                time.sleep(0.01)


def test_bargmann_and_coeffs_seeded_sweep(tmp_path, capsys):
    """200 small draws of bargmann and coeffs over all five input kinds, --a
    inside and outside (0,1): every call exits 0, 2 or 3 within
    SWEEP_CALL_SECONDS with no traceback and no warning, and no printed
    value of Uf is nan."""
    rng = np.random.default_rng(20261018)
    files = []
    for length in (3, 12, 40):
        coeffs = rng.normal(size=length) + 1j * rng.normal(size=length)
        path = tmp_path / f"e{length}.json"
        path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in coeffs]}))
        files.append(f"expansion:@{path}")
    codes = []
    for i in range(200):
        command = ("coeffs", "bargmann")[i % 2]
        argv = [command, _sweep_spec(rng, files)]
        if command == "bargmann":
            argv += ["--w-ring", f"{rng.uniform(0, 50):.6g}",
                     "--w-count", str(rng.integers(1, 33))]
        else:
            argv += ["--kmax", str(rng.integers(1, 81))]
        if rng.uniform() < 0.7:
            a = rng.uniform(0, 1) if rng.uniform() < 0.8 else rng.choice([-0.5, 0.0, 1.0, 1.5])
            argv += ["--a", f"{a:.6g}"]
        with warnings.catch_warnings(record=True) as caught, _call_time_bound(argv):
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err and "internal error" not in err, (argv, err)
        assert not caught, (argv, [str(w.message) for w in caught])
        if command == "bargmann" and code == 0:
            rows = list(csv.reader(io.StringIO(out)))[1:]
            assert len(rows) == int(argv[5])
            assert all(v != "nan" for row in rows for v in row[2:5]), argv
        codes.append(code)
    # the draws reach answers and both kinds of refusal
    assert codes.count(0) > 100 and codes.count(2) > 0 and codes.count(3) > 0


def _state_sweep_argv(rng, command: str, files) -> list[str]:
    """One small draw of envelope, evolve, confine or norms, flags drawn
    partly outside their valid range, on the default grid or one of
    half-width up to 100 (envelope takes no grid flag: drawn, then left
    out); about three in ten scalar values are written in scientific
    notation (-1.234e-01)."""
    def num(lo, hi):
        return format(rng.uniform(lo, hi), ".3e" if rng.uniform() < 0.3 else ".6g")

    grid = ["--grid-L", f"{rng.uniform(4, 100):.6g}"] if rng.uniform() < 0.3 else []
    if command == "envelope":
        grid = []
    if command == "norms" and rng.uniform() < 0.3:
        return ["norms", "--a", num(-0.2, 1.2), "--kmax", str(rng.integers(1, 41))] + grid
    argv = [command, _sweep_spec(rng, files)] + grid
    if command == "norms":
        weights = rng.uniform(-0.2, 1.2, size=rng.integers(1, 4))
        return argv + ["--a-list=" + ",".join(f"{a:.6g}" for a in weights)]
    if command == "confine":
        return argv + ["--beta", num(-0.1, 1.5), "--gamma", num(-0.1, 1.5),
                       "--t-grid", str(rng.integers(1, 9))]
    if command == "evolve":
        if rng.uniform() < 0.5:
            argv += ["--times=" + ",".join(f"{t:.6g}" for t in rng.uniform(-5, 5, size=3))]
        else:
            argv += ["--t-grid", str(rng.integers(1, 9))]
    if rng.uniform() < 0.7:
        argv += ["--a", num(-0.2, 1.5)]
    return argv


def test_state_commands_seeded_sweep(tmp_path, capsys):
    """120 small draws of envelope, evolve, confine and norms over all five
    input kinds, weights and parameters inside and outside their ranges:
    every call exits 0, 2, 3 or 4 within SWEEP_CALL_SECONDS with no
    traceback and no warning."""
    rng = np.random.default_rng(20261019)
    files = []
    for length in (3, 12, 40):
        coeffs = rng.normal(size=length) + 1j * rng.normal(size=length)
        path = tmp_path / f"e{length}.json"
        path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in coeffs]}))
        files.append(f"expansion:@{path}")
    codes = []
    for i in range(120):
        argv = _state_sweep_argv(rng, ("envelope", "evolve", "confine", "norms")[i % 4], files)
        with warnings.catch_warnings(record=True) as caught, _call_time_bound(argv):
            warnings.simplefilter("always")
            code = main(argv)
        _, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err and "internal error" not in err, (argv, err)
        assert not caught, (argv, [str(w.message) for w in caught])
        codes.append(code)
    assert codes.count(0) > 40 and codes.count(3) > 0 and codes.count(4) > 0


@pytest.mark.parametrize("argv, flag, cap", [
    (["coeffs", "gaussian:b=0.5", "--kmax", str(KMAX_CAP + 1)], "--kmax", KMAX_CAP),
    (["norms", "--kmax", str(10 ** 12)], "--kmax", KMAX_CAP),
    (["evolve", "gaussian:b=0.5", "--t-grid", str(T_GRID_CAP + 1)], "--t-grid", T_GRID_CAP),
    (["confine", "squeezed:beta=0.5", "--beta", "0.5", "--gamma", "0.4",
      "--t-grid", str(10 ** 9)], "--t-grid", T_GRID_CAP),
    (["bargmann", "gaussian:b=0.5", "--w-count", str(W_COUNT_CAP + 1)], "--w-count", W_COUNT_CAP),
    (["bargmann", "gaussian:b=0.5", "--w-count", str(10 ** 9)], "--w-count", W_COUNT_CAP),
])
def test_count_flags_above_their_cap_exit_2(argv, flag, cap, capsys):
    """A count flag past its cap is refused before any work, naming the flag
    and the cap (a billion-point ring would ask numpy for 16 GB)."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be <= {cap}, got {argv[argv.index(flag) + 1]}\n"


def test_grid_n_above_its_cap_exits_2(capsys):
    """Refused before any array is made: uncapped, this grid asked for 800 MB."""
    assert main(["evolve", "hermite:k=3", "--grid-N", "100000000"]) == 2
    assert capsys.readouterr().err == f"error: --grid-N must be <= {GRID_N_CAP}, got 100000000\n"


@pytest.mark.parametrize("argv", [
    ["norms", "--grid-L", "1000", "--a", "0.1", "--kmax", "100000"],
    ["evolve", "hermite:k=9000", "--times", "0"],
], ids=["norms-table", "evolve-expansion"])
def test_basis_past_its_byte_budget_exits_3(argv, capsys):
    """The basis these grids ask for (3.3 GB on the norms table's grid, 2.9 GB
    on the grid of the expansion's degree) is refused before it is built,
    naming its rows, N and the budget."""
    from gaussherm.oscillator import _expansion_grid

    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    rows, n = (100001, 4096) if "--kmax" in argv else (9001, _expansion_grid(9000).num_points)
    assert captured.err.startswith(f"error: a Hermite basis of {rows} rows x N={n} points needs ")
    assert captured.err.endswith(f"past the {BASIS_BYTES_CAP // 2 ** 20} MiB budget\n")


@pytest.mark.parametrize("command", ["envelope", "coeffs", "bargmann", "evolve"])
def test_dilation_past_its_byte_budget_exits_3(command, capsys):
    """This expansion's dilation matrix would be 12.8 GB; the basis on the
    grid of its degree (40001 x 90512 doubles) is larger still and is refused
    first, so neither is built, and evolve's --grid-L/--grid-N do not change
    that."""
    import tracemalloc

    from gaussherm.oscillator import _expansion_grid

    n = _expansion_grid(40000).num_points
    assert 40001 * 40001 * 8 > BASIS_BYTES_CAP and n > 40001
    argv = [command, "hermite:k=40000", "--a", "0.01"]
    if command == "evolve":
        argv += ["--grid-L", "370", "--grid-N", "16"]
    tracemalloc.start()
    try:
        assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # a few copies of the 640 KB coefficients, not a GB array
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: a Hermite basis of 40001 rows x N={n} points needs 27623 MiB, "
                            f"past the {BASIS_BYTES_CAP // 2 ** 20} MiB budget\n")


@pytest.mark.parametrize("argv", [
    ["envelope"], ["coeffs"], ["bargmann"], ["evolve", "--times", "0"],
    ["confine", "--beta", "0.5", "--gamma", "0.3"],
], ids=lambda argv: argv[0])
def test_first_k_past_the_basis_budget_exits_3(argv, capsys, tmp_path):
    """hermite:k=1765, the first index whose grid's basis (1766 x 19016
    doubles) is past the budget, is refused before anything is allocated
    and leaves no output file; in evolve and confine no --grid-L/--grid-N
    widens or narrows the budget's reach."""
    import tracemalloc

    from gaussherm.oscillator import _expansion_grid

    n = _expansion_grid(1765).num_points
    assert 1765 * _expansion_grid(1764).num_points * 8 <= BASIS_BYTES_CAP < 1766 * n * 8
    tracemalloc.start()
    try:
        out = tmp_path / "o.csv"
        grid = ["--grid-L", "1000"] if argv[0] in ("evolve", "confine") else []
        assert main([argv[0], "hermite:k=1765", *argv[1:], *grid, "--out", str(out)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: a Hermite basis of 1766 rows x N={n} points needs 257 MiB, "
                            f"past the {BASIS_BYTES_CAP // 2 ** 20} MiB budget\n")


def test_count_cap_in_config_file_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"kmax": KMAX_CAP + 1}))
    assert main(["coeffs", "gaussian:b=0.5", "--config", str(cfg_file)]) == 2
    assert f"--kmax must be <= {KMAX_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["envelope", "gaussian:A=1e300,b=1.533154", "--a=2.778325"], 0),
    (["envelope", "gaussian:A=1e300,b=1.186842+0.103884i"], 0),
    (["confine", "gaussian:A=-1.610852-0.297212i,b=1e300", "--beta=0.6", "--gamma=0.4"], 4),
    (["confine", "chirp:alpha=5e-324", "--beta=5e-324", "--gamma=5e-324", "--format=json"], 0),
    (["evolve", "gaussian:A=1e200,b=1e300", "--t-grid=2"], 0),
    (["evolve", "gaussian:A=1e300,b=1", "--t-grid=2"], 3),
    (["norms", "gaussian:A=1e300,b=1", "--a-list=0.5"], 0),
], ids=["envelope-real-b", "envelope-complex-b", "confine-wide-b", "confine-subnormal-chirp",
        "evolve-norm-in-range", "evolve-norm-past-range", "norms-past-range"])
def test_range_edge_gaussians_are_answered_or_refused(argv, code, capsys):
    """A square that overflows on the way to a finite value does not stop
    it: the class constants of A = 1e300, the norm 1e400/sqrt(2e300) and
    the chirp's sup 3.8e161 print.  A printed value past the double range
    is refused (exit 3), except in norms, whose tables print it as inf."""
    assert exit_code(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        assert "inf" not in captured.out.lower() or argv[0] == "norms"
    else:
        assert "internal error" not in captured.err
    if code == 3:
        assert captured.err == "error: the input's norm_sq is past the double range\n"


def test_evolve_of_an_expansion_past_the_double_range_is_refused(tmp_path, capsys):
    """sum |c_k|^2 of two coefficients 1e300 is past the double range:
    evolve, which prints it, exits 3, and envelope, which does not, prints
    the constants (which scale with the coefficients) without a warning."""
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"coeffs": [[1e300, 0], [1e300, 0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exit_code(["evolve", f"expansion:@{path}", "--t-grid=2"]) == 3
        assert capsys.readouterr().err == "error: the input's norm_sq is past the double range\n"
        assert exit_code(["envelope", f"expansion:@{path}"]) == 0
    out = capsys.readouterr().out
    assert out.split("\r\n")[1].startswith("time,0.5,2.2458731091624536e+300,")


_RANGE_EDGE = ("0", "1e300", "-1e300", "5e-324")


def _range_edge_argv(rng, tmp_path):
    """One argv of a state command whose spec and weights often take a
    range-edge value."""
    def real():
        return rng.choice(_RANGE_EDGE) if rng.random() < 0.6 else f"{rng.uniform(-3, 3):.6f}"

    def cplx():
        im = real()
        return real() if rng.random() < 0.5 else f"{real()}{'' if im[0] == '-' else '+'}{im}i"

    kind = rng.choice(["gaussian", "hermite", "chirp", "squeezed", "expansion"])
    if kind == "gaussian":
        spec = f"gaussian:A={cplx()},b={cplx()}"
    elif kind == "hermite":
        spec = f"hermite:k={rng.randrange(0, 90)}"
    elif kind == "expansion":
        path = tmp_path / f"e{rng.randrange(10 ** 6)}.json"
        path.write_text(json.dumps({"coeffs": [[float(real()), float(real())]
                                               for _ in range(rng.randrange(1, 9))]}))
        spec = f"expansion:@{path}"
    else:
        spec = f"{kind}:{'alpha' if kind == 'chirp' else 'beta'}={real()}"
    cmd = rng.choice(["coeffs", "envelope", "bargmann", "evolve", "confine", "norms"])
    argv = [cmd, spec]
    if cmd == "confine":
        argv += [f"--beta={real()}", f"--gamma={real()}", f"--t-grid={rng.randrange(1, 9)}"]
    elif cmd == "norms":
        argv.append(f"--a-list={real()},{real()}")
    elif rng.random() < 0.5:
        argv.append(f"--a={real()}")
    if cmd == "evolve":
        argv.append(f"--t-grid={rng.randrange(1, 9)}")
    return argv


#: Grids past L ~ 1.68e154, where (0.8 L)**2 overflows a double, and those
#: of their rows past |x| ~ 1.9e154, where x**2/2 does.
_HUGE_GRID_ARGV = [[*argv, "--grid-L", grid_l, "--format", fmt]
                   for grid_l in ("1.7e154", "1e200", "1e300") for fmt in ("csv", "json")
                   for argv in (["norms", "--kmax", "3"], ["verify-all"])]


def test_range_edge_sweep_has_no_internal_error_and_a_quiet_exit_0(tmp_path, capsys):
    """300 seeded argv of the state commands with 0, +-1e300 and 5e-324 in
    their specs and weights, then ``norms`` and ``verify-all`` on grids of
    half-width 1.7e154, 1e200 and 1e300: no reply is an internal error, and
    an exit 0 writes nothing to stderr and raises no warning."""
    rng = random.Random(20261019)

    def quiet_exit_code(argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = exit_code(argv)
        err = capsys.readouterr().err
        assert "internal error" not in err, argv
        if code == 0:
            assert err == "" and not caught, (argv, err, [str(w.message) for w in caught])
        return code

    codes = [quiet_exit_code(_range_edge_argv(rng, tmp_path)) for _ in range(300)]
    assert set(codes) <= {0, 2, 3, 4} and codes.count(0) >= 50
    huge = [quiet_exit_code(argv) for argv in _HUGE_GRID_ARGV]
    assert huge == [0, 1] * 6  # norms answers; verify-all's verdict fails there


def test_a_grid_whose_spacing_overflows_is_a_parse_error(capsys):
    """Past L ~ 8.99e307 the spacing 2L/N overflows: --grid-L there is
    refused as --grid-L inf is (exit 2), before anything is sampled."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["norms", "--grid-L", "1.7976931348623157e308", "--kmax", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("error: half_width must give a finite spacing 2L/N, "
                   "got 1.7976931348623157e+308\n")


@pytest.mark.parametrize("grid_l", ["1.6e154", "1e200", "1e300"])
def test_verify_all_refuses_to_sample_a_grid_past_the_double_range(grid_l, capsys):
    """On a grid where x^2 at the edge is past the double range, the four
    criteria that sample the run grid fail with a detail naming that, and
    the others still run: exit 1, nothing on stderr, no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify-all", "--grid-L", grid_l, "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == "" and not caught, [str(w.message) for w in caught]
    failed = {c["name"]: c["detail"] for c in json.loads(out)["criteria"] if not c["pass"]}
    assert sorted(failed) == ["hardy_threshold", "normalization_pins", "oscillator_evolution",
                              "reflection_identity"]
    assert set(failed.values()) == {
        f"raised NumericalDomainError: the run grid's samples cannot be formed: x^2 at its "
        f"edge L={float(grid_l):g} is past the double range"}


@pytest.mark.parametrize("grid_l, grid_n, detail", [
    ("1e120", "4096", "(L=1e+120, N=4096) cannot resolve phi_60: its spacing h=4.88e+116 "
                      "has h sqrt(2K+1) = 5.37e+117 > 2.35"),
    ("1e105", "4096", "(L=1e+105, N=4096) cannot resolve phi_60: its spacing h=4.88e+101 "
                      "has h sqrt(2K+1) = 5.37e+102 > 2.35"),
    ("16", "128", "(L=16, N=128) cannot resolve phi_60: its spacing h=0.25 "
                  "has h sqrt(2K+1) = 2.75 > 2.35"),
])
def test_verify_all_refuses_a_run_grid_too_coarse_for_its_highest_index(grid_l, grid_n, detail,
                                                                        capsys):
    """A run grid whose spacing h cannot resolve phi_K, K = min(kmax,
    grid_kmax), h sqrt(2K+1) > 2.35, fails the four criteria that sample it
    with a detail naming the grid, not a measured value: exit 1, nothing on
    stderr."""
    code = main(["verify-all", "--grid-L", grid_l, "--grid-N", grid_n, "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    failed = {c["name"]: c["detail"] for c in json.loads(out)["criteria"] if not c["pass"]}
    assert sorted(failed) == ["hardy_threshold", "normalization_pins", "oscillator_evolution",
                              "reflection_identity"]
    assert set(failed.values()) == {f"raised NumericalDomainError: the run grid {detail}"}


def test_verify_all_samples_a_run_grid_that_resolves_its_highest_index(capsys):
    """Below the rule the grid is sampled: at h sqrt(2K+1) = 2.34 (L = 12,
    N = 98, K = 45) every criterion passes, and at 2.2 (L = 16, N = 160,
    K = 60) the pins, the reflection check and the flow do."""
    assert main(["verify-all", "--grid-L", "12", "--grid-N", "98"]) == 0
    capsys.readouterr()
    main(["verify-all", "--grid-L", "16", "--grid-N", "160", "--format", "json"])
    passed = {c["name"] for c in json.loads(capsys.readouterr().out)["criteria"] if c["pass"]}
    assert {"normalization_pins", "reflection_identity", "oscillator_evolution"} <= passed


@pytest.mark.parametrize("argv", [
    ["confine", "gaussian:A=1,b=5e-324+2.5i", "--beta", "1", "--gamma", "0.5"],
    ["evolve", "gaussian:A=1,b=5e-324+2.5i", "--a", "0.1", "--t-grid", "4"],
], ids=["confine", "evolve"])
def test_a_flow_past_double_precision_names_the_input_width_and_time(argv, capsys):
    """A width whose Re 1/b rounds to 0 is refused along the flow as a
    numerical-domain error (exit 3) that names the input width and the time,
    not as the refused construction of an internal Gaussian."""
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the flow of the Gaussian of width b=(5e-324+2.5j) at t=0.0 ")
    assert "Re(width)" not in err


def test_the_fourier_side_past_double_precision_is_a_domain_error():
    g = GeneralizedGaussian(1.0, 5e-324 + 2.5j)
    with pytest.raises(NumericalDomainError, match=r"width b=\(5e-324\+2.5j\)"):
        fourier_gaussian(g)
    with pytest.raises(NumericalDomainError, match=r"width b=\(5e-324\+2.5j\) at t=0.7 "):
        evolve_gaussian(g, 0.7)
    assert main(["norms", "gaussian:A=1,b=5e-324+2.5i", "--a-list", "0.1"]) == 3


@pytest.mark.parametrize("argv, width", [
    (["coeffs", "gaussian:b=1e-17"], "(1e-17+0j)"),
    (["bargmann", "gaussian:b=1e-17"], "(1e-17+0j)"),
    (["coeffs", "gaussian:b=1e300"], "(1e+300+0j)"),
], ids=["coeffs-tiny-b", "bargmann-tiny-b", "coeffs-huge-b"])
def test_a_bargmann_ratio_on_the_unit_circle_names_the_input_width(argv, width, capsys):
    """Re b > 0 holds, but z = (1-b)/(1+b) rounds onto the unit circle: the
    Bargmann side is refused (exit 3) naming the input width, not as the
    refused construction of an internal Bargmann image.  envelope and evolve,
    which do not take the Bargmann side, answer the same width."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: the Bargmann transform of the Gaussian of width b={width} ")
    assert "quad_coeff" not in captured.err
    for other in (["envelope", argv[1]], ["evolve", argv[1], "--t-grid", "4"]):
        assert main(other) == 0
        assert capsys.readouterr().err == ""


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_render_table_writes_non_finite_meta_as_text():
    """A non-finite meta value, alone or in a list, prints as its text, so
    a strict parser reads the table; finite values print as before."""
    meta = {"command": "confine", "sup_constant": math.inf, "attained_ts": [math.nan, 0.5],
            "a": 0.25}
    data = _strict_json(render_table(["t", "c"], [[0.0, -math.inf]], "json", meta))
    assert data["sup_constant"] == "inf" and data["attained_ts"] == ["nan", 0.5]
    assert data["a"] == 0.25 and data["rows"] == [[0.0, "-inf"]]


def _reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    return str(value)


def _reference_json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _reference_fmt(value)
    return value


def _reference_render_table(header, rows, fmt, meta) -> str:
    """render_table as it was first written, csv.writer over a format call
    per cell and the pure-Python json.dumps(indent=2): the reference for
    the writer that formats each row in one call."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_fmt(v) for v in row])
        return buf.getvalue()
    payload = {key: [_reference_json_safe(v) for v in value] if isinstance(value, list)
               else _reference_json_safe(value) for key, value in meta.items()}
    payload["columns"] = header
    payload["rows"] = [[_reference_json_safe(v) for v in row] for row in rows]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


#: Cells of the writer's corpus: ints, floats at the double range's edges,
#: non-finite floats, numpy float64s, bools and strings csv must quote.
_CELLS = {
    "int": [0, -1, 2 ** 53 + 1, 2 ** 63],
    "float": [-0.0, 5e-324, 1e308, 1 / 3, math.nan, math.inf, -math.inf],
    "float64": [np.float64(0.1), np.float64(-2.5e-300), np.float64(math.nan)],
    "bool": [True, False],
    "str": ["a,b", 'say "x"', "cr\rhere", "nl\nhere", "", "NaN", "-Infinity", "plain"],
}


def _corpus_table(rng, n_rows):
    """A seeded table: each column of one cell kind, or of mixed kinds."""
    kinds = [rng.choice([*_CELLS, "mixed"]) for _ in range(rng.randint(1, 6))]
    pools = [sum(_CELLS.values(), []) if kind == "mixed" else _CELLS[kind] for kind in kinds]
    header = [rng.choice(["t", "constant", "a,b", 'q"h', ""]) for _ in kinds]
    rows = [[rng.choice(pool) for pool in pools] for _ in range(n_rows)]
    meta = {"command": "test", "a": rng.choice([0.25, math.nan, None, "x"]),
            "sup_constant": rng.choice([math.inf, -math.inf, 1 / 3]),
            "attained_ts": [math.nan, 0.5, math.inf]}
    return header, rows, meta


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, 64])
def test_render_table_equals_the_reference_writer(fmt, n_rows):
    """The writer prints every byte the cell-by-cell writer prints, on a
    seeded corpus of tables, as lists and as tuples of cells."""
    rng = random.Random(f"render-{fmt}-{n_rows}")
    for _ in range(60):
        header, rows, meta = _corpus_table(rng, n_rows)
        want = _reference_render_table(header, rows, fmt, meta)
        assert render_table(header, rows, fmt, meta) == want
        assert render_table(header, [tuple(row) for row in rows], fmt, meta) == want
    for rows in ([[]], [[], [1.5]], [[1.5], [], [2]]):  # rows without cells
        assert render_table(["a"], rows, fmt, {}) == _reference_render_table(["a"], rows, fmt, {})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_table_of_100001_rows_equals_the_reference_writer(fmt):
    rng = random.Random(100_001)
    values = _CELLS["int"] + _CELLS["float"] + [np.float64(0.7)]
    rows = [[k, rng.choice(values), rng.random(), k % 3 == 0] for k in range(100_001)]
    header, meta = ["k", "v", "u", "flag"], {"command": "test", "C": math.nan}
    assert render_table(header, rows, fmt, meta) == _reference_render_table(header, rows, fmt, meta)


def _cli_tables(argv):
    """The CSV and the JSON table of one command: (header, CSV rows, JSON rows)."""
    out = {}
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([*argv, "--format", fmt]) == 0
        out[fmt] = buf.getvalue()
    header, *rows = csv.reader(io.StringIO(out["csv"]))
    data = _strict_json(out["json"])
    assert data["columns"] == header
    return header, rows, data["rows"]


def _as_double(cell):
    """A printed number as the double it parses to; true/false as bools."""
    if isinstance(cell, str) and cell in ("true", "false"):
        return cell == "true"
    return cell if isinstance(cell, bool) else float(cell)


@pytest.mark.parametrize("argv", [
    ["evolve", "squeezed:beta=0.27236", "--a", "0.340408"],
    ["evolve", "hermite:k=7", "--a", "0.3", "--t-grid", "8"],
    ["confine", "squeezed:beta=0.854728", "--beta", "0.8", "--gamma", "0.3"],
    ["confine", "hermite:k=5", "--beta", "0.6", "--gamma", "0.4", "--t-grid", "8"],
    ["coeffs", "chirp:alpha=0.27465", "--kmax", "80"],
    ["coeffs", "hermite:k=40", "--kmax", "60"],
    ["bargmann", "gaussian:A=1.3-0.2i,b=0.7+1.1i", "--w-count", "12"],
    ["bargmann", "hermite:k=9", "--a", "0.4"],
], ids=lambda v: v[0] + "-" + v[1].partition(":")[0])
def test_every_printed_number_parses_back_to_the_same_double(argv):
    """CSV (%.17g) and JSON (the shortest repr) print each cell so that it
    parses back to the double the command computed: both formats give the
    same doubles, and evolve's equal the flow rows formed in-process."""
    header, csv_rows, json_rows = _cli_tables(argv)
    assert len(csv_rows) == len(json_rows) > 0
    for csv_row, json_row in zip(csv_rows, json_rows):
        for text, value in zip(csv_row, json_row):
            got, want = _as_double(text), _as_double(value)
            assert got == want or (math.isnan(got) and math.isnan(want))
    if argv[0] == "evolve":
        spec = parse_input_spec(argv[1])
        times = int(argv[argv.index("--t-grid") + 1]) if "--t-grid" in argv else 64
        flow = list(osc.flow_envelopes(spec.state, times, float(argv[argv.index("--a") + 1])))
        for row, (norm, mem) in zip(csv_rows, flow):
            assert [float(v) for v in row[1:4]] == [
                norm, mem.time_report.constant, mem.frequency_report.constant]


def _mp_flow_columns(g, t, mp):
    """|A(t)|, |A(t)| |b(t)|^{-1/2} and |A(t)|^2 / sqrt(2 Re b(t)) of the
    Gaussian's flow at t, in mpmath's precision."""
    amp, b, t = mp.mpc(g.amplitude), mp.mpc(g.width), mp.mpf(t)
    c, s = mp.cos(2 * t), mp.sin(2 * t)
    bt = (b * c - 1j * s) / (c - 1j * b * s)
    at = amp * mp.exp(1j * t) * mp.sqrt(1 + bt) / mp.sqrt(1 + b)
    return abs(at), abs(at) / mp.sqrt(abs(bt)), abs(at) ** 2 / mp.sqrt(2 * bt.real)


@pytest.mark.parametrize("spec", [
    "squeezed:beta=0.2", "squeezed:beta=0.854728", "chirp:alpha=0.27465", "chirp:alpha=0.7",
    "gaussian:A=1.3-0.2i,b=0.7+1.1i", "gaussian:A=0.8+0.4i,b=2.5-0.3i",
])
def test_gaussian_flow_columns_against_mpmath_closed_forms(spec):
    """evolve's norm and constants and confine's constants of a Gaussian
    agree with the closed forms at 30 digits, at the input's own A and b
    and the printed t, to 2e-15 relative (the worst measured over these
    inputs is 8.9e-16, four ulps)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    g = parse_input_spec(spec).state
    _, evolve_rows, _ = _cli_tables(["evolve", spec, "--a", "0.05"])
    _, confine_rows, _ = _cli_tables(["confine", spec, "--beta", "2", "--gamma", "0.01"])
    checked = 0
    for rows, columns in ((evolve_rows, (2, 3, 1)), (confine_rows, (1, 2))):
        assert len(rows) == 64
        for row in rows:
            want = _mp_flow_columns(g, float(row[0]), mp)
            for col, closed in zip(columns, want):
                assert abs(float(row[col]) - closed) <= 2e-15 * closed
                checked += 1
    assert checked == 64 * 5


@pytest.mark.parametrize("argv", [
    ["evolve", "gaussian:A=1,b=4e-324+1i", "--a", "0.1"],
    ["confine", "gaussian:A=1,b=4e-324+1i", "--beta", "1", "--gamma", "0.5"],
], ids=["evolve", "confine"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_flow_whose_width_rounds_to_0_is_refused_at_its_first_time(argv, fmt, capsys):
    """Re b(t) of b = 5e-324 + i rounds to 0 at t = 22 pi/128, the 23rd time
    of the 64-time grid: the refusal names that time and b(t), exit 3, and
    prints no table."""
    assert main([*argv, "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the flow of the Gaussian of width b=(5e-324+1j) at t=0.5399612373357456 has "
        "width b(t)=-0.3033466836073422j, whose real part or that of 1/b(t) rounds to 0: "
        "Re b is too small for double precision\n")


def test_gaussian_evolve_table_keeps_its_last_bits(capsys):
    """The flow's closed form keeps its order of operations, so a table
    prints the same last digits as when each time built its Gaussian:
    A(t) = ((A e^{it}) sqrt(1+b(t))) / sqrt(1+b), |A(t)|^2 / sqrt(2 Re b(t))."""
    assert main(["evolve", "gaussian:A=1.3-0.2i,b=0.7+1.1i", "--a", "0.2", "--t-grid", "4"]) == 0
    assert capsys.readouterr().out == (
        "t,norm_sq,envelope_constant_time,envelope_constant_frequency,"
        "divergent_time,divergent_frequency\r\n"
        "0,1.4621168606803341,1.3152946437965907,1.1518895045558628,false,false\r\n"
        "0.39269908169872414,1.4621168606803332,1.0513117793737001,1.8601075237738269,false,false\r\n"
        "0.78539816339744828,1.4621168606803336,1.1518895045558626,1.3152946437965904,false,false\r\n"
        "1.1780972450961724,1.4621168606803336,1.8601075237738274,1.0513117793737004,false,false\r\n")
