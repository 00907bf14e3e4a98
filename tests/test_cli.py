"""CLI behavior: input parsing, exit codes, artifact formats, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gaussherm.cli import (
    CliParseError,
    load_config,
    main,
    parse_complex,
    parse_input_spec,
)


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
    assert g.gaussian.amplitude == 2
    assert g.gaussian.width == 0.5 + 0.1j
    h = parse_input_spec("hermite:k=3")
    assert np.all(h.expansion.coeffs == np.array([0, 0, 0, 1], dtype=complex))
    c = parse_input_spec("chirp:alpha=0.27465")
    assert c.default_a == pytest.approx(math.tanh(2 * 0.27465))
    s = parse_input_spec("squeezed:beta=0.5")
    assert s.gaussian is not None
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"coeffs": [[1.0, 0.0], [0.0, -1.0]]}))
    e = parse_input_spec(f"expansion:@{path}")
    assert np.all(e.expansion.coeffs == np.array([1.0, -1.0j]))


@pytest.mark.parametrize(
    "spec",
    ["nonsense", "gaussian:b=", "gaussian:A=1", "hermite:k=-1", "chirp:beta=1",
     "expansion:nofile", "gaussian:b=0.5,zz=1"],
)
def test_parse_input_spec_rejects(spec):
    with pytest.raises(CliParseError):
        parse_input_spec(spec)


def test_load_config_precedence(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"kmax": 12, "format": "json", "grid_L": 10.0}))
    cfg = load_config(str(cfg_file), {"kmax": 20})
    assert cfg.kmax == 20  # flag wins
    assert cfg.output_format == "json"
    assert cfg.grid_l == 10.0
    with pytest.raises(CliParseError):
        load_config(str(cfg_file), {"output_format": "xml"})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    with pytest.raises(CliParseError):
        load_config(str(bad), {})
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"kmax": 12, "tolerances": {"reflection": 1e-8}}))
    with pytest.raises(CliParseError, match="unknown config key 'tolerances'"):
        load_config(str(stale), {})


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
    # valid spec, but the Bargmann integrand peaks beyond the grid edge
    # once Re w exceeds 2L, so the quadrature refuses
    code = main(["bargmann", "hermite:k=2", "--w-ring", "34",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert not (tmp_path / "x.csv").exists()  # no partial artifact


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


def test_norms_with_input(tmp_path):
    out = tmp_path / "n.csv"
    assert main(["norms", "gaussian:b=1", "--a-list", "0.2,0.5", "--kmax", "8",
                 "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert vals[0.5] == pytest.approx(1.0, rel=1e-9)  # ||g_1||_{1/2}^2 = 1


def test_evolve_times(tmp_path):
    out = tmp_path / "ev.csv"
    assert main(["evolve", "squeezed:beta=0.5", "--times", "0,0.39269908169872414",
                 "--a", "0.5", "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    n0 = float(rows[0].split(",")[1])
    n1 = float(rows[1].split(",")[1])
    assert n1 == pytest.approx(n0, rel=1e-10)  # the flow is unitary


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
    ["confine", "hermite:k=4", "--beta", "0.75", "--gamma", "0.5"],
    ["evolve", "hermite:k=4", "--a", "0.4"],
], ids=["confine", "evolve"])
def test_expansion_flow_builds_basis_once(argv, monkeypatch, tmp_path):
    import gaussherm.hermite as hermite

    build = hermite.hermite_phi_all
    kmaxes = []

    def counting(kmax, xs):
        kmaxes.append(kmax)
        return build(kmax, xs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gaussherm") and getattr(mod, "hermite_phi_all", None) is build:
            monkeypatch.setattr(mod, "hermite_phi_all", counting)
    assert main([*argv, "--t-grid", "16", "--out", str(tmp_path / "o.csv")]) == 0
    assert kmaxes == [4]


def test_bargmann_table(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bargmann", "gaussian:b=0.5", "--w-count", "8", "--out", str(out)]) == 0
    rows = out.read_bytes().decode().strip().split("\r\n")[1:]
    assert len(rows) == 8
    for row in rows:
        cells = row.split(",")
        abs_u, quadrant = float(cells[4]), float(cells[5])
        assert abs_u <= quadrant * (1 + 1e-9)


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
    assert set(data["config"]) == {"grid_L", "grid_N", "kmax", "t_grid_size"}
    assert data["config"]["kmax"] == 60  # the criteria ran with max(kmax, 60)


def test_csv_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["coeffs", "chirp:alpha=0.27465", "--kmax", "20",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_subprocess_entry_point(tmp_path):
    res = run_cli(["envelope", "gaussian:b=0.5", "--a", "0.5"])
    assert res.returncode == 0
    assert res.stdout.startswith("side,a,constant")
    res = run_cli(["coeffs", "bad spec"])
    assert res.returncode == 2
    assert "error:" in res.stderr
