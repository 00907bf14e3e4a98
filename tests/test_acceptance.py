"""Acceptance suite: runs every verification criterion at its pinned
tolerance and prints one PASS/FAIL line per criterion, then exercises the
CLI determinism/schema criterion on top.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `python -m gaussherm verify-all` for the same checks as an
artifact.
"""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from gaussherm import gaussians, hermite, oscillator, verify
from gaussherm.verify import ALL_CRITERIA, VerifyConfig, run_all

CRITERION_NAMES = [
    "normalization_pins",
    "reflection_identity",
    "coeff_bound_dominance",
    "endpoint_sharpness",
    "contour_machinery",
    "oscillator_evolution",
    "confinement",
    "weighted_norm_identities",
    "factorial_certificate",
    "uniform_norm_coeff_bound",
    "hardy_threshold",
]


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_all(VerifyConfig())}


def test_criteria_are_complete(results):
    assert list(results) == CRITERION_NAMES
    assert len(ALL_CRITERIA) == len(CRITERION_NAMES)


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(results, name):
    r = results[name]
    status = "PASS" if r.passed else "FAIL"
    print(f"{status}  {r.name}: measured={r.measured:.6g} threshold={r.threshold} | {r.detail}")
    assert r.passed, f"{r.name}: measured={r.measured} > {r.threshold}; {r.detail}"


@pytest.mark.parametrize("size", [1, 7, 10, 13, 64])
def test_confinement_passes_on_any_t_grid(size, results, capsys):
    """No criterion reads a t grid, so ``verify-all`` takes no ``--t-grid``
    (exit 2).  The sups that confinement checks are taken over all t:
    ``confine`` of its squeezed state at gamma = beta prints the closed-form
    sup (1-r)^{-1/2}, attained at 3pi/8, at a size that misses 3pi/8 (any
    size not divisible by 4) as well, and confinement and
    uniform_norm_coeff_bound pass (C = 1.308662, the sup of ||psi_t||_a)."""
    from gaussherm.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--t-grid", str(size)])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["confine", "squeezed:beta=0.5", "--beta", "0.5", "--gamma", "0.5",
                 "--t-grid", str(size), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["rows"]) == size
    assert data["sup_constant"] == pytest.approx((1 - math.exp(-1.0)) ** -0.5, rel=1e-12)
    assert min(abs(t - 3 * math.pi / 8) for t in data["attained_ts"]) < 1e-12
    for name in ("confinement", "uniform_norm_coeff_bound"):
        assert results[name].passed, results[name].detail
    assert "C = 1.308662 " in results["uniform_norm_coeff_bound"].detail


def _run_verify_all(path, fmt):
    return subprocess.run(
        [sys.executable, "-m", "gaussherm", "verify-all", "--format", fmt,
         "--out", str(path)],
        capture_output=True,
        text=True,
    )


def test_cli_determinism_and_schema(tmp_path):
    """Criterion 12: verify-all passes under the default configuration,
    repeated runs are byte-identical, and the JSON artifact follows the
    documented schema."""
    j1, j2 = tmp_path / "v1.json", tmp_path / "v2.json"
    r1 = _run_verify_all(j1, "json")
    r2 = _run_verify_all(j2, "json")
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    b1, b2 = j1.read_bytes(), j2.read_bytes()
    assert b1 == b2
    data = json.loads(b1)
    assert data["all_pass"] is True
    assert [c["name"] for c in data["criteria"]] == CRITERION_NAMES
    for crit in data["criteria"]:
        assert set(crit) == {"name", "pass", "measured", "threshold", "detail"}
        assert crit["pass"] is True
        assert isinstance(crit["measured"], float)
        assert crit["measured"] <= crit["threshold"]
    assert set(data["config"]) == {"grid_L", "grid_N", "kmax", "grid_kmax",
                                   "wide_grid_L", "wide_grid_N"}
    c1, c2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert _run_verify_all(c1, "csv").returncode == 0
    assert _run_verify_all(c2, "csv").returncode == 0
    assert c1.read_bytes() == c2.read_bytes()
    header = c1.read_bytes().decode().split("\r\n")[0]
    assert header == "name,pass,measured,threshold,detail"
    print("PASS  cli_determinism_and_schema: byte-identical artifacts, schema valid")


def test_verify_all_fails_loudly_on_degraded_grid(tmp_path):
    """A deliberately coarse grid must break quadrature-based criteria and
    flip the exit code to 1 (the suite does not pass vacuously).  The
    verdict is the output: nothing goes to stderr, on that grid nor on a
    wide one, where the Hardy scan's weight e^{x^2/2} overflows past
    |x| ~ 37.7 (it wrote numpy's overflow and 0 * inf warnings), nor on
    two huge ones, where the Hardy ground-state residual's squared norm
    passes the double range and reads inf (it wrote an overflow warning);
    those two fail."""
    out = tmp_path / "bad.json"
    res = subprocess.run(
        [sys.executable, "-m", "gaussherm", "verify-all", "--format", "json",
         "--grid-L", "4.0", "--grid-N", "64", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 1 and res.stderr == ""
    data = json.loads(out.read_bytes())
    assert data["all_pass"] is False
    failed = [c["name"] for c in data["criteria"] if not c["pass"]]
    assert "normalization_pins" in failed
    res = subprocess.run(
        [sys.executable, "-m", "gaussherm", "verify-all", "--grid-L", "100", "--grid-N", "16384"],
        capture_output=True,
        text=True,
    )
    assert res.returncode in (0, 1) and res.stderr == ""
    for grid_l in ("1e120", "9.4e153"):
        res = subprocess.run(
            [sys.executable, "-m", "gaussherm", "verify-all", "--grid-L", grid_l],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 1 and res.stderr == ""


def test_verify_all_passes_on_a_narrower_valid_grid(tmp_path):
    """A valid grid that resolves fewer Hermite indices than the criteria
    ask for (band limit 45 at L = 12, 31 at L = 10) runs the grid-bound
    indices at its band limit, echoes it as grid_kmax, and passes every
    criterion; the confinement scan's K = 70 expansion runs on the grid of
    its own degree (at L = 10 the scan of its K = 31 truncation failed)."""
    for grid_l, grid_kmax in (("12", 45), ("10", 31)):
        out = tmp_path / f"narrow{grid_l}.json"
        res = subprocess.run(
            [sys.executable, "-m", "gaussherm", "verify-all", "--format", "json",
             "--grid-L", grid_l, "--grid-N", "4096", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        data = json.loads(out.read_bytes())
        assert data["config"]["grid_kmax"] == grid_kmax
        assert [c["name"] for c in data["criteria"] if c["pass"]] == CRITERION_NAMES


def _verify_all_on(grid_l: str, grid_n: str) -> tuple[subprocess.CompletedProcess, list]:
    res = subprocess.run(
        [sys.executable, "-m", "gaussherm", "verify-all", "--format", "json",
         "--grid-L", grid_l, "--grid-N", grid_n],
        capture_output=True,
        text=True,
    )
    return res, [c["name"] for c in json.loads(res.stdout)["criteria"] if c["pass"]]


def test_verify_all_passes_on_a_wide_grid_at_the_default_spacing():
    """At L = 40 and the default spacing 1/128 the Hardy scan weighs |f| by
    e^{x^2/2} in the log: the weight alone is inf past |x| ~ 37.7, where the
    Gaussian's samples are still nonzero, and their product read inf, so the
    Gaussian was no member of g_1 (exit 1)."""
    res, passed = _verify_all_on("40", "10240")
    assert (res.returncode, res.stderr) == (0, "")
    assert passed == CRITERION_NAMES


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: phi_k from the recurrence is 0 past "
                                       "|x| ~ 38.6, so phi_2's weighted profile stops growing "
                                       "and phi2_divergence fails")
def test_verify_all_passes_at_grid_l_60_and_the_default_spacing():
    res, passed = _verify_all_on("60", "15360")
    assert (res.returncode, res.stderr) == (0, "")
    assert passed == CRITERION_NAMES


@pytest.mark.parametrize("criterion", [
    verify.criterion_normalization_pins,
    verify.criterion_reflection_identity,
    verify.criterion_weighted_norm_identities,
], ids=lambda fn: fn.__name__.removeprefix("criterion_"))
def test_grid_oracle_criteria_stay_below_the_largest_criterion_peak(criterion):
    """After a warm run (basis cache and contour rule built), each criterion
    that runs the stacked grid oracles allocates at its peak less than
    4.7 MB, which the largest of them took before their stacks were blocked
    (weighted_norm_identities, 4.62 MB)."""
    cfg = VerifyConfig()
    run_all(cfg)
    tracemalloc.start()
    try:
        assert criterion(cfg).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.7e6


@pytest.mark.parametrize("criterion", [
    verify.criterion_coeff_bound_dominance,
    verify.criterion_uniform_norm_coeff_bound,
], ids=lambda fn: fn.__name__.removeprefix("criterion_"))
def test_bound_columns_pass_past_the_bounds_underflow(criterion):
    """At --kmax 3000 both the coefficients and the bounds underflow to 0
    (the confinement bound past k ~ 1670); the ratios are taken in log
    scale, so a vanishing coefficient gives ratio 0, not 0/0, and nothing
    warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = criterion(VerifyConfig(kmax=3000))
    assert result.passed, result.detail


@pytest.mark.parametrize("step", [1e-9, -1e-9])
@pytest.mark.parametrize("criterion, state", [
    (verify.criterion_endpoint_sharpness, "boundary_chirp"),
    (verify.criterion_uniform_norm_coeff_bound, "squeezed_state"),
], ids=["endpoint_sharpness", "uniform_norm_coeff_bound"])
def test_sharpness_fails_on_a_rate_moved_by_1e_9(monkeypatch, criterion, state, step):
    """Each sharpness criterion reads its input's rate from the closed form
    to 1e-12: with the chirp's alpha (the squeezed state's beta) moved by
    1e-9, the coefficients decay at a rate the claim does not name, and the
    criterion fails on its rate part."""
    build = getattr(gaussians, state)
    assert criterion(VerifyConfig()).passed
    monkeypatch.setattr(gaussians, state, lambda rate: build(rate + step))
    result = criterion(VerifyConfig())
    assert not result.passed
    assert result.detail.startswith("worst part: rate_sharpness;")
    assert result.measured > 100


def _count_builds(monkeypatch, cfg):
    """Record (kmax, on the run grid's points) of every basis build: every
    ``hermite_phi_all`` call, ``grid_basis``'s among them."""
    build = hermite.hermite_phi_all
    builds = []

    def counted(kmax, xs):
        builds.append((kmax, np.array_equal(np.atleast_1d(xs), cfg.grid.xs)))
        return build(kmax, xs)

    for module in (hermite, oscillator, verify):
        monkeypatch.setattr(module, "hermite_phi_all", counted)
    return builds


def test_warm_run_reads_the_run_grid_basis_from_the_cache(monkeypatch):
    """A warm run takes every row on the run grid from ``hermite.grid_basis``:
    it builds a basis on the run grid's points at most once (none today), and
    at most 3 in all (phi_0 at x = 0 and the wide grid's rows)."""
    cfg = VerifyConfig()
    run_all(cfg)
    builds = _count_builds(monkeypatch, cfg)
    assert all(r.passed for r in run_all(cfg))
    assert sum(on_grid for *_, on_grid in builds) <= 1
    assert len(builds) <= 3


def test_cold_run_builds_the_run_grid_band_once(monkeypatch):
    """A cold run builds the run grid's basis once, its whole band (82 rows
    on the default grid), and every later row on that grid is read from it."""
    cfg = VerifyConfig()
    monkeypatch.setattr(hermite, "_GRID_BASIS", None)
    builds = _count_builds(monkeypatch, cfg)
    assert all(r.passed for r in run_all(cfg))
    assert [kmax for kmax, on_grid in builds if on_grid] == [hermite.band_limit(cfg.grid)]


def test_pinned_expansion_is_the_seeded_draw():
    """oscillator_evolution's pinned coefficients are the draw of
    np.random.default_rng(2024) they replace, bit for bit."""
    rng = np.random.default_rng(2024)
    drawn = rng.normal(size=20) + 1j * rng.normal(size=20)
    assert verify._SEEDED_EXPANSION.dtype == drawn.dtype
    assert verify._SEEDED_EXPANSION.tobytes() == drawn.tobytes()
