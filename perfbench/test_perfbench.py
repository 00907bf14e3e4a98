"""Tests of the benchmark itself: generator, oracles and tracing.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import metric_units  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    """The benchmark runs from the root of a checkout, with relative paths."""
    monkeypatch.chdir(ROOT)


def _generate(workload, seed, workdir):
    reqs = workloads.generate(workload, seed, workdir)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return [r["argv"] for r in reqs], files


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(workload, tmp_path):
    workdir = os.path.relpath(tmp_path / "inputs")
    first = _generate(workload, 7, workdir)
    second = _generate(workload, 7, workdir)
    assert first == second
    if workload != "verify_all":
        assert _generate(workload, 8, workdir)[0] != first[0]


def test_generator_reaches_the_band_limit_and_probes_past_it(tmp_path):
    reqs = workloads.generate("flow", 1, os.path.relpath(tmp_path))
    band = workloads.band_limit(workloads.DEFAULT_GRID)
    herm = [r["input"]["k"] for r in reqs[:500]
            if r["input"] and r["input"]["family"] == "hermite" and r["grid"] == [16.0, 4096]]
    assert 0.95 * band < max(herm) <= band
    assert workloads.property_shares(reqs)["beyond_band_share"] == 0.0
    for workload in ("bounds", "flow"):
        probes = workloads.generate_probes(workload, 1)
        assert probes and probes == workloads.generate_probes(workload, 1)
        assert all(r["beyond_band"] for r in probes if r["input"])


def _serve(argv):
    import gaussherm.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _first(reqs, **match):
    for r in reqs:
        inp = r["input"] or {}
        if all((r.get(k) if k in r else inp.get(k)) == v for k, v in match.items()):
            return r
    raise LookupError(match)


def _replace_number(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def _csv_cell(stdout, row, col):
    return stdout.split("\r\n")[row].split(",")[col]


CASES = [
    # (workload, match, corruption of a correct stdout)
    ("bounds", {"cmd": "coeffs", "family": "gaussian", "fmt": "csv"},
     lambda s: _replace_number(s, _csv_cell(s, 1, 1), "0.5")),
    ("bounds", {"cmd": "coeffs", "family": "hermite", "fmt": "csv"},
     lambda s: s.rsplit("\r\n", 2)[0] + "\r\n"),  # drop the last row
    ("bounds", {"cmd": "coeffs", "family": "file", "fmt": "csv"},
     lambda s: _replace_number(s, _csv_cell(s, 2, 1), "1.5")),
    ("bounds", {"cmd": "envelope", "family": "chirp", "fmt": "csv"},
     lambda s: _replace_number(s, _csv_cell(s, 1, 2), "0.75")),
    ("bounds", {"cmd": "bargmann", "family": "gaussian", "fmt": "csv"},
     lambda s: _replace_number(s, _csv_cell(s, 1, 4), "1e300")),
    ("flow", {"cmd": "evolve", "family": "squeezed", "fmt": "csv"},
     lambda s: _replace_number(s, _csv_cell(s, 2, 1), "0.9999")),
    ("flow", {"cmd": "confine", "family": "file", "fmt": "csv"},
     lambda s: _replace_number(s, _csv_cell(s, 3, 2), "nan")),
    ("flow", {"cmd": "norms", "family": None, "fmt": "csv", "grid": [24.0, 6144]},
     lambda s: _replace_number(s, _csv_cell(s, 3, 3), "1.5")),
    ("flow", {"cmd": "norms", "family": "file", "fmt": "csv"},
     lambda s: _replace_number(s, _csv_cell(s, 1, 0), "0.123")),
]


@pytest.mark.parametrize("workload,match,corrupt", CASES)
def test_oracle_rejects_corrupted_output(workload, match, corrupt, tmp_path):
    reqs = workloads.generate(workload, 3, os.path.relpath(tmp_path))
    req = _first(reqs, **{"grid": [16.0, 4096], **match})
    code, stdout = _serve(req["argv"])
    assert oracles.check(req, code, stdout) is None
    assert oracles.check(req, code, corrupt(stdout)) is not None
    assert oracles.check(req, 2, stdout) is not None


def test_oracle_counts_the_band_limit_case(tmp_path):
    """evolve hermite:k=120 exits 0 with a norm that is not the input's."""
    req = workloads._request(["evolve", "hermite:k=120", "--t-grid", "4"], "evolve",
                             workloads._hermite(120, workloads.DEFAULT_GRID),
                             t_grid=4, fmt="csv")
    code, stdout = _serve(req["argv"])
    assert code == 0
    assert "norm_sq" in oracles.check(req, code, stdout)


def test_oracle_confine_divergence_is_the_only_correct_reply(tmp_path):
    reqs = workloads.generate("flow", 3, os.path.relpath(tmp_path))
    req = next(r for r in reqs if r["cmd"] == "confine" and r.get("diverge")
               and r["grid"] == [16.0, 4096] and r["t_grid"] == 64)
    code, stdout = _serve(req["argv"])
    assert code == 4 and oracles.check(req, code, stdout) is None
    assert oracles.check(req, 0, stdout) is not None


def test_oracle_verify_all():
    req = workloads._request(["verify-all", "--format", "json"], "verify-all", None, fmt="json")
    code, stdout = _serve(req["argv"])
    assert oracles.check(req, code, stdout) is None
    payload = json.loads(stdout)
    payload["criteria"][3]["pass"] = False
    assert oracles.check(req, code, json.dumps(payload)) is not None
    payload["criteria"] = payload["criteria"][:10]
    assert oracles.check(req, code, json.dumps(payload)) is not None


def _worker(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                   env=env, check=True, timeout=300)


@pytest.mark.parametrize("workload,count", [("bounds", 36), ("flow", 20)])
def test_traced_and_untraced_stdout_are_byte_identical(workload, count, tmp_path):
    workdir = os.path.relpath(tmp_path / "inputs")
    reqs = workloads.generate(workload, 5, workdir)
    reqs_path = os.path.join(workdir, "requests.json")
    with open(reqs_path, "w", encoding="utf-8") as fh:
        json.dump(reqs, fh)
    results = {}
    for name, extra in (("plain", []), ("traced", ["--trace", str(tmp_path / "spans.json")]),
                        ("again", ["--trace", str(tmp_path / "spans2.json")])):
        _worker(["serve", reqs_path, str(tmp_path / f"{name}.json"), "--count", str(count),
                 *extra])
        with open(tmp_path / f"{name}.json", encoding="utf-8") as fh:
            results[name] = json.load(fh)
    digests = {name: [r["sha256"] for r in res["results"]] for name, res in results.items()}
    assert len(digests["plain"]) == count
    assert digests["plain"] == digests["traced"]
    layers = results["traced"]["layers"]
    assert layers["cli.parse_s"] > 0 and layers["trace.spans"] > count
    assert layers["hermite.fourier_calls"] == 0
    if workload == "flow":
        assert layers["bargmann.contour_calls"] == 0
        assert layers["oscillator.time_samples"] > 0
    else:
        assert layers["bargmann.contour_calls"] > 0
    # counts are exact: a second traced pass over the same requests agrees
    counts = [k for k, unit in metric_units().items() if unit != "s"]
    assert {k: layers[k] for k in counts} == {k: results["again"]["layers"][k] for k in counts}


def test_tracer_rebinds_every_alias():
    code = (
        "import gaussherm, gaussherm.cli as cli, gaussherm.oscillator as osc, "
        "gaussherm.weighted as wt, gaussherm.hermite as h, gaussherm.verify as v\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "assert cli.synthesize is osc.synthesize is wt.synthesize is h.synthesize "
        "is gaussherm.synthesize\n"
        "assert h.synthesize.__wrapped__ is not h.synthesize\n"
        "assert all(hasattr(f, '__wrapped__') for f in v.ALL_CRITERIA)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_tail_keeps_ten_samples_beyond_it():
    import run

    assert run._tail(list(range(1, 201))) == (190, "p95", 10)
    assert run._tail(list(range(1, 29))) == (18, "p64.3", 10)
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, "max", 0)


def test_each_request_is_scaled_by_the_kernel_around_it():
    import worker

    # kernel runs before requests 0, 2 and 5 and after the last one
    cals = [(0, 1.0), (2, 3.0), (2, 3.0), (5, 5.0)]
    assert worker._bracketing_kernel(cals, 5) == [2.0, 2.0, 4.0, 4.0, 4.0]
