"""Timings of gaussherm's kernels and verify criteria, in-process, and of
its import (with numpy's, and after it), ``verify-all``, the 4,096-time ``evolve`` and ``confine`` of
``hermite:k=81``, the 4,096-time ``evolve`` of a seeded dense 82-term
expansion, the 64- and 4,096-time ``evolve`` of ``hermite:k=1764`` and the
100,001-row ``coeffs`` tables in CSV and JSON in fresh interpreters, plus the
first ``verify-all`` of a fresh interpreter timed inside it after its import.
One cycle of perfbench's ``flow`` requests (its 17 argv, taken from
``perfbench/workloads.py``) is replayed in-process as one item.
``fourier_rows 8 Bargmann kernels`` is the batch the program transforms
(``reflection_row_sets``' kernels at verify's 8 points); nothing in the
program sends ``fourier_rows`` the real rows of ``21 real phi rows`` or
``F=25``, which are kept so earlier files stay comparable.

Run from the root of a checkout (the package is taken from its ``src``)::

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench.py --label basis_cache --repeats 7

Each item is called once untimed (so lazy set-up and caches are warm, as
they are for every request after the first in a long-lived process), then
``--repeats`` times under ``time.perf_counter``.  ``--only TEXT`` (which may
be repeated) keeps the items whose name holds one of the texts.  The
commands in fresh interpreters include starting Python; the import is run
3 times untimed, so the file cache and the bytecode are warm, and then
timed 5 times whatever ``--repeats`` says.  The first ``verify-all`` is timed by the fresh
interpreter itself, from after ``import gaussherm.cli`` to the return of
``cli.main``: the cost a user pays once per process, which perfbench reads
as ``cold_request_ms``.  So is ``import gaussherm.cli`` in a fresh
interpreter that has already imported numpy (20 times after 3 untimed
runs): the package's own import, which perfbench reads as ``setup_s`` and
which numpy's import, three to ten times longer, hides in the plain
import item.  The median, min and max of those repeats are printed
and written, with the machine's nproc, the Python and numpy versions and
``OPENBLAS_NUM_THREADS``, to ``BENCH_<label>.json`` at the checkout root.
Timings are noisy on a shared machine: compare two labels only when both
files come from the same machine, and read the min/max spread first.

``perfbench/calibrate.py``'s fixed kernel, which does not call the package,
gauges the machine's speed: it is the first item, and it is also gauged
(median of 3 runs) just before and just after every item, and both times are
written beside the item's timing as ``kernel_ms``.  The machine's speed
drifts within a run of about 40 s, so compare an item across two files
through the ratio of its own kernel times, not the first item's.

``--against CHECKOUT`` compares this checkout with a second one (the root
of another copy of the repository) in one run: each checkout's package is
loaded in a worker process of its own, which runs this file's items, and
each item's timed calls alternate between the two workers (ABBA order,
warm-ups first), so both sides see the same drift.  The file then holds
both sides' median, min and max, the ratio of the medians (this / against)
and how many of the repeats' pairs this checkout won::

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench.py --label flow_half \\
        --against ../parent --only "K=63 T=64" --only hermite_phi_all
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import inspect
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import calibrate  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

#: The checkout whose package is timed: this one, or a worker's.
PACKAGE_ROOT = ROOT


def load_package(root: str) -> None:
    """Import gaussherm from ``root``/src into this module's namespace."""
    global PACKAGE_ROOT, bargmann, cli, gaussians, hermite, oscillator, verify, weighted
    global DEFAULT_GRID, SampledFunction, analyze, fourier_sampled, hermite_phi_all
    PACKAGE_ROOT = os.path.abspath(root)
    sys.path.insert(0, os.path.join(PACKAGE_ROOT, "src"))
    from gaussherm import bargmann, cli, gaussians, hermite, oscillator, verify, weighted
    from gaussherm.grid import DEFAULT_GRID, SampledFunction
    from gaussherm.hermite import analyze, fourier_sampled, hermite_phi_all

#: The 4,096-time evolve of hermite:k=1764: about a second a call where a
#: single-term expansion forms its t = 0 row once, 30-45 s where it forms
#: every time (2 vCPU), so it is timed 3 times, not ``--repeats``, and not
#: warmed up.
LONG_EVOLVE = "evolve hermite:k=1764 --a 0.3 --t-grid 4096 (subprocess)"

#: The 100,001-row coeffs tables, 1.5-2.5 s a call as a subprocess.
WIDE_COEFFS = {fmt: f"coeffs hermite:k=40 --kmax 100000 --format {fmt} (subprocess)"
               for fmt in ("csv", "json")}

#: ``import gaussherm.cli`` timed by a fresh interpreter after its numpy import.
IMPORT_AFTER_NUMPY = "import gaussherm.cli after numpy (fresh interpreter)"

#: Items timed a fixed number of times, whatever ``--repeats`` says.
FIXED_REPEATS = {"import gaussherm.cli (fresh interpreter)": 5, IMPORT_AFTER_NUMPY: 20,
                 LONG_EVOLVE: 3, WIDE_COEFFS["csv"]: 6, WIDE_COEFFS["json"]: 6}

#: Untimed calls before timing (default 1).
WARMUPS = {"import gaussherm.cli (fresh interpreter)": 3, IMPORT_AFTER_NUMPY: 3, LONG_EVOLVE: 0}

#: Run in a fresh interpreter: one ``verify-all --format json`` after the
#: import, printing its exit status and the seconds ``cli.main`` took.
FIRST_VERIFY_ALL = """\
import contextlib, io, time
from gaussherm import cli
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["verify-all", "--format", "json"])
print(status, time.perf_counter() - start)
"""

#: Run in a fresh interpreter: numpy's import, then the package's, timed
#: alone, as perfbench's ``setup_s`` times it.
TIMED_IMPORT = """\
import time
import numpy
start = time.perf_counter()
import gaussherm.cli
print(time.perf_counter() - start)
"""

#: Items whose callable returns its own time in seconds.
SELF_TIMED = {"verify-all first run (fresh interpreter, import excluded)", IMPORT_AFTER_NUMPY}


def run_cli(argv: list[str]) -> None:
    """One ``cli.main`` call with its stdout captured, as a request is served."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"gaussherm {' '.join(argv)} failed")


def run_subprocess(args: list[str]) -> bytes:
    """One fresh interpreter on this checkout's package; its stdout, refused
    unless it exits 0."""
    env = dict(os.environ, PYTHONPATH=os.path.join(PACKAGE_ROOT, "src"))
    res = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {res.returncode}: {res.stderr[-500:]!r}")
    return res.stdout


def first_verify_all_s() -> float:
    """Seconds of the first ``verify-all`` in a fresh interpreter, import excluded."""
    status, seconds = run_subprocess(["-c", FIRST_VERIFY_ALL]).split()
    if status != b"0":
        raise RuntimeError(f"verify-all in a fresh interpreter returned {status!r}")
    return float(seconds)


def import_after_numpy_s() -> float:
    """Seconds of ``import gaussherm.cli`` in a fresh interpreter that has
    already imported numpy."""
    return float(run_subprocess(["-c", TIMED_IMPORT]))


def dense_expansion_file() -> str:
    """``expansion:@`` spec of 82 dense complex coefficients drawn from
    ``np.random.default_rng(81)`` (K = 81, the default grid's band limit),
    written to a temporary directory that is removed when the process exits."""
    rng = np.random.default_rng(81)
    coeffs = np.stack([rng.normal(size=82), rng.normal(size=82)], axis=1)
    folder = tempfile.mkdtemp(prefix="gaussherm-bench-")
    atexit.register(shutil.rmtree, folder, True)
    path = os.path.join(folder, "dense-k81.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"coeffs": coeffs.tolist()}, fh)
    return f"expansion:@{path}"


def flow_cycle() -> list[list[str]]:
    """The argv of one 17-request cycle of perfbench's ``flow`` workload (seed
    1, the requests after its cold probe), its expansion files written to a
    temporary directory that is removed when the process exits."""
    folder = tempfile.mkdtemp(prefix="gaussherm-bench-flow-")
    atexit.register(shutil.rmtree, folder, True)
    return [req["argv"] for req in workloads.generate("flow", 1, folder)[1:18]]


def replay(argvs: list[list[str]]) -> None:
    """``cli.main`` on each argv in turn, stdout and stderr captured, as
    perfbench's worker serves them (a refusal's exit code is a reply too)."""
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)


def t_grid(size: int):
    """What asks ``confinement_check`` for ``default_t_grid(size)``: the size,
    where it takes one (an even grid then forms half its times), else the
    times themselves."""
    sig = inspect.signature(oscillator.confinement_check)
    return size if sig.parameters["t_grid"].default == 64 else oscillator.default_t_grid(size)


def cold_band(grid):
    """``grid_basis`` of ``grid``'s whole band with the cache emptied first."""
    hermite._GRID_BASIS = None
    return hermite.grid_basis(grid, hermite.band_limit(grid))


def switch_back(wide, grid):
    """``grid_basis`` rows phi_0..phi_30 on ``wide`` (which evicts ``grid``'s
    basis), then phi_0..phi_40 on ``grid`` again, as a process serving
    requests on two grids switches between them."""
    hermite.grid_basis(wide, 30)
    return hermite.grid_basis(grid, 40)


def items():
    """(name, zero-argument callable) pairs, in report order."""
    grid = DEFAULT_GRID
    xs = grid.xs
    f = SampledFunction(grid, (1.0 + 0.5j * xs) * np.exp(-(0.4 - 0.3j) * xs * xs))
    state = gaussians.squeezed_state(0.5)
    squeezed = gaussians.hermite_coeffs(state, 81)
    state_k70 = gaussians.hermite_coeffs(state, 70)
    ts, ts8 = t_grid(64), t_grid(8)
    cfg = verify.VerifyConfig()
    ring = 3.0 * np.exp(2j * np.pi * np.arange(10) / 10)
    phis = hermite_phi_all(20, grid.xs)
    stack = np.vstack([phis, [f.values] * 4])
    ring24 = 2.0 * np.exp(2j * np.pi * np.arange(24) / 24)
    others = [gaussians.gaussian(0.5)] + [gaussians.boundary_chirp(al) for al in (0.2, 0.27465, 0.5)]
    others = np.array([g.sample(grid).values for g in others])
    phis_hat = hermite.fourier_rows(phis, grid)
    kernels = bargmann._kernel(grid, verify._REFLECTION_WS)
    wide = verify.WIDE_GRID
    wide_phis = hermite_phi_all(30, wide.xs)
    dense81 = dense_expansion_file()
    rng = np.random.default_rng(1)
    expansion40 = hermite.HermiteExpansion(rng.normal(size=40) + 1j * rng.normal(size=40))
    expansion63 = hermite.HermiteExpansion((rng.normal(size=64) + 1j * rng.normal(size=64))
                                           * 0.9 ** np.arange(64))
    out = [
        ("calibrate kernel", calibrate.kernel_s),
        ("cli build_parser", cli.build_parser),
        ("import gaussherm.cli (fresh interpreter)",
         lambda: run_subprocess(["-c", "import gaussherm.cli"])),
        (IMPORT_AFTER_NUMPY, import_after_numpy_s),
        ("verify-all --format json (subprocess)",
         lambda: run_subprocess(["-m", "gaussherm", "verify-all", "--format", "json"])),
        ("verify-all first run (fresh interpreter, import excluded)", first_verify_all_s),
        ("hermite_phi_all K=60 N=4096", lambda: hermite_phi_all(60, grid.xs)),
        ("hermite_phi_all K=81 N=4096", lambda: hermite_phi_all(81, grid.xs)),
        ("hermite_phi_all K=30 N=6144", lambda: hermite_phi_all(30, wide.xs)),
        ("grid_basis cold, the default grid's band", lambda: cold_band(grid)),
        ("grid_basis wide grid K=30, then the default grid K=40", lambda: switch_back(wide, grid)),
        ("analyze K=60 N=4096", lambda: analyze(f, 60)),
        ("fourier_sampled N=4096", lambda: fourier_sampled(f)),
        ("fourier_rows F=25 N=4096", lambda: hermite.fourier_rows(stack, grid)),
        ("fourier_rows 21 real phi rows N=4096", lambda: hermite.fourier_rows(phis, grid)),
        ("fourier_rows Gaussian/chirp F=4 N=4096", lambda: hermite.fourier_rows(others, grid)),
        ("fourier_rows 8 Bargmann kernels N=4096", lambda: hermite.fourier_rows(kernels, grid)),
        ("bargmann_row_sets F=1 W=10 N=4096", lambda: bargmann.bargmann_row_sets([f.values], grid, ring)),
        ("bargmann_row_sets F=21 W=10 N=4096", lambda: bargmann.bargmann_row_sets([phis], grid, ring)),
        ("bargmann_row_sets F=21 W=8 N=4096 (transformed rows)",
         lambda: bargmann.bargmann_row_sets([phis_hat], grid, verify._REFLECTION_WS)),
        ("reflection_row_sets verify's rows F=21+4 W=8 N=4096",
         lambda: bargmann.reflection_row_sets([phis, others], grid, verify._REFLECTION_WS)),
        ("weighted_energy_rows F=31 N=6144 a=0.5", lambda: weighted.weighted_energy_rows(wide_phis, wide, 0.5)),
        ("exact Uf Gaussian W=24", lambda: bargmann.bargmann_exact(state, ring24)),
        ("exact Uf expansion K=40 W=24", lambda: bargmann.bargmann_exact(expansion40, ring24)),
        ("contour column k=2..80 a=0.5", lambda: bargmann.log_contour_coeff_bound(np.arange(2, 81), 0.5)),
        ("central_binomial_certificate beta=1.1",
         lambda: weighted.central_binomial_certificate(1.1)),
        ("expansion_weighted_norm_sq K=81",
         lambda: weighted.expansion_weighted_norm_sq(squeezed, 0.4)),
        ("scaled_gram_columns K=300 a=tanh(0.45)",
         lambda: list(weighted.scaled_gram_columns(300, float(np.tanh(0.45))))),
        ("phi_weighted_norm_sq n<=60 a=0.5", lambda: weighted.phi_weighted_norm_sq(np.arange(61), 0.5)),
        ("generating_function_check a=0.5 w=0.25 nmax=400",
         lambda: weighted.generating_function_check(0.5, 0.25, 400)),
        ("optimal_contour n=200 mu=1/3", lambda: bargmann.optimal_contour(200, 1.0 / 3.0)),
        ("confinement_check Gaussian T=64",
         lambda: oscillator.confinement_check(state, 0.5, 0.45, ts)),
        ("confinement_check K=70 T=64 N=4096",
         lambda: oscillator.confinement_check(state_k70, 0.5, 0.45, ts)),
        ("evolve hermite:k=81 --t-grid 4096 (subprocess)",
         lambda: run_subprocess(["-m", "gaussherm", "evolve", "hermite:k=81",
                                 "--t-grid", "4096"])),
        ("evolve dense K=81 expansion --t-grid 4096 (subprocess)",
         lambda: run_subprocess(["-m", "gaussherm", "evolve", dense81, "--t-grid", "4096"])),
        ("confine hermite:k=81 --t-grid 4096 (subprocess)",
         lambda: run_subprocess(["-m", "gaussherm", "confine", "hermite:k=81",
                                 "--beta", "0.5", "--gamma", "0.45", "--t-grid", "4096"])),
        ("confinement_check expansion K=63 T=64",
         lambda: oscillator.confinement_check(expansion63, 0.5, 0.45, ts)),
        ("confinement_check K=70 T=8 N=4096",
         lambda: oscillator.confinement_check(state_k70, 0.5, 0.45, ts8)),
        ("evolve hermite:k=1764 --a 0.3 --t-grid 64 (subprocess)",
         lambda: run_subprocess(["-m", "gaussherm", "evolve", "hermite:k=1764",
                                 "--a", "0.3", "--t-grid", "64"])),
        ("evolve hermite:k=1764 --a 0.3 --t-grid 4096 (subprocess)",
         lambda: run_subprocess(["-m", "gaussherm", "evolve", "hermite:k=1764",
                                 "--a", "0.3", "--t-grid", "4096"])),
    ]
    for command in ("envelope", "coeffs", "bargmann"):
        for spec in ("squeezed:beta=0.5", "hermite:k=40"):
            out.append((f"cli {command} {spec}", lambda argv=[command, spec]: run_cli(argv)))
    for fmt in ("csv", "json"):
        out.append((f"cli evolve squeezed:beta=0.5 --format {fmt}",
                    lambda fmt=fmt: run_cli(["evolve", "squeezed:beta=0.5", "--format", fmt])))
    out.append(("cli confine squeezed:beta=0.5",
                lambda: run_cli(["confine", "squeezed:beta=0.5", "--beta", "0.5",
                                 "--gamma", "0.3"])))
    cycle = flow_cycle()
    out.append(("perfbench flow cycle, 17 requests (in-process)", lambda: replay(cycle)))
    for fmt, name in WIDE_COEFFS.items():
        out.append((name, lambda fmt=fmt: run_subprocess(["-m", "gaussherm", "coeffs", "hermite:k=40",
                                                    "--kmax", "100000", "--format", fmt])))
    for fn in verify.ALL_CRITERIA:
        out.append((f"verify.{fn.__name__.removeprefix('criterion_')}",
                    lambda fn=fn: fn(cfg)))
    # one criterion repeated alone keeps its own grid's basis cached; the
    # whole suite, as verify-all runs it, switches grids between criteria
    out.append(("verify.run_all", lambda: verify.run_all(cfg)))
    return out


def summary(times: list[float]) -> dict:
    """Median, min and max of the times in ms, and their count."""
    return {
        "median_ms": 1e3 * statistics.median(times),
        "min_ms": 1e3 * min(times),
        "max_ms": 1e3 * max(times),
        "repeats": len(times),
    }


def call_s(fn, self_timed: bool = False) -> float:
    """Seconds of one call; a ``self_timed`` callable returns its own."""
    start = time.perf_counter()
    own = fn()
    return own if self_timed else time.perf_counter() - start


def time_item(fn, repeats: int, warmups: int = 1, self_timed: bool = False) -> dict:
    """:func:`summary` of ``repeats`` calls after ``warmups`` untimed ones."""
    for _ in range(warmups):
        fn()
    return summary([call_s(fn, self_timed) for _ in range(repeats)])


def serve(root: str) -> int:
    """A worker of ``--against``: load ``root``'s package, then for each item
    name read from stdin run one call and answer its seconds (or, for
    ``warm <name>``, its warm-up calls) on a line of its own."""
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    load_package(root)
    table = dict(items())
    for line in sys.stdin:
        warm, _, name = line.rstrip("\n").partition(" ")
        with contextlib.redirect_stdout(sys.stderr):
            if warm == "warm":
                for _ in range(WARMUPS.get(name, 1)):
                    table[name]()
                print("ok", file=reply)
            else:
                print(call_s(table[name], name in SELF_TIMED), file=reply)
    return 0


class Worker:
    """A worker process timing the items of one checkout's package."""

    def __init__(self, root: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)

    def ask(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"the worker stopped at {line!r}")
        return answer.strip()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def compare(names: list[str], repeats: int, against: str) -> dict:
    """Each item timed in this checkout and in ``against``, the calls
    alternating between the two workers in ABBA order."""
    workers = [Worker(ROOT), Worker(against)]
    results = {}
    try:
        for name in names:
            for w in workers:
                w.ask("warm " + name)
            times = [[], []]
            for r in range(FIXED_REPEATS.get(name, repeats)):
                for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                    times[side].append(float(workers[side].ask("time " + name)))
            this, other = summary(times[0]), summary(times[1])
            results[name] = {
                "this": this, "against": other,
                "ratio_of_medians": this["median_ms"] / other["median_ms"],
                "pairs_won": sum(a < b for a, b in zip(*times)),
            }
            print(f"{name:45s} {other['median_ms']:9.3f} -> {this['median_ms']:9.3f} ms  "
                  f"ratio {results[name]['ratio_of_medians']:.3f}  "
                  f"won {results[name]['pairs_won']}/{len(times[0])}")
    finally:
        for w in workers:
            w.close()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="names the output BENCH_<label>.json (required)")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per item")
    parser.add_argument("--only", action="append", metavar="TEXT",
                        help="time only the items whose name holds TEXT (may be repeated)")
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="root of a second checkout to time each item against, "
                             "alternating call by call")
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return serve(args.worker)
    if not args.label:
        parser.error("--label is required")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    load_package(ROOT)
    table = [(name, fn) for name, fn in items()
             if not args.only or any(text in name for text in args.only)]
    payload = {
        "label": args.label,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if args.against:
        payload["against"] = args.against
        payload["timings"] = compare([name for name, _ in table], args.repeats, args.against)
    else:
        results = {}
        calibrate.warm_up()
        for name, fn in table:
            before = calibrate.gauge()
            r = time_item(fn, FIXED_REPEATS.get(name, args.repeats),
                          WARMUPS.get(name, 1), name in SELF_TIMED)
            r["kernel_ms"] = [1e3 * before, 1e3 * calibrate.gauge()]
            results[name] = r
            print(f"{name:45s} median {r['median_ms']:9.3f} ms  "
                  f"min {r['min_ms']:9.3f}  max {r['max_ms']:9.3f}  "
                  f"kernel {r['kernel_ms'][0]:6.3f}/{r['kernel_ms'][1]:6.3f}")
        payload["timings"] = results
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
