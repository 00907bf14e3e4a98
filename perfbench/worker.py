"""One benchmark process: serves CLI requests in-process and reports.

Two modes, both run from the root of a checkout with ``src`` on PYTHONPATH:

``worker.py cold REQUESTS RESULT``
    A fresh interpreter: time ``import gaussherm.cli``, then serve the first
    request once.

``worker.py probe PROBES RESULT``
    A fresh interpreter: import the CLI and serve each probe request once
    (see ``workloads.generate_probes``); untimed.

``worker.py serve REQUESTS RESULT [--count N] [--trace SPANS]``
    Import the CLI, serve request 0 once to warm up, then serve the request
    list in order as a closed loop with one client (the next request is sent
    when the previous reply is in): exactly N requests, or, without
    ``--count``, in timed segments whose lengths arrive on stdin (the caller
    runs its cold processes between segments, while this one is idle).
    Replies are checked by the oracles after the loop.

Each request is one ``gaussherm.cli.main(argv)`` call with stdout and stderr
captured in memory.  The reference kernel of ``calibrate.py`` runs before
and after the cold request and, in ``serve``, between requests at least
every CAL_EVERY_S; the import time and each latency are also given scaled
to the kernel's reference speed.
"""

from __future__ import annotations

import os
import sys
import time

import calibrate

#: Longest time between two runs of the reference kernel in ``serve``.
CAL_EVERY_S = 0.5


def _check_program():
    """Refuse to measure a gaussherm that is not the checkout's own."""
    import gaussherm

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gaussherm.__file__).startswith(src + os.sep):
        raise SystemExit(f"gaussherm imported from {gaussherm.__file__}, not from {src}")


def serve(cli, argv):
    """(latency s, exit code or None, stdout, error text) for one request."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv with exit 2
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a traceback is a failed request
            code = None
            error = traceback.format_exc(limit=-3)
    latency = time.perf_counter() - t0
    return latency, code, out.getvalue(), error or err.getvalue()


def _load(path):
    import json

    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path, payload):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _verdict(req, code, stdout, error):
    """None for a correct reply, else why not (see oracles.py)."""
    import oracles

    if code is None:
        return "traceback: " + error.strip().splitlines()[-1]
    return oracles.check(req, code, stdout)


def cold(requests_path, result_path):
    t0 = time.perf_counter()
    import gaussherm.cli as cli

    import_s = time.perf_counter() - t0
    _check_program()
    req = _load(requests_path)[0]
    calibrate.warm_up()
    before = calibrate.gauge()
    latency, code, stdout, error = serve(cli, req["argv"])
    kernel_s = 0.5 * (before + calibrate.gauge())
    _write(result_path, {"import_s": import_s, "latency_s": latency, "kernel_s": kernel_s,
                         "import_scaled_s": import_s * calibrate.REFERENCE_S / before,
                         "scaled_s": latency * calibrate.REFERENCE_S / kernel_s,
                         "code": code, "failure": _verdict(req, code, stdout, error)})


def probe(probes_path, result_path):
    import gaussherm.cli as cli

    _check_program()
    results = []
    for req in _load(probes_path):
        _, code, stdout, error = serve(cli, req["argv"])
        results.append({"code": code, "failure": _verdict(req, code, stdout, error)})
    _write(result_path, {"results": results})


def _blas() -> dict:
    """BLAS library and its thread count, as numpy loaded it."""
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _segments():
    """Lengths in seconds of the timed segments, one per line of stdin; the
    run ends at end of input.  Each segment is acknowledged on stdout."""
    print("ready", flush=True)
    for line in sys.stdin:
        yield float(line)
        print("paused", flush=True)


def _bracketing_kernel(cals, count):
    """Per request, the mean of the kernel times measured just before and
    just after it."""
    out = []
    for (start, before), (end, after) in zip(cals, cals[1:]):
        out += [0.5 * (before + after)] * (end - start)
    assert len(out) == count
    return out


def run(requests_path, result_path, count=None, spans_path=None):
    import hashlib
    import resource

    reqs = _load(requests_path)
    import gaussherm.cli as cli

    _check_program()
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    serve(cli, reqs[0]["argv"])
    if tracer:
        tracer.reset()

    calibrate.warm_up()
    served = []
    cals = []  # (index of the next request, kernel time)
    wall = 0.0
    for seconds in ([None] if count is not None else _segments()):
        t_start = t_cal = time.perf_counter()
        cals.append((len(served), calibrate.gauge()))
        while (len(served) < count if seconds is None
               else time.perf_counter() - t_start < seconds):
            if time.perf_counter() - t_cal >= CAL_EVERY_S:
                cals.append((len(served), calibrate.gauge()))
                t_cal = time.perf_counter()
            if tracer:
                tracer.request = len(served)
            served.append(serve(cli, reqs[len(served) % len(reqs)]["argv"]))
        cals.append((len(served), calibrate.gauge()))
        wall += time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [{"latency_s": latency, "kernel_s": kernel, "code": code,
                "scaled_s": latency * calibrate.REFERENCE_S / kernel,
                "failure": _verdict(reqs[i % len(reqs)], code, stdout, error),
                "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
               for i, ((latency, code, stdout, error), kernel)
               in enumerate(zip(served, _bracketing_kernel(cals, len(served))))]
    payload = {
        "wall_s": wall,
        "results": results,
        "peak_rss_mb": peak_rss_mb,
        "blas": _blas(),
        "versions": _versions(),
    }
    if tracer:
        payload["layers"] = tracer.metrics()
        tracer.dump(spans_path)
    _write(result_path, payload)


def main(argv):
    if argv[0] == "cold":
        cold(argv[1], argv[2])
        return 0
    if argv[0] == "probe":
        probe(argv[1], argv[2])
        return 0
    opts = dict(zip(argv[3::2], argv[4::2]))
    run(argv[1], argv[2],
        count=int(opts["--count"]) if "--count" in opts else None,
        spans_path=opts.get("--trace"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
