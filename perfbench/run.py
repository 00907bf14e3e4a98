"""gaussherm benchmark: seeded CLI traffic, timed end to end and per layer.

Run from the root of a checkout (the package is taken from ``src``)::

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``bounds`` (coeffs/bargmann/envelope),
``flow`` (evolve/confine/norms) and ``verify_all`` (repeated verify-all).
Each request is one in-process ``gaussherm.cli.main(argv)`` call; the load
is a closed loop with one client, in a worker process of its own.

``--trace 0`` reports the end-to-end metrics: set-up (import) time and the
first request's latency, each the median over fresh interpreters; latency
median and tail, throughput and the worker's peak RSS over the timed run.
The fresh interpreters run between segments of the timed run, so both
sample the whole run.  On a shared 2-vCPU Xeon VM the machine's speed
drifted by 10-25% over tens of seconds, and its two vCPUs differed by up to
1.7x at the same moment.  So every time except peak RSS is scaled to the
reference speed of ``calibrate.py``'s kernel, which runs in the same
process next to what it scales: after each import, around each cold
request, and between the requests of the timed run.  The raw medians are
printed beside the metrics, and all raw times are kept in the result file.

``--trace 1`` serves a fixed number of requests twice, untraced and then
traced (``tracer.py``), and reports the per-layer metrics, the tracing
overhead, and whether both passes printed byte-identical stdout.  Every
process runs with one BLAS thread (see ``_env``).

Timed traffic stays inside the program's stated domain (Hermite indices up
to the grid's band limit, weighted-norm tables where the package states its
quadrature tolerance).  Requests past it are served once per run as probes,
untimed and checked by the same oracles; a wrong reply there is a known
defect of the program and is listed, but is not part of ``attempted`` or
``failed``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give every metric
with its unit and sample count, each failing request, the probes' known
defects, the workload's input shares and the provenance.  Spans and full
results are written under ``perfbench/.work/results``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys

import workloads
from tracer import metric_units

#: Fresh interpreters per run for setup_s and cold_request_ms (one more is
#: started first, untimed, to serve the probes; it also compiles bytecode and
#: warms the file cache).
COLD_PROCESSES = 7

#: Per workload: the request rate used to size the fixed-count traced
#: passes to the run length.
TRACE_RATE = {"bounds": 30.0, "flow": 12.0, "verify_all": 0.8}

#: latency_tail_ms is the highest nearest-rank percentile with at least this
#: many samples beyond it (p95 at 200 requests, p99 at 1000).
TAIL_BEYOND = 10

#: A child process taking longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 60

#: The end-to-end metrics and their units, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_request_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

WORK = os.path.join("perfbench", ".work")


class BenchError(RuntimeError):
    pass


WORKER = os.path.join("perfbench", "worker.py")


def _env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: the load is one client, and a second BLAS thread
    # spinning after each product slows the first by up to ~30% on a
    # 2-vCPU machine, by an amount that depends on the preceding request
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(args: list[str]) -> None:
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} killed after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tail(values: list[float]) -> tuple[float, str, int]:
    """The tail latency (see TAIL_BEYOND), its percentile and the samples
    beyond it; the maximum where there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    label = "max" if rank == n else f"p{100.0 * rank / n:.3g}"
    return ordered[rank - 1], label, n - rank


def _failure(index: int, req: dict, res: dict) -> dict:
    return {"request": index, "argv": req["argv"], "code": res["code"], "reason": res["failure"]}


def _provenance(seed: int, worker: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "gaussherm", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": worker["versions"]["numpy"],
        "scipy": worker["versions"]["scipy"],
        "blas": worker["blas"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _await(proc: subprocess.Popen, expected: str) -> None:
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
    line = proc.stdout.readline().strip() if ready else "(timed out)"
    if line != expected:
        raise BenchError(f"timed worker sent {line!r}, expected {expected!r}")


def _timed_run(reqs_path: str, workdir: str, seconds: int) -> tuple[list[dict], dict]:
    """COLD_PROCESSES fresh interpreters, each importing the CLI and serving
    the workload's first request, interleaved with as many segments of the
    timed run in one long-lived worker, so that both sample the whole run."""
    cold_path = os.path.join(workdir, "cold.json")
    timed_path = os.path.join(workdir, "timed.json")
    err_path = os.path.join(workdir, "timed.err")
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, WORKER, "serve", reqs_path, timed_path],
                                env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, text=True)
    try:
        _await(proc, "ready")
        cold = []
        for _ in range(COLD_PROCESSES):
            _child(["cold", reqs_path, cold_path])
            cold.append(_load(cold_path))
            proc.stdin.write(f"{seconds / COLD_PROCESSES!r}\n")
            proc.stdin.flush()
            _await(proc, "paused")
        proc.stdin.close()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            with open(err_path, encoding="utf-8") as err:
                raise BenchError(f"timed worker exited {proc.returncode}: {err.read()[-800:]}")
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed worker killed after {CHILD_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return cold, _load(timed_path)


def _serve(reqs_path: str, workdir: str, name: str, extra: list[str]) -> dict:
    path = os.path.join(workdir, f"{name}.json")
    _child(["serve", reqs_path, path, *extra])
    return _load(path)


def _serve_probes(probes: list[dict], probes_path: str, workdir: str) -> dict:
    """Serve the requests past the program's stated domain once, untimed.

    They are checked by the same oracles; a wrong reply is a known defect of
    the program, listed in the report, and is kept out of ``attempted`` and
    ``failed``, which describe the timed workload."""
    path = os.path.join(workdir, "probes-result.json")
    _child(["probe", probes_path, path])
    results = _load(path)["results"]
    return {"probes": len(probes),
            "known_defects": [_failure(i, req, res) for i, (req, res)
                              in enumerate(zip(probes, results)) if res["failure"]]}


def _metric_table(values: dict, units: dict, samples: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name], "samples": samples[name]}
            for name in units}


def _untraced(reqs: list[dict], reqs_path: str, workdir: str, seconds: int) -> dict:
    """Fresh interpreters for set-up and the cold request, then the timed run."""
    cold, worker = _timed_run(reqs_path, workdir, seconds)
    served = worker["results"]
    failures = [_failure(-i, reqs[0], res) for i, res in enumerate(cold, 1) if res["failure"]]
    failures += [_failure(i, reqs[i % len(reqs)], r) for i, r in enumerate(served) if r["failure"]]
    attempted = len(served) + len(cold)
    latencies = [r["scaled_s"] * 1000.0 for r in served]
    tail, tail_label, beyond = _tail(latencies)
    values = {
        "setup_s": statistics.median(c["import_scaled_s"] for c in cold),
        "cold_request_ms": statistics.median(c["scaled_s"] * 1000.0 for c in cold),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        # requests per second of (scaled) service time over the whole run
        "throughput_rps": len(latencies) * 1000.0 / sum(latencies),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    samples = {name: len(served) for name in END_TO_END_UNITS}
    samples.update(setup_s=len(cold), cold_request_ms=len(cold), peak_rss_mb=1)
    return {
        "metrics": _metric_table(values, END_TO_END_UNITS, samples),
        "attempted": attempted,
        "failures": failures,
        "served": len(served),
        "worker": worker,
        "tail_percentile": tail_label,
        "tail_samples_beyond": beyond,
        "ops_failed_ratio": len(failures) / attempted,
        "raw": {
            "setup_s": statistics.median(c["import_s"] for c in cold),
            "cold_request_ms": statistics.median(c["latency_s"] * 1000.0 for c in cold),
            "latency_p50_ms": statistics.median(r["latency_s"] * 1000.0 for r in served),
            "kernel_ms": statistics.median(r["kernel_s"] * 1000.0 for r in served),
        },
        "latencies_ms": latencies,
        "raw_latencies_ms": [r["latency_s"] * 1000.0 for r in served],
        "kernel_ms": [r["kernel_s"] * 1000.0 for r in served],
        "cold_import_s": [c["import_scaled_s"] for c in cold],
        "raw_cold_import_s": [c["import_s"] for c in cold],
        "cold_latency_ms": [c["scaled_s"] * 1000.0 for c in cold],
        "raw_cold_latency_ms": [c["latency_s"] * 1000.0 for c in cold],
        "cold_kernel_ms": [c["kernel_s"] * 1000.0 for c in cold],
    }


def _traced(reqs: list[dict], reqs_path: str, workdir: str, rate: float, seconds: int,
            spans_path: str) -> dict:
    """The same fixed number of requests served untraced, then traced."""
    count = max(2, round(rate * seconds / 2.0))
    plain = _serve(reqs_path, workdir, "plain", ["--count", str(count)])
    traced = _serve(reqs_path, workdir, "traced", ["--count", str(count), "--trace", spans_path])
    failures = [_failure(i, reqs[i % len(reqs)], r)
                for run in (plain, traced) for i, r in enumerate(run["results"]) if r["failure"]]
    mismatched = [i for i, (a, b) in enumerate(zip(plain["results"], traced["results"]))
                  if a["sha256"] != b["sha256"]]
    busy = [sum(r["scaled_s"] for r in run["results"]) for run in (plain, traced)]
    values = dict(traced["layers"], **{"trace.overhead_ratio": busy[1] / busy[0] - 1.0})
    units = {**metric_units(), "trace.overhead_ratio": "ratio"}
    return {
        "metrics": _metric_table(values, units, {name: count for name in units}),
        "attempted": 2 * count,
        "failures": failures,
        "served": count,
        "worker": traced,
        "byte_identical": not mismatched,
        "mismatched_requests": mismatched,
        "untraced_busy_s": busy[0],
        "traced_busy_s": busy[1],
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of a workload; the result is also written to WORK/results."""
    workdir = os.path.join(WORK, f"{workload}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    reqs = workloads.generate(workload, seed, workdir)
    probes = workloads.generate_probes(workload, seed)
    reqs_path = os.path.join(workdir, "requests.json")
    probes_path = os.path.join(workdir, "probes.json")
    for path, payload in ((reqs_path, reqs), (probes_path, probes)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        probed = _serve_probes(probes, probes_path, workdir)
        if trace:
            out = _traced(reqs, reqs_path, workdir, TRACE_RATE[workload], seconds,
                          os.path.join(results_dir, f"{tag}-spans.json"))
        else:
            out = _untraced(reqs, reqs_path, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    worker = out.pop("worker")
    out.update(workload=workload, seconds=seconds, trace=trace, **probed,
               correct=not out["failures"] and out.get("byte_identical", True),
               shares=workloads.property_shares(reqs[:out.pop("served")]),
               provenance=_provenance(seed, worker))
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return out


def report(out: dict) -> None:
    print(f"== {out['workload']}: {'traced' if out['trace'] else 'untraced'}, "
          f"{out['seconds']} s, {out['attempted']} requests attempted")
    for name, m in out["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  [{out['tail_percentile']}, {out['tail_samples_beyond']} samples beyond]"
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:7s} n={m['samples']}{note}")
    if "ops_failed_ratio" in out:
        print(f"  {'ops_failed_ratio':34s} {out['ops_failed_ratio']:>16.6g} {'ratio':7s} "
              f"n={out['attempted']}")
    if "raw" in out:
        print("  raw medians, before scaling to the reference kernel speed "
              + json.dumps(out["raw"]))
    if "byte_identical" in out:
        print(f"  traced and untraced stdout byte-identical: {out['byte_identical']}")
    print(f"  failed requests: {len(out['failures'])} of {out['attempted']}")
    for f in out["failures"]:
        print(f"    #{f['request']} exit {f['code']}: {' '.join(f['argv'])}: {f['reason']}")
    print(f"  probes past the stated domain (untimed, not in attempted/failed): "
          f"{out['probes']} served, {len(out['known_defects'])} known defects")
    for f in out["known_defects"]:
        print(f"    probe #{f['request']} exit {f['code']}: {' '.join(f['argv'])}: {f['reason']}")
    print("  input shares " + json.dumps(out["shares"]))
    print("  provenance " + json.dumps(out["provenance"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*TRACE_RATE, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "gaussherm", "cli.py")):
        print("error: run from the root of a gaussherm checkout (src/gaussherm not found)",
              file=sys.stderr)
        return 2
    names = list(TRACE_RATE) if args.workload == "all" else [args.workload]
    outs = []
    for name in names:
        try:
            outs.append(measure(name, args.seed, args.seconds, bool(args.trace)))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(outs[-1])
    prefix = len(outs) > 1
    print(json.dumps({
        "correct": all(o["correct"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(len(o["failures"]) for o in outs),
        "metrics": {(f"{o['workload']}.{k}" if prefix else k): {"value": m["value"],
                                                                  "unit": m["unit"]}
                    for o in outs for k, m in o["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
