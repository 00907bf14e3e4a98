"""Seeded request generators for the three benchmark workloads.

A request is a dict with the CLI ``argv`` and the facts its oracle needs
(see ``oracles.py``).  Every fact is derived here from the drawn parameters
with the benchmark's own formulas, never by calling the program.  The same
seed gives the same argv lists and the same ``expansion:@file`` contents.

Draws are even rather than independent (see ``Draws``): each cycle of a
workload has a fixed composition of commands and input families, categorical
settings are dealt from decks and continuous parameters walk golden-ratio
sequences.  The seed changes the values and the order, not the mix, so
run-to-run spread comes from the program, not from the luck of the draw.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random

#: Default grid of the CLI: half-width 16, 4096 points.
DEFAULT_GRID = (16.0, 4096)

#: How far past the grid's band limit the probe's Hermite indices are drawn.
BEYOND_BAND_FACTOR = 1.5

#: Grid on which the package states its weighted-norm quadrature tolerance
#: (1e-6 relative for n <= 30, a in [0.2, 0.8]; verify's ``wide_grid``).
WIDE_GRID = (24.0, 6144)

#: Requests generated per run; a run that finishes them wraps around.
SEQUENCE_LENGTH = 4000

#: Expansion files written per run (the flow probe adds one more).
EXPANSION_FILES = 24


def band_limit(grid) -> int:
    """Largest Hermite index whose turning point sqrt(2k+1) fits inside 0.8 L
    (the package's documented band limit, recomputed here)."""
    half_width, _ = grid
    return int(((0.8 * half_width) ** 2 - 1.0) // 2)


def grid_flags(grid) -> list[str]:
    if grid == DEFAULT_GRID:
        return []
    return ["--grid-L", repr(grid[0]), "--grid-N", str(grid[1])]


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


#: Golden-ratio step: x, x + g, x + 2g, ... (mod 1) spreads evenly over
#: [0, 1) in every window, so any run length sees the whole range.
GOLDEN = 0.6180339887498949


class Draws:
    """Seeded draws that cover their range evenly within a run.

    ``u(name)`` walks a golden-ratio sequence from a seeded start, one
    sequence per name; ``pick(name, options)`` deals the options from a deck
    that is reshuffled when empty, so each pass has the exact composition."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._u: dict[str, float] = {}
        self._decks: dict[str, list] = {}

    def u(self, name: str) -> float:
        x = self._u.get(name)
        x = self.rng.random() if x is None else (x + GOLDEN) % 1.0
        self._u[name] = x
        return x

    def pick(self, name: str, options: list):
        deck = self._decks.get(name)
        if not deck:
            deck = list(options)
            self.rng.shuffle(deck)
            self._decks[name] = deck
        return deck.pop()


# ---------------------------------------------------------------- inputs


def _gaussian_family(rng: random.Random, kind: str, u: float) -> dict:
    """Draw a Gaussian-family input; ``u`` in [0, 1) sets its shape."""
    if kind == "gaussian":
        br = round(0.5 + 1.5 * u, 6)
        b = complex(br, round(rng.uniform(-0.5, 0.5), 6))
        amp = complex(round(rng.uniform(0.5, 2.0), 6), round(rng.uniform(-0.5, 0.5), 6))
        # parts rounded to 6 places print exactly at 6 places and parse back
        spec = f"gaussian:A={_fmt_complex(amp)},b={_fmt_complex(b)}"
    elif kind == "chirp":
        alpha = round(0.15 + 0.6 * u, 6)
        spec = f"chirp:alpha={alpha!r}"
        a = math.tanh(2.0 * alpha)
        amp, b = 1.0 + 0.0j, complex(a, -math.sqrt(1.0 - a * a))
    elif kind == "squeezed":
        beta = round(0.2 + 0.7 * u, 6)
        spec = f"squeezed:beta={beta!r}"
        r = math.exp(-2.0 * beta)
        amp = cmath.exp(1j * math.pi / 8.0) / cmath.sqrt(1.0 + 1j * r)
        b = (1.0 - 1j * r) / (1.0 + 1j * r)
    else:
        raise ValueError(kind)
    return _gaussian_input(spec, kind, amp, b)


def _gaussian_input(spec: str, family: str, amp: complex, b: complex) -> dict:
    """Oracle facts of A exp(-b x^2/2): a_nat = min(Re b, Re 1/b) is the
    widest envelope class of the input, norm_sq its squared L^2(dm) norm."""
    z = abs((1.0 - b) / (1.0 + b))
    return {
        "spec": spec,
        "kind": "gaussian",
        "family": family,
        "A": [amp.real, amp.imag],
        "b": [b.real, b.imag],
        "a_nat": min(b.real, (1.0 / b).real),
        # the flow keeps |psi_t| inside exp(-a x^2/2) for all t iff a <= a_flow
        "a_flow": (1.0 - z) / (1.0 + z),
        "norm_sq": abs(amp) ** 2 / math.sqrt(2.0 * b.real),
    }


def _hermite(k: int, grid) -> dict:
    return {
        "spec": f"hermite:k={k}",
        "kind": "expansion",
        "family": "hermite",
        "k": k,
        "norm_sq": 1.0,
        "beyond_band": k > band_limit(grid),
    }


def _expansion_file(rng: random.Random, path: str, length: int) -> dict:
    """A random coefficient vector with geometric decay, written as JSON."""
    ratio = rng.uniform(0.5, 0.85)
    coeffs = []
    for k in range(length):
        mag = ratio ** k * rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        coeffs.append([mag * math.cos(phase), mag * math.sin(phase)])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"coeffs": coeffs}, fh)
    return {
        "spec": f"expansion:@{path}",
        "kind": "expansion",
        "family": "file",
        "coeffs": coeffs,
        "norm_sq": sum(re * re + im * im for re, im in coeffs),
        "beyond_band": False,
    }


class _Pool:
    """Expansion files written once per run, before timing starts, with
    lengths spread evenly over ``length_range``."""

    def __init__(self, draws: Draws, workdir: str, count: int, length_range):
        lo, hi = length_range
        self.items = [
            _expansion_file(draws.rng, os.path.join(workdir, f"expansion-{i:02d}.json"),
                            lo + int(draws.u("file-length") * (hi - lo + 1)))
            for i in range(count)
        ]
        self._next = 0

    def take(self) -> dict:
        item = self.items[self._next % len(self.items)]
        self._next += 1
        return item


def _request(argv: list[str], cmd: str, inp: dict | None, grid=DEFAULT_GRID, **facts) -> dict:
    req = {"argv": argv, "cmd": cmd, "grid": list(grid), "input": inp}
    req.update(facts)
    req["beyond_band"] = bool(inp and inp.get("beyond_band"))
    return req


def _input(draws: Draws, slot: str, family: str, grid, pool: _Pool) -> dict:
    """An input of the family for one request slot: Gaussian-family kinds are
    dealt in turn; Hermite indices run up to the grid's band limit (indices
    past it go to the probe, see ``generate_probes``)."""
    if family == "gaussian":
        kind = draws.pick(slot + "/kind", ["gaussian", "chirp", "squeezed"])
        return _gaussian_family(draws.rng, kind, draws.u(slot + "/shape"))
    if family == "hermite":
        return _hermite(int(draws.u(slot + "/k") * (band_limit(grid) + 1)), grid)
    return pool.take()


def _cycles(draws: Draws, plan: list, make) -> list[dict]:
    """Repeat the plan, one shuffled cycle at a time, up to SEQUENCE_LENGTH."""
    reqs = []
    while len(reqs) < SEQUENCE_LENGTH:
        cycle = [make(f"{cmd}/{family}", cmd, family) for cmd, family in plan]
        draws.rng.shuffle(cycle)
        reqs.extend(cycle)
    return reqs


def _json_format(draws: Draws, slot: str, argv: list[str], facts: dict, share: int):
    """Every ``share``-th request of a slot asks for JSON instead of CSV."""
    if draws.pick(slot + "/format", ["json"] + ["csv"] * (share - 1)) == "json":
        argv += ["--format", "json"]
        facts["fmt"] = "json"


# ---------------------------------------------------------------- bounds


def _bounds_gaussian_a(draws: Draws, slot: str, inp: dict, in_class: bool):
    """--a for a Gaussian-family input, inside its class or just outside."""
    a_nat = inp["a_nat"]
    u = draws.u(slot + "/a")
    if in_class:
        a = round(min(a_nat, 0.95) * (0.4 + 0.55 * u), 6)
    else:
        a = round(min(a_nat * (1.15 + 0.25 * u), 0.98), 6)
        in_class = a <= a_nat
    return ["--a", repr(a)], a, in_class


#: Length of the cold probes' coefficient tables: long enough (a few hundred
#: ms) that one probe averages over the machine's short-term speed swings.
PROBE_KMAX = 160
PROBE_EXPANSION_LENGTH = 64


def _bounds_probe(draws: Draws) -> dict:
    """First request: a long coeffs table at a = 0.5, the workload's heaviest
    command; its cost depends on kmax and a only, so the cold-request figure
    compares like with like across seeds."""
    rng = draws.rng
    b = complex(round(rng.uniform(0.65, 0.95), 6), round(rng.uniform(-0.2, 0.2), 6))
    amp = complex(round(rng.uniform(0.5, 2.0), 6), round(rng.uniform(-0.5, 0.5), 6))
    inp = _gaussian_input(f"gaussian:A={_fmt_complex(amp)},b={_fmt_complex(b)}",
                          "gaussian", amp, b)
    return _request(["coeffs", inp["spec"], "--a", "0.5", "--kmax", str(PROBE_KMAX)], "coeffs",
                    inp, a=0.5, in_class=True, kmax=PROBE_KMAX, fmt="csv")


def generate_bounds(draws: Draws, workdir: str) -> list[dict]:
    pool = _Pool(draws, workdir, EXPANSION_FILES, (4, 40))
    # one cycle: coeffs, bargmann and envelope, each over two Gaussian-family
    # inputs, one Hermite function and one expansion file
    plan = [(cmd, family) for cmd in ("coeffs", "bargmann", "envelope")
            for family in ("gaussian", "gaussian", "hermite", "file")]

    def make(slot, cmd, family):
        inp = _input(draws, slot, family, DEFAULT_GRID, pool)
        argv = [cmd, inp["spec"]]
        facts = {"fmt": "csv", "in_class": True, "a": None}
        if family == "gaussian":
            in_class = draws.pick(slot + "/in-class", [True] * 4 + [False])
            flags, a, in_class = _bounds_gaussian_a(draws, slot, inp, in_class)
            argv += flags
            facts.update(a=a, in_class=in_class)
        if cmd == "coeffs":
            kmax = draws.pick(slot + "/kmax", [20, 40, 60, 80])
            argv += ["--kmax", str(kmax)]
            facts["kmax"] = kmax
        elif cmd == "bargmann":
            ring = round(1.0 + 2.0 * draws.u(slot + "/ring"), 6)
            count = draws.pick(slot + "/count", [8, 16, 24])
            argv += ["--w-ring", repr(ring), "--w-count", str(count)]
            facts.update(w_ring=ring, w_count=count)
        _json_format(draws, slot, argv, facts, 4)
        return _request(argv, cmd, inp, **facts)

    return ([_bounds_probe(draws)] + _cycles(draws, plan, make))[:SEQUENCE_LENGTH]


# ---------------------------------------------------------------- flow

#: (grid, t-grid) per evolve/confine request and grid per norms request with
#: an input: the defaults dominate, so repeated-basis traffic is neither 0%
#: nor 100%.  The norms table (no input) runs on WIDE_GRID.
FLOW_GRID_T = ([(DEFAULT_GRID, 64)] * 5
               + [(DEFAULT_GRID, 32), ((16.0, 2048), 64), ((12.0, 4096), 64)])
FLOW_GRIDS = [DEFAULT_GRID] * 6 + [(16.0, 2048), (12.0, 4096)]


def _confine_flags(draws: Draws, slot: str, inp: dict) -> tuple[list[str], bool]:
    """--beta/--gamma away from the divergence threshold.

    For a Gaussian-family input the flow stays under exp(-tanh(gamma) x^2/2)
    iff tanh(gamma) <= a_flow; gamma is drawn 15-50% below or 25-60% above
    atanh(a_flow), so exit 4 (divergence) is unambiguous either way.  For an
    expansion, gamma keeps the weighted profile's peak inside the grid."""
    u = draws.u(slot + "/gamma")
    if inp["kind"] == "gaussian":
        g_c = math.atanh(inp["a_flow"])
        diverge = draws.pick(slot + "/diverge", [True, False, False])
        gamma = round(g_c * ((1.25 + 0.35 * u) if diverge else (0.5 + 0.35 * u)), 6)
        beta = round(g_c, 6)
    else:
        diverge = False
        gamma = round(0.2 + 0.35 * u, 6)
        beta = round(1.5 * gamma, 6)
    return ["--beta", repr(beta), "--gamma", repr(gamma)], diverge


def _flow_probe(draws: Draws, workdir: str) -> dict:
    """First request: confine of a fixed-length expansion on the default grid
    and t-grid, which repeats its basis 2x64 times within the request."""
    inp = _expansion_file(draws.rng, os.path.join(workdir, "expansion-probe.json"),
                          PROBE_EXPANSION_LENGTH)
    flags, diverge = _confine_flags(draws, "probe", inp)
    return _request(["confine", inp["spec"], *flags], "confine", inp,
                    t_grid=64, diverge=diverge, fmt="csv")


def generate_flow(draws: Draws, workdir: str) -> list[dict]:
    pool = _Pool(draws, workdir, EXPANSION_FILES, (4, 40))
    # one cycle of 17: evolve and confine each take 3 Gaussian-family inputs,
    # 2 Hermite functions and 1 expansion file; norms takes 2 Gaussian-family
    # inputs, 2 expansions and 1 table without input
    plan = (
        [("evolve", "gaussian")] * 3 + [("evolve", "hermite")] * 2 + [("evolve", "file")]
        + [("confine", "gaussian")] * 3 + [("confine", "hermite")] * 2 + [("confine", "file")]
        + [("norms", "gaussian")] * 2 + [("norms", "hermite"), ("norms", "file"), ("norms", None)]
    )

    def make(slot, cmd, family):
        facts = {"fmt": "csv"}
        if cmd == "norms":
            grid = draws.pick(slot + "/grid", FLOW_GRIDS) if family else WIDE_GRID
        else:
            grid, t_grid = draws.pick(slot + "/grid", FLOW_GRID_T)
            facts["t_grid"] = t_grid
        inp = _input(draws, slot, family, grid, pool) if family else None
        argv = [cmd] + ([inp["spec"]] if inp else []) + grid_flags(grid)
        if cmd != "norms" and t_grid != 64:
            argv += ["--t-grid", str(t_grid)]
        if cmd == "evolve":
            a = round(0.2 + 0.4 * draws.u(slot + "/a"), 6)
            argv += ["--a", repr(a)]
            facts["a"] = a
        elif cmd == "confine":
            flags, diverge = _confine_flags(draws, slot, inp)
            argv += flags
            facts["diverge"] = diverge
        elif inp is None:
            a = round(0.2 + 0.6 * draws.u(slot + "/a"), 6)
            kmax = draws.pick(slot + "/kmax", [15, 20, 25, 30])
            argv += ["--a", repr(a), "--kmax", str(kmax)]
            facts.update(a=a, kmax=kmax)
        else:
            a_list = sorted(round(0.1 + 0.8 * draws.u(slot + "/a"), 6) for _ in range(3))
            argv += ["--a-list", ",".join(repr(x) for x in a_list)]
            facts["a_list"] = a_list
        _json_format(draws, slot, argv, facts, 5)
        return _request(argv, cmd, inp, grid=grid, **facts)

    return ([_flow_probe(draws, workdir)] + _cycles(draws, plan, make))[:SEQUENCE_LENGTH]


# ---------------------------------------------------------------- verify_all


def generate_verify_all(draws: Draws, workdir: str) -> list[dict]:
    return [_request(["verify-all", "--format", "json"], "verify-all", None, fmt="json")
            for _ in range(64)]


# ---------------------------------------------------------------- probes


def generate_probes(workload: str, seed: int) -> list[dict]:
    """Requests past the program's stated domain, served once per run outside
    the timed loop and checked by the same oracles.

    For each command of the workload that takes an input and each grid it
    runs on: one Hermite function with an index drawn up to 1.5x the band
    limit.  For ``flow`` also two norms tables beyond the wide grid's stated
    tolerance (a in [0.6, 0.8], kmax 40, on the default and the L=12 grid).
    Their replies are either the documented refusal (exit 3) or a known
    defect of the program, a result outside the grid's resolving power
    returned with exit 0, so they are reported, not timed."""
    rng = random.Random(f"{workload}-probes:{seed}")
    reqs = []
    if workload == "bounds":
        for cmd in ("coeffs", "bargmann", "envelope"):
            k = rng.randint(band_limit(DEFAULT_GRID) + 1,
                            int(BEYOND_BAND_FACTOR * band_limit(DEFAULT_GRID)))
            argv, facts = [cmd, f"hermite:k={k}"], {"fmt": "csv", "in_class": True, "a": None}
            if cmd == "coeffs":
                argv += ["--kmax", "80"]
                facts["kmax"] = 80
            elif cmd == "bargmann":
                argv += ["--w-ring", "2.0", "--w-count", "8"]
                facts.update(w_ring=2.0, w_count=8)
            reqs.append(_request(argv, cmd, _hermite(k, DEFAULT_GRID), **facts))
    elif workload == "flow":
        for cmd in ("evolve", "confine", "norms"):
            for grid in sorted({g for g, _ in FLOW_GRID_T}):
                k = rng.randint(band_limit(grid) + 1, int(BEYOND_BAND_FACTOR * band_limit(grid)))
                argv, facts = [cmd, f"hermite:k={k}", *grid_flags(grid)], {"fmt": "csv"}
                if cmd == "norms":
                    argv += ["--a-list", "0.2,0.5,0.8"]
                    facts["a_list"] = [0.2, 0.5, 0.8]
                else:
                    argv += ["--t-grid", "16"]
                    facts.update(t_grid=16, diverge=False)
                    argv += (["--a", "0.4"] if cmd == "evolve"
                             else ["--beta", "0.45", "--gamma", "0.3"])
                reqs.append(_request(argv, cmd, _hermite(k, grid), grid=grid, **facts))
        for grid in (DEFAULT_GRID, (12.0, 4096)):
            a = round(rng.uniform(0.6, 0.8), 6)
            reqs.append(_request(["norms", *grid_flags(grid), "--a", repr(a), "--kmax", "40"],
                                 "norms", None, grid=grid, fmt="csv", a=a, kmax=40))
    return reqs


GENERATORS = {
    "bounds": generate_bounds,
    "flow": generate_flow,
    "verify_all": generate_verify_all,
}


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's input files into ``workdir`` and return its
    request sequence.  Request 0 is the workload's cold probe."""
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](Draws(random.Random(f"{workload}:{seed}")), workdir)


def property_shares(reqs: list[dict]) -> dict:
    """Measured shares of the input properties the program's behaviour
    depends on, over the given requests."""
    n = len(reqs)
    kinds = [r["input"]["kind"] if r["input"] else "none" for r in reqs]
    return {
        "requests": n,
        "gaussian_share": kinds.count("gaussian") / n,
        "expansion_share": kinds.count("expansion") / n,
        "no_input_share": kinds.count("none") / n,
        "beyond_band_share": sum(r["beyond_band"] for r in reqs) / n,
        "default_grid_share": sum(tuple(r["grid"]) == DEFAULT_GRID for r in reqs) / n,
        "commands": {c: sum(r["cmd"] == c for r in reqs) / n
                     for c in sorted({r["cmd"] for r in reqs})},
    }
