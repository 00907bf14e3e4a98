"""Command-line front end.

Subcommands: coeffs, envelope, bargmann, evolve, confine, norms, verify-all.
Inputs are described by a small spec language (see parse_input_spec); output
is CSV (RFC-4180 quoting, CRLF rows, 17 significant digits) or JSON, written
atomically (whole file or nothing).  Identical configuration produces
byte-identical artifacts: nothing here reads the clock or an RNG.

Exit codes: 0 success; 1 verify-all found failures; 2 input/config parse
errors; 3 numerical domain errors, and any other unexpected exception
(reported as an internal error, without a traceback); 4 envelope
divergence in confine.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import bargmann as bg
from . import decay as dc
from . import gaussians as ga
from . import oscillator as osc
from . import weighted as wt
from .errors import NumericalDomainError
from .grid import GridSpec
from .hermite import HermiteExpansion, band_limit, grid_basis, unit_expansion
from .verify import WIDE_GRID, VerifyConfig, run_all


class CliParseError(ValueError):
    """Bad input spec, flag value, or config file."""


#: Largest --kmax, --t-grid and --w-count accepted (exit 2 above them).  At
#: each cap the slowest command on an input within the default grid's band
#: (K <= 81) ends within about 3 s: coeffs at kmax 100,000 (1.7 s, its
#: columns one array call each; 2.4 s row by row), evolve of
#: hermite:k=81 at 4,096 times, bargmann of hermite:k=81 on a 10,000-point
#: ring (whose Taylor terms form (W, K) arrays, so the ring's cap is set by
#: memory rather than time).  An expansion past that band runs on the wider
#: grid of its degree: at the largest K the basis budget admits (1764),
#: evolve took 4.7 s at 64 times and 186 s at 4,096, with a 336 MB peak RSS
#: (2 vCPU, one BLAS thread).
KMAX_CAP = 100_000
T_GRID_CAP = 4_096
W_COUNT_CAP = 10_000

#: Largest --grid-N accepted (exit 2 above it), 16 times the default: every
#: grid array then stays within 1 MiB.  How many basis rows a grid may hold
#: is bounded separately, by ``hermite.BASIS_BYTES_CAP`` (exit 3).
GRID_N_CAP = 65_536


def _check_count(value, flag: str, cap: int) -> None:
    """Refuse a count flag outside [1, cap], naming the flag."""
    if value < 1:
        raise CliParseError(f"{flag} must be >= 1, got {value}")
    if value > cap:
        raise CliParseError(f"{flag} must be <= {cap}, got {value}")


@dataclass(frozen=True)
class RunConfig:
    grid_l: float = 16.0
    grid_n: int = 4096
    kmax: int = 60
    t_grid_size: int = 64
    output_format: str = "csv"
    output_path: str | None = None
    grid: GridSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_count(self.kmax, "--kmax", KMAX_CAP)
        _check_count(self.t_grid_size, "--t-grid", T_GRID_CAP)
        if self.grid_n > GRID_N_CAP:  # below 16 or odd: GridSpec refuses it
            raise CliParseError(f"--grid-N must be <= {GRID_N_CAP}, got {self.grid_n}")
        if self.output_format not in ("csv", "json"):
            raise CliParseError(f"format must be csv or json, got {self.output_format!r}")
        try:  # every command, not only those that sample on the grid
            object.__setattr__(self, "grid", GridSpec(self.grid_l, self.grid_n))
        except ValueError as exc:
            raise CliParseError(str(exc)) from exc


_CONFIG_KEYS = {
    "grid_L": "grid_l",
    "grid_N": "grid_n",
    "kmax": "kmax",
    "t_grid_size": "t_grid_size",
    "format": "output_format",
    "out": "output_path",
}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then config-file values, then explicit CLI flags."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliParseError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise CliParseError("config file must hold a JSON object")
        for key, val in raw.items():
            if key not in _CONFIG_KEYS:
                raise CliParseError(f"unknown config key {key!r}")
            values[_CONFIG_KEYS[key]] = val
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise CliParseError(f"bad config value: {exc}") from exc


_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-]\d*(?:\.\d*)?(?:[eE][+-]?\d+)?)[ij])?$"
)


def _float_list(text: str, flag: str) -> list[float]:
    """Comma list of finite floats given to a list-valued flag."""
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise CliParseError(f"bad {flag} list: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise CliParseError(f"{flag} must be finite, got {text!r}")
    return values


def parse_complex(text: str) -> complex:
    """Accepts forms like '1', '-0.5', '1+2i', '0.5-0.3i', '2e-1+1e0i'."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise CliParseError(f"cannot parse complex number {text!r}")
    re_part = float(m.group("re"))
    im_text = m.group("im")
    if im_text is None:
        return complex(re_part, 0.0)
    if im_text in ("+", "-"):
        im_text += "1"
    return complex(re_part, float(im_text))


@dataclass(frozen=True)
class InputSpec:
    """A parsed input: a Gaussian-family object or a coefficient vector."""

    label: str
    state: ga.GeneralizedGaussian | HermiteExpansion
    default_a: float | None = None


def _kv_params(body: str, spec: str) -> dict:
    params = {}
    for part in body.split(","):
        if "=" not in part:
            raise CliParseError(f"expected key=value pairs in {spec!r}")
        key, _, val = part.partition("=")
        params[key.strip()] = val.strip()
    return params


def parse_input_spec(spec: str) -> InputSpec:
    """Parse the input mini-language:

        gaussian:A=<complex>,b=<complex>   generalized Gaussian A e^{-b x^2/2}
        hermite:k=<int>                    the k-th Hermite function
        chirp:alpha=<real>                 boundary chirp, a = tanh(2 alpha)
        squeezed:beta=<real>               rotating squeezed state
        expansion:@<file.json>             {"coeffs": [[re, im], ...]}
    """
    kind, sep, body = spec.partition(":")
    if not sep:
        raise CliParseError(f"input spec {spec!r} needs the form kind:params")
    kind = kind.strip().lower()
    try:
        if kind == "gaussian":
            params = _kv_params(body, spec)
            amp = parse_complex(params.pop("A", "1"))
            if amp == 0:
                raise CliParseError(f"gaussian amplitude A must be nonzero, got {spec!r}")
            if "b" not in params:
                raise CliParseError(f"gaussian spec needs b=, got {spec!r}")
            width = parse_complex(params.pop("b"))
            if params:
                raise CliParseError(f"unknown gaussian parameters {sorted(params)}")
            g = ga.GeneralizedGaussian(amp, width)
            a_nat = min(g.width.real, (1.0 / g.width).real)
            return InputSpec(
                label=spec,
                state=g,
                default_a=a_nat if 0.0 < a_nat < 1.0 else None,
            )
        if kind == "hermite":
            params = _kv_params(body, spec)
            k = int(params.pop("k"))
            if k < 0 or params:
                raise CliParseError(f"hermite spec needs k=<nonnegative int>, got {spec!r}")
            return InputSpec(label=spec, state=unit_expansion(k), default_a=0.5)
        if kind == "chirp":
            params = _kv_params(body, spec)
            alpha = float(params.pop("alpha"))
            if params:
                raise CliParseError(f"unknown chirp parameters {sorted(params)}")
            return InputSpec(
                label=spec,
                state=ga.boundary_chirp(alpha),
                default_a=math.tanh(2.0 * alpha),
            )
        if kind == "squeezed":
            params = _kv_params(body, spec)
            beta = float(params.pop("beta"))
            if params:
                raise CliParseError(f"unknown squeezed parameters {sorted(params)}")
            return InputSpec(
                label=spec,
                state=ga.squeezed_state(beta),
                default_a=math.tanh(2.0 * beta),
            )
        if kind == "expansion":
            if not body.startswith("@"):
                raise CliParseError("expansion spec needs @<file.json>")
            with open(body[1:], "r", encoding="utf-8") as fh:
                data = json.load(fh)
            pairs = data.get("coeffs")
            if not isinstance(pairs, list) or not pairs:
                raise CliParseError("expansion file needs a non-empty 'coeffs' list")
            coeffs = np.array([complex(p[0], p[1]) for p in pairs])
            if not np.any(coeffs):
                raise CliParseError(f"expansion coefficients must not all be zero, got {spec!r}")
            return InputSpec(label=spec, state=HermiteExpansion(coeffs), default_a=0.5)
    except CliParseError:
        raise
    except (KeyError, ValueError, OSError, json.JSONDecodeError, IndexError, TypeError) as exc:
        raise CliParseError(f"cannot parse input spec {spec!r}: {exc}") from exc
    raise CliParseError(f"unknown input kind {kind!r}")


def _coefficients(inp: InputSpec, cfg: RunConfig) -> np.ndarray:
    if isinstance(inp.state, ga.GeneralizedGaussian):
        return ga.hermite_coeffs(inp.state, cfg.kmax).coeffs
    coeffs = np.zeros(cfg.kmax + 1, dtype=complex)
    src = inp.state.coeffs[: cfg.kmax + 1]
    coeffs[: src.size] = src
    return coeffs


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def render_table(header: list[str], rows: list[list], fmt: str, meta: dict) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()
    payload = dict(meta)
    payload["columns"] = header
    payload["rows"] = [[_json_safe(v) for v in row] for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def write_output(text: str, path: str | None) -> None:
    """Write to stdout, or atomically to a file (temp + rename; an error
    before this point leaves no partial file behind)."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gaussherm-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


LOG10 = math.log(10.0)


def _rows(*columns) -> list[list]:
    """Table rows from equal-length array columns, as Python ints, floats
    and bools (so JSON takes them)."""
    return [list(row) for row in zip(*(np.asarray(c).tolist() for c in columns))]


def _class_constant(args, inp: InputSpec) -> tuple[float | None, float | None]:
    """``--a`` of coeffs and bargmann (default: the input's own weight),
    refused outside (0,1), and the class constant C at that weight: the
    t = 0 row of the flow, None for a non-member.  Both None when the
    input has no natural weight and none is given."""
    a = args.a if args.a is not None else inp.default_a
    if a is None:
        return None, None
    dc.check_weight(a)
    return a, next(osc.flow_envelopes(inp.state, [0.0], a))[1].constant


def cmd_coeffs(args, cfg: RunConfig) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a, big_c = _class_constant(args, inp)
    k = np.arange(cfg.kmax + 1)
    abs_c = np.abs(_coefficients(inp, cfg))
    with np.errstate(divide="ignore"):
        lc = np.log10(abs_c)
    lb_env = np.full(k.size, math.nan)
    lb_con = np.full(k.size, math.nan)
    if big_c is not None:
        lb_env[1:] = dc.log_hardy_coeff_bound(k[1:], a, big_c) / LOG10
        # one pass over the contour rule for k = 2..kmax; the bound controls the
        # Taylor coefficient c_k = <f, phi_k>/sqrt(2^k k!), so rescale to the
        # Hermite column
        lb_con[2:] = (bg.log_contour_coeff_bound(k[2:], a, big_c) + bg.log_fock_norm(k[2:])) / LOG10
    header = [
        "k", "abs_coeff", "log10_abs_coeff",
        "log10_envelope_bound", "log10_contour_bound",
        "log10_envelope_margin", "log10_contour_margin",
    ]
    rows = _rows(k, abs_c, lc, lb_env, lb_con, lb_env - lc, lb_con - lc)
    meta = {"command": "coeffs", "input": inp.label, "a": a, "C": big_c}
    return render_table(header, rows, cfg.output_format, meta), 0


def _envelope_weight(args, inp: InputSpec) -> float:
    """``--a`` of envelope and evolve: any positive weight, a >= 1 too."""
    a = args.a if args.a is not None else (inp.default_a or 0.5)
    if not a > 0:
        raise NumericalDomainError(f"a must be positive, got {a}")
    return a


def cmd_envelope(args, cfg: RunConfig) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a = _envelope_weight(args, inp)
    _, mem = next(osc.flow_envelopes(inp.state, [0.0], a))
    t_rep, f_rep = mem.time_report, mem.frequency_report
    header = ["side", "a", "constant", "argmax_x", "divergent"]
    rows = [
        ["time", a, t_rep.constant, t_rep.argmax_x, t_rep.divergent],
        ["frequency", a, f_rep.constant, f_rep.argmax_x, f_rep.divergent],
    ]
    meta = {"command": "envelope", "input": inp.label, "member": mem.member}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_bargmann(args, cfg: RunConfig) -> tuple[str, int]:
    _check_count(args.w_count, "--w-count", W_COUNT_CAP)
    inp = parse_input_spec(args.input)
    a, big_c = _class_constant(args, inp)
    ws = args.w_ring * np.exp(2j * math.pi * np.arange(args.w_count) / args.w_count)
    values = bg.bargmann_exact(inp.state, ws)
    qb = sb = np.full(ws.size, math.nan)
    if big_c is not None:
        sector = bg.SectorParams(a, big_c)
        qb, sb = bg.quadrant_bound(sector, ws), bg.sector_bound(sector, ws)
        past = np.isinf(qb) | np.isinf(sb)
        if past.any():
            raise NumericalDomainError(
                f"growth bound at w={complex(ws[past][0])} is past the double range"
            )
    header = ["re_w", "im_w", "re_u", "im_u", "abs_u",
              "quadrant_bound", "sector_bound", "in_sector"]
    rows = _rows(ws.real, ws.imag, values.real, values.imag, np.abs(values),
                 qb, sb, ~np.isnan(sb))
    meta = {"command": "bargmann", "input": inp.label, "a": a, "C": big_c}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_evolve(args, cfg: RunConfig) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a = _envelope_weight(args, inp)
    if args.times:
        ts = _float_list(args.times, "--times")
    else:
        ts = list(osc.default_t_grid(cfg.t_grid_size))
    header = ["t", "norm_sq", "envelope_constant_time", "envelope_constant_frequency",
              "divergent_time", "divergent_frequency"]
    rows = [
        [t, n, mem.time_report.constant, mem.frequency_report.constant,
         mem.time_report.divergent, mem.frequency_report.divergent]
        for t, (n, mem) in zip(ts, osc.flow_envelopes(inp.state, ts, a))
    ]
    meta = {"command": "evolve", "input": inp.label, "a": a}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_confine(args, cfg: RunConfig) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    ts = osc.default_t_grid(cfg.t_grid_size)
    report = osc.confinement_check(inp.state, args.beta, args.gamma, ts)
    if report.divergent:
        raise _Divergence(
            f"envelope at a = tanh({args.gamma}) = {report.a:.6f} diverges along the flow; "
            f"first offending t = {report.first_divergent_t:.6f}"
        )
    header = ["t", "envelope_constant_time", "envelope_constant_frequency"]
    rows = _rows(report.ts, report.psi_constants, report.fourier_constants)
    meta = {
        "command": "confine", "input": inp.label,
        "beta": args.beta, "gamma": args.gamma, "a": report.a,
        "sup_constant": report.sup_constant, "worst_t": report.worst_t,
        "attained_ts": report.attained_ts.tolist(),
    }
    return render_table(header, rows, cfg.output_format, meta), 0


def _input_weighted_norm_sq(inp: InputSpec, a: float) -> float:
    """||f||_a^2 of the input in closed form: nan where the weighted
    integral diverges (a Gaussian outside the class), inf past the double
    range (a long expansion at a tight weight)."""
    if isinstance(inp.state, ga.GeneralizedGaussian):
        value = ga.weighted_norm_sq_gaussian(inp.state, a)
        return math.nan if math.isinf(value) else value
    return wt.expansion_weighted_norm_sq(inp.state, a)


def cmd_norms(args, cfg: RunConfig) -> tuple[str, int]:
    if args.input is None:
        a = args.a if args.a is not None else 0.5
        dc.check_weight(a)
        header = ["n", "closed_norm_sq", "lower_bound", "quadrature_norm_sq"]
        grid = cfg.grid
        resolved = min(cfg.kmax, band_limit(grid))  # rows past it print nan, unbuilt
        quad = np.full(cfg.kmax + 1, math.nan)
        if resolved >= 0:
            quad[: resolved + 1] = wt.weighted_energy_rows(grid_basis(grid, resolved), grid, a)
        n = np.arange(cfg.kmax + 1)
        rows = _rows(n, wt.phi_weighted_norm_sq(n, a), wt.phi_weighted_norm_lower(n, a), quad)
        meta = {"command": "norms", "input": None, "a": a}
        return render_table(header, rows, cfg.output_format, meta), 0
    inp = parse_input_spec(args.input)
    a_list = _float_list(args.a_list, "--a-list")
    for a in a_list:
        dc.check_weight(a)
    header = ["a", "norm_sq"]
    rows = [[a, _input_weighted_norm_sq(inp, a)] for a in a_list]
    meta = {"command": "norms", "input": inp.label}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_verify_all(args, cfg: RunConfig) -> tuple[str, int]:
    vcfg = VerifyConfig(grid=cfg.grid, kmax=max(cfg.kmax, 60))
    results = run_all(vcfg)
    all_pass = all(r.passed for r in results)
    if cfg.output_format == "csv":
        header = ["name", "pass", "measured", "threshold", "detail"]
        rows = [[r.name, r.passed, r.measured, r.threshold, r.detail] for r in results]
        text = render_table(header, rows, "csv", {})
    else:
        payload = {
            "criteria": [
                {
                    "name": r.name,
                    "pass": r.passed,
                    "measured": _json_safe(r.measured),
                    "threshold": r.threshold,
                    "detail": r.detail,
                }
                for r in results
            ],
            "all_pass": all_pass,
            "config": {
                "grid_L": cfg.grid_l,
                "grid_N": cfg.grid_n,
                "kmax": vcfg.kmax,
                "grid_kmax": vcfg.grid_kmax,
                "wide_grid_L": WIDE_GRID.half_width,
                "wide_grid_N": WIDE_GRID.num_points,
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    return text, 0 if all_pass else 1


class _Divergence(RuntimeError):
    pass


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid-L", dest="grid_l", type=float, default=None,
                        help="half-width of the verify-all and norms-table grid (default 16)")
    common.add_argument("--grid-N", dest="grid_n", type=int, default=None,
                        help="points of that grid, even (default 4096)")
    common.add_argument("--kmax", type=int, default=None,
                        help="highest Hermite index in tables (default 60)")
    common.add_argument("--t-grid", dest="t_grid_size", type=int, default=None,
                        help="time samples on [0, pi/2) (default 64)")
    common.add_argument("--format", dest="output_format", choices=("csv", "json"),
                        default=None, help="output format (default csv)")
    common.add_argument("--out", dest="output_path", default=None,
                        help="output path ('-' or omitted: stdout)")
    common.add_argument("--config", default=None,
                        help="JSON config file; flags override file values")

    parser = argparse.ArgumentParser(
        prog="gaussherm",
        description="Hermite-coefficient decay, Bargmann bounds, and oscillator "
                    "confinement for Gaussian-envelope classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common],
                       help="coefficient table with envelope and contour bounds")
    p.add_argument("input", help="input spec, e.g. gaussian:b=0.5 or chirp:alpha=0.27465")
    p.add_argument("--a", type=float, default=None, help="envelope parameter for bounds")
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("envelope", parents=[common], help="two-sided envelope report")
    p.add_argument("input")
    p.add_argument("--a", type=float, default=None)
    p.set_defaults(fn=cmd_envelope)

    p = sub.add_parser("bargmann", parents=[common],
                       help="Bargmann-transform samples with growth bounds")
    p.add_argument("input")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--w-ring", type=float, default=2.0, help="|w| of the sample ring")
    p.add_argument("--w-count", type=int, default=16, help="number of ring samples")
    p.set_defaults(fn=cmd_bargmann)

    p = sub.add_parser("evolve", parents=[common], help="oscillator flow summary")
    p.add_argument("input")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--times", default=None, help="comma list of times (default: t grid)")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("confine", parents=[common],
                       help="per-time envelope constants along the flow")
    p.add_argument("input")
    p.add_argument("--beta", type=float, required=True,
                   help="initial data sits in the envelope class of tanh(2*beta)")
    p.add_argument("--gamma", type=float, required=True,
                   help="scan the envelope of tanh(gamma)")
    p.set_defaults(fn=cmd_confine)

    p = sub.add_parser("norms", parents=[common], help="weighted-norm tables")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--a-list", default="0.2,0.5,0.8",
                   help="weights for a given input (comma list)")
    p.set_defaults(fn=cmd_norms)

    p = sub.add_parser("verify-all", parents=[common],
                       help="run the full verification suite")
    p.set_defaults(fn=cmd_verify_all)
    return parser


#: Flags whose value may start with '-'; see :func:`_attach_signed_values`.
_SIGNED_FLAGS = ("--times", "--a-list", "--a", "--w-ring", "--beta", "--gamma")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """``--times -1,2`` as ``--times=-1,2`` and ``--a -1e-3`` as
    ``--a=-1e-3``: argparse takes a value that starts with '-' and is not a
    plain number, such as -1,2 or -1e-3, for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    overrides = {
        "grid_l": args.grid_l,
        "grid_n": args.grid_n,
        "kmax": args.kmax,
        "t_grid_size": args.t_grid_size,
        "output_format": args.output_format,
        "output_path": args.output_path,
    }
    try:
        for dest in ("a", "w_ring", "beta", "gamma"):  # argparse's float() takes inf, nan
            if getattr(args, dest, None) is not None:
                _float_list(repr(getattr(args, dest)), "--" + dest.replace("_", "-"))
        cfg = load_config(args.config, overrides)
        text, code = args.fn(args, cfg)
        try:
            write_output(text, cfg.output_path)
        except OSError as exc:
            raise CliParseError(
                f"cannot write {cfg.output_path or 'stdout'}: {exc.strerror or exc}"
            ) from exc
        return code
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Divergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NumericalDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - never exit 1, verify-all's "criteria failed"
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
