"""Command-line front end.

Subcommands: coeffs, envelope, bargmann, evolve, confine, norms, verify-all.
Inputs are described by a small spec language (see parse_input_spec); output
is CSV (RFC-4180 quoting, CRLF rows, 17 significant digits) or JSON, written
atomically (whole file or nothing).  Identical configuration produces
byte-identical artifacts: nothing here reads the clock or an RNG.

Exit codes: 0 success; 1 verify-all found failures; 2 input/config parse
errors; 3 numerical domain errors; 4 envelope divergence in confine.
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
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import bargmann as bg
from . import decay as dc
from . import gaussians as ga
from . import oscillator as osc
from . import weighted as wt
from .errors import NumericalDomainError
from .grid import GridSpec, SampledFunction, norm_sq
from .hermite import HermiteExpansion, hermite_phi_all, synthesize, unit_expansion
from .verify import VerifyConfig, run_all


class CliParseError(ValueError):
    """Bad input spec, flag value, or config file."""


@dataclass(frozen=True)
class RunConfig:
    grid_l: float = 16.0
    grid_n: int = 4096
    kmax: int = 60
    t_grid_size: int = 64
    output_format: str = "csv"
    output_path: str | None = None

    def __post_init__(self):
        if self.kmax < 1:
            raise CliParseError(f"kmax must be >= 1, got {self.kmax}")
        if self.t_grid_size < 1:
            raise CliParseError(f"t-grid size must be >= 1, got {self.t_grid_size}")
        if self.output_format not in ("csv", "json"):
            raise CliParseError(f"format must be csv or json, got {self.output_format!r}")

    @property
    def grid(self) -> GridSpec:
        try:
            return GridSpec(self.grid_l, self.grid_n)
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
        raise CliParseError(f"{flag} values must be finite, got {text!r}")
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
    gaussian: ga.GeneralizedGaussian | None = None
    expansion: HermiteExpansion | None = None
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
            if "b" not in params:
                raise CliParseError(f"gaussian spec needs b=, got {spec!r}")
            width = parse_complex(params.pop("b"))
            if params:
                raise CliParseError(f"unknown gaussian parameters {sorted(params)}")
            g = ga.GeneralizedGaussian(amp, width)
            a_nat = min(g.width.real, (1.0 / g.width).real)
            return InputSpec(
                label=spec,
                gaussian=g,
                default_a=a_nat if 0.0 < a_nat < 1.0 else None,
            )
        if kind == "hermite":
            params = _kv_params(body, spec)
            k = int(params.pop("k"))
            if k < 0 or params:
                raise CliParseError(f"hermite spec needs k=<nonnegative int>, got {spec!r}")
            return InputSpec(label=spec, expansion=unit_expansion(k), default_a=0.5)
        if kind == "chirp":
            params = _kv_params(body, spec)
            alpha = float(params.pop("alpha"))
            if params:
                raise CliParseError(f"unknown chirp parameters {sorted(params)}")
            return InputSpec(
                label=spec,
                gaussian=ga.boundary_chirp(alpha),
                default_a=math.tanh(2.0 * alpha),
            )
        if kind == "squeezed":
            params = _kv_params(body, spec)
            beta = float(params.pop("beta"))
            if params:
                raise CliParseError(f"unknown squeezed parameters {sorted(params)}")
            return InputSpec(
                label=spec,
                gaussian=ga.squeezed_state(beta),
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
            return InputSpec(label=spec, expansion=HermiteExpansion(coeffs), default_a=0.5)
    except CliParseError:
        raise
    except (KeyError, ValueError, OSError, json.JSONDecodeError, IndexError, TypeError) as exc:
        raise CliParseError(f"cannot parse input spec {spec!r}: {exc}") from exc
    raise CliParseError(f"unknown input kind {kind!r}")


def _coefficients(inp: InputSpec, cfg: RunConfig) -> np.ndarray:
    if inp.gaussian is not None:
        return ga.hermite_coeffs(inp.gaussian, cfg.kmax).coeffs
    coeffs = np.zeros(cfg.kmax + 1, dtype=complex)
    src = inp.expansion.coeffs[: cfg.kmax + 1]
    coeffs[: src.size] = src
    return coeffs


def _sampled(inp: InputSpec, cfg: RunConfig) -> SampledFunction:
    if inp.gaussian is not None:
        return inp.gaussian.sample(cfg.grid)
    return synthesize(inp.expansion, cfg.grid)


def _envelope_reports(inp: InputSpec, a: float, cfg: RunConfig):
    """Time- and frequency-side envelope reports of the input at parameter a:
    closed form for a Gaussian, a grid scan of both sides for an expansion."""
    if inp.gaussian is not None:
        mem = ga.envelope_membership(inp.gaussian, a)
        return mem.time_report, mem.frequency_report
    side_p, side_f = next(osc.flow_sides(inp.expansion, [0.0], cfg.grid))
    return dc.envelope_scan(side_p, a), dc.envelope_scan(side_f, a)


def _membership_constant(inp: InputSpec, a: float, cfg: RunConfig) -> float | None:
    """Measured class constant at parameter a, or None if not a member."""
    t_rep, f_rep = _envelope_reports(inp, a, cfg)
    if t_rep.divergent or f_rep.divergent:
        return None
    return max(t_rep.constant, f_rep.constant)


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


def _log10_or_neginf(x: float) -> float:
    return math.log10(x) if x > 0 else -math.inf


def cmd_coeffs(args, cfg: RunConfig) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a = args.a if args.a is not None else inp.default_a
    coeffs = _coefficients(inp, cfg)
    big_c = _membership_constant(inp, a, cfg) if a is not None and 0 < a < 1 else None
    header = [
        "k", "abs_coeff", "log10_abs_coeff",
        "log10_envelope_bound", "log10_contour_bound",
        "log10_envelope_margin", "log10_contour_margin",
    ]
    rows = []
    for k in range(cfg.kmax + 1):
        ck = abs(coeffs[k])
        lc = _log10_or_neginf(ck)
        lb_env = lb_con = math.nan
        if big_c is not None and k >= 1:
            lb_env = dc.log_hardy_coeff_bound(k, a, big_c) / LOG10
            if k >= 2:
                # contour bound controls the Taylor coefficient c_k =
                # <f, phi_k>/sqrt(2^k k!); rescale to the Hermite column
                scale = 0.5 * (k * math.log(2.0) + float(gammaln(k + 1)))
                lb_con = (bg.log_contour_coeff_bound(k, a, big_c) + scale) / LOG10
        rows.append([
            k, ck, lc, lb_env, lb_con,
            lb_env - lc if not math.isnan(lb_env) else math.nan,
            lb_con - lc if not math.isnan(lb_con) else math.nan,
        ])
    meta = {"command": "coeffs", "input": inp.label, "a": a, "C": big_c}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_envelope(args, cfg: RunConfig) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a = args.a if args.a is not None else (inp.default_a or 0.5)
    t_rep, f_rep = _envelope_reports(inp, a, cfg)
    member = not (t_rep.divergent or f_rep.divergent)
    header = ["side", "a", "constant", "argmax_x", "divergent"]
    rows = [
        ["time", a, t_rep.constant, t_rep.argmax_x, t_rep.divergent],
        ["frequency", a, f_rep.constant, f_rep.argmax_x, f_rep.divergent],
    ]
    meta = {"command": "envelope", "input": inp.label, "member": member}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_bargmann(args, cfg: RunConfig) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a = args.a if args.a is not None else inp.default_a
    big_c = _membership_constant(inp, a, cfg) if a is not None and 0 < a < 1 else None
    sector = bg.sector_params(a, big_c) if big_c is not None else None
    ws = args.w_ring * np.exp(2j * math.pi * np.arange(args.w_count) / args.w_count)
    values = bg.bargmann_numeric(_sampled(inp, cfg), ws)
    header = ["re_w", "im_w", "re_u", "im_u", "abs_u",
              "quadrant_bound", "sector_bound", "in_sector"]
    rows = []
    for w, u in zip(ws, values):
        qb = sb = math.nan
        in_sector = False
        if sector is not None:
            qb = bg.quadrant_bound(sector, w)
            try:
                sb = bg.sector_bound(sector, w)
                in_sector = True
            except NumericalDomainError:
                sb = math.nan
        rows.append([w.real, w.imag, u.real, u.imag, abs(u), qb, sb, in_sector])
    meta = {"command": "bargmann", "input": inp.label, "a": a, "C": big_c}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_evolve(args, cfg: RunConfig) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a = args.a if args.a is not None else (inp.default_a or 0.5)
    if args.times:
        ts = _float_list(args.times, "--times")
    else:
        ts = list(osc.default_t_grid(cfg.t_grid_size))
    psi0 = inp.gaussian if inp.gaussian is not None else inp.expansion
    header = ["t", "norm_sq", "envelope_constant_time", "envelope_constant_frequency",
              "divergent_time", "divergent_frequency"]
    rows = []
    for t, (side_p, side_f) in zip(ts, osc.flow_sides(psi0, ts, cfg.grid)):
        rep_p = dc.envelope_scan(side_p, a)
        rep_f = dc.envelope_scan(side_f, a)
        rows.append([
            t, norm_sq(side_p),
            rep_p.constant, rep_f.constant,
            rep_p.divergent, rep_f.divergent,
        ])
    meta = {"command": "evolve", "input": inp.label, "a": a}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_confine(args, cfg: RunConfig) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    psi0 = inp.gaussian if inp.gaussian is not None else inp.expansion
    ts = osc.default_t_grid(cfg.t_grid_size)
    report = osc.confinement_check(psi0, args.beta, args.gamma, ts, cfg.grid)
    if report.divergent:
        raise _Divergence(
            f"envelope at a = tanh({args.gamma}) = {report.a:.6f} diverges along the flow; "
            f"first offending t = {report.first_divergent_t:.6f}"
        )
    header = ["t", "envelope_constant_time", "envelope_constant_frequency"]
    rows = [
        [float(t), float(p), float(f)]
        for t, p, f in zip(report.ts, report.psi_constants, report.fourier_constants)
    ]
    meta = {
        "command": "confine", "input": inp.label,
        "beta": args.beta, "gamma": args.gamma, "a": report.a,
        "sup_constant": report.sup_constant, "worst_t": report.worst_t,
        "attained_ts": [float(t) for t in report.attained_ts],
    }
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_norms(args, cfg: RunConfig) -> tuple[str, int]:
    if args.input is None:
        a = args.a if args.a is not None else 0.5
        header = ["n", "closed_norm_sq", "lower_bound", "quadrature_norm_sq"]
        rows = []
        grid = cfg.grid
        for n, phi_n in enumerate(hermite_phi_all(cfg.kmax, grid.xs)):
            quad = math.nan
            try:
                quad = wt.weighted_norm_sq(SampledFunction(grid, phi_n), a, kmax=n)
            except NumericalDomainError:
                pass
            rows.append([
                n,
                wt.phi_weighted_norm_sq(n, a),
                wt.phi_weighted_norm_lower(n, a),
                quad,
            ])
        meta = {"command": "norms", "input": None, "a": a}
        return render_table(header, rows, cfg.output_format, meta), 0
    inp = parse_input_spec(args.input)
    a_list = _float_list(args.a_list, "--a-list")
    f = _sampled(inp, cfg)
    header = ["a", "norm_sq"]
    rows = []
    for a in a_list:
        try:
            rows.append([a, wt.weighted_norm_sq(f, a, kmax=cfg.kmax)])
        except NumericalDomainError:
            rows.append([a, math.nan])
    meta = {"command": "norms", "input": inp.label}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_verify_all(args, cfg: RunConfig) -> tuple[str, int]:
    vcfg = VerifyConfig(grid=cfg.grid, kmax=max(cfg.kmax, 60), t_grid_size=cfg.t_grid_size)
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
                "t_grid_size": cfg.t_grid_size,
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    return text, 0 if all_pass else 1


class _Divergence(RuntimeError):
    pass


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid-L", dest="grid_l", type=float, default=None,
                        help="grid half-width (default 16)")
    common.add_argument("--grid-N", dest="grid_n", type=int, default=None,
                        help="number of grid points, even (default 4096)")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        "grid_l": args.grid_l,
        "grid_n": args.grid_n,
        "kmax": args.kmax,
        "t_grid_size": args.t_grid_size,
        "output_format": args.output_format,
        "output_path": args.output_path,
    }
    try:
        cfg = load_config(args.config, overrides)
        text, code = args.fn(args, cfg)
        write_output(text, cfg.output_path)
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


if __name__ == "__main__":
    sys.exit(main())
