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
import itertools
import json
import math
import os
import re
import sys
import tempfile
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

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
#: (K <= 81) ends within about 3 s: coeffs at kmax 100,000 (as a
#: subprocess 1.9 s in CSV and 1.7 s in JSON, of which rendering the table
#: is 0.3 and 0.4 s, each row formatted in one call), evolve of
#: hermite:k=81 at 4,096 times, bargmann of hermite:k=81 on a 10,000-point
#: ring (whose Taylor terms form (W, K) arrays, so the ring's cap is set by
#: memory rather than time).  An expansion past that band runs on the wider
#: grid of its degree: at the largest K the basis budget admits (1764),
#: evolve of a dense expansion (1765 seeded complex coefficients, --a 0.3)
#: took 1.1-1.6 s at 64 times and 33-38 s at 4,096, with a 336-338 MB peak
#: RSS (a subprocess, 2 vCPU, one BLAS thread); hermite:k=1764, one term,
#: takes the stationary route and forms one time.
KMAX_CAP = 100_000
T_GRID_CAP = 4_096
W_COUNT_CAP = 10_000

#: Largest --grid-N accepted (exit 2 above it), 16 times the default: every
#: grid array then stays within 1 MiB.  How many basis rows a grid may hold
#: is bounded separately, by ``hermite.BASIS_BYTES_CAP`` (exit 3).
GRID_N_CAP = 65_536


def _check_count(value, flag: str, cap: int, low: int | None = 1) -> None:
    """Refuse a count flag outside [low, cap] (low None: no lower bound),
    naming the flag."""
    if low is not None and value < low:
        raise CliParseError(f"{flag} must be >= {low}, got {value}")
    if value > cap:
        raise CliParseError(f"{flag} must be <= {cap}, got {value}")


def _check_finite(value, flag: str) -> None:
    """Refuse inf and nan, which argparse's float() takes."""
    _float_list(repr(value), flag)


class Option(NamedTuple):
    """One option, declared once: its flag, the config-file key that may set
    it (None: the flag alone), its default, and its check, a callable taking
    the value and the flag, or a tuple of choices.  ``signed`` marks a value
    that may start with '-' (see :func:`_attach_signed_values`)."""

    flag: str
    dest: str
    help: str
    key: str | None = None
    type: type | None = None
    default: object = None
    check: Callable[[object, str], None] | None = None
    choices: tuple | None = None
    signed: bool = False
    required: bool = False

    @property
    def argparse_kwargs(self) -> dict:
        return {"dest": self.dest, "type": self.type, "choices": self.choices,
                "required": self.required,
                # a flag left out reads None: the file's value or the default stands
                "default": None,
                "help": self.help if self.default is None
                else f"{self.help} (default {self.default})"}


_GRID_UNREAD = "; evolve and confine accept it and read nothing of it"

#: Every option of every command.  A command's values are checked in this
#: order: the flag-only options, then the config-backed ones.
OPTIONS = {opt.dest: opt for opt in (
    Option("--a", "a", "weight a of the class e^{-a x^2/2} (default: the input's own, else 0.5)",
           type=float, check=_check_finite, signed=True),
    Option("--w-ring", "w_ring", "|w| of the sample ring", type=float, default=2.0,
           check=_check_finite, signed=True),
    Option("--w-count", "w_count", "number of ring samples", type=int, default=16,
           check=partial(_check_count, cap=W_COUNT_CAP)),
    Option("--beta", "beta", "initial data sits in the envelope class of tanh(2*beta)",
           type=float, check=_check_finite, signed=True, required=True),
    Option("--gamma", "gamma", "scan the envelope of tanh(gamma)",
           type=float, check=_check_finite, signed=True, required=True),
    Option("--times", "times", "comma list of times (default: the t grid)", signed=True),
    Option("--a-list", "a_list", "weights for a given input (comma list)",
           default="0.2,0.5,0.8", signed=True),
    Option("--kmax", "kmax", "highest Hermite index in tables", key="kmax", type=int,
           default=60, check=partial(_check_count, cap=KMAX_CAP)),
    Option("--t-grid", "t_grid_size", "time samples on [0, pi/2)", key="t_grid_size",
           type=int, default=64, check=partial(_check_count, cap=T_GRID_CAP)),
    Option("--grid-N", "grid_n", "points of the grid, even" + _GRID_UNREAD, key="grid_N",
           type=int, default=4096, check=partial(_check_count, cap=GRID_N_CAP, low=None)),
    Option("--grid-L", "grid_l", "half-width of the verify-all and norms-table grid"
           + _GRID_UNREAD, key="grid_L", type=float, default=16.0),
    Option("--format", "output_format", "output format", key="format", default="csv",
           choices=("csv", "json")),
    Option("--out", "output_path", "output path ('-' or omitted: stdout)", key="out"),
    Option("--config", "config", "JSON config file; flags override file values"),
)}

#: Each option's ``add_argument`` keywords, formed once for every parser built.
_ARGPARSE_KWARGS = {dest: opt.argparse_kwargs for dest, opt in OPTIONS.items()}

#: The options every command takes.
COMMON_OPTIONS = ("output_format", "output_path", "config")

#: Each command: its help, whether it takes an input spec ("optional": it
#: may be left out) and the options it reads beyond COMMON_OPTIONS.  evolve
#: and confine take --grid-L/--grid-N without reading them, as callers pass
#: them.
COMMANDS = {
    "coeffs": ("coefficient table with envelope and contour bounds", "required",
               ("kmax", "a")),
    "envelope": ("two-sided envelope report", "required", ("a",)),
    "bargmann": ("Bargmann-transform samples with growth bounds", "required",
                 ("a", "w_ring", "w_count")),
    "evolve": ("oscillator flow summary", "required",
               ("a", "times", "t_grid_size", "grid_l", "grid_n")),
    "confine": ("per-time envelope constants along the flow", "required",
                ("beta", "gamma", "t_grid_size", "grid_l", "grid_n")),
    "norms": ("weighted-norm tables", "optional", ("kmax", "a", "a_list", "grid_l", "grid_n")),
    "verify-all": ("run the full verification suite", None, ("kmax", "grid_l", "grid_n")),
}

#: Options of a command with an optional input that it reads only with an
#: input, and only without one: given in the other case, they are refused.
WITH_INPUT = {"norms": ("a_list",)}
WITHOUT_INPUT = {"norms": ("kmax", "a")}


def load_config(path: str | None, command: str, flags: dict) -> argparse.Namespace:
    """The values of ``command``'s options: defaults, then config-file
    values of the config-backed ones, then the flags given in ``flags``
    (dest -> value, None where left out; ``input``, the input spec).  Every
    value is checked.  An option the command reads only with an input, or
    only without one (``WITH_INPUT``, ``WITHOUT_INPUT``), is refused in the
    other case, as a flag and as a config key.  Where the command takes
    --grid-L/--grid-N the namespace also holds their ``grid``."""
    has_input = flags.get("input") is not None
    unread = (WITHOUT_INPUT if has_input else WITH_INPUT).get(command, ())
    for dest in unread:
        if flags.get(dest) is not None:
            raise CliParseError(f"unrecognized arguments: {OPTIONS[dest].flag} ({command} reads "
                                f"it only {'without' if has_input else 'with'} an input)")
    options = [opt for dest, opt in OPTIONS.items() if dest in COMMON_OPTIONS
               or dest in COMMANDS[command][2] and dest not in unread]
    keys = {opt.key: opt.dest for opt in options if opt.key}
    values = {opt.dest: opt.default for opt in options}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliParseError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise CliParseError("config file must hold a JSON object")
        for key, val in raw.items():
            if key not in keys:
                raise CliParseError(f"unknown config key {key!r} for {command}")
            values[keys[key]] = val
    values.update((dest, flags[dest]) for dest in values if flags.get(dest) is not None)
    try:
        for opt in options:
            value = values[opt.dest]
            if value is None:  # left out, with no default
                continue
            if opt.type is int and isinstance(value, float):  # a config value; argparse takes ints
                raise CliParseError(f"{opt.key} must be an integer, got {value!r}")
            if opt.check is not None:
                opt.check(value, opt.flag)
            if opt.choices is not None and value not in opt.choices:
                raise CliParseError(
                    f"{opt.key} must be {' or '.join(opt.choices)}, got {value!r}")
        if "grid_l" in values:
            try:
                values["grid"] = GridSpec(values["grid_l"], values["grid_n"])
            except ValueError as exc:
                raise CliParseError(str(exc)) from exc
    except TypeError as exc:
        raise CliParseError(f"bad config value: {exc}") from exc
    return argparse.Namespace(**values)


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


class InputSpec(NamedTuple):
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


#: Input kinds of one real parameter p: kind -> (p's name, the name of the
#: state's constructor in ``gaussians``, looked up per call so a wrapper set
#: on that module sees it); the default weight is a = tanh(2 p).
_ONE_PARAMETER_KINDS = {
    "chirp": ("alpha", "boundary_chirp"),
    "squeezed": ("beta", "squeezed_state"),
}


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
        if kind in _ONE_PARAMETER_KINDS:
            param, constructor = _ONE_PARAMETER_KINDS[kind]
            params = _kv_params(body, spec)
            value = float(params.pop(param))
            if params:
                raise CliParseError(f"unknown {kind} parameters {sorted(params)}")
            return InputSpec(label=spec, state=getattr(ga, constructor)(value),
                               default_a=math.tanh(2.0 * value))
        if kind == "expansion":
            if not body.startswith("@"):
                raise CliParseError("expansion spec needs @<file.json>")
            with open(body[1:], "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise CliParseError("expansion file must hold a JSON object {\"coeffs\": [...]}")
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


def _coefficients(inp: InputSpec, kmax: int) -> np.ndarray:
    if isinstance(inp.state, ga.GeneralizedGaussian):
        return ga.hermite_coeffs(inp.state, kmax).coeffs
    coeffs = np.zeros(kmax + 1, dtype=complex)
    src = inp.state.coeffs[: kmax + 1]
    coeffs[: src.size] = src
    return coeffs


#: A CSV field holding one of these is quoted, as csv's minimal quoting does.
_CSV_SPECIAL = re.compile(r'[,"\r\n]')

_BOOL_TEXT = {False: "false", True: "true"}


def _csv_text(text: str) -> str:
    """A text field as ``csv.writer`` (excel dialect) writes it."""
    return '"%s"' % text.replace('"', '""') if _CSV_SPECIAL.search(text) else text


def _csv_template(types: tuple) -> tuple[str, list]:
    """The %-template of a CSV row whose cells have these types, and the
    (index, converter) pairs of the cells that need one first: floats
    print as %.17g (nan, inf and -inf too), ints as %d, bools as
    true/false and anything else as its quoted str().  A row of one empty
    field prints as "", as csv writes it."""
    codes, convert = [], []
    for i, kind in enumerate(types):
        if kind is bool:
            codes.append("%s")
            convert.append((i, _BOOL_TEXT.__getitem__))
        elif issubclass(kind, float):
            codes.append("%.17g")
        elif kind is int:
            codes.append("%d")
        else:
            codes.append("%s")
            convert.append((i, lambda v: _csv_text(str(v))))
    if len(types) == 1 and convert:
        (_, text), = convert
        convert = [(0, lambda v: text(v) or '""')]
    return ",".join(codes) + "\r\n", convert


def _csv_table(header: list[str], rows) -> str:
    """The CSV text of a table, each row one %-template call (RFC-4180
    quoting, CRLF rows): one template per distinct row of cell types."""
    templates = {}
    out = []
    for row in itertools.chain([header], rows):
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = _csv_template(types)
        text, convert = template
        if convert:
            row = list(row)
            for i, fn in convert:
                row[i] = fn(row[i])
        out.append(text % tuple(row))
    return "".join(out)


def _json_safe(value):
    """A non-finite float as its text (nan, inf, -inf), which a strict JSON
    parser reads; any other value as it is."""
    if isinstance(value, float) and not math.isfinite(value):
        return "%.17g" % value
    return value


#: The C encoder with the item separator of ``json.dumps(indent=2)`` at a
#: row's cells, so all rows encode in one call.
_JSON_ROWS = json.JSONEncoder(separators=(",\n      ", ": "))

#: The encoder's tokens for non-finite floats and their text.
_JSON_NON_FINITE = (("-Infinity", '"-inf"'), ("Infinity", '"inf"'), ("NaN", '"nan"'))


def _json_rows(rows) -> str:
    """The rows of a table, scalar cells, laid out as
    ``json.dumps(indent=2)`` lays them out under the payload's "rows" key,
    non-finite floats as their text."""
    if not rows:
        return "[]"
    text = _JSON_ROWS.encode(rows)
    if "NaN" in text or "Infinity" in text:
        if '"' in text:  # a string cell may hold the words: map the cells instead
            text = _JSON_ROWS.encode([[_json_safe(v) for v in row] for row in rows])
        else:
            for token, quoted in _JSON_NON_FINITE:
                text = text.replace(token, quoted)
    text = "[\n    [\n      %s\n    ]\n  ]" % text[2:-2].replace(
        "],\n      [", "\n    ],\n    [\n      ")
    return text if all(rows) else text.replace("[\n      \n    ]", "[]")


def render_table(header: list[str], rows, fmt: str, meta: dict) -> str:
    """A table as CSV or JSON text.  In JSON a non-finite float, in meta or
    in a cell, prints as its text: the writer refuses NaN and Infinity,
    which are not JSON."""
    if fmt == "csv":
        return _csv_table(header, rows)
    head = {key: [_json_safe(v) for v in value] if isinstance(value, list) else _json_safe(value)
            for key, value in meta.items()}
    head["columns"] = header
    text = json.dumps(head, indent=2, allow_nan=False)
    return '%s,\n  "rows": %s\n}\n' % (text[:-2], _json_rows(rows))


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


def _rows(*columns) -> list[tuple]:
    """Table rows from equal-length array columns, as Python ints, floats
    and bools (so JSON takes them)."""
    return list(zip(*(np.asarray(c).tolist() for c in columns)))


def _class_constant(cfg, inp: InputSpec) -> tuple[float | None, float | None]:
    """``--a`` of coeffs and bargmann (default: the input's own weight),
    refused outside (0,1), and the class constant C at that weight: the
    t = 0 row of the flow, None for a non-member.  Both None when the
    input has no natural weight and none is given."""
    a = cfg.a if cfg.a is not None else inp.default_a
    if a is None:
        return None, None
    dc.check_weight(a)
    return a, next(osc.flow_envelopes(inp.state, [0.0], a))[1].constant


def cmd_coeffs(args, cfg: argparse.Namespace) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a, big_c = _class_constant(cfg, inp)
    k = np.arange(cfg.kmax + 1)
    abs_c = np.abs(_coefficients(inp, cfg.kmax))
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


def _envelope_weight(cfg, inp: InputSpec) -> float:
    """``--a`` of envelope and evolve: any positive weight, a >= 1 too."""
    a = cfg.a if cfg.a is not None else (inp.default_a or 0.5)
    if not a > 0:
        raise NumericalDomainError(f"a must be positive, got {a}")
    return a


def cmd_envelope(args, cfg: argparse.Namespace) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a = _envelope_weight(cfg, inp)
    _, mem = next(osc.flow_envelopes(inp.state, [0.0], a))
    t_rep, f_rep = mem.time_report, mem.frequency_report
    header = ["side", "a", "constant", "argmax_x", "divergent"]
    rows = [
        ["time", a, t_rep.constant, t_rep.argmax_x, t_rep.divergent],
        ["frequency", a, f_rep.constant, f_rep.argmax_x, f_rep.divergent],
    ]
    meta = {"command": "envelope", "input": inp.label, "member": mem.member}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_bargmann(args, cfg: argparse.Namespace) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a, big_c = _class_constant(cfg, inp)
    ws = cfg.w_ring * np.exp(2j * math.pi * np.arange(cfg.w_count) / cfg.w_count)
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


def cmd_evolve(args, cfg: argparse.Namespace) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    a = _envelope_weight(cfg, inp)
    if cfg.times is not None:
        ts = times = _float_list(cfg.times, "--times")
    else:  # the grid's size: flow_envelopes forms half its times when it is even
        times = cfg.t_grid_size
        ts = list(osc.default_t_grid(times))
    header = ["t", "norm_sq", "envelope_constant_time", "envelope_constant_frequency",
              "divergent_time", "divergent_frequency"]
    rows = [
        [t, n, mem.time_report.constant, mem.frequency_report.constant,
         mem.time_report.divergent, mem.frequency_report.divergent]
        for t, (n, mem) in zip(ts, osc.flow_envelopes(inp.state, times, a))
    ]
    if rows[0][1] == math.inf:  # the norm is one value at every t
        raise NumericalDomainError("the input's norm_sq is past the double range")
    meta = {"command": "evolve", "input": inp.label, "a": a}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_confine(args, cfg: argparse.Namespace) -> tuple[str, int]:
    inp = parse_input_spec(args.input)
    report = osc.confinement_check(inp.state, cfg.beta, cfg.gamma, cfg.t_grid_size)
    if report.divergent:
        raise _Divergence(
            f"envelope at a = tanh({cfg.gamma}) = {report.a:.6f} diverges along the flow; "
            f"first offending t = {report.first_divergent_t:.6f}"
        )
    header = ["t", "envelope_constant_time", "envelope_constant_frequency"]
    rows = _rows(report.ts, report.psi_constants, report.fourier_constants)
    meta = {
        "command": "confine", "input": inp.label,
        "beta": cfg.beta, "gamma": cfg.gamma, "a": report.a,
        "sup_constant": report.sup_constant, "worst_t": report.worst_t,
        "attained_ts": report.attained_ts.tolist(),
    }
    return render_table(header, rows, cfg.output_format, meta), 0


def _input_weighted_norm_sq(inp: InputSpec, a: float) -> float:
    """||f||_a^2 of the input in closed form: nan where the weighted
    integral diverges (a Gaussian outside the class), inf past the double
    range (a long expansion at a tight weight)."""
    g = inp.state
    if isinstance(g, ga.GeneralizedGaussian):
        diverges = min(g.width.real, ga.fourier_gaussian(g).width.real) <= a
        return math.nan if diverges else ga.weighted_norm_sq_gaussian(g, a)
    return wt.expansion_weighted_norm_sq(g, a)


def cmd_norms(args, cfg: argparse.Namespace) -> tuple[str, int]:
    if args.input is None:
        a = cfg.a if cfg.a is not None else 0.5
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
    a_list = _float_list(cfg.a_list, "--a-list")
    for a in a_list:
        dc.check_weight(a)
    header = ["a", "norm_sq"]
    rows = [[a, _input_weighted_norm_sq(inp, a)] for a in a_list]
    meta = {"command": "norms", "input": inp.label}
    return render_table(header, rows, cfg.output_format, meta), 0


def cmd_verify_all(args, cfg: argparse.Namespace) -> tuple[str, int]:
    vcfg = VerifyConfig(grid=cfg.grid, kmax=max(cfg.kmax, 60))
    results = run_all(vcfg)
    all_pass = all(r.passed for r in results)
    if cfg.output_format == "csv":
        header = ["name", "pass", "measured", "threshold", "detail"]
        rows = [[r.name, r.passed, r.measured, r.threshold, r.detail] for r in results]
        text = render_table(header, rows, "csv", {})
    else:
        criteria = [{"name": r.name, "pass": r.passed, "measured": _json_safe(r.measured),
                     "threshold": r.threshold, "detail": r.detail} for r in results]
        config = {"grid_L": cfg.grid_l, "grid_N": cfg.grid_n, "kmax": vcfg.kmax,
                  "grid_kmax": vcfg.grid_kmax, "wide_grid_L": WIDE_GRID.half_width,
                  "wide_grid_N": WIDE_GRID.num_points}
        payload = {"criteria": criteria, "all_pass": all_pass, "config": config}
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    return text, 0 if all_pass else 1


class _Divergence(RuntimeError):
    pass


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for dest in COMMON_OPTIONS:
        common.add_argument(OPTIONS[dest].flag, **_ARGPARSE_KWARGS[dest])
    parser = argparse.ArgumentParser(
        prog="gaussherm",
        description="Hermite-coefficient decay, Bargmann bounds, and oscillator "
                    "confinement for Gaussian-envelope classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, takes_input, options) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        # a group's add_argument skips the parser's metavar check, a third of its cost
        group = p.add_argument_group(f"{name} arguments")
        if takes_input is not None:
            group.add_argument("input", nargs="?" if takes_input == "optional" else None,
                               help="input spec, e.g. gaussian:b=0.5 or chirp:alpha=0.27465")
        for dest in options:
            group.add_argument(OPTIONS[dest].flag, **_ARGPARSE_KWARGS[dest])
        p.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")])
    return parser


#: Flags whose value may start with '-'; see :func:`_attach_signed_values`.
_SIGNED_FLAGS = tuple(opt.flag for opt in OPTIONS.values() if opt.signed)


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
    try:
        cfg = load_config(args.config, args.command, vars(args))
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
