"""Output oracles: is a CLI reply the right answer, or the documented refusal?

``check(req, code, stdout)`` returns None when the reply is correct and a
one-line reason otherwise.  Exit 0 must come with a valid table for the
command; exit 3 (numerical domain) is accepted only for Hermite indices past
the grid's band limit; exit 4 (divergence) only from ``confine`` where the
drawn gamma lies above the flow's threshold, or past the band limit.  Exit 2
(parse error) is never correct: the generator writes only valid argv.

Reference values come from closed forms evaluated here, independently of the
package: Gaussian norms and Hermite coefficients, envelope constants, the
input file's own moduli.  The weighted-norm table is checked for agreement
between its closed-form and quadrature columns.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

#: evolve: norm_sq equals ||psi_0||^2 to this relative tolerance.
NORM_REL = 1e-10
#: norms (no input): closed form against quadrature, relative.
NORMS_REL = 1e-6
#: coeffs / envelope: closed forms evaluated two ways, relative.
CLOSED_REL = 1e-12
#: bargmann: |U f(w)| may exceed the quadrant bound by this relative slack.
BOUND_SLACK = 1e-9

HEADERS = {
    "coeffs": ["k", "abs_coeff", "log10_abs_coeff", "log10_envelope_bound",
               "log10_contour_bound", "log10_envelope_margin", "log10_contour_margin"],
    "envelope": ["side", "a", "constant", "argmax_x", "divergent"],
    "bargmann": ["re_w", "im_w", "re_u", "im_u", "abs_u",
                 "quadrant_bound", "sector_bound", "in_sector"],
    "evolve": ["t", "norm_sq", "envelope_constant_time", "envelope_constant_frequency",
               "divergent_time", "divergent_frequency"],
    "confine": ["t", "envelope_constant_time", "envelope_constant_frequency"],
    "norms_table": ["n", "closed_norm_sq", "lower_bound", "quadrature_norm_sq"],
    "norms_input": ["a", "norm_sq"],
}

VERIFY_CRITERIA = 11


class Reject(Exception):
    pass


def _num(cell) -> float:
    if isinstance(cell, bool):
        raise Reject(f"boolean cell {cell!r}")
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise Reject(f"non-numeric cell {cell!r}") from None


def _flag(cell) -> bool:
    if cell in (True, "true"):
        return True
    if cell in (False, "false"):
        return False
    raise Reject(f"non-boolean cell {cell!r}")


def parse_table(stdout: str, fmt: str, header: list[str]) -> list[list]:
    """Rows of a CSV or JSON table, after checking its columns."""
    if fmt == "json":
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise Reject(f"bad JSON: {exc}") from None
        cols, rows = payload.get("columns"), payload.get("rows")
    else:
        if not stdout.endswith("\r\n"):
            raise Reject("CSV rows must end in CRLF")
        table = list(csv.reader(io.StringIO(stdout, newline="")))
        cols, rows = (table[0], table[1:]) if table else (None, None)
    if cols != header:
        raise Reject(f"columns {cols!r} != {header!r}")
    if not isinstance(rows, list) or any(len(r) != len(header) for r in rows):
        raise Reject("ragged or missing rows")
    return rows


def _close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * max(abs(ref), 1e-300)


def _gaussian(inp) -> tuple[complex, complex]:
    return complex(*inp["A"]), complex(*inp["b"])


def _gaussian_coeff_moduli(inp, kmax: int) -> list[float]:
    """|<g, phi_k>| for g = A exp(-b x^2/2): with z = (1-b)/(1+b) and
    P = 2^(1/4) A (1+b)^(-1/2), |c_2m| = |P| |z|^m sqrt((2m)!)/(2^m m!)."""
    amp, b = _gaussian(inp)
    z = abs((1.0 - b) / (1.0 + b))
    p = abs(2.0 ** 0.25 * amp / cmath.sqrt(1.0 + b))
    out = []
    for k in range(kmax + 1):
        if k % 2:
            out.append(0.0)
            continue
        m = k // 2
        if z == 0.0:
            out.append(p if m == 0 else 0.0)
            continue
        log_mag = (math.log(p) + m * math.log(z) + 0.5 * math.lgamma(2 * m + 1)
                   - m * math.log(2.0) - math.lgamma(m + 1))
        out.append(math.exp(log_mag))
    return out


def _expansion_moduli(inp, kmax: int) -> list[float]:
    if inp["family"] == "hermite":
        return [1.0 if k == inp["k"] else 0.0 for k in range(kmax + 1)]
    mods = [math.hypot(re, im) for re, im in inp["coeffs"][: kmax + 1]]
    return mods + [0.0] * (kmax + 1 - len(mods))


def _check_coeffs(req, rows):
    kmax = req.get("kmax", 60)
    if len(rows) != kmax + 1:
        raise Reject(f"{len(rows)} rows for kmax={kmax}")
    inp = req["input"]
    if inp["kind"] == "gaussian":
        ref, rel = _gaussian_coeff_moduli(inp, kmax), CLOSED_REL
    else:
        ref, rel = _expansion_moduli(inp, kmax), 1e-15
    for k, row in enumerate(rows):
        if int(_num(row[0])) != k:
            raise Reject(f"row {k} has k={row[0]}")
        got = _num(row[1])
        if not (_close(got, ref[k], rel) or (ref[k] < 1e-290 and got < 1e-290)):
            raise Reject(f"abs_coeff[{k}] = {got!r}, expected {ref[k]!r}")
        margin = _num(row[5])
        if req["in_class"] and not math.isnan(margin) and margin < 0.0:
            raise Reject(f"log10_envelope_margin[{k}] = {margin!r} < 0 for an in-class input")


def _check_envelope(req, rows):
    if [r[0] for r in rows] != ["time", "frequency"]:
        raise Reject("envelope needs a time row and a frequency row")
    consts = [_num(r[2]) for r in rows]
    if any(not (c >= 0.0 and math.isfinite(c)) for c in consts):
        raise Reject(f"envelope constants {consts!r}")
    inp = req["input"]
    if inp["kind"] != "gaussian":
        return
    a = _num(rows[0][1])
    amp, b = _gaussian(inp)
    # |A e^{-b x^2/2}| e^{a x^2/2} peaks at x = 0 with value |A| unless it
    # grows (Re b < a); the transform is A b^(-1/2) e^{-x^2/(2b)}
    sides = [(abs(amp), b.real), (abs(amp) / math.sqrt(abs(b)), (1.0 / b).real)]
    for row, (const, re_width) in zip(rows, sides):
        if not _close(_num(row[2]), const, CLOSED_REL):
            raise Reject(f"{row[0]} constant {row[2]} != closed form {const!r}")
        if _flag(row[4]) != (re_width < a * (1.0 - 1e-12)):
            raise Reject(f"{row[0]} divergent flag {row[4]} for Re width {re_width!r}, a={a!r}")


def _check_bargmann(req, rows):
    if len(rows) != req["w_count"]:
        raise Reject(f"{len(rows)} rows for w-count {req['w_count']}")
    for i, row in enumerate(rows):
        abs_u, bound = _num(row[4]), _num(row[5])
        if not math.isfinite(abs_u):
            raise Reject(f"abs_u[{i}] = {abs_u!r}")
        if math.isfinite(bound) and abs_u > bound * (1.0 + BOUND_SLACK):
            raise Reject(f"abs_u[{i}] = {abs_u!r} exceeds quadrant_bound {bound!r}")


def _check_evolve(req, rows):
    if len(rows) != req["t_grid"]:
        raise Reject(f"{len(rows)} rows for a t-grid of {req['t_grid']}")
    ref = req["input"]["norm_sq"]
    for row in rows:
        got = _num(row[1])
        if not _close(got, ref, NORM_REL):
            raise Reject(f"norm_sq {got!r} at t={row[0]} != |psi_0|^2 = {ref!r} "
                         f"(rel {abs(got - ref) / ref:.1e} > {NORM_REL:.0e})")


def _check_confine(req, rows):
    if len(rows) != req["t_grid"]:
        raise Reject(f"{len(rows)} rows for a t-grid of {req['t_grid']}")
    for row in rows:
        if not all(math.isfinite(_num(c)) and _num(c) >= 0.0 for c in row[1:]):
            raise Reject(f"bad envelope constants at t={row[0]}")


def _check_norms(req, rows):
    if req["input"] is None:
        if len(rows) != req["kmax"] + 1:
            raise Reject(f"{len(rows)} rows for kmax={req['kmax']}")
        for n, row in enumerate(rows):
            closed, quad = _num(row[1]), _num(row[3])
            if math.isnan(quad):
                continue
            if not _close(quad, closed, NORMS_REL):
                raise Reject(f"n={n}: quadrature {quad!r} != closed form {closed!r} "
                             f"(rel {abs(quad - closed) / closed:.1e} > {NORMS_REL:.0e})")
        return
    if [_num(r[0]) for r in rows] != req["a_list"]:
        raise Reject("norms rows do not follow --a-list")
    for row in rows:
        val = _num(row[1])
        if not (math.isnan(val) or (val > 0.0 and math.isfinite(val))):
            raise Reject(f"norm_sq {val!r} at a={row[0]}")


def _check_verify(stdout):
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Reject(f"bad JSON: {exc}") from None
    crit = payload.get("criteria")
    if not isinstance(crit, list) or len(crit) != VERIFY_CRITERIA:
        raise Reject(f"expected {VERIFY_CRITERIA} criteria")
    failing = [c.get("name") for c in crit if c.get("pass") is not True]
    if payload.get("all_pass") is not True or failing:
        raise Reject(f"verify-all reports failures: {failing}")


def _allowed_codes(req) -> set[int]:
    allowed = {0}
    if req["beyond_band"]:
        allowed.add(3)
        if req["cmd"] == "confine":
            allowed.add(4)
    if req["cmd"] == "confine" and req.get("diverge"):
        allowed = {4}
    return allowed


def check(req, code: int, stdout: str) -> str | None:
    """None if (code, stdout) is a correct reply to ``req``, else the reason."""
    allowed = _allowed_codes(req)
    if code not in allowed:
        return f"exit {code}, expected one of {sorted(allowed)}"
    if code != 0:
        return None
    cmd = req["cmd"]
    try:
        if cmd == "verify-all":
            _check_verify(stdout)
            return None
        if cmd == "norms":
            key = "norms_table" if req["input"] is None else "norms_input"
            _check_norms(req, parse_table(stdout, req["fmt"], HEADERS[key]))
            return None
        rows = parse_table(stdout, req["fmt"], HEADERS[cmd])
        {
            "coeffs": _check_coeffs,
            "envelope": _check_envelope,
            "bargmann": _check_bargmann,
            "evolve": _check_evolve,
            "confine": _check_confine,
        }[cmd](req, rows)
    except Reject as exc:
        return str(exc)
    return None
