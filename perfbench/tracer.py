"""Spans around the public functions of each gaussherm layer, from outside.

``Tracer.install()`` wraps every public function defined in a layer module
and rebinds every alias of the same function object across the loaded
``gaussherm.*`` namespaces (``cli`` imports ``synthesize`` from ``hermite``,
and so do ``oscillator`` and ``weighted``; ``verify.ALL_CRITERIA`` holds the
criteria in a tuple).  Nothing inside the package changes.

A span is ``[function id, start, end, parent span, request id, raised,
extra]``, kept in memory and written out by :meth:`Tracer.dump`.  Per-layer
metrics are derived from the spans: each time is self time (the span minus
its direct children, which in this single-threaded program run one after
another inside it), and each count is exact for a fixed request sequence.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "hermite", "gaussians", "bargmann", "decay", "oscillator", "weighted", "verify")

VERIFY_CRITERIA = (
    "normalization_pins", "reflection_identity", "coeff_bound_dominance",
    "endpoint_sharpness", "contour_machinery", "oscillator_evolution", "confinement",
    "weighted_norm_identities", "factorial_certificate", "uniform_norm_coeff_bound",
    "hardy_threshold",
)

#: Self time of these functions makes up the named per-layer times.
TIMED_GROUPS = {
    "cli.parse_s": ("cli", {"main", "build_parser", "load_config", "parse_input_spec",
                            "parse_complex"}),
    "cli.render_s": ("cli", {"render_table", "write_output"}),
    "hermite.basis_s": ("hermite", {"hermite_phi_all", "hermite_phi"}),
    "hermite.analyze_s": ("hermite", {"analyze", "inner_product"}),
    "hermite.synthesize_s": ("hermite", {"synthesize"}),
    "hermite.fourier_s": ("hermite", {"fourier_sampled"}),
    "bargmann.contour_s": ("bargmann", {"optimal_contour", "adaptive_simpson"}),
    "bargmann.numeric_s": ("bargmann", {"bargmann_numeric"}),
    "decay.scan_s": ("decay", {"envelope_scan"}),
    "decay.classify_s": ("decay", {"hardy_classify"}),
    "oscillator.sides_s": ("oscillator", {"sampled_sides", "evolve_expansion",
                                          "evolve_gaussian"}),
    "weighted.norm_s": ("weighted", {"weighted_norm_sq", "weighted_norm"}),
    "weighted.certificate_s": ("weighted", {"central_binomial_certificate"}),
}


def _grid_key(xs) -> tuple:
    import numpy as np

    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return (int(xs.size), float(xs[0]), float(xs[-1]))


def _numeric_points(b) -> int:
    import numpy as np

    return int(np.size(b["w"])) * b["f"].grid.num_points


def _basis(b):
    k = b["kmax"] if "kmax" in b else b["k"]
    key = _grid_key(b["xs"])
    return (int(k), key)


#: Arguments recorded per call, for the counts that need them.
EXTRACTORS = {
    "hermite_phi_all": _basis,
    "hermite_phi": _basis,
    "optimal_contour": lambda b: (int(b["n"]), float(b["mu"])),
    "bargmann_numeric": _numeric_points,
    "weighted_norm_sq": lambda b: b["kmax"] is None,
    "sampled_sides": lambda b: type(b["state"].rep).__name__ == "HermiteExpansion",
}


class Tracer:
    """Spans of one process; ``request`` tags the spans of the request being
    served."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1

    # ------------------------------------------------------------ install

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.names)
        self.names.append((layer, name))
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extract = EXTRACTORS.get(name)
        sig = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = None
            if extract is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = extract(bound.arguments)
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, self.request, None, extra]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind their aliases."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gaussherm.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "gaussherm" and not modname.startswith("gaussherm."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                elif isinstance(val, (tuple, list)) and any(
                        inspect.isfunction(v) and v in wrappers for v in val):
                    setattr(mod, attr, type(val)(
                        wrappers.get(v, v) if inspect.isfunction(v) else v for v in val))

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["function", "start", "end", "parent", "request",
                                   "raised", "extra"],
                       "functions": [f"{l}.{n}" for l, n in self.names],
                       "spans": self.spans}, fh)

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_by_fn: dict[str, float] = {}
        incl_by_fn: dict[str, float] = {}
        calls: dict[str, list] = {}
        out = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = 0.0
            out[f"{layer}.raised"] = 0
        for i, rec in enumerate(spans):
            layer, name = names[rec[0]]
            dur = rec[2] - rec[1]
            self_by_fn[f"{layer}.{name}"] = self_by_fn.get(f"{layer}.{name}", 0.0) + dur - child[i]
            incl_by_fn[f"{layer}.{name}"] = incl_by_fn.get(f"{layer}.{name}", 0.0) + dur
            calls.setdefault(name, []).append(rec)
            out[f"{layer}.s"] += dur - child[i]
            parent_layer = names[spans[rec[3]][0]][0] if rec[3] >= 0 else None
            if rec[5] is not None and parent_layer != layer:
                out[f"{layer}.raised"] += 1
        for metric, (layer, fns) in TIMED_GROUPS.items():
            out[metric] = sum(self_by_fn.get(f"{layer}.{fn}", 0.0) for fn in fns)

        basis = calls.get("hermite_phi_all", []) + calls.get("hermite_phi", [])
        basis.sort(key=lambda rec: rec[1])
        seen: dict[tuple, int] = {}
        repeats = values = 0
        for rec in basis:
            k, grid = rec[6]
            if seen.get(grid, -1) >= k:
                repeats += 1
            seen[grid] = max(seen.get(grid, -1), k)
            values += (k + 1) * grid[0]
        out["hermite.basis_calls"] = len(basis)
        out["hermite.basis_values"] = values
        out["hermite.basis_bytes"] = 8 * values
        out["hermite.basis_repeat_ratio"] = repeats / len(basis) if basis else 0.0
        out["hermite.fourier_calls"] = len(calls.get("fourier_sampled", []))

        contour = calls.get("optimal_contour", [])
        out["bargmann.contour_calls"] = len(contour)
        distinct = len({rec[6] for rec in contour})
        out["bargmann.contour_repeat_ratio"] = (
            (len(contour) - distinct) / len(contour) if contour else 0.0)
        numeric = calls.get("bargmann_numeric", [])
        out["bargmann.numeric_calls"] = len(numeric)
        out["bargmann.numeric_points"] = sum(rec[6] for rec in numeric)

        out["gaussians.coeffs_calls"] = len(calls.get("hermite_coeffs", []))
        out["decay.scan_calls"] = len(calls.get("envelope_scan", []))

        sides = calls.get("sampled_sides", [])
        out["oscillator.time_samples"] = len(sides)
        out["oscillator.expansion_share"] = (
            sum(rec[6] for rec in sides) / len(sides) if sides else 0.0)

        norms = calls.get("weighted_norm_sq", [])
        out["weighted.norm_calls"] = len(norms)
        out["weighted.norm_sampled_calls"] = sum(rec[6] for rec in norms)
        out["weighted.refused"] = sum(rec[5] is not None for rec in norms)

        for crit in VERIFY_CRITERIA:
            out[f"verify.{crit}_s"] = self_by_fn.get(f"verify.criterion_{crit}", 0.0)
            out[f"verify.{crit}_incl_s"] = incl_by_fn.get(f"verify.criterion_{crit}", 0.0)
        out["trace.spans"] = len(spans)
        return out


#: Per-layer metrics with their units, in report order.
def metric_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.raised"] = "count"
    for metric in TIMED_GROUPS:
        units[metric] = "s"
    for name in ("hermite.basis_calls", "hermite.fourier_calls", "bargmann.contour_calls",
                 "bargmann.numeric_calls", "gaussians.coeffs_calls", "decay.scan_calls",
                 "oscillator.time_samples", "weighted.norm_calls",
                 "weighted.norm_sampled_calls", "weighted.refused", "trace.spans"):
        units[name] = "count"
    units["hermite.basis_values"] = "count"
    units["bargmann.numeric_points"] = "count"
    units["hermite.basis_bytes"] = "bytes"
    for name in ("hermite.basis_repeat_ratio", "bargmann.contour_repeat_ratio",
                 "oscillator.expansion_share"):
        units[name] = "ratio"
    for crit in VERIFY_CRITERIA:
        units[f"verify.{crit}_s"] = "s"
        units[f"verify.{crit}_incl_s"] = "s"
    return units
