"""Metamorphic relations between the routes of ``oscillator.flow_envelopes``.

An expansion's envelope constants come from several routes: blocks of the
times of a list, the half table of an even ``default_t_grid(T)`` (its later
rows are earlier rows with their sides swapped), the basis streamed in column
blocks, one pass over the whole basis for a single time, and the stationary
route of an expansion with one nonzero coefficient.  The flow's own
identities tie their rows to one another, with no oracle beside them:

- psi_{t+pi/2}(x) = i psi_t(-x), since e^{i(2n+1)pi/2} = i (-1)^n and
  phi_n(-x) = (-1)^n phi_n(x): each side's constant at t + pi/2 is the one at
  t, and its argmax_x is mirrored;
- psihat_t = e^{i pi/4} psi_{t-pi/4}: the frequency side at t is the time side
  at t - pi/4, and the time side at t the frequency side at t + pi/4;
- the constants of lambda psi are |lambda| times those of psi, and its norm
  |lambda|^2 times;
- ||psi_t||^2 does not depend on t;
- a centred Gaussian's closed-form rows are those of its truncated Hermite
  expansion: its weighted modulus peaks at x = 0, a grid point.

Cases: eight seeded dense expansions, K from 1 to 119 (past 81 on the wider
grid of their degree), and phi_k for k in {0, 3, 40, 81, 119}; a in
{0.3, 0.6, 0.9}.  The tolerances are relative.  The largest deviations these
tests meet (numpy with OpenBLAS, x86-64) are 8.0e-14 for the period, 4.9e-14
for the scaling, 2.7e-14 for the quarter shift, 1.5e-15 between a Gaussian
and its expansion and 5.6e-16 for the norms.

The class constant C that the flow's t = 0 row gives a member also feeds
the bounds that ``bargmann`` and ``coeffs`` print beside the state's own
values, and the paper's estimates order them:

- |Uf(w)| <= ``quadrant_bound`` at every ring point;
- every ``log10_envelope_margin`` and ``log10_contour_margin`` is >= 0.

These run over the same cases, at a in {0.3, 0.6, 0.9}, and over Gaussian
inputs (centred Gaussians, boundary chirps, squeezed states) at those
weights and at their own.  They hold with no slack.  The smallest margins
these tests meet are 0.32 decades for ``bargmann`` (squeezed:beta=2 at its
own weight, |w| = 0.5), 0.73 for the envelope bound and 0.63 for the contour
bound.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from gaussherm.cli import main
from gaussherm.gaussians import GeneralizedGaussian, hermite_coeffs, moebius_ratio, squeezed_state
from gaussherm.hermite import HermiteExpansion, unit_expansion
from gaussherm.oscillator import default_t_grid, evolve_expansion, flow_envelopes

#: Relative tolerance of the period, quarter-shift and scaling relations,
#: whose two sides take different times or coefficients through the routes.
ROUTE_REL = 5e-13

#: Relative tolerance of the norm against the evolved coefficients' sum.
NORM_REL = 4e-15

#: Relative tolerance between a Gaussian's closed-form constants and those of
#: its expansion truncated where |c_k| is below 1e-17 of its largest.
GAUSSIAN_REL = 2e-14

A_VALUES = [0.3, 0.6, 0.9]


def _cases():
    rng = np.random.default_rng(20261029)
    dense = [HermiteExpansion(rng.normal(size=n) + 1j * rng.normal(size=n))
             for n in (2, 5, 12, 30, 64, 82, 101, 120)]
    return dense + [unit_expansion(k) for k in (0, 3, 40, 81, 119)]


def _times(i: int) -> np.ndarray:
    """Five seeded times in [-2, 5) for case i."""
    return np.random.default_rng(1000 + i).uniform(-2.0, 5.0, size=5)


def _sides(mem):
    return mem.time_report, mem.frequency_report


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("a", A_VALUES)
def test_a_half_period_mirrors_each_side(a):
    """Each side at t + pi/2, formed alone (one pass over the basis), has the
    constant of that side at t, formed in a list with the other times
    (column blocks), and the mirrored argmax_x.  phi_k's |psi_t| is even, so
    there both argmax_x are the negative x of the tie rule."""
    for i, e in enumerate(_cases()):
        ts = _times(i)
        for t, (_, mem) in zip(ts, flow_envelopes(e, ts, a)):
            (_, later), = flow_envelopes(e, [t + 0.5 * math.pi], a)
            for now, then in zip(_sides(mem), _sides(later)):
                assert _close(then.constant, now.constant, ROUTE_REL)
                assert then.argmax_x == (now.argmax_x if len(e.coeffs.nonzero()[0]) == 1
                                         else -now.argmax_x)


@pytest.mark.parametrize("a", A_VALUES)
def test_the_half_table_is_the_flow_a_quarter_period_away(a):
    """On ``default_t_grid(T)``, T in {2, 8, 64} (the half table; one formed
    time takes one pass over the basis, more take it in column blocks), the
    frequency side at t has the constant and argmax_x of the time side at
    t - pi/4, and the time side at t those of the frequency side at t + pi/4,
    both taken from the times as lists."""
    for e in _cases():
        for size in (2, 8, 64):
            ts = default_t_grid(size)
            back = flow_envelopes(e, ts - 0.25 * math.pi, a)
            ahead = flow_envelopes(e, ts + 0.25 * math.pi, a)
            for (_, mem), (_, b), (_, f) in zip(flow_envelopes(e, size, a), back, ahead):
                for got, want in ((mem.frequency_report, b.time_report),
                                  (mem.time_report, f.frequency_report)):
                    assert _close(got.constant, want.constant, ROUTE_REL)
                    assert got.argmax_x == want.argmax_x


@pytest.mark.parametrize("a", A_VALUES)
def test_constants_scale_with_the_state(a):
    """lambda psi has |lambda| times the constants of psi at each t, the same
    argmax_x and |lambda|^2 times its norm: lambda in {0.37 - 1.9i, 3e-120 i,
    2.5e100}, on the seeded times as a list and on ``default_t_grid(64)``."""
    for i, e in enumerate(_cases()):
        for lam in (0.37 - 1.9j, 3e-120j, 2.5e100):
            scaled = HermiteExpansion(lam * e.coeffs)
            for ts in (_times(i), 64):
                for (n, mem), (ns, ms) in zip(flow_envelopes(e, ts, a),
                                              flow_envelopes(scaled, ts, a)):
                    assert _close(ns, abs(lam) ** 2 * n, NORM_REL)
                    for r, rs in zip(_sides(mem), _sides(ms)):
                        assert _close(rs.constant, abs(lam) * r.constant, ROUTE_REL)
                        assert rs.argmax_x == r.argmax_x


@pytest.mark.parametrize("a", A_VALUES)
def test_the_norm_does_not_depend_on_t(a):
    """Every row's norm is one value, the sum of |c_k(t)|^2 of the evolved
    coefficients at each t of the list and of ``default_t_grid(8)``."""
    for i, e in enumerate(_cases()):
        for ts in (_times(i), 8):
            rows = list(flow_envelopes(e, ts, a))
            times = default_t_grid(ts) if isinstance(ts, int) else ts
            assert len({n for n, _ in rows}) == 1
            for t, (n, _) in zip(times, rows):
                assert _close(n, evolve_expansion(e, float(t)).norm_sq(), NORM_REL)


@pytest.mark.parametrize("a", A_VALUES)
def test_a_gaussian_is_its_truncated_expansion(a):
    """Centred Gaussians, at each a within their flow's class, against their
    expansions truncated at K in {40, 81}: the same norm and constants, on a
    list of times and on ``default_t_grid(T)``, T in {8, 64}."""
    gaussians = [GeneralizedGaussian(0.7 - 0.4j, b) for b in (1.05 + 0.02j, 0.95 - 0.03j, 1.0)]
    gaussians += [GeneralizedGaussian(1.2 + 0.3j, 0.8 + 0.1j), squeezed_state(2.0)]
    seen = 0
    for g in gaussians:
        r = abs(moebius_ratio(g))
        if a > (1.0 - r) / (1.0 + r) * (1.0 - 1e-9):  # the flow leaves the class
            continue
        for kmax in (40, 81):
            e = hermite_coeffs(g, kmax)
            assert np.abs(e.coeffs[-2:]).max() < 1e-17 * np.abs(e.coeffs).max()
            for ts in ([0.3, -1.1, 2.7], 8, 64):
                for (ng, mg), (ne, me) in zip(flow_envelopes(g, ts, a), flow_envelopes(e, ts, a)):
                    assert _close(ne, ng, GAUSSIAN_REL)
                    assert mg.member and me.member
                    for rg, re in zip(_sides(mg), _sides(me)):
                        assert _close(re.constant, rg.constant, GAUSSIAN_REL)
                seen += 1
    assert seen >= 12


#: Gaussian inputs of the bound relations, and the weights they are read at
#: (None: the input's own).
GAUSSIAN_SPECS = ["gaussian:b=1", "gaussian:A=0.7-0.4i,b=1.05+0.02i",
                  "gaussian:A=1.2+0.3i,b=0.8+0.1i", "chirp:alpha=0.2", "chirp:alpha=0.27465",
                  "chirp:alpha=0.5", "squeezed:beta=0.5", "squeezed:beta=2"]


def _bound_inputs(tmp_path):
    """(spec, weights) of every input of the bound relations: each case of
    the net as an ``expansion:@`` file, then the Gaussian inputs."""
    out = []
    for i, e in enumerate(_cases()):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in e.coeffs]}))
        out.append((f"expansion:@{path}", A_VALUES))
    return out + [(spec, [*A_VALUES, None]) for spec in GAUSSIAN_SPECS]


def _table(argv, a):
    """The JSON table the command prints at weight a (None: no --a)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv + ([] if a is None else ["--a", str(a)]) + ["--format", "json"]) == 0
    return json.loads(buf.getvalue())


def _column(table, name):
    i = table["columns"].index(name)
    return np.array([float(row[i]) for row in table["rows"]])


def test_bargmann_stays_under_the_quadrant_bound(tmp_path):
    """|Uf(w)| <= quadrant_bound at each of 24 points on the rings |w| in
    {0.5, 2, 5}, for every member input and weight."""
    members = 0
    for spec, weights in _bound_inputs(tmp_path):
        for a in weights:
            for ring in ("0.5", "2", "5"):
                table = _table(["bargmann", spec, "--w-ring", ring, "--w-count", "24"], a)
                if table["C"] is None:
                    continue
                members += 1
                abs_u, bound = _column(table, "abs_u"), _column(table, "quadrant_bound")
                assert np.all(abs_u <= bound), (spec, a, ring)
    assert members == 189  # 63 member (input, weight) pairs on 3 rings


def test_coeffs_margins_are_nonnegative_for_members(tmp_path):
    """Every log10_envelope_margin (k >= 1) and log10_contour_margin
    (k >= 2) is >= 0 up to k = 150, for every member input and weight; a
    vanishing coefficient's margin is +inf."""
    members = 0
    for spec, weights in _bound_inputs(tmp_path):
        for a in weights:
            table = _table(["coeffs", spec, "--kmax", "150"], a)
            if table["C"] is None:
                continue
            members += 1
            for name, first in (("log10_envelope_margin", 1), ("log10_contour_margin", 2)):
                margins = _column(table, name)
                assert np.all(np.isnan(margins[:first])), (spec, a, name)
                assert np.all(margins[first:] >= 0.0), (spec, a, name)
    assert members == 63  # of 71 (input, weight) pairs
