"""Harmonic-oscillator Schrodinger flow in spectral form, plus confinement.

The evolution solves (1/i) d psi/dt = H psi with H = -d^2/dx^2 + x^2, i.e.
psi_t = e^{itH} psi_0, so Hermite coefficients pick up phases e^{i(2n+1)t}
(note the + sign; many references evolve with e^{-itH}).  Generalized
Gaussians stay Gaussian under the flow: the Moebius parameter
z = (1-b)/(1+b) simply rotates, z(t) = z e^{4it}.

Confinement: a state whose initial data sits inside a tight Gaussian
envelope stays inside a slightly wider envelope for all time, with an
explicit constant assembled from the coefficient decay and the Mehler sum.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .decay import EnvelopeReport, Membership, sample_peak
from .errors import NumericalDomainError
from .gaussians import GeneralizedGaussian, _energy, _membership, moebius_ratio
from .grid import DEFAULT_GRID, GridSpec
from .hermite import (BAND_LIMIT_FRACTION, HermiteExpansion, fourier_expansion, grid_basis,
                      hermite_phi_all)
from .special import gammaln


def _check_phase(factor: float, t: float) -> None:
    """Refuse a time whose largest phase, factor * t, is not a finite double."""
    if not math.isfinite(factor * t):
        raise NumericalDomainError(f"time t={t!r} is out of range: the phase {factor:g}t overflows")


def evolve_expansion(e: HermiteExpansion, t: float) -> HermiteExpansion:
    """Spectral flow: coeffs[n] -> e^{i(2n+1)t} coeffs[n].  A time whose
    largest phase (2K+1)t, K = len(e) - 1, is not finite is refused
    (``NumericalDomainError``)."""
    n = np.arange(len(e))
    _check_phase(2.0 * len(e) - 1.0, t)
    return HermiteExpansion(e.coeffs * np.exp(1j * (2 * n + 1) * t))


def _evolve(amp: complex, b: complex, t: float, root: complex) -> tuple[complex, complex]:
    """:func:`evolve_gaussian` on the amplitude and width: (A(t), b(t)),
    ``root`` being sqrt(1+b)."""
    if t == 0:
        bt = b
    else:
        _check_phase(2.0, t)
        c, s = math.cos(2.0 * t), math.sin(2.0 * t)
        bt = (b * c - 1j * s) / (c - 1j * b * s)
    if not (bt.real > 0 and (1.0 / bt).real > 0):
        raise NumericalDomainError(
            f"the flow of the Gaussian of width b={b} at t={t} has width b(t)={bt}, whose "
            f"real part or that of 1/b(t) rounds to 0: Re b is too small for double precision")
    if t == 0:
        return amp, b
    return amp * cmath.exp(1j * t) * cmath.sqrt(1.0 + bt) / root, bt


def evolve_gaussian(g: GeneralizedGaussian, t: float) -> GeneralizedGaussian:
    """Closed-form flow of a generalized Gaussian.

    z(t) = z e^{4it} is the Moebius rotation
    b(t) = (b cos 2t - i sin 2t) / (cos 2t - i b sin 2t), which returns b
    itself at t = 0, and A(t) = A e^{it} sqrt(1+b(t)) / sqrt(1+b).  Re b(t)
    stays positive, so 1 + b(t) never leaves the half-plane Re > 1, where the
    principal square root is continuous in t: both roots are principal.
    The flow at t = 0 is the identity, so g itself is returned there.  A
    time whose double 2t is not finite is refused (``NumericalDomainError``),
    and so is a time where Re b(t) or Re 1/b(t), the width of the Fourier
    side (the flow a quarter period back), rounds to 0 or below, as it can
    for a tiny Re b.
    """
    amp, bt = _evolve(g.amplitude, g.width, t, cmath.sqrt(1.0 + g.width))
    return g if t == 0 else GeneralizedGaussian(amp, bt)


def fourier_time_shift_check(e: HermiteExpansion, t: float) -> float:
    """Deviation in the identity  F(psi_t) = e^{i pi/4} psi_{t - pi/4}.

    The modulus version |psihat_t| = |psi_{t-pi/4}| is what confinement
    uses; the global phase e^{i pi/4} makes it an exact coefficient-level
    identity ((-i)^n e^{i(2n+1)t} = e^{i pi/4} e^{i(2n+1)(t-pi/4)}), which
    is what is checked here.
    """
    lhs = fourier_expansion(evolve_expansion(e, t)).coeffs
    rhs = cmath.exp(0.25j * math.pi) * evolve_expansion(e, t - 0.25 * math.pi).coeffs
    return float(np.max(np.abs(lhs - rhs)))


class ConfinementParams(namedtuple("ConfinementParams", "beta gamma gamma_prime r")):
    """Parameters of the confinement constant: 0 < gamma < gamma' < beta;
    r = gamma/gamma' is derived."""

    __slots__ = ()

    def __new__(cls, beta: float, gamma: float, gamma_prime: float):
        if not 0.0 < gamma < gamma_prime < beta:
            raise ValueError(
                "need 0 < gamma < gamma_prime < beta, got "
                f"gamma={gamma}, gamma_prime={gamma_prime}, beta={beta}"
            )
        return super().__new__(cls, beta, gamma, gamma_prime, gamma / gamma_prime)

    def __getnewargs__(self):  # a copy or an unpickled one is built from beta, gamma, gamma'
        return self[:3]


def confinement_constant(
    p: ConfinementParams, coeff_bound: float, sharp: bool = False
) -> float:
    """Envelope constant in |psi_t(x)| <= const * exp(-(tanh gamma / 2) x^2)
    for coefficients bounded by coeff_bound * e^{-gamma' k}.

    The Cauchy-Schwarz split gives the geometric factor
    (1 - e^{-2(gamma'-gamma)})^{-1/2} times the Mehler sum evaluated in
    closed form, (sum e^{-2 gamma n} phi_n(x)^2)^{1/2} =
    2**0.25 (1 - e^{-4 gamma})**-0.25 e^{-(tanh gamma/2) x^2}.  By default
    the geometric factor is returned without the square root (the looser,
    traditional constant); pass sharp=True for the exact split.
    """
    if coeff_bound < 0:
        raise ValueError("coeff_bound must be nonnegative")
    gap = 1.0 - math.exp(-2.0 * (p.gamma_prime - p.gamma))
    first = gap ** -0.5 if sharp else 1.0 / gap
    mehler = 2.0 ** 0.25 * (1.0 - math.exp(-4.0 * p.gamma)) ** -0.25
    return coeff_bound * first * mehler


class ConfinementReport(NamedTuple):
    """Per-time envelope constants of a flow and their supremum.

    A Gaussian's sup, ``attained_ts`` (its times in [0, pi/2)) and
    divergence are taken over all t (:func:`gaussian_flow_extremes`); an
    expansion's over the scanned times, ``attained_ts`` being every one
    within 1e-9 relative of the sup.  ``worst_t`` is the first of them.
    """

    gamma: float
    a: float
    ts: np.ndarray
    psi_constants: np.ndarray
    fourier_constants: np.ndarray
    sup_constant: float
    worst_t: float
    attained_ts: np.ndarray
    divergent: bool
    first_divergent_t: float | None


def default_t_grid(size: int = 64) -> np.ndarray:
    """Uniform times on [0, pi/2): the Gaussian flow's envelope constants
    have period pi/2, so one quarter period sees everything."""
    if size < 1:
        raise ValueError("t grid size must be positive")
    return np.arange(size) * (0.5 * math.pi / size)


def gaussian_flow_extremes(g: GeneralizedGaussian, a: float):
    """Over all t, in closed form (0 < a <= 1): the sup of the two-sided
    constant against exp(-a x^2/2), the times in [0, pi/2) that attain it,
    and the first t >= 0 at which the flow is outside the class (None: never).

    With z = (1-b)/(1+b), r = |z| and theta = 4t + arg z, the time and
    frequency constants are |A| (|1+z| / |1 +- r e^{i theta}|)^{1/2}, with
    sup |A| (|1+z| / (1-r))^{1/2} at theta = pi and 0 (mod 2 pi).  Re b(t)
    and Re 1/b(t) stay >= a exactly when (1-r)/(1+r) >= a (to the 1e-12
    relative tolerance of ``gaussians.envelope_membership``); otherwise one of
    them is below a exactly while |cos theta| > ((1-r^2)/a - 1 - r^2) / (2r).
    """
    z = moebius_ratio(g)
    r, h = abs(z), abs(1.0 + g.width)
    if h < 1e154:
        gap = 4.0 * g.width.real / (h ** 2 * (1.0 + r))  # 1 - r, uncancelled
    else:  # h ** 2 is past the double range
        gap = 4.0 * (g.width.real / h) / (h * (1.0 + r))
    ratio = abs(1.0 + z) / gap if gap > 0.0 else math.inf
    if ratio < math.inf:
        sup = abs(g.amplitude) * math.sqrt(ratio)
    else:  # past the double range, or gap underflowed: |1+z|/gap = h (1+r) / (2 Re b)
        sup = abs(g.amplitude) * math.sqrt(0.5 * h * (1.0 + r)) / math.sqrt(g.width.real)
    phase = cmath.phase(z)
    quarter = 0.5 * math.pi
    # theta = pi (time side), 0 (frequency side); the 2nd % sends a rounded-up pi/2 to 0
    attained = np.sort(0.25 * (np.array([math.pi, 0.0]) - phase) % quarter % quarter)
    if gap / (1.0 + r) >= a * (1.0 - 1e-12):
        return sup, attained, None
    kappa = ((1.0 - r * r) / a - 1.0 - r * r) / (2.0 * r)
    if abs(math.cos(phase)) > kappa:
        return sup, attained, 0.0
    return sup, attained, 0.25 * (math.pi - math.acos(min(kappa, 1.0)) - phase % math.pi)


def _log_dilation(kmax: int, a: float) -> np.ndarray:
    """log M (-inf off its support), 0 < a < 1: f(x) e^{a x^2/2} = sum_m (c @ M)_m phi_m(x/g) for
    f = sum_k c_k phi_k, g = (1-a)^{-1/2}; M[m+2i, m] = g^m (g^2-1)^i sqrt((m+2i)!/m!) / (2^i i!)
    by H_k(gy) = sum_i g^{k-2i} (g^2-1)^i k!/(i!(k-2i)!) H_{k-2i}(y).  The build holds one
    index array beside it, both smaller than the basis of :func:`_expansion_grid`.  The same M
    gives an expansion's weighted norm, g (||c M||^2 + ||chat M||^2)/2, which
    :func:`~gaussherm.weighted._dilation_energies` forms by parity class in column blocks."""
    k = np.arange(kmax + 1)
    log_fact, i = gammaln(k + 1), k[: kmax // 2 + 1]
    by_offset = np.full(2 * kmax + 1, -np.inf)  # the i terms, at k - m + kmax = 2i + kmax
    by_offset[kmax::2] = (math.log(a) - math.log1p(-a) - math.log(2.0)) * i - log_fact[i]
    log_m = by_offset[np.subtract.outer(k + kmax, k)]
    log_m += 0.5 * log_fact[:, None]
    log_m -= 0.5 * math.log1p(-a) * k + 0.5 * log_fact
    return log_m


def _expansion_grid(kmax: int) -> GridSpec:
    """The grid an expansion up to index kmax is sampled on: ``DEFAULT_GRID``
    while kmax is within its band limit, else that grid widened at its own
    spacing h to the least half-width whose band limit reaches kmax."""
    h = DEFAULT_GRID.spacing  # L = N h/2 with N even and sqrt(2 kmax + 1) <= 0.8 L
    n = 2 * math.ceil(math.sqrt(2 * kmax + 1) / (BAND_LIMIT_FRACTION * h))
    return GridSpec(0.5 * n * h, n) if n > DEFAULT_GRID.num_points else DEFAULT_GRID


#: Times per block of :func:`flow_envelopes`: a block's rows take the basis
#: together, so it is read once per block, not once per time.
_FLOW_TIMES = 64

#: Bytes of a block's real rows, four of K+1 doubles per time: fewer than
#: ``_FLOW_TIMES`` times (at least one) run per block only past K = 2047,
#: which no grid within ``hermite.BASIS_BYTES_CAP`` admits, only the
#: one-point grid of a >= 1.
_FLOW_ROW_BYTES = 4 * 2 ** 20

#: Bytes of squared moduli per column block of :func:`flow_envelopes`, two
#: rows per time of the block: 64 columns at 64 times, the whole default grid
#: at one time (the columns are a power of two).  A column block's product is
#: twice that, so the products and passes run in cache, and no array grows
#: with the number of times.
_FLOW_BLOCK_BYTES = 64 * 1024


def _report(top_sq: float, x: float, a: float, shift: int, divergent: bool) -> EnvelopeReport:
    """The side's report from its largest squared modulus, times 2^shift
    (refused past the double range)."""
    top = math.sqrt(top_sq)
    if math.frexp(top)[1] + shift > 1024:
        raise NumericalDomainError(f"the class constant at a={a} is past the double range")
    return EnvelopeReport(a, math.ldexp(top, shift), float(x), divergent)


def flow_envelopes(psi0: HermiteExpansion | GeneralizedGaussian, ts, a: float):
    """Yield (||psi_t||^2, two-sided :class:`~gaussherm.decay.Membership`
    against exp(-a x^2/2)) for each t of ``ts``, the times or an int T that
    stands for ``default_t_grid(T)``; at t = 0, the verdict on psi0 that
    ``envelope``, ``coeffs`` and ``bargmann`` read.  A Gaussian's are closed
    forms (:func:`~gaussherm.gaussians.envelope_membership` of the evolved
    Gaussian, |A(t)|^2 / sqrt(2 Re b(t))).  An expansion's norm is sum |c_k|^2;
    at every t it is a member exactly when a < 1, or a = 1 and its top index
    is 0.  For a < 1 a side's constant is its largest weighted modulus at the
    x = g y_j, sum_m (c(t) @ M)_m phi_m(y_j) (:func:`_log_dilation`), on the
    grid of the degree K (:func:`_expansion_grid`; refused, before it is
    built, past ``hermite.BASIS_BYTES_CAP``); for a >= 1, its modulus at x = 0.

    An expansion's times run in blocks of up to ``_FLOW_TIMES`` (fewer when
    the rows pass ``_FLOW_ROW_BYTES``).  Each time's rows c(t) and
    (-i)^k c(t), real parts over imaginary parts, go through M in a (4, K+1)
    product of their own.  The block's rows then take the basis in column
    blocks of ``_FLOW_BLOCK_BYTES`` of squared moduli, so the basis is read
    once per block, not once per time.  Each side's constant is the
    square root of its largest squared modulus, and its argmax_x follows
    ``decay.sample_peak``, also across column blocks (:func:`_streamed_peak`).

    On ``default_t_grid(T)`` with T even, only t_0 .. t_{T/2-1} are formed:
    the Fourier transform is the flow a quarter period back, up to a phase,
    so |psihat_t(x)| = |psi_{t-pi/4}(x)| and |psi_t(x)| = |psihat_{t-pi/4}(-x)|.
    Row j >= T/2 is row j - T/2 with its sides swapped: the frequency report
    is that row's time report, and the time report is its frequency samples
    read at -x, with ``sample_peak``'s rule on the mirrored x.  The sample at
    x = -L, whose mirror +L is not on the grid, is a column of its own,
    phi_m(L) = (-1)^m phi_m(-L).

    An expansion with at most one nonzero coefficient c_k is stationary in
    modulus, |psi_t| = |psihat_t| = |c_k| |phi_k| at every t: its t = 0 row,
    formed alone (``ts = [0.0]``), is yielded for every t of ``ts``, so its
    rows are equal.  A time whose largest phase (2K+1)t is not finite is
    refused before any row is yielded (``NumericalDomainError``)."""
    uniform = isinstance(ts, (int, np.integer))
    ts = default_t_grid(ts) if uniform else np.asarray(ts, dtype=float).ravel()
    if isinstance(psi0, GeneralizedGaussian):  # no Gaussian is built per time
        amp, b = psi0.amplitude, psi0.width
        root = cmath.sqrt(1.0 + b)
        for t in ts.tolist():
            at, bt = _evolve(amp, b, t, root)
            yield _energy(at, bt), _membership(at, bt, a)
        return
    norm, c, top = psi0.norm_sq(), psi0.coeffs, np.flatnonzero(psi0.coeffs)
    k = np.arange(len(c))
    with np.errstate(over="ignore"):
        bad = ts[~np.isfinite((2.0 * len(c) - 1.0) * ts)]
    if bad.size:
        _check_phase(2.0 * len(c) - 1.0, float(bad[0]))
    if top.size <= 1 and not (len(ts) == 1 and ts[0] == 0.0):  # stationary in modulus
        (row,) = flow_envelopes(psi0, [0.0], a)
        yield from itertools.repeat(row, len(ts))
        return
    if a >= 1.0 or not top.size:  # the degree rule: at a = 1 only multiples of phi_0 are members
        phi, xs, w = hermite_phi_all(len(c) - 1, [0.0]), np.zeros(1), None
        divergent = bool(top.size) and (a > 1.0 or bool(top[-1]))
        shift = math.frexp(float(np.max(np.abs(c), initial=0.0)))[1]
        u = np.ldexp(c.real, -shift) + 1j * np.ldexp(c.imag, -shift)  # no square overflows
    else:
        grid = _expansion_grid(len(c) - 1)
        phi, xs, divergent = grid_basis(grid, len(c) - 1), grid.xs / math.sqrt(1.0 - a), False
        log_w = _log_dilation(len(c) - 1, a)
        with np.errstate(divide="ignore"):  # log 0 = -inf: a zero coefficient adds nothing
            log_w += np.log(np.abs(c))[:, None]
        shift = int(np.max(log_w) // math.log(2.0))
        w = np.exp(log_w - shift * math.log(2.0), out=log_w)  # |c_k| M[k, m] / 2^shift, at most 2
        u = np.exp(1j * np.angle(c))  # the phases, which the flow moves
    turn = np.array([1.0, -1j, -1.0, 1j])[k % 4]  # (-i)^k, exact
    half = uniform and len(ts) % 2 == 0
    formed = ts[:len(ts) // 2] if half else ts
    mirror_col = phi[:, :1] * (1.0 - 2.0 * (k % 2))[:, None] if half else None  # at -xs[0]
    swapped = []  # the rows j >= T/2, from the formed rows j - T/2
    step = min(_FLOW_TIMES, max(1, _FLOW_ROW_BYTES // (32 * len(c))))
    for i in range(0, len(formed), step):
        d = 1j * np.multiply.outer(formed[i:i + step], 2 * k + 1)
        n = len(d)
        np.exp(d, out=d)
        np.multiply(u, d, out=d)  # the time rows
        parts = np.empty((n, 4, len(c)))  # per time: 2 real rows over 2 imaginary
        parts[:, 0], parts[:, 2] = d.real, d.imag
        d *= turn  # the frequency rows
        parts[:, 1], parts[:, 3] = d.real, d.imag
        del d
        if w is not None:
            parts = parts @ w  # a (4, K+1) product per time, as the time alone would take
        parts = parts.reshape(-1, len(c))
        cols = _FLOW_BLOCK_BYTES // (16 * n)
        cols = 1 << (cols.bit_length() - 1)  # a power of two: blocks start on whole-row tiles
        edge = _moduli_sq(parts, mirror_col)[1::2, 0] if half else None
        if cols >= len(xs):
            sq = _moduli_sq(parts, phi)
            tops, xmax = sample_peak(sq, xs, squared=True)
            if half:  # the frequency rows read at -x, in ascending order
                mirror = np.concatenate([edge[:, None], sq[1::2, :0:-1]], axis=1)
                mirrored = sample_peak(mirror, xs, squared=True)
        else:
            tops, xmax, *mirrored = _streamed_peak(parts, phi, xs, cols, edge)
        for j in range(n):
            sides = [_report(tops[r], xmax[r], a, shift, divergent) for r in (2 * j, 2 * j + 1)]
            yield norm, Membership(*sides)
            if half:
                swapped.append(Membership(_report(mirrored[0][j], mirrored[1][j], a, shift,
                                                  divergent), sides[0]))
    for mem in swapped:
        yield norm, mem


def _moduli_sq(parts: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|.|^2 of the complex rows of parts @ phi, whose rows run in fours: the
    real parts of two complex rows, then their imaginary parts."""
    sq = (parts @ phi).reshape(-1, 2, 2, phi.shape[1])
    np.square(sq, out=sq)
    return (sq[:, 0] + sq[:, 1]).reshape(-1, phi.shape[1])


def _nearest(near: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Per row, the x of least |x| where ``near`` holds, the lesser of two
    mirrored ones (``sample_peak``'s rule on ascending xs, in any order);
    inf where none does."""
    dist = np.where(near, np.abs(xs), np.inf)
    least = dist.min(axis=1, keepdims=True)
    return np.where(near & (dist == least), xs, np.inf).min(axis=1)


def _streamed_peak(parts: np.ndarray, phi: np.ndarray, xs: np.ndarray, cols: int,
                   edge: np.ndarray | None = None):
    """``sample_peak`` with ``squared=True`` on the rows of squared moduli that
    the basis forms ``cols`` columns at a time, bit for bit, with no array
    wider than one block.  The first pass keeps each row's block maxima,
    whose largest is the row's top.  The second re-forms only the blocks
    whose maximum reaches top (1 - 1e-12)^2 for some row, which hold every
    sample of the tie set, and keeps per row the least |x| among them, the
    lesser x of two mirrored ones.

    With ``edge``, the squared moduli of the odd rows at -xs[0], it also
    returns the top and argmax_x of each odd row read at -x: its samples at
    xs[1:] (at -xs[1:]) and ``edge`` (at xs[0]), as ``sample_peak`` gives them
    on those samples in ascending order.  The sample at xs[0] is left out of
    the top; read at -xs[0] = L it is never the argmax, since the top is a
    sample at |x| <= L too, and of two at |x| = L the one at -L wins."""
    keep = (1.0 - 1e-12) ** 2
    starts = range(0, len(xs), cols)
    block_tops = []
    for s in starts:
        sq = _moduli_sq(parts, phi[:, s:s + cols])
        block_tops.append(sq.max(axis=1))
        if s == 0 and edge is not None:
            inner = np.max(sq[1::2, 1:], axis=1, initial=0.0)  # xs[0] has no mirror on the grid
    block_tops = np.stack(block_tops, axis=1)
    tops = block_tops.max(axis=1)
    hit = block_tops >= (tops * keep)[:, None]
    if edge is not None:
        mirror_tops = block_tops[1::2].copy()
        mirror_tops[:, 0] = inner
        mtops = np.maximum(mirror_tops.max(axis=1), edge)
        hit[1::2] |= mirror_tops >= (mtops * keep)[:, None]
        mx = [np.where(edge >= mtops * keep, xs[0], np.inf)]
    x = []
    for b in np.flatnonzero(hit.any(axis=0)):
        s = starts[b]
        sq = _moduli_sq(parts, phi[:, s:s + cols])
        x.append(_nearest(sq >= (tops * keep)[:, None], xs[s:s + cols]))
        if edge is not None:
            mx.append(_nearest(sq[1::2] >= (mtops * keep)[:, None], -xs[s:s + cols]))
    x = np.stack(x, axis=1)
    if edge is None:
        return tops, _nearest(np.isfinite(x), x)
    mx = np.stack(mx, axis=1)
    return tops, _nearest(np.isfinite(x), x), mtops, _nearest(np.isfinite(mx), mx)


#: Largest relative error of 1 - a, a = tanh(gamma) rounded to a double, at
#: which :func:`confinement_check` scans an expansion.  Its constant grows
#: like (1-a)^{-K/2}, so this moves it by about K/2 * 1e-9 (9e-7 at the
#: largest K the basis budget admits, 1764), below the 1e-5 of the sample
#: spacing; gamma past about 8.7 is refused.
TANH_GAP_REL = 1e-9


def confinement_check(
    psi0: HermiteExpansion | GeneralizedGaussian,
    beta: float,
    gamma: float,
    t_grid=64,
) -> ConfinementReport:
    """Scan the flow of psi0 over ``t_grid``, the times or an int T that
    stands for ``default_t_grid(T)``, against the envelope of parameter
    a = tanh(gamma), on both the time and frequency sides.

    ``beta`` documents the class of the initial data (|psi_0| inside the
    envelope of tanh(2 beta)); the scan itself does not require gamma < beta
    and will simply report divergence when the envelope is too tight.  A
    Gaussian's report is closed-form (:func:`flow_envelopes`,
    :func:`gaussian_flow_extremes`); an expansion's is sampled on the grid of
    its degree, and on ``default_t_grid(T)`` with T even only its first T/2
    times are formed, the rest being their sides swapped (:func:`flow_envelopes`).
    An expansion is refused (``NumericalDomainError``) when the double
    tanh(gamma) leaves 1 - a off by more than ``TANH_GAP_REL`` relative.
    """
    if gamma <= 0 or beta <= 0:
        raise ValueError("beta and gamma must be positive")
    size = isinstance(t_grid, (int, np.integer))
    ts = default_t_grid(t_grid) if size else np.asarray(t_grid, dtype=float)
    a = math.tanh(gamma)
    if not isinstance(psi0, GeneralizedGaussian):
        e = math.exp(-2.0 * gamma)
        gap = 2.0 * e / (1.0 + e)  # 1 - tanh(gamma), uncancelled
        if not abs((1.0 - a) - gap) < TANH_GAP_REL * gap:
            raise NumericalDomainError(
                f"a = tanh({gamma}) is not resolved in double: 1 - a = {1.0 - a:.6g} against "
                f"{gap:.6g}, past the {TANH_GAP_REL:g} relative tolerance")
    mems = [mem for _, mem in flow_envelopes(psi0, t_grid, a)]
    psi_c = np.array([mem.time_report.constant for mem in mems])
    four_c = np.array([mem.frequency_report.constant for mem in mems])
    if isinstance(psi0, GeneralizedGaussian):
        sup, attained, first_bad = gaussian_flow_extremes(psi0, a)
        if first_bad is None and sup == math.inf:
            raise NumericalDomainError(f"the class constant at a={a} is past the double range")
    else:
        first_bad = None if mems[0].member else 0.0  # the degree rule holds at every t
        both = np.maximum(psi_c, four_c)
        sup = float(np.max(both))
        attained = ts[both >= sup * (1.0 - 1e-9)]
    return ConfinementReport(
        gamma=gamma,
        a=a,
        ts=ts,
        psi_constants=psi_c,
        fourier_constants=four_c,
        sup_constant=sup,
        worst_t=float(attained[0]),
        attained_ts=attained,
        divergent=first_bad is not None,
        first_divergent_t=first_bad,
    )
