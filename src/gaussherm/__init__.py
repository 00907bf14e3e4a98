"""Hermite-spectral toolkit for Gaussian-envelope (Hardy) classes.

Everything here revolves around one circle of ideas: a function whose
modulus and Fourier-transform modulus both sit under exp(-a x^2/2) has
Hermite coefficients decaying like mu^{k/4} with mu = (1-a)/(1+a); the
Bargmann transform turns that statement into entire-function growth
estimates; the harmonic-oscillator flow preserves the coefficient decay and
hence stays confined in a slightly wider envelope; and weighted two-sided
norms run the implication in reverse.  The submodules follow that story:

``hermite``     dm-normalized Hermite basis, quadrature, Fourier, Mehler
``gaussians``   closed-form algebra on A exp(-b x^2/2)
``bargmann``    the transform, sector estimates, optimized contour bound
``decay``       coefficient bounds, envelope scans, rate fits, classifier
``oscillator``  spectral flow, confinement checks, time averages
``weighted``    weighted norms, generating function, certificates, chains
``verify``      the end-to-end verification suite the CLI exposes
"""

from .grid import DEFAULT_GRID, GridSpec, SampledFunction, norm_sq, sample
from .hermite import (
    HermiteExpansion,
    analyze,
    band_limit,
    fourier_expansion,
    fourier_sampled,
    hermite_phi,
    hermite_phi_all,
    mehler_closed_form,
    mehler_partial_sum,
    synthesize,
    unit_expansion,
)
from .gaussians import (
    BargmannGaussian,
    GeneralizedGaussian,
    bargmann_gaussian,
    boundary_chirp,
    coeff_ratio,
    envelope_constant,
    envelope_membership,
    fourier_gaussian,
    gaussian,
    hermite_coeffs,
    squeezed_state,
    weighted_norm_sq_gaussian,
)
from .bargmann import (
    ContourBound,
    SectorParams,
    TaylorSeries,
    bargmann_numeric,
    cauchy_coeff_bound,
    contour_coeff_bound,
    expansion_to_taylor,
    optimal_contour,
    pl_auxiliary,
    quadrant_bound,
    reflection_check,
    sector_bound,
    sector_params,
    taylor_to_expansion,
)
from .decay import (
    DecayFit,
    EnvelopeReport,
    HardyReport,
    RateParams,
    decay_fit,
    endpoint_ratio_sup,
    envelope_scan,
    hardy_classify,
    hardy_coeff_bound,
    rate_regime,
)
from .oscillator import (
    ConfinementParams,
    ConfinementReport,
    confinement_check,
    confinement_constant,
    evolve_expansion,
    evolve_gaussian,
    fourier_time_shift_check,
    sharp_confinement_probe,
    time_average_projection,
)
from .weighted import (
    CentralBinomialCertificate,
    WeakConfinementParams,
    central_binomial,
    central_binomial_certificate,
    central_binomial_convolution,
    confined_coeff_bound,
    generating_function_check,
    phi_weighted_norm_lower,
    phi_weighted_norm_sq,
    selfdual_norm_bound,
    weak_confinement_chain,
    weighted_norm,
    weighted_norm_sq,
)
from .errors import (
    AliasingError,
    BandLimitError,
    EdgeDecayError,
    FitError,
    NumericalDomainError,
)

__version__ = "0.1.0"
