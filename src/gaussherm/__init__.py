"""Hermite-spectral toolkit for Gaussian-envelope (Hardy) classes.

Everything here revolves around one circle of ideas: a function whose
modulus and Fourier-transform modulus both sit under exp(-a x^2/2) has
Hermite coefficients decaying like mu^{k/4} with mu = (1-a)/(1+a); the
Bargmann transform turns that statement into entire-function growth
estimates; the harmonic-oscillator flow preserves the coefficient decay and
hence stays confined in a slightly wider envelope; and weighted two-sided
norms run the implication in reverse.  The submodules follow that story:

``hermite``     dm-normalized Hermite basis, quadrature, Fourier
``gaussians``   closed-form algebra on A exp(-b x^2/2)
``bargmann``    the transform, sector estimates, optimized contour bound
``decay``       the coefficient bound, envelope scans, classifier
``oscillator``  spectral flow, confinement checks
``weighted``    weighted norms, generating function, certificates, chains
``verify``      the end-to-end verification suite the CLI exposes
"""

from .grid import DEFAULT_GRID, GridSpec, SampledFunction, norm_sq
from .hermite import (
    HermiteExpansion,
    analyze,
    band_limit,
    fourier_expansion,
    fourier_rows,
    fourier_sampled,
    hermite_phi_all,
    unit_expansion,
)
from .gaussians import (
    BargmannGaussian,
    GeneralizedGaussian,
    bargmann_gaussian,
    boundary_chirp,
    envelope_membership,
    fourier_gaussian,
    gaussian,
    hermite_coeffs,
    squeezed_state,
    weighted_norm_sq_gaussian,
)
from .bargmann import (
    SectorParams,
    bargmann_exact,
    log_taylor_coeffs,
    optimal_contour,
    quadrant_bound,
    sector_bound,
)
from .decay import (
    EnvelopeReport,
    HardyReport,
    Membership,
    envelope_scan,
    hardy_classify,
)
from .oscillator import (
    ConfinementParams,
    ConfinementReport,
    confinement_check,
    confinement_constant,
    evolve_expansion,
    evolve_gaussian,
    fourier_time_shift_check,
    gaussian_flow_extremes,
)
from .weighted import (
    CentralBinomialCertificate,
    WeakConfinementParams,
    central_binomial,
    central_binomial_certificate,
    central_binomial_convolution,
    expansion_weighted_norm_sq,
    generating_function_check,
    phi_weighted_norm_lower,
    phi_weighted_norm_sq,
    selfdual_norm_bound,
    weak_confinement_chain,
    weighted_energy_rows,
)
from .errors import (
    BandLimitError,
    EdgeDecayError,
    NumericalDomainError,
)

__version__ = "0.1.0"
