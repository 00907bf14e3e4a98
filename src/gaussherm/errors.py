"""Exception types shared across the package."""


class NumericalDomainError(ValueError):
    """Input is outside the numerical domain an operation can handle."""


class BandLimitError(NumericalDomainError):
    """Requested Hermite index exceeds what the grid can resolve."""


class EdgeDecayError(NumericalDomainError):
    """An integrand has not decayed at the grid edges (aliasing risk)."""

