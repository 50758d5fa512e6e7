"""Exception types shared across the package."""

from __future__ import annotations


class CovarianceError(ValueError):
    """A matrix failed a covariance-operator contract (Hermiticity, positivity, ...)."""


class NotPositiveError(ValueError):
    """A matrix required to be positive semidefinite has a significantly negative eigenvalue."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class SizeCapError(ValueError):
    """A brute-force oracle or a sequence scan was asked for a size beyond its hard cap."""


class InconclusiveError(RuntimeError):
    """A numerical procedure did not converge within its declared budget."""


class ConsistencyViolation(RuntimeError):
    """Two classification criteria produced contradictory confident verdicts.

    For nondegenerate symplectic forms the two sequence criteria provably
    agree, so this firing there means a bug.  Fully degenerate (commutative)
    families can genuinely split them; the classifier raises rather than
    guessing, and the caller decides which criterion its question matches.
    """
