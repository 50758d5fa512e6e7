"""Property check of the CAR quadrature as a covariance on the doubled space.

A quadrature P = [[S, C], [C, I-S]] (:func:`quasifree.car.quadrature`) is a
covariance for the doubled conjugation: entrywise conjugation with the sign of
the second summand flipped. The package builds P and does not re-validate it;
the tests check the property here, with ``numpy.linalg``.
"""

import numpy as np

from quasifree.errors import CovarianceError


def doubled_conjugate(x: np.ndarray) -> np.ndarray:
    """Entrywise conjugation twisted by the sign flip on the second summand.

    A doubled covariance P satisfies P + doubled_conjugate(P) = I.
    """
    signs = np.repeat([1.0, -1.0], len(x) // 2)
    return signs[:, None] * np.conj(x) * signs


def validate_doubled_covariance(p: np.ndarray, tol: float = 1e-8) -> None:
    """CovarianceError unless p is Hermitian, 0 <= p <= I and p + doubled_conjugate(p) = I."""
    p = np.asarray(p, dtype=complex)
    herm = float(np.max(np.abs(p - p.conj().T)))
    if herm > tol:
        raise CovarianceError(f"doubled covariance not Hermitian: {herm:.3e}")
    w = np.linalg.eigvalsh(p)
    if w[0] < -tol or w[-1] > 1.0 + tol:
        raise CovarianceError(
            f"doubled covariance spectrum outside [0, 1]: [{w[0]:.3e}, {w[-1]:.6f}]")
    rel = float(np.max(np.abs(p + doubled_conjugate(p) - np.eye(len(p)))))
    if rel > tol:
        raise CovarianceError(f"doubled conjugation relation violated: {rel:.3e}")
