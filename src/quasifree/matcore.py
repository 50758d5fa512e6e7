"""Dense matrix calculus: Hermitian eigenroutines, Pfaffians, operator means.

Everything operates on plain numpy arrays; real input stays real (and its
spectra come from real ``eigh``), anything else is complex. Inputs are
explicitly symmetrized (Hermitian ops) or antisymmetrized (skew ops) before
use, all spectral computations go through ``numpy.linalg.eigh``, and eigenvalues below
a relative clamp threshold are treated as structural zeros. Results are
deterministic for identical input bits.

The spectral helpers also take stacks of matrices, shape ``(..., d, d)``,
and give each matrix the same bits as alone; steps whose shapes depend on a
support rank split the stack by rank with :func:`support_groups`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveError, SupportError

__all__ = [
    "PSD_CLAMP_TOL",
    "SUPPORT_TOL",
    "GeometricMeanInfo",
    "eig_h",
    "geometric_mean",
    "hermitian_part",
    "hs_norm",
    "pfaffian",
    "pfaffian_pairings",
    "projection_defect",
    "ratio",
    "sqrt_psd",
    "support_groups",
    "support_projection",
]

# Relative threshold below which eigenvalues count as exact zeros.
PSD_CLAMP_TOL = 1e-10
# Relative threshold for membership in the support (range) of a PSD operator.
SUPPORT_TOL = 1e-10

_PAIRING_DIM_CAP = 12


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return x.swapaxes(-1, -2).conj()


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(x + x^*)/2; real (float64) input stays real, anything else becomes complex."""
    x = np.asarray(x)
    x = x.astype(float if x.dtype.kind in "biuf" else complex, copy=False)
    return 0.5 * (x + dagger(x))


def hs_norm(x: np.ndarray):
    """Hilbert-Schmidt (Frobenius) norm; one norm per matrix for a stack."""
    return scalar(np.linalg.norm(np.asarray(x), axis=(-2, -1)))


def scalar(x):
    """A 0-d result as a Python scalar; per-matrix results of a stack unchanged."""
    return x.item() if np.ndim(x) == 0 else x


def raise_first(bad, values, error) -> None:
    """Raise ``error(value)`` for the first matrix flagged in ``bad`` (one flag per matrix)."""
    bad = np.ravel(bad)
    if bad.any():
        raise error(float(np.ravel(values)[np.argmax(bad)]))


def _check_square(x: np.ndarray, name: str, stack: bool = False) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim < 2 or x.ndim > 2 and not stack or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {x.shape}")
    return x


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")


def _require_psd(w: np.ndarray, clamp_tol: float, name: str) -> None:
    """NotPositiveError unless each spectrum (ascending) is above -clamp_tol * its max |w|."""
    if w.shape[-1]:
        low, msg = w[..., 0], f"{name} is not PSD: minimal eigenvalue {{:.6e}}"
        raise_first(low < -clamp_tol * np.max(np.abs(w), axis=-1), low,
                    lambda v: NotPositiveError(msg.format(v), v))


def eig_h(h: np.ndarray):
    """Eigendecomposition of the Hermitian part of ``h``.

    Returns ``(w, v)`` with eigenvalues ascending and orthonormal eigenvector
    columns, so ``(v * w) @ v.conj().T`` reconstructs the Hermitian part.
    """
    return np.linalg.eigh(hermitian_part(_check_square(h, "matrix", stack=True)))


def sqrt_psd(h: np.ndarray, clamp_tol: float = PSD_CLAMP_TOL) -> np.ndarray:
    """Positive-semidefinite square root via eigendecomposition.

    Eigenvalues in ``[-clamp_tol * ||h||, 0)`` are clamped to zero; anything
    below that raises :class:`NotPositiveError`.
    """
    w, v = eig_h(h)
    _require_psd(w, clamp_tol, "matrix")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dagger(v)


def abs_support(w: np.ndarray, tol: float) -> np.ndarray:
    """Support mask: |eigenvalue| above tol times the largest |eigenvalue| of its spectrum."""
    scale = np.max(np.abs(w), axis=-1, initial=0.0, keepdims=True)
    return (np.abs(w) > tol * scale) & (scale > 0.0)


def support_projection(h: np.ndarray, tol: float = SUPPORT_TOL, eig=None) -> np.ndarray:
    """Projection on eigenvectors with |eigenvalue| > tol*||h||; ``eig``: ``eig_h(h)`` if known."""
    w, v = eig_h(h) if eig is None else eig
    return (v * abs_support(w, tol)[..., None, :]) @ dagger(v)


def support_groups(w: np.ndarray, v: np.ndarray, keep: np.ndarray):
    """Split eigendecompositions ``(w, v)`` of a stack by the rank of the support ``keep``.

    Support columns move behind the rest in order (a no-op for an ascending
    ``eigh`` under a threshold), so rank r has support ``v[..., -r:]``. Yields
    ``(sel, w_r, basis, null)`` per rank: a mask over the stack, then the
    support eigenvalues, support basis and kernel basis of those matrices.
    """
    if np.any(keep[..., :-1] > keep[..., 1:]):
        order = np.argsort(keep, axis=-1, kind="stable")
        w = np.take_along_axis(w, order, -1)
        v = np.take_along_axis(v, order[..., None, :], -1)
    rank = np.count_nonzero(keep, axis=-1)
    d = keep.shape[-1]
    for r in np.flatnonzero(np.bincount(np.ravel(rank), minlength=d + 1)).tolist():
        sel = rank == r
        vs = v[sel]
        yield sel, w[sel][:, d - r :], vs[..., d - r :], vs[..., : d - r]


def sandwich(b: np.ndarray, x: np.ndarray, w=None) -> np.ndarray:
    """Hermitian part of b^* x b; with ``w``, of the columns of b scaled by w^(-1/2)."""
    if w is not None:
        b = b * (1.0 / np.sqrt(w))[..., None, :]
    return hermitian_part(dagger(b) @ x @ b)


def pfaffian(a: np.ndarray) -> complex:
    """Pfaffian of a complex skew-symmetric matrix by Parlett-Reid elimination.

    The input is antisymmetrized (``(a - a.T)/2``) first. Convention:
    ``pfaffian([[0, x], [-x, 0]]) == x``, and ``pfaffian(a)**2 == det(a)``.
    Odd dimension is a contract violation; an empty matrix has Pfaffian 1.
    """
    a = _check_square(np.asarray(a, dtype=complex), "skew matrix")
    d = a.shape[0]
    if d % 2:
        raise ValueError(f"pfaffian needs even dimension, got {d}")
    if d == 0:
        return 1.0 + 0.0j
    a = 0.5 * (a - a.T)
    val = 1.0 + 0.0j
    for k in range(0, d - 1, 2):
        # pivot the largest entry of column k into position (k+1, k)
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            val = -val
        if a[k + 1, k] == 0.0:
            return 0.0 + 0.0j
        val *= a[k, k + 1]
        if k + 2 < d:
            tau = a[k, k + 2 :] / a[k, k + 1]
            col = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return complex(val)


def pfaffian_pairings(a: np.ndarray) -> complex:
    """Pfaffian as the exhaustive signed sum over pair partitions, O((d-1)!!).

    Brute-force cross-check for :func:`pfaffian`; refuses dimensions above
    12 where the enumeration explodes.
    """
    a = _check_square(np.asarray(a, dtype=complex), "skew matrix")
    d = a.shape[0]
    if d % 2:
        raise ValueError(f"pfaffian needs even dimension, got {d}")
    if d > _PAIRING_DIM_CAP:
        raise ValueError(
            f"pairing enumeration is exponential; dimension {d} exceeds cap "
            f"{_PAIRING_DIM_CAP}, use pfaffian()"
        )
    a = 0.5 * (a - a.T)

    def expand(idx: tuple) -> complex:
        if not idx:
            return 1.0 + 0.0j
        first, rest = idx[0], idx[1:]
        total = 0.0 + 0.0j
        sign = 1.0
        for pos, j in enumerate(rest):
            sub = rest[:pos] + rest[pos + 1 :]
            total += sign * a[first, j] * expand(sub)
            sign = -sign
        return total

    return complex(expand(tuple(range(d))))


@dataclass(frozen=True)
class GeometricMeanInfo:
    """Support metadata from a geometric-mean computation (per matrix for a stack)."""

    support_mismatch: bool
    support_dim: int


def geometric_mean(
    a: np.ndarray,
    b: np.ndarray,
    reg: float = PSD_CLAMP_TOL,
    return_info: bool = False,
):
    """Operator geometric mean of two PSD matrices, restricted to their common support.

    On the common support this is the usual
    ``a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2}`` (the variational operator
    mean); off the common support the result is zero. Eigenvalues at or below
    ``reg * trace`` count as outside the support. With ``return_info=True``
    also returns a :class:`GeometricMeanInfo` flagging whether the two
    supports differ.
    """
    a = hermitian_part(_check_square(a, "first matrix", stack=True))
    b = hermitian_part(_check_square(b, "second matrix", stack=True))
    _check_pair(a, b)

    proj, ranks = [], []
    for m, name in ((a, "first matrix"), (b, "second matrix")):
        w, v = np.linalg.eigh(m)
        _require_psd(w, reg, name)
        keep = w > reg * np.maximum(np.trace(m, axis1=-2, axis2=-1).real, 0.0)[..., None]
        ranks.append(np.count_nonzero(keep, axis=-1))
        proj.append((v * keep[..., None, :]) @ dagger(v))

    # common support = eigenvalue-2 space of the sum of the two support projections
    ww, vv = np.linalg.eigh(proj[0] + proj[1])
    common = ww >= 2.0 - 1e-8
    g = np.zeros(a.shape, np.result_type(a, b))
    for sel, _, basis, _ in support_groups(ww, vv, common):
        if basis.shape[-1]:
            wa, va = np.linalg.eigh(sandwich(basis, a[sel]))
            root = (va * np.sqrt(wa)[:, None, :]) @ dagger(va)
            inv_root = (va * (1.0 / np.sqrt(wa))[:, None, :]) @ dagger(va)
            mid = sqrt_psd(inv_root @ sandwich(basis, b[sel]) @ inv_root)
            g[sel] = basis @ hermitian_part(root @ mid @ root) @ dagger(basis)

    g = hermitian_part(g)
    if return_info:
        r = np.count_nonzero(common, axis=-1)
        return g, GeometricMeanInfo(scalar(r < np.maximum(*ranks)), scalar(r))
    return g


def ratio(x: np.ndarray, g: np.ndarray, tol: float = SUPPORT_TOL, eig=None) -> np.ndarray:
    """``g^{-1/2} x g^{-1/2}`` with the pseudo-inverse root, zero off supp(g).

    Requires supp(x) contained in supp(g); a violating direction raises
    :class:`SupportError` carrying a witness vector. ``eig``, if given, is
    ``eig_h(g)`` already computed by the caller.
    """
    out, _, errors = ratio_violations(x, g, tol, eig)
    if errors:
        raise errors[0]
    return out


def ratio_violations(x: np.ndarray, g: np.ndarray, tol: float = SUPPORT_TOL, eig=None):
    """:func:`ratio` without raising: ``(ratio, bad, errors)`` with a mask
    ``bad`` of the matrices that violate the support condition and the
    SupportError that :func:`ratio` raises for each of them."""
    x = hermitian_part(_check_square(x, "numerator", stack=True))
    g = _check_square(g, "denominator", stack=True)
    _check_pair(x, g)
    w, v = eig_h(g) if eig is None else eig
    scale = np.max(np.abs(w), axis=-1, initial=0.0, keepdims=True)
    out = np.zeros(x.shape, np.result_type(x, v))
    bad = np.zeros(x.shape[:-2], dtype=bool)
    errors = []
    for sel, wk, basis, null in support_groups(w, v, (w > tol * scale) & (scale > 0.0)):
        xs = x[sel]
        if null.shape[-1]:
            leak = np.linalg.norm(xs @ null, axis=-2)
            bound = 1e-8 * (1.0 + np.linalg.norm(xs, axis=(-2, -1)))[:, None]
            hit = np.any(leak > bound, axis=-1)
            bad[sel] = hit
            for m in np.flatnonzero(hit).tolist():
                j = int(np.argmax(leak[m]))
                errors.append(SupportError(
                    f"support violation: |X v| = {leak[m, j]:.3e} on a kernel vector of "
                    f"the denominator (bound {bound[m, 0]:.1e})",
                    null[m, :, j].copy(),
                ))
        out[sel] = hermitian_part(basis @ sandwich(basis, xs, wk) @ dagger(basis))
    return out, bad, errors


def projection_defect(p: np.ndarray) -> float:
    """HS distance from idempotence, ||p @ p - p||."""
    p = np.asarray(p, dtype=complex)
    return hs_norm(p @ p - p)
