"""Dense matrix calculus: Hermitian eigenroutines, Pfaffians, operator means.

Everything operates on plain numpy arrays; real input stays real (and its
spectra come from real ``eigh``), anything else is complex. Inputs are
explicitly symmetrized (Hermitian ops) or antisymmetrized (skew ops) before
use, and eigenvalues below a relative clamp threshold are treated as
structural zeros. Results are deterministic for identical input bits at one
BLAS thread count; another count can change the last bits of a LAPACK result.

The kernels :func:`eigh`, :func:`eigvalsh`, :func:`svdvals` and :func:`log_abs_det`
are what the pair functions of :mod:`quasifree.car` and :mod:`quasifree.ccr`
call. On 2 x 2 matrices, the size every single-mode sequence term has, the two
Hermitian ones evaluate LAPACK's closed form ``dlaev2`` elementwise; every other
call goes to ``numpy.linalg`` unchanged. One-mode CAR pairs need no SVD: their
overlap is a multiple of I in closed form (:mod:`quasifree.car`).

The spectral helpers also take stacks of matrices, shape ``(..., d, d)``,
and give each matrix the same bits as alone; a step on a support of any rank
pads it to full size by the identity (:func:`sandwich`). Products
take C-contiguous operands (:func:`adjoint`, not the view :func:`dagger`): a
transposed view makes numpy's stacked ``matmul`` of 1024 2 x 2 or 256 4 x 4
products 1.5-4x slower, more than the copy costs (one BLAS thread).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveError
from .tolerances import COMMON_SUPPORT_TOL, ZERO_TOL

__all__ = [
    "geometric_mean",
    "hermitian_part",
    "hs_norm",
    "pfaffian",
    "projection_defect",
    "root_parts",
    "sqrt_psd",
]


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return x.swapaxes(-1, -2).conj()


def adjoint(x: np.ndarray) -> np.ndarray:
    """:func:`dagger` as a C-contiguous array, the form a product takes."""
    return np.ascontiguousarray(dagger(x))


def float_or_complex(x) -> np.ndarray:
    """x as float64 when it is real (bool, integer or float), else as complex128."""
    x = np.asarray(x)
    return x.astype(float if x.dtype.kind in "biuf" else complex, copy=False)


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(x + x^*)/2; real (float64) input stays real, anything else becomes complex."""
    x = float_or_complex(x)
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


def raise_first_above(dev, tol, scale, error, axis=(-2, -1)) -> None:
    """Raise ``error(v)`` for the first matrix whose largest ``dev`` entry (over
    ``axis``) v is not within ``tol * scale()``, ``scale()`` giving each matrix's scale;
    a NaN v is not within it.

    Every scale is at least 1, so a stack whose largest entry is within ``tol``
    passes on one reduction; per-matrix maxima and scales are formed only if not.
    """
    if not np.max(dev, initial=0.0) <= tol:
        worst = np.max(dev, axis=axis, initial=0.0)
        raise_first(~(worst <= tol * scale()), worst, error)


def lowest_eigenvalue(x: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue 1/2 - sqrt(max x) of each I/2 + i*a, x ascending eigenvalues of a^T a."""
    # x ascends, so max x is its last entry: a max over the whole short axis is ~7x slower
    return 0.5 - np.sqrt(np.max(x[..., -1:], axis=-1, initial=0.0))


def _check_square(x: np.ndarray, name: str, stack: bool = False) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim < 2 or x.ndim > 2 and not stack or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {x.shape}")
    return x


def require_psd(w: np.ndarray, name: str) -> None:
    """NotPositiveError unless each spectrum (ascending) is above -ZERO_TOL * its max |w|."""
    if w.shape[-1]:
        low, msg = w[..., 0], f"{name} is not PSD: minimal eigenvalue {{:.6e}}"
        raise_first(~(low >= -ZERO_TOL * np.max(np.abs(w), axis=-1)), low,  # NaN fails
                    lambda v: NotPositiveError(msg.format(v), v))


# The 2 x 2 closed form rounds only in +, -, *, / and sqrt (abs, copysign,
# comparisons and selection are exact), correctly in numpy's vector and scalar
# loops alike, so each matrix of a stack gets the bits it gets alone. It forms no
# product of two entries, so it neither overflows nor underflows where x does not.


def _nonzero(x):
    """x with exact zeros replaced by 1, as a divisor."""
    return x + (x == 0.0)


def _hypot(p, q):
    """sqrt(p^2 + q^2), scaled by the larger magnitude."""
    p, q = np.abs(p), np.abs(q)
    big, small = np.maximum(p, q), np.minimum(p, q)
    ratio = small / _nonzero(big)
    return big * np.sqrt(1.0 + ratio * ratio)


def _eig2(a, c, b, vectors: bool):
    """``dlaev2`` on [[a, b], [b, c]]: ascending eigenvalues and, if asked, eigenvectors.

    rt1, the eigenvalue of larger magnitude, adds terms of one sign, and
    rt2 = det/rt1; the eigenvectors are the rotation dlaev2 derives from the
    same square root.
    """
    sm, df, tb = a + c, a - c, b + b
    rt = _hypot(df, tb)
    rt1 = 0.5 * (sm + np.copysign(rt, sm))
    larger = np.abs(a) > np.abs(c)
    acmx, acmn = np.where(larger, a, c), np.where(larger, c, a)
    den = _nonzero(rt1)  # rt1 = 0 only for the zero matrix
    rt2 = (acmx / den) * acmn - (b / den) * b
    w = np.empty(rt.shape + (2,))
    np.minimum(rt1, rt2, out=w[..., 0])
    np.maximum(rt1, rt2, out=w[..., 1])
    if not vectors:
        return w
    cs = df + np.copysign(rt, df)
    steep = np.abs(cs) > np.abs(tb)
    t = -np.where(steep, tb, cs) / _nonzero(np.where(steep, cs, tb))
    u = 1.0 / np.sqrt(1.0 + t * t)
    tu = t * u
    # (cs1, sn1) = (tu, u) if steep else (u, tu), turned by 90 degrees when
    # sm and df have the same sign, is the eigenvector of rt1; the eigenvector
    # (p, q) of the lower eigenvalue is it turned once more when rt1 is higher
    turn = (np.signbit(sm) == np.signbit(df)) ^ (rt1 >= rt2)
    swap = turn ^ steep
    p, q = np.where(swap, tu, u), np.where(swap, u, tu)
    np.negative(p, out=p, where=turn)
    v = np.empty(rt.shape + (2, 2))
    v[..., 0, 0] = v[..., 1, 1] = p
    v[..., 1, 0] = q
    np.negative(q, out=v[..., 0, 1])
    return w, v


def eigh(x: np.ndarray):
    """``numpy.linalg.eigh`` (lower triangle) of a matrix or a stack of them.

    Real 2 x 2 matrices take the closed form of LAPACK's ``dlaev2``: ascending
    eigenvalues and a rotation of orthonormal eigenvectors. Every other shape,
    and complex input, goes to ``numpy.linalg.eigh`` unchanged.
    """
    x = np.asarray(x)
    if x.shape[-2:] != (2, 2) or x.dtype.kind == "c":
        return np.linalg.eigh(x)
    x = x.astype(float, copy=False)
    return _eig2(x[..., 0, 0], x[..., 1, 1], x[..., 1, 0], vectors=True)


def eigvalsh(x: np.ndarray) -> np.ndarray:
    """``numpy.linalg.eigvalsh`` (lower triangle) of a matrix or a stack of them.

    On 2 x 2 input the ``dlaev2`` closed form, with the eigenvalues
    :func:`eigh` gives; a complex Hermitian matrix has those of its real
    reduction [[a, |b|], [|b|, c]], as ``zhetrd`` forms it. Every other shape
    goes to ``numpy.linalg.eigvalsh`` unchanged.
    """
    x = np.asarray(x)
    if x.shape[-2:] != (2, 2):
        return np.linalg.eigvalsh(x)
    if x.dtype.kind == "c":
        b = x[..., 1, 0]
        return _eig2(x[..., 0, 0].real, x[..., 1, 1].real, _hypot(b.real, b.imag), vectors=False)
    x = x.astype(float, copy=False)
    return _eig2(x[..., 0, 0], x[..., 1, 1], x[..., 1, 0], vectors=False)


def svdvals(x: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a matrix or a stack: ``numpy.linalg.svd``'s."""
    return np.linalg.svd(x, compute_uv=False)


def log_abs_det(x: np.ndarray) -> np.ndarray:
    """log |det x| of a matrix or a stack of them, from the LU of ``numpy.linalg.slogdet``."""
    return np.linalg.slogdet(x)[1]


def sqrt_psd(h: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root of the Hermitian part of ``h``.

    Eigenvalues in ``[-ZERO_TOL * ||h||, 0)`` are clamped to zero; anything
    below that raises :class:`NotPositiveError`.
    """
    w, v = eigh(hermitian_part(_check_square(h, "matrix", stack=True)))
    require_psd(w, "matrix")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ adjoint(v)


def root_scales(x: np.ndarray, snap: float):
    """``(t, h)``, elementwise in x = r^2: t = sqrt(1/2 + r) + sqrt(1/2 - r), free of
    cancellation, and h = 1/t, except t = 1 and h = 1/(2r) where r is within ``snap``
    of 1/2 (``snap = 0`` snaps nothing)."""
    r = np.sqrt(np.clip(x, 0.0, 0.25))
    hit = 0.5 - r <= snap
    t = np.where(hit, 1.0, np.sqrt(0.5 + r) + np.sqrt(np.maximum(0.5 - r, 0.0)))
    return t, np.where(hit, 0.5 / np.maximum(r, 0.25), 1.0 / t)  # r > 1/4 where snapped


def root_parts(a: np.ndarray, x: np.ndarray, u: np.ndarray, snap: float):
    """Real ``(G, Y)`` with sqrt(I/2 + i*a) = G + iY, a real antisymmetric, ||a|| <= 1/2.

    ``(x, u)`` is the ``eigh`` of a^T a, and I/2 + i*a has eigenvalues 1/2 +- sqrt x:
    G = t/2 and Y = a h with ``(t, h)`` of :func:`root_scales`.
    """
    t, h = root_scales(x, snap)
    ut = adjoint(u)
    return (u * (0.5 * t)[..., None, :]) @ ut, a @ ((u * h[..., None, :]) @ ut)


def sandwich(b: np.ndarray, x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Hermitian part of b^* x b for a stack of bases b whose columns are zero where ``keep``
    is False, with 1 on the diagonal there: the block on the support, padded by the identity."""
    s = hermitian_part(adjoint(b) @ x @ b)
    i = np.arange(s.shape[-1])
    s[..., i, i] = np.where(keep, s[..., i, i], 1.0)
    return s


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


def geometric_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator geometric mean of two PSD matrices, restricted to their common support.

    On the common support this is the usual
    ``a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2}`` (the variational operator
    mean); off the common support the result is zero. Eigenvalues at or below
    ``ZERO_TOL * trace`` count as outside the support. A matrix of a stack whose
    two supports are both full takes the roots of a from a's own ``eigh`` (three
    ``eigh`` in all); every other one is first restricted to the padded common support (five).
    """
    a = hermitian_part(_check_square(a, "first matrix", stack=True))
    b = hermitian_part(_check_square(b, "second matrix", stack=True))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    shape = a.shape
    a, b = (m.reshape(math.prod(shape[:-2]), *shape[-2:]) for m in (a, b))

    spectra = []
    for m, name in ((a, "first matrix"), (b, "second matrix")):
        w, v = eigh(m)
        require_psd(w, name)
        keep = w > ZERO_TOL * np.maximum(np.trace(m, axis1=-2, axis2=-1).real, 0.0)[:, None]
        spectra.append((w, v, keep))
    (wa, va, keep_a), (_, vb, keep_b) = spectra

    g = np.zeros(a.shape, np.result_type(a, b))
    # both supports full: the root and inverse root of a from its own eigh
    full = np.all(keep_a, axis=-1) & np.all(keep_b, axis=-1)
    if np.any(full):
        g[full] = _mean_from(wa[full], va[full], b[full])
    # otherwise on the common support, the eigenvalue-2 space of P_A + P_B, padded
    rest = np.flatnonzero(~full)
    if rest.size:
        pa, pb = ((v[rest] * k[rest][:, None, :]) @ adjoint(v[rest])
                  for v, k in ((va, keep_a), (vb, keep_b)))
        ww, vv = eigh(pa + pb)
        keep = ww >= 2.0 - COMMON_SUPPORT_TOL
        basis = vv * keep[:, None, :]
        wc, vc = eigh(sandwich(basis, a[rest], keep))
        g[rest] = basis @ _mean_from(wc, vc, sandwich(basis, b[rest], keep)) @ adjoint(basis)

    return hermitian_part(g).reshape(shape)


def _mean_from(wa: np.ndarray, va: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2} for a stack with ``eigh(a) = (wa, va)``,
    wa > 0."""
    root = (va * np.sqrt(wa)[:, None, :]) @ adjoint(va)
    inv_root = (va * (1.0 / np.sqrt(wa))[:, None, :]) @ adjoint(va)
    return hermitian_part(root @ sqrt_psd(inv_root @ b @ inv_root) @ root)


def projection_defect(p: np.ndarray) -> float:
    """HS distance from idempotence, ||p @ p - p||."""
    p = np.asarray(p, dtype=complex)
    return hs_norm(p @ p - p)
