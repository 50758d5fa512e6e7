"""Closed forms the benchmark checks quasifree against.

Nothing here imports quasifree: every value is derived from the spectra of
commuting pairs, written out by hand, so a bug in the package cannot hide in
its own reference.  Conventions follow the package documentation:

* CAR: a two-dimensional "mu block" is [[1/2, -i mu], [i mu, 1/2]], with
  eigenvalues 1/2 +- mu on eigenvectors that do not depend on mu.  Two mu
  blocks therefore commute, and so do block-diagonal matrices of them under a
  common real rotation.
* CCR: modes are ordered (q..., p...) with sigma = [[0, I], [-I, 0]]; a
  single-mode thermal state of width c >= 1 has R = (c/2) I and Boltzmann
  ratio q = (c - 1)/(c + 1).

For a commuting CAR pair with eigenvalue pairs (a, b) the overlap matrix is
diagonal with entries sqrt(ab) + sqrt((1-a)(1-b)); per mu block both
eigen-directions give the same entry, so the transition probability of the
block is that entry and the squared distance of square roots is
qe2 = (sqrt a - sqrt b)^2 + (sqrt(1-a) - sqrt(1-b))^2 = 2 (1 - tp).
"""

from __future__ import annotations

import math

import numpy as np


def _root_gap_sq(x: float, y: float) -> float:
    """(sqrt x - sqrt y)^2 without cancellation: (x - y)^2 / (sqrt x + sqrt y)^2."""
    den = math.sqrt(x) + math.sqrt(y)
    return 0.0 if den == 0.0 else ((x - y) / den) ** 2


# ---------------------------------------------------------------- CAR, mu pairs


def mu_matrix(mu: float) -> np.ndarray:
    return np.array([[0.5, -1j * mu], [1j * mu, 0.5]], dtype=complex)


def mu_pair_qe2(mu: float, nu: float) -> float:
    """||sqrt S - sqrt T||_HS^2 for mu blocks mu vs nu."""
    return _root_gap_sq(0.5 + mu, 0.5 + nu) + _root_gap_sq(0.5 - mu, 0.5 - nu)


def mu_pair_tp(mu: float, nu: float) -> float:
    """Transition probability of mu blocks mu vs nu: sqrt(ab) + sqrt((1-a)(1-b))."""
    return 1.0 - 0.5 * mu_pair_qe2(mu, nu)


def mu_pair_neg_log_tp(mu: float, nu: float) -> float:
    qe2 = mu_pair_qe2(mu, nu)
    return math.inf if qe2 >= 2.0 else -math.log1p(-0.5 * qe2)


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def block_car_pair(rng: np.random.Generator, mus, nus):
    """S, T = O (+) mu blocks O^T with one random real rotation O for both.

    Returns ``(S, T, tp, qe2)``: the matrices and their closed-form
    transition probability (product over blocks) and squared distance of
    square roots (sum over blocks).
    """
    m = len(mus)
    s = np.zeros((2 * m, 2 * m), dtype=complex)
    t = np.zeros_like(s)
    for j, (mu, nu) in enumerate(zip(mus, nus)):
        s[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = mu_matrix(mu)
        t[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = mu_matrix(nu)
    o = random_rotation(rng, 2 * m)
    tp = math.prod(mu_pair_tp(float(mu), float(nu)) for mu, nu in zip(mus, nus))
    qe2 = math.fsum(mu_pair_qe2(float(mu), float(nu)) for mu, nu in zip(mus, nus))
    return o @ s @ o.T, o @ t @ o.T, tp, qe2


def block_car_terms(mus, nus):
    """Per-mode (qe2, -log tp) of one block pair, as the sequence classifier sums them."""
    qe2 = math.fsum(mu_pair_qe2(mu, nu) for mu, nu in zip(mus, nus))
    nlt = math.fsum(mu_pair_neg_log_tp(mu, nu) for mu, nu in zip(mus, nus))
    return qe2, nlt


# ------------------------------------------------------------- CCR, thermal


def thermal_q(c: float) -> float:
    """Boltzmann ratio of the single-mode thermal state of width c."""
    return (c - 1.0) / (c + 1.0)


def thermal_width(q: float) -> float:
    return (1.0 + q) / (1.0 - q)


def thermal_tp_q(q1: float, q2: float) -> float:
    """sqrt((1-q1)(1-q2)) / (1 - sqrt(q1 q2)); README: q = 1/2 vs 0 gives 1/sqrt 2."""
    return math.sqrt((1.0 - q1) * (1.0 - q2)) / (1.0 - math.sqrt(q1 * q2))


def thermal_neg_log_tp(c1: float, c2: float) -> float:
    """-log of the thermal transition probability, from widths, without cancellation.

    1 - q = 1/(nbar + 1) with nbar = (c - 1)/2.
    """
    q1, q2 = thermal_q(c1), thermal_q(c2)
    return (
        0.5 * math.log1p(0.5 * (c1 - 1.0))
        + 0.5 * math.log1p(0.5 * (c2 - 1.0))
        + math.log1p(-math.sqrt(q1 * q2))
    )


def thermal_qe2(c1: float, c2: float) -> float:
    """Squared HS distance of sqrt(ratio(S, S + conj S)) for thermal widths c1, c2.

    ratio(S, 2R) = S / c = I/2 + i sigma / (2c), whose eigenvalues are
    (c +- 1)/(2c) on eigenvectors of i sigma that do not depend on c.
    """
    return _root_gap_sq((c1 + 1.0) / (2.0 * c1), (c2 + 1.0) / (2.0 * c2)) + _root_gap_sq(
        (c1 - 1.0) / (2.0 * c1), (c2 - 1.0) / (2.0 * c2)
    )


def canonical_sigma(n_modes: int) -> np.ndarray:
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def random_passive(rng: np.random.Generator, n_modes: int) -> np.ndarray:
    """Orthogonal symplectic [[X, -Y], [Y, X]] from a random unitary X + iY."""
    z = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal((n_modes, n_modes))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    x, y = u.real, u.imag
    return np.block([[x, -y], [y, x]])


def thermal_product_pair(rng: np.random.Generator, widths_s, widths_t):
    """R_S, R_T of thermal product states under one random passive rotation.

    Returns ``(sigma, R_S, R_T, tp)`` with tp the product of single-mode
    thermal transition probabilities.
    """
    n = len(widths_s)
    o = random_passive(rng, n)
    r_s = o @ np.diag(np.concatenate([widths_s, widths_s]) / 2.0) @ o.T
    r_t = o @ np.diag(np.concatenate([widths_t, widths_t]) / 2.0) @ o.T
    tp = math.prod(
        thermal_tp_q(thermal_q(float(a)), thermal_q(float(b))) for a, b in zip(widths_s, widths_t)
    )
    return canonical_sigma(n), 0.5 * (r_s + r_s.T), 0.5 * (r_t + r_t.T), tp


def two_mode_squeezed_r(omega: float, x: float) -> np.ndarray:
    """R of the Gibbs state of H = omega (a^dag a + b^dag b) + x (a^dag b^dag + a b).

    A Bogoliubov transform with tanh(2r) = -x/omega diagonalises H into two
    modes of frequency eps = sqrt(omega^2 - x^2), each with occupation
    nbar = 1/(e^eps - 1); then <q_a^2> = (2 nbar + 1) cosh(2r)/2 and
    <q_a q_b> = -<p_a p_b> = (2 nbar + 1) sinh(2r)/2 in (q_a, q_b, p_a, p_b).
    """
    eps = math.sqrt(omega * omega - x * x)
    nbar = 1.0 / math.expm1(eps)
    r = 0.5 * math.atanh(-x / omega)
    diag = (2.0 * nbar + 1.0) * math.cosh(2.0 * r) / 2.0
    off = (2.0 * nbar + 1.0) * math.sinh(2.0 * r) / 2.0
    return np.array(
        [[diag, off, 0, 0], [off, diag, 0, 0], [0, 0, diag, -off], [0, 0, -off, diag]]
    )


# ---------------------------------------------------------------- sequences


def car_power_nu(p: float, k: int) -> float:
    """Second offset of the built-in CAR family: nu_k = (1 - k^-p)/2 against mu = 1/2."""
    return 0.5 * (1.0 - k**-p)


def ccr_power_width(p: float, k: int) -> float:
    """First width of the built-in CCR family: 1 + k^-p against width 1."""
    return 1.0 + k**-p


def sequence_terms(spec, n: int):
    """Per-mode (qe2, -log tp) lists for modes 1..n of a family specification.

    ``spec`` is one of ("car_power", p), ("ccr_thermal_power", p),
    ("counterexample",), ("car_mu", mu, amplitude, exponent) for the user
    rule mu vs mu + amplitude k^-exponent, or ("blocks", [(mus, nus), ...])
    for a literal family of block pairs followed by an identical tail.
    """
    kind = spec[0]
    qe, nlt = [], []
    for k in range(1, n + 1):
        if kind == "car_power":
            mu, nu = 0.5, car_power_nu(spec[1], k)
            qe.append(mu_pair_qe2(mu, nu))
            nlt.append(mu_pair_neg_log_tp(mu, nu))
        elif kind == "ccr_thermal_power":
            c1 = ccr_power_width(spec[1], k)
            qe.append(thermal_qe2(c1, 1.0))
            nlt.append(thermal_neg_log_tp(c1, 1.0))
        elif kind == "counterexample":
            mu, nu = (0.5, -0.5) if k == 1 else (0.0, 0.0)
            qe.append(mu_pair_qe2(mu, nu))
            nlt.append(mu_pair_neg_log_tp(mu, nu))
        elif kind == "car_mu":
            _, mu, amp, expo = spec
            nu = mu + amp * k**-expo
            qe.append(mu_pair_qe2(mu, nu))
            nlt.append(mu_pair_neg_log_tp(mu, nu))
        elif kind == "blocks":
            blocks = spec[1]
            a, b = block_car_terms(*blocks[k - 1]) if k <= len(blocks) else (0.0, 0.0)
            qe.append(a)
            nlt.append(b)
        else:
            raise ValueError(f"unknown family specification {kind!r}")
    return qe, nlt


def partial_sums(terms, checkpoints):
    """Correctly rounded partial sums at each checkpoint; +inf once a term is infinite."""
    out = []
    for c in checkpoints:
        head = terms[:c]
        out.append(math.inf if any(map(math.isinf, head)) else math.fsum(head))
    return out
