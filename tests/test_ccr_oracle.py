"""Tests for the truncated-Fock bosonic oracle."""

import functools
import math

import numpy as np
import pytest

from quasifree import ccr, ccr_oracle
from quasifree.errors import InconclusiveError, SizeCapError


def test_boson_ops_number_operator_exact():
    ops = ccr_oracle.boson_ops(1, 10)
    n_op = ops.adag[0] @ ops.a[0]
    # sqrt(n)*sqrt(n) rounds, so only near-exact
    assert np.linalg.norm(n_op - np.diag(np.arange(11))) <= 1e-14


def test_boson_ops_commutator_away_from_boundary():
    ops = ccr_oracle.boson_ops(1, 15)
    comm = ops.a[0] @ ops.adag[0] - ops.adag[0] @ ops.a[0]
    assert np.linalg.norm(comm[:15, :15] - np.eye(15)) <= 1e-12
    qp = ops.q[0] @ ops.p[0] - ops.p[0] @ ops.q[0]
    assert np.linalg.norm(qp[:15, :15] - 1j * np.eye(15)) <= 1e-12


def test_boson_ops_caps():
    with pytest.raises(SizeCapError):
        ccr_oracle.boson_ops(3, 10)
    with pytest.raises(SizeCapError, match="exceeds cap"):
        ccr_oracle.boson_ops(2, 95)  # 96^2 > 8000
    with pytest.raises(ValueError, match="cutoff"):
        ccr_oracle.boson_ops(1, 1)


def test_quadratic_hamiltonian_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        ccr_oracle.quadratic_hamiltonian([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        ccr_oracle.quadratic_hamiltonian(np.eye(2), [[0.0, 0.3], [-0.3, 0.0]])
    with pytest.raises(ValueError, match="shape"):
        ccr_oracle.quadratic_hamiltonian(np.eye(2), np.zeros((3, 3)))
    with pytest.raises(SizeCapError):
        ccr_oracle.quadratic_hamiltonian(np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quadratic_hamiltonian_rejects_non_finite(bad):
    # NaN passes the Hermitian and symmetric checks, and gaussian_density then
    # fails inside eigh; each matrix is refused by name
    with pytest.raises(ValueError, match="omega must have finite entries"):
        ccr_oracle.quadratic_hamiltonian([[1.0, bad], [bad, 1.0]])
    with pytest.raises(ValueError, match="omega must have finite entries"):
        ccr_oracle.quadratic_hamiltonian([[bad]])
    with pytest.raises(ValueError, match="xi must have finite entries"):
        ccr_oracle.quadratic_hamiltonian(np.eye(2), [[0.0, bad], [bad, 0.0]])


def test_thermal_hamiltonian():
    h = ccr_oracle.thermal_hamiltonian(0.5)
    assert h.omega[0, 0] == pytest.approx(math.log(2.0))
    assert ccr_oracle.thermal_hamiltonian(0.0).omega[0, 0] == ccr_oracle.VACUUM_BETA
    with pytest.raises(ValueError):
        ccr_oracle.thermal_hamiltonian(1.0)


def test_hamiltonian_matrix_thermal_is_diagonal():
    h = ccr_oracle.thermal_hamiltonian(0.5)
    hm = ccr_oracle.hamiltonian_matrix(h, 8)
    assert np.linalg.norm(hm - math.log(2.0) * np.diag(np.arange(9))) <= 1e-12


def test_gaussian_density_thermal_populations():
    q = 0.5
    state = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(q), 20)
    pops = np.diag(state.rho).real
    # truncated geometric distribution, renormalized
    expect = q ** np.arange(21)
    expect /= expect.sum()
    assert np.max(np.abs(pops - expect)) <= 1e-12
    assert state.boundary_occupation == pytest.approx(expect[-1], abs=1e-12)


def test_gaussian_density_flags_nonconvergence():
    # q = 0.9 keeps ~1.2% of the weight at the n = 20 boundary
    with pytest.raises(InconclusiveError, match="boundary"):
        ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(0.9), 20)


def test_covariance_extraction_thermal():
    q = 0.5  # width c = (1+q)/(1-q) = 3
    state = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(q), 40)
    cov = ccr_oracle.covariance_of_density(state)
    assert np.linalg.norm(cov.r - 1.5 * np.eye(2)) <= 1e-8
    assert np.array_equal(cov.sigma, ccr.canonical_sigma(1))


def test_covariance_extraction_vacuum():
    state = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(0.0), 10)
    cov = ccr_oracle.covariance_of_density(state)
    assert np.linalg.norm(cov.r - 0.5 * np.eye(2)) <= 1e-10


def test_covariance_extraction_squeezed():
    # large gap: nearly pure, so det(2R) sits just above the purity floor 1
    h = ccr_oracle.quadratic_hamiltonian([[6.0]], [[1.5]])
    state = ccr_oracle.gaussian_density(h, 40)
    cov = ccr_oracle.covariance_of_density(state)
    d = np.linalg.det(2.0 * cov.r)
    assert 1.0 - 1e-9 <= d <= 1.1
    assert abs(cov.r[0, 1]) <= 1e-9  # xi real: no q-p correlation
    # squeezing is visible: unequal q and p widths
    assert abs(cov.r[0, 0] - cov.r[1, 1]) > 0.1


def test_overlap_thermal_vs_vacuum():
    h1 = ccr_oracle.thermal_hamiltonian(0.5)
    h2 = ccr_oracle.thermal_hamiltonian(0.0)
    s1 = ccr_oracle.gaussian_density(h1, 20)
    s2 = ccr_oracle.gaussian_density(h2, 20)
    val = ccr_oracle.overlap_ccr(s1, s2)
    assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-7)


def test_overlap_identical_is_one():
    s = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(1.0 / 3.0), 20)
    assert ccr_oracle.overlap_ccr(s, s) == pytest.approx(1.0, abs=1e-9)


def test_overlap_preconditions():
    s20 = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(0.5), 20)
    s40 = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(0.5), 40)
    with pytest.raises(ValueError, match="cutoff grid"):
        ccr_oracle.overlap_ccr(s20, s40)
    two = ccr_oracle.gaussian_density(
        ccr_oracle.quadratic_hamiltonian(np.eye(2) * 2.0), 20
    )
    with pytest.raises(ValueError, match="mode mismatch"):
        ccr_oracle.overlap_ccr(s20, two)


def test_overlap_inconclusive_when_schedule_exhausted():
    s = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(0.5), 20)
    t = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(0.25), 20)
    with pytest.raises(InconclusiveError, match="not converged"):
        # one cutoff gives no increment to converge on
        ccr_oracle.overlap_ccr(s, t, schedule=(20,))


def test_two_mode_coupled_state():
    omega = np.array([[1.5, 0.2], [0.2, 1.8]])
    h = ccr_oracle.quadratic_hamiltonian(omega)
    state = ccr_oracle.gaussian_density(h, 12)
    assert state.dim == 13**2
    cov = ccr_oracle.covariance_of_density(state)
    assert cov.dim == 4
    # coupling shows up as a q1-q2 correlation
    assert abs(cov.r[0, 1]) > 1e-6
    val = ccr_oracle.overlap_ccr(state, state, schedule=(12, 16))
    assert val == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------- loop references for the oracle


def _boundary_by_digits(state):
    """Weight on basis states with some mode at the cutoff, digit by digit."""
    m = state.cutoff + 1
    total = 0.0
    for idx in range(state.dim):
        digits, rem = [], idx
        for _ in range(state.n_modes):
            digits.append(rem % m)
            rem //= m
        if max(digits) == state.cutoff:
            total += state.rho[idx, idx].real
    return total


def _second_moments_by_trace(state):
    """R[j, k] = Re tr(rho x_j x_k), one full product per entry."""
    ops = ccr_oracle.boson_ops(state.n_modes, state.cutoff)
    xs = list(ops.q) + list(ops.p)
    return np.array([[np.trace(state.rho @ a @ b).real for b in xs] for a in xs])


COMPLEX_HOPPING = np.array([[1.5, 0.2 * np.exp(0.3j)], [0.2 * np.exp(-0.3j), 1.8]])
COMPLEX_PAIRING = 0.4 * np.exp(0.7j) * np.array([[0.0, 1.0], [1.0, 0.0]])


def test_oracle_moments_and_boundary_match_loop_references():
    omega = np.array([[1.5, 0.2], [0.2, 1.8]])
    for h, cutoff in ((ccr_oracle.quadratic_hamiltonian(omega, [[0.0, 0.4], [0.4, 0.0]]), 9),
                      (ccr_oracle.thermal_hamiltonian(0.4), 20),
                      (ccr_oracle.quadratic_hamiltonian([[1.0]], [[0.3]]), 30),
                      (ccr_oracle.quadratic_hamiltonian(omega, COMPLEX_PAIRING), 9),
                      (ccr_oracle.quadratic_hamiltonian(COMPLEX_HOPPING), 9)):
        state = ccr_oracle.gaussian_density(h, cutoff)
        assert state.boundary_occupation > 0.0
        assert state.boundary_occupation == pytest.approx(_boundary_by_digits(state),
                                                          rel=1e-12)
        r = ccr_oracle.covariance_of_density(state).r
        assert np.max(np.abs(r - _second_moments_by_trace(state))) <= 1e-13


@pytest.mark.parametrize("omega, xi, kind", [
    ([[1.5, 0.2], [0.2, 1.8]], [[0.0, 0.4], [0.4, 0.0]], "f"),
    ([[2, 0], [0, 3]], None, "f"),  # integer input is read as real
    ([[1.5, 0.2], [0.2, 1.8]], COMPLEX_PAIRING, "c"),
    (COMPLEX_HOPPING, None, "c"),
    # a complex dtype stays complex even with zero imaginary parts
    (np.array([[1.5, 0.2], [0.2, 1.8]], dtype=complex), None, "c"),
])
def test_matrices_follow_the_coefficients_dtype(omega, xi, kind):
    h = ccr_oracle.quadratic_hamiltonian(omega, xi)
    hm = ccr_oracle.hamiltonian_matrix(h, 6)
    state = ccr_oracle.gaussian_density(h, 6)
    assert hm.dtype.kind == state.rho.dtype.kind == kind
    assert np.array_equal(hm, hm.conj().T)


def test_real_ladder_matrices():
    ops = ccr_oracle.boson_ops(2, 5)
    assert all(x.dtype == np.float64 for x in ops.a + ops.adag + ops.q)
    assert all(not x.real.any() for x in ops.p)  # p = -i X_p with X_p real


def test_a_density_chain_builds_each_operator_once_and_caches_none(monkeypatch):
    """gaussian_density -> covariance_of_density forms each full-dimension
    operator at most once and no full-dimension ladder matrix; a second chain
    forms them all again, since nothing is kept across calls."""
    built, ladders = [], []
    on_modes, boson_ops = ccr_oracle._on_modes, ccr_oracle.boson_ops
    monkeypatch.setattr(ccr_oracle, "_on_modes", lambda n, *factors: built.append(
        tuple((j, x.tobytes()) for j, x in factors)) or on_modes(n, *factors))
    monkeypatch.setattr(ccr_oracle, "boson_ops",
                        lambda *args: ladders.append(args) or boson_ops(*args))
    h = ccr_oracle.quadratic_hamiltonian([[1.5, 0.2], [0.2, 1.8]], [[0.0, 0.4], [0.4, 0.0]])

    def chain():
        start = len(built)
        ccr_oracle.covariance_of_density(ccr_oracle.gaussian_density(h, 8))
        return built[start:]

    first = chain()
    # 3 hopping terms, 1 pairing term, 4 quadratures
    assert len(first) == len(set(first)) == 8
    assert chain() == first
    assert not ladders


def test_overlap_uses_given_states_at_their_cutoff(monkeypatch):
    s = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(0.3), 20)
    t = ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(0.1), 20)
    want = ccr_oracle.overlap_ccr(s, t)
    built = []
    real = ccr_oracle.gaussian_density
    monkeypatch.setattr(ccr_oracle, "gaussian_density",
                        lambda h, cutoff: built.append(cutoff) or real(h, cutoff))
    assert ccr_oracle.overlap_ccr(s, t) == want
    assert built and 20 not in built


def test_mode_products_match_numpy_kron_bitwise(rng):
    for _ in range(200):
        n, cutoff = rng.integers(1, 4), rng.integers(2, 6)
        factors = [(int(rng.integers(n)), rng.standard_normal((cutoff, cutoff)))
                   for _ in range(rng.integers(1, 3))]
        for _, x in factors:
            x[rng.random(x.shape) < 0.3] = -0.0
        if rng.random() < 0.3:
            factors[0] = (factors[0][0], factors[0][1] + 1j * rng.standard_normal((cutoff,) * 2))
        ops = [np.eye(cutoff)] * n
        for j, x in factors:
            ops[j] = ops[j] @ x
        got, want = ccr_oracle._on_modes(n, *factors), functools.reduce(np.kron, ops)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
