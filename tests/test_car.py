"""Unit tests for fermionic covariances and the overlap determinant formula."""

import math

import numpy as np
import pytest
import scipy.linalg

from quasifree import car, matcore, sampling
from quasifree.errors import CovarianceError

# the transition probability between the mu = 0.3 and mu = 0.1 states,
# sqrt(0.48) + sqrt(0.08) in closed form
TP_MU_03_01 = (2.0 * math.sqrt(3.0) + math.sqrt(2.0)) / 5.0


# -------------------------------------------------------------- validation


def test_validate_accepts_and_freezes():
    s = car.mu_covariance(0.3)
    assert s.dim == 2
    with pytest.raises(ValueError):
        s.matrix[0, 0] = 9.0


def test_validate_enforces_relation_exactly(rng):
    for d in (2, 4, 6):
        a = 0.5 * (lambda m: m - m.T)(rng.standard_normal((d, d)) * 0.05)
        s = car.validate_car(0.5 * np.eye(d) + 1j * a + 1e-12 * rng.standard_normal((d, d)))
        assert np.max(np.abs(s.matrix + np.conj(s.matrix) - np.eye(d))) == 0.0
        assert np.max(np.abs(s.matrix - s.matrix.conj().T)) == 0.0


def test_validate_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(CovarianceError, match="not Hermitian"):
        car.validate_car(bad)


def test_validate_rejects_broken_relation():
    with pytest.raises(CovarianceError, match=r"S \+ conj\(S\) != I"):
        car.validate_car(0.4 * np.eye(2))


def test_validate_rejects_indefinite():
    # Re part fine, but eigenvalues 0.5 +- 0.7 stick out of [0, 1]
    bad = np.array([[0.5, -0.7j], [0.7j, 0.5]])
    with pytest.raises(CovarianceError, match="not PSD"):
        car.validate_car(bad)


def test_validate_error_carries_magnitude():
    with pytest.raises(CovarianceError, match=r"deviation 2\.000e-01"):
        car.validate_car(0.4 * np.eye(2))


def test_validate_rejects_non_finite():
    with pytest.raises(CovarianceError, match="non-finite"):
        car.validate_car([[math.nan, 0.0], [0.0, 0.5]])
    stack = np.stack([car.mu_covariance(0.1).matrix, car.mu_covariance(0.2).matrix])
    stack[1, 0, 1] = complex(0.0, math.inf)
    with pytest.raises(CovarianceError, match="non-finite"):
        car.validate_car(stack)


def test_stacked_pair_api_matches_pairs_bitwise(rng):
    pairs = [sampling.random_car_pair(rng, 4) for _ in range(5)]
    s = car.validate_car(np.stack([p[0].matrix for p in pairs]))
    t = car.validate_car(np.stack([p[1].matrix for p in pairs]))
    assert s.dim == 4 and s.matrix.shape == (5, 4, 4)
    tp, qe = car.trans_prob_car(s, t), car.qe_distance_car(s, t)
    assert tp.shape == qe.shape == (5,)
    for i, (a, b) in enumerate(pairs):
        assert np.array_equal(s.matrix[i], a.matrix)
        assert tp[i] == car.trans_prob_car(a, b)
        assert qe[i] == car.qe_distance_car(a, b)


def test_validate_stack_reports_failing_matrix():
    stack = np.stack([car.mu_covariance(0.1).matrix, np.array([[0.5, -0.7j], [0.7j, 0.5]])])
    with pytest.raises(CovarianceError, match=r"not PSD: eigenvalue -2\.000000e-01"):
        car.validate_car(stack)


def test_validate_rejects_nonsquare():
    with pytest.raises(CovarianceError, match="square"):
        car.validate_car(np.zeros((2, 3)))


def test_mu_covariance_spectrum():
    w = np.linalg.eigvalsh(car.mu_covariance(0.3).matrix)
    assert np.allclose(w, [0.2, 0.8], atol=1e-14)


# ----------------------------------------------------------------- moments


def test_two_point_reads_matrix_entries():
    s = car.mu_covariance(0.3)
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert car.two_point(s, e0, e1) == pytest.approx(-0.3j)
    assert car.two_point(s, e0, e0) == pytest.approx(0.5)
    with pytest.raises(CovarianceError, match="length"):
        car.two_point(s, np.ones(3), e0)


def test_wick_moment_trivial_cases(rng):
    s = sampling.random_car_covariance(rng, 4)
    vs = rng.standard_normal((3, 4))
    assert car.wick_moment(s, []) == 1.0
    assert car.wick_moment(s, vs) == 0.0  # odd product
    pair = car.wick_moment(s, vs[:2])
    assert pair == pytest.approx(car.two_point(s, vs[0], vs[1]))


def test_wick_moment_four_point_expansion(rng):
    """Pfaffian route against the hand-written three-pairing expansion."""
    for d in (4, 6):
        s = sampling.random_car_covariance(rng, d)
        v = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
        m = car.wick_moment(s, v)

        def tp(a, b):
            return car.two_point(s, v[a], v[b])

        byhand = tp(0, 1) * tp(2, 3) - tp(0, 2) * tp(1, 3) + tp(0, 3) * tp(1, 2)
        assert abs(m - byhand) <= 1e-12 * max(1.0, abs(byhand))


# ---------------------------------------------------- transition probability


def test_trans_prob_closed_form_anchor():
    s = car.mu_covariance(0.3)
    t = car.mu_covariance(0.1)
    assert car.trans_prob_car(s, t) == pytest.approx(TP_MU_03_01, abs=1e-12)


def test_trans_prob_is_one_on_diagonal(rng):
    for d in (2, 4):
        s = sampling.random_car_covariance(rng, d)
        assert car.trans_prob_car(s, s) == pytest.approx(1.0, abs=1e-10)


def test_trans_prob_symmetric(rng):
    s, t = sampling.random_car_pair(rng, 4)
    assert car.trans_prob_car(s, t) == pytest.approx(car.trans_prob_car(t, s), abs=1e-12)


def test_trans_prob_orthogonal_pure_states_exact_zero():
    fock = car.mu_covariance(0.5)
    cofock = car.mu_covariance(-0.5)
    assert car.trans_prob_car(fock, cofock) == 0.0


def test_trans_prob_engineered_singular_pair(rng):
    s, t = sampling.singular_overlap_car_pair(rng, 6)
    assert car.trans_prob_car(s, t) == 0.0


def test_trans_prob_range(rng):
    for _ in range(20):
        s, t = sampling.random_car_pair(rng, 4)
        v = car.trans_prob_car(s, t)
        assert 0.0 <= v <= 1.0


def test_trans_prob_dimension_mismatch():
    with pytest.raises(CovarianceError, match="mismatch"):
        car.trans_prob_car(car.mu_covariance(0.1), sampling.random_car_covariance(np.random.default_rng(0), 4))


# ---------------------------------------------------------------- distances


def test_qe_distance_orthogonal_pure_states():
    d = car.qe_distance_car(car.mu_covariance(0.5), car.mu_covariance(-0.5))
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_qe_distance_zero_on_diagonal(rng):
    s = sampling.random_car_covariance(rng, 4)
    assert car.qe_distance_car(s, s) == 0.0


# -------------------------------------------------------------- quadrature


def test_quadrature_is_projection_and_doubled_covariance(rng):
    for d in (2, 4, 6):
        s = sampling.random_car_covariance(rng, d)
        p = car.quadrature(s)
        assert matcore.projection_defect(p) <= 1e-9
        car.validate_doubled_covariance(p)
        rel = p + car.doubled_conjugate(p) - np.eye(2 * d)
        assert np.max(np.abs(rel)) <= 1e-12


def test_doubled_conjugate_involution(rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(car.doubled_conjugate(car.doubled_conjugate(x)), x)
    with pytest.raises(ValueError, match="even"):
        car.doubled_conjugate(np.zeros((3, 3)))


def test_validate_doubled_covariance_rejects_plain_covariance():
    # a generic covariance is not idempotent and fails the doubled relation
    s = car.mu_covariance(0.3)
    with pytest.raises(CovarianceError):
        car.validate_doubled_covariance(s.matrix)


def test_quadrature_squares_transition_probability(rng):
    for d in (2, 4):
        s, t = sampling.random_car_pair(rng, d)
        lhs, rhs = car.quadrature_identity_check(s, t)
        assert abs(lhs - rhs) <= 1e-10


def test_meet_criterion_regular_pair_has_empty_meet(rng):
    s, t = sampling.random_car_pair(rng, 4)
    assert car.meet_criterion(s, t) == 0


def test_meet_criterion_detects_orthogonality():
    assert car.meet_criterion(car.mu_covariance(0.5), car.mu_covariance(-0.5)) == 2


def test_meet_criterion_engineered_pair(rng):
    s, t = sampling.singular_overlap_car_pair(rng, 6)
    assert car.meet_criterion(s, t) >= 1


# -------------------------------------------------------------- hamiltonian


def test_hamiltonian_spectrum_and_conjugation():
    s = car.mu_covariance(0.3)
    h = car.hamiltonian_of(s)
    w = np.linalg.eigvalsh(h)
    assert np.allclose(w, [-math.log(4.0), math.log(4.0)], atol=1e-12)
    assert np.max(np.abs(np.conj(h) + h)) <= 1e-13


def test_hamiltonian_roundtrip(rng):
    s = sampling.random_car_covariance(rng, 4, radius=0.3)
    h = car.hamiltonian_of(s)
    back = np.linalg.inv(np.eye(4) + scipy.linalg.expm(h))
    assert np.linalg.norm(back - s.matrix) <= 1e-10


def test_hamiltonian_rejects_degenerate():
    with pytest.raises(CovarianceError, match="degenerate"):
        car.hamiltonian_of(car.mu_covariance(0.5))


def test_is_standard():
    assert car.is_standard_car(car.mu_covariance(0.3))
    assert not car.is_standard_car(car.mu_covariance(0.5))


# ----------------------------------------------------------------- sampling


def test_random_car_covariance_is_valid(rng):
    for d in (2, 3, 5):
        s = sampling.random_car_covariance(rng, d)
        # validate_car re-checks everything
        car.validate_car(s.matrix)


def test_singular_pair_requires_even_dimension(rng):
    with pytest.raises(ValueError):
        sampling.singular_overlap_car_pair(rng, 3)
