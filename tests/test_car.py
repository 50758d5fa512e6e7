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


def test_log_trans_prob_is_the_log_of_tp(rng):
    pairs = [sampling.random_car_pair(rng, d) for d in (2, 4, 8, 16)]
    pairs += [sampling.singular_overlap_car_pair(rng, 6),
              (car.mu_covariance(0.5), car.mu_covariance(-0.5)),
              (car.mu_covariance(0.2), car.mu_covariance(0.2))]
    for s, t in pairs:
        log_tp, tp = car.log_trans_prob_car(s, t), car.trans_prob_car(s, t)
        assert log_tp <= 0.0
        assert (log_tp == -math.inf) == (car.meet_criterion(s, t) >= 1) == (tp == 0.0)
        assert np.exp(log_tp) == tp  # the same bits
    mus = rng.uniform(-0.5, 0.5, (2, 5))
    stacked = car.log_trans_prob_car(car.mu_covariance(mus[0]), car.mu_covariance(mus[1]))
    assert stacked.shape == (5,)
    assert np.array_equal(np.exp(stacked), car.trans_prob_car(
        car.mu_covariance(mus[0]), car.mu_covariance(mus[1])))


def test_log_trans_prob_survives_underflow():
    # 400 copies of a block pair with tp 0.1 each: tp = 1e-400 underflows to 0.0,
    # while the meet is empty and log tp = 400 log 0.1 is finite
    block_s, block_t = car.mu_covariance(0.5), car.mu_covariance(-0.49)
    assert car.trans_prob_car(block_s, block_t) == pytest.approx(0.1, rel=1e-12)
    s = car.validate_car(scipy.linalg.block_diag(*[block_s.matrix] * 400))
    t = car.validate_car(scipy.linalg.block_diag(*[block_t.matrix] * 400))
    assert s.dim == 800
    assert car.meet_criterion(s, t) == 0
    assert car.log_trans_prob_car(s, t) == pytest.approx(400 * math.log(0.1), rel=1e-12)
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
    for d in (2, 4, 6, 8):
        s, t = sampling.singular_overlap_car_pair(rng, d)
        assert car.meet_criterion(s, t) >= 1 and car.trans_prob_car(s, t) == 0.0


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


# ------------------------------------------------ test-side meet reference


def projection_meet(p: np.ndarray, r: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Projection onto ran(p) ∩ ran(r): the eigenvalue-2 space of p + r."""
    w, v = matcore.eig_h(np.asarray(p, dtype=complex) + np.asarray(r, dtype=complex))
    basis = v[:, w >= 2.0 - tol]
    return basis @ basis.conj().T


def test_projection_meet_overlapping_ranges():
    p = np.diag([1.0, 1.0, 0.0, 0.0])
    r = np.diag([0.0, 1.0, 1.0, 0.0])
    meet = projection_meet(p, r)
    assert np.linalg.norm(meet - np.diag([0.0, 1.0, 0.0, 0.0])) <= 1e-10


def test_projection_meet_disjoint_ranges_is_zero():
    p = np.diag([1.0, 0.0])
    r = np.diag([0.0, 1.0])
    assert np.linalg.norm(projection_meet(p, r)) == 0.0


def test_projection_meet_tilted(rng):
    # two 2-planes in C^3 always intersect in at least a line
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    p = q[:, :2] @ q[:, :2].T
    r = np.diag([1.0, 1.0, 0.0])
    meet = projection_meet(p, r)
    rank = round(float(np.trace(meet).real))
    assert rank >= 1
    assert matcore.projection_defect(meet) <= 1e-8



# ------------------------------------------- real kernels vs the complex route


def _block_pair(rng, d, delta=None):
    """S, T = O (+) mu blocks O^T; with ``delta`` every |mu| is 1/2 - delta (near-pure)."""
    o = sampling.random_orthogonal(rng, d)
    if delta is None:
        mus, nus = rng.uniform(-0.45, 0.45, (2, d // 2))
    else:
        mus, nus = (0.5 - delta) * rng.choice([-1.0, 1.0], (2, d // 2))
    s, t = (scipy.linalg.block_diag(*car.mu_covariance(m).matrix) for m in (mus, nus))
    return car.validate_car(o @ s @ o.T), car.validate_car(o @ t @ o.T)


def _complex_route(s, t, meet_tol):
    """tp, qe, quadratures and meet rank from complex eigh of S, as the code once did.

    Shares nothing with the real factorisation: square roots of S and I - S
    from one complex eigh (spectrum clipped and snapped as production does),
    a complex SVD of the overlap, and the meet as the eigenvalue-2 space of
    quadrature(S) + I - quadrature(T).
    """
    roots, quads = [], []
    for m in (s.matrix, t.matrix):
        w, v = np.linalg.eigh(m)
        w = np.clip(w, 0.0, 1.0)
        vh = v.conj().T
        c = (v * np.sqrt(w * (1.0 - w))) @ vh  # quadratures are not snapped
        quads.append(np.block([[m, c], [c, np.eye(len(m)) - m]]))
        w[w <= car.DEGENERACY_SNAP] = 0.0
        w[w >= 1.0 - car.DEGENERACY_SNAP] = 1.0
        roots.append(((v * np.sqrt(w)) @ vh, (v * np.sqrt(1.0 - w)) @ vh))
    (rs, cs), (rt, ct) = roots
    sv = np.linalg.svd(rs @ rt + cs @ ct, compute_uv=False)
    tp = 0.0 if sv[-1] <= car.SINGULAR_TOL * max(1.0, sv[0]) else math.sqrt(np.prod(sv))
    meet = projection_meet(quads[0], np.eye(len(quads[1])) - quads[1], meet_tol)
    return tp, np.linalg.norm(rs - rt), quads, int(round(np.trace(meet).real))


@pytest.mark.parametrize("d", [2, 8, 64])
def test_real_kernels_match_complex_route(rng, d):
    # projection_meet counts eigenvalues of P + I - Q at or above 2 - tol, which are
    # 1 + sqrt(1 - sigma^2) for the singular values sigma of M: the same cut on M is
    # sigma <= sqrt(tol (2 - tol))
    meet_tol = 1e-8
    cut = math.sqrt(meet_tol * (2.0 - meet_tol))
    cases = [("random", None, sampling.random_car_pair(rng, d)) for _ in range(3)]
    cases += [("block", None, _block_pair(rng, d)),
              ("singular", 0.0, sampling.singular_overlap_car_pair(rng, d))]
    # near-pure: eigenvalues within delta of {0, 1}, on both sides of DEGENERACY_SNAP
    cases += [("near", delta, _block_pair(rng, d, delta)) for delta in (1e-6, 1e-9, 1e-11, 1e-13)]
    for kind, delta, (s, t) in cases:
        tp, qe, (p, q), meet = _complex_route(s, t, meet_tol)
        # both routes resolve an eigenvalue delta from an endpoint to noise ~d*eps,
        # which a square root turns into ~noise/sqrt(delta), at most sqrt(noise);
        # snapped roots are exact, quadratures are not snapped
        noise = d * 2.2e-16
        floor = 0.0 if delta is None else (
            noise / math.sqrt(delta) if delta > noise else math.sqrt(noise))
        tol = 1e-12 + (floor if delta is not None and delta > car.DEGENERACY_SNAP else 0.0)
        assert abs(car.trans_prob_car(s, t) - tp) <= tol, (kind, delta)
        assert abs(car.qe_distance_car(s, t) - qe) <= tol, (kind, delta)
        assert np.max(np.abs(car.quadrature(s) - p)) <= 1e-12 + floor, (kind, delta)
        car.validate_doubled_covariance(car.quadrature(s))
        assert car.meet_criterion(s, t, singular_tol=cut) == meet, (kind, delta)
        assert (car.meet_criterion(s, t) >= 1) == (car.trans_prob_car(s, t) == 0.0)
        if kind == "singular":
            assert car.meet_criterion(s, t) == meet >= 1


def test_real_kernels_stacked_match_single_bitwise(rng):
    pairs = [sampling.random_car_pair(rng, 6) for _ in range(3)]
    pairs += [sampling.singular_overlap_car_pair(rng, 6), _block_pair(rng, 6, 1e-13)]
    s = car.validate_car(np.stack([a.matrix for a, _ in pairs]))
    t = car.validate_car(np.stack([b.matrix for _, b in pairs]))
    meet, quad = car.meet_criterion(s, t), car.quadrature(s)
    for i, (a, b) in enumerate(pairs):
        for got, want in zip(s.spectrum + s.roots, a.spectrum + a.roots):
            assert np.array_equal(got[i], want)
        assert meet[i] == car.meet_criterion(a, b)
        assert np.array_equal(quad[i], car.quadrature(a))


def test_factorisation_is_lazy_for_direct_instances():
    s = car.mu_covariance(0.3)
    direct = car.CarCovariance(s.matrix)
    assert "spectrum" not in vars(direct) and "spectrum" in vars(s)
    assert car.trans_prob_car(direct, s) == 1.0
    assert all(np.array_equal(x, y) for x, y in zip(direct.roots, s.roots))


def test_meet_agrees_with_tp_zero_rule():
    # a transition probability of 1e-4 is far above the zero rule: no meet
    s, t = car.mu_covariance(0.5), car.mu_covariance(-0.5 + 1e-8)
    assert car.trans_prob_car(s, t) == pytest.approx(1e-4, rel=1e-6)
    assert car.meet_criterion(s, t) == 0
    # delta = 0: orthogonal pure states, both directions in the meet
    t = car.mu_covariance(-0.5)
    assert car.trans_prob_car(s, t) == 0.0 and car.meet_criterion(s, t) == 2


def test_raw_arrays_are_validated():
    good = car.mu_covariance(0.2).matrix
    bad = np.array([[0.6, -0.2j], [0.2j, 0.5]])  # Hermitian, but S + conj S != I
    for fn in (car.trans_prob_car, car.qe_distance_car, car.meet_criterion):
        with pytest.raises(CovarianceError, match=r"S \+ conj\(S\) != I"):
            fn(bad, good)
        with pytest.raises(CovarianceError, match=r"S \+ conj\(S\) != I"):
            fn(good, bad)
    assert car.trans_prob_car(good, good) == pytest.approx(1.0, abs=1e-15)
