"""Unit tests for fermionic covariances and the overlap determinant formula."""

import inspect
import math
import pickle

import mpmath
import numpy as np
import pytest
import scipy.linalg
from doubled_space import doubled_conjugate, validate_doubled_covariance

from quasifree import car, car_oracle, cli, matcore, sampling, seqmodel, tolerances
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


def mu_matrix(mu, herm=0.0, real=0.0):
    """[[1/2, -i mu], [i mu, 1/2]], i*herm added to entry (0, 1) and real to entry (0, 0)."""
    return np.array([[0.5 + real, 1j * (herm - mu)], [1j * mu, 0.5]])


# check: (matrix with a defect x, an x in (VALIDATION_TOL, 1.5 VALIDATION_TOL], an x
# above it, the message naming it); 1.5 is 1 + max|entry| of these matrices
SCALED_DEFECTS = {
    "hermitian": (lambda x: mu_matrix(0.3, herm=x), 1.2e-10, 2e-10,
                  r"not Hermitian: max deviation 2\.000e-10$"),
    "relation": (lambda x: mu_matrix(0.3, real=0.5 * x), 1.2e-10, 2e-10,
                 r"S \+ conj\(S\) != I: max deviation 2\.000e-10$"),
    "psd": (lambda x: mu_matrix(0.5 + x), 1.2e-10, 2e-10,
            r"not PSD: eigenvalue -(2\.00000|1\.99999)\de-10$"),
}


@pytest.mark.parametrize("check", sorted(SCALED_DEFECTS))
def test_validate_stack_bound_scales_per_matrix(check):
    """A defect above VALIDATION_TOL but within VALIDATION_TOL * scale passes in a
    stack; a larger one is refused with the value of the first matrix over its bound."""
    make, inside, over, message = SCALED_DEFECTS[check]
    good = car.mu_covariance(0.1).matrix
    cov = car.validate_car(np.stack([good, make(inside), good]))
    assert np.array_equal(cov.matrix, cov.matrix.conj().swapaxes(-1, -2))
    with pytest.raises(CovarianceError, match=message):
        car.validate_car(np.stack([good, make(over), make(1.5 * over)]))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_two_point_rejects_non_finite_vectors(bad):
    s, e0 = car.mu_covariance(0.3), np.array([1.0, 0.0])
    for x, y in (([bad, 0.0], e0), (e0, [0.0, bad])):
        with pytest.raises(CovarianceError, match="finite"):
            car.two_point(s, x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_wick_moment_rejects_non_finite_vectors(bad):
    s, e0 = car.mu_covariance(0.3), np.array([1.0, 0.0])
    for vectors in ([e0, [bad, 0.0]], [[0.0, bad]]):  # an odd product too
        with pytest.raises(CovarianceError, match="finite"):
            car.wick_moment(s, vectors)


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
        validate_doubled_covariance(p)
        rel = p + doubled_conjugate(p) - np.eye(2 * d)
        assert np.max(np.abs(rel)) <= 1e-12


def test_validate_doubled_covariance_rejects_plain_covariance():
    # a generic covariance is not idempotent and fails the doubled relation
    s = car.mu_covariance(0.3)
    with pytest.raises(CovarianceError):
        validate_doubled_covariance(s.matrix)


def test_quadrature_squares_transition_probability(rng):
    for d in (2, 4):
        s, t = sampling.random_car_pair(rng, d)
        lhs, rhs = car.quadrature_identity_check(s, t)
        assert abs(lhs - rhs) <= 1e-10
    # exactly singular overlaps: the quadratures are projections, their own
    # square roots, so the ~sqrt(eps) error of C near pure covariances enters
    # the quadratures' overlap matrix linearly, not through a square root
    for seed in range(20):
        pair_rng = np.random.default_rng(seed)
        for d in (2, 4, 6, 8, 16):
            s, t = sampling.singular_overlap_car_pair(pair_rng, d)
            lhs, rhs = car.quadrature_identity_check(s, t)
            assert rhs == 0.0 and abs(lhs - rhs) <= 1e-12, (seed, d)


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
    for d in (4, 3):
        s = sampling.random_car_covariance(rng, d, radius=0.3)
        h = car.hamiltonian_of(s)
        back = np.linalg.inv(np.eye(d) + scipy.linalg.expm(h))
        assert np.linalg.norm(back - s.matrix) <= 1e-10


def test_hamiltonian_rejects_degenerate(rng):
    # refused exactly where is_standard_car is False
    o = sampling.random_orthogonal(rng, 4)
    for mu in (0.5, -0.5, 0.5 - 1e-11, 0.5 - 1e-10, 0.5 - 1e-9, 0.3):
        m = scipy.linalg.block_diag(car.mu_covariance(mu).matrix, car.mu_covariance(0.1).matrix)
        for s in (car.mu_covariance(mu), car.validate_car(o @ m @ o.T)):
            if car.is_standard_car(s):
                assert np.all(np.isfinite(car.hamiltonian_of(s)))
            else:
                with pytest.raises(CovarianceError, match="degenerate covariance: eigenvalue"):
                    car.hamiltonian_of(s)
    # the message names the smallest eigenvalue of S
    with pytest.raises(CovarianceError, match=r"eigenvalue 0\.000000e\+00$"):
        car.hamiltonian_of(car.mu_covariance(0.5))
    with pytest.raises(CovarianceError, match=r"eigenvalue 1\.0000\d*e-11$"):
        car.hamiltonian_of(car.mu_covariance(-0.5 + 1e-11))


def test_hamiltonian_at_an_exact_zero_of_a_t_a():
    # d = 3: A^T A has an exact zero eigenvalue, where artanh(2r)/r takes its limit 2
    s = car.validate_car(scipy.linalg.block_diag(car.mu_covariance(0.3).matrix, [[0.5]]))
    assert s.spectrum[0][0] == 0.0
    h = car.hamiltonian_of(s)
    want = scipy.linalg.block_diag(car.hamiltonian_of(car.mu_covariance(0.3)), [[0.0]])
    assert np.max(np.abs(h - want)) <= 1e-15


def _mp_hamiltonian(m: np.ndarray) -> np.ndarray:
    """log((I - S) S^-1) of the given matrix from a 50-digit Hermitian eigensolver."""
    with mpmath.workdps(50):
        w, q = mpmath.eighe(mpmath.matrix(m.tolist()))
        h = q * mpmath.diag([mpmath.log((1 - x) / x) for x in w]) * q.transpose_conj()
        return np.array(h.tolist(), dtype=complex)


def test_hamiltonian_near_degenerate_against_mpmath():
    # rotated blocks with eigenvalues delta and 1 - delta: log((1 - w)/w) has
    # derivative ~1/delta there, so eps-sized input noise costs ~eps/delta
    eps = np.finfo(float).eps
    for delta in (1e-3, 1e-6, 1e-8):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for d in (2, 3, 4, 6):
                o = sampling.random_orthogonal(rng, d)
                blocks = [car.mu_covariance(m).matrix for m in
                          (0.5 - delta) * rng.choice([-1.0, 1.0], d // 2)]
                m = scipy.linalg.block_diag(*blocks, *([[[0.5]]] if d % 2 else []))
                s = car.validate_car(o @ m @ o.T)
                err = np.max(np.abs(car.hamiltonian_of(s) - _mp_hamiltonian(s.matrix)))
                assert err <= 2.0 * eps / delta, (delta, seed, d, err)


def test_hamiltonian_runs_no_linalg_on_a_validated_covariance(rng, monkeypatch):
    s = sampling.random_car_covariance(rng, 5, radius=0.3)
    want = car.hamiltonian_of(s)

    def refuse(*args, **kwargs):
        raise AssertionError("hamiltonian_of called numpy.linalg")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    assert np.array_equal(car.hamiltonian_of(s), want)


def test_hamiltonian_rejects_a_stack():
    with pytest.raises(CovarianceError, match="one covariance"):
        car.hamiltonian_of(car.mu_covariance([0.1, 0.2]))


@pytest.mark.parametrize("call", [
    lambda s: car.two_point(s, [1.0, 0.0], [0.0, 1.0]),
    lambda s: car.wick_moment(s, [[1.0, 0.0], [0.0, 1.0]]),
], ids=["two_point", "wick_moment"])
def test_single_covariance_functions_reject_a_stack(call):
    with pytest.raises(CovarianceError, match=r"\(2, [24], [24]\)"):
        call(car.mu_covariance(np.array([0.1, 0.2])))


def test_is_standard():
    assert car.is_standard_car(car.mu_covariance(0.3))
    assert not car.is_standard_car(car.mu_covariance(0.5))


def test_is_standard_on_a_stack():
    mus = [0.1, 0.5, 0.3, -0.5]
    flags = car.is_standard_car(car.mu_covariance(mus))
    assert flags.tolist() == [car.is_standard_car(car.mu_covariance(m)) for m in mus]
    assert flags.tolist() == [True, False, True, False]


# ----------------------------------------------------------------- sampling


def test_random_car_covariance_is_valid(rng):
    for d in (2, 3, 5):
        s = sampling.random_car_covariance(rng, d)
        # validate_car re-checks everything
        car.validate_car(s.matrix)


def test_singular_pair_requires_even_dimension(rng):
    with pytest.raises(ValueError):
        sampling.singular_overlap_car_pair(rng, 3)


def test_public_functions_run_real_kernels_only(rng, monkeypatch):
    s, t = sampling.random_car_pair(rng, 6)
    m = s.matrix
    calls = {
        "validate_car": lambda: car.validate_car(m),
        "mu_covariance": lambda: car.mu_covariance([0.1, 0.5]),
        "two_point": lambda: car.two_point(m, np.ones(6), np.ones(6)),
        "wick_moment": lambda: car.wick_moment(m, np.eye(6)[:4]),
        "trans_prob_car": lambda: car.trans_prob_car(s, t),
        "log_trans_prob_car": lambda: car.log_trans_prob_car(t, s),
        "meet_criterion": lambda: car.meet_criterion(m, t),
        "qe_distance_car": lambda: car.qe_distance_car(s, t),
        "quadrature": lambda: car.quadrature(m),
        "quadrature_identity_check": lambda: car.quadrature_identity_check(m, t.matrix),
        "hamiltonian_of": lambda: car.hamiltonian_of(m),
        "is_standard_car": lambda: car.is_standard_car(car.CarCovariance(m)),
    }
    public = {name for name in car.__all__ if inspect.isfunction(getattr(car, name))}
    assert set(calls) == public
    dtypes = []
    for name in ("eigh", "eigvalsh", "svd", "det", "slogdet", "inv", "eig", "eigvals", "solve"):
        def spy(a, *args, _f=getattr(np.linalg, name), **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    for call in calls.values():
        call()
    assert dtypes and set(dtypes) == {np.dtype(float)}


# ------------------------------------------------ test-side meet reference


def projection_meet(p: np.ndarray, r: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Projection onto ran(p) ∩ ran(r): the eigenvalue-2 space of p + r."""
    w, v = matcore.eigh(matcore.hermitian_part(np.asarray(p, dtype=complex) + r))
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
        w[w <= tolerances.DEGENERACY_SNAP] = 0.0
        w[w >= 1.0 - tolerances.DEGENERACY_SNAP] = 1.0
        roots.append(((v * np.sqrt(w)) @ vh, (v * np.sqrt(1.0 - w)) @ vh))
    (rs, cs), (rt, ct) = roots
    sv = np.linalg.svd(rs @ rt + cs @ ct, compute_uv=False)
    tp = 0.0 if sv[-1] <= tolerances.ZERO_TOL * max(1.0, sv[0]) else math.sqrt(np.prod(sv))
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
        tol = 1e-12 + (floor if delta is not None and delta > tolerances.DEGENERACY_SNAP else 0.0)
        assert abs(car.trans_prob_car(s, t) - tp) <= tol, (kind, delta)
        assert abs(car.qe_distance_car(s, t) - qe) <= tol, (kind, delta)
        assert np.max(np.abs(car.quadrature(s) - p)) <= 1e-12 + floor, (kind, delta)
        validate_doubled_covariance(car.quadrature(s))
        lhs, rhs = car.quadrature_identity_check(s, t)
        assert abs(lhs - rhs) <= 1e-8, (kind, delta)
        sv = _overlap_svd(s, t)
        assert np.count_nonzero(sv <= cut * max(1.0, sv[0])) == meet, (kind, delta)
        assert (car.meet_criterion(s, t) >= 1) == (car.trans_prob_car(s, t) == 0.0)
        if kind == "singular":
            assert car.meet_criterion(s, t) == meet >= 1


def test_real_kernels_stacked_match_single_bitwise(rng, monkeypatch):
    pairs = [sampling.random_car_pair(rng, 6) for _ in range(3)]
    pairs += [sampling.singular_overlap_car_pair(rng, 6), _block_pair(rng, 6, 1e-13)]
    s = car.validate_car(np.stack([a.matrix for a, _ in pairs]))
    t = car.validate_car(np.stack([b.matrix for _, b in pairs]))
    svd_shapes, real_svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
        svd_shapes.append(a.shape), real_svd(a, *args, **kwargs))[1])
    meet, log_tp, quad = car.meet_criterion(s, t), car.log_trans_prob_car(s, t), car.quadrature(s)
    # the stack mixes matrices the determinant certifies with ones that take the SVD
    assert len(svd_shapes) == 1 and 0 < svd_shapes[0][0] < len(pairs)
    for i, (a, b) in enumerate(pairs):
        for got, want in zip(s.spectrum + s.roots, a.spectrum + a.roots):
            assert np.array_equal(got[i], want)
        assert meet[i] == car.meet_criterion(a, b)
        assert _same_bits(log_tp[i], car.log_trans_prob_car(a, b))
        assert np.array_equal(quad[i], car.quadrature(a))


# ------------------------------------------- the overlap determinant certificate

EDGE_MULTIPLES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0)


def _overlap_svd(s, t):
    """Singular values of the pair's overlap matrix, computed here with numpy."""
    (gs, ys), (gt, yt) = s.roots, t.roots
    return np.linalg.svd(2.0 * (gs @ gt - ys @ yt), compute_uv=False)


def _svd_zero_count(sv):
    return np.count_nonzero(sv <= tolerances.ZERO_TOL * max(1.0, sv[0]))


def _edge_pair(rng, d, sigma):
    """A pair whose two smallest overlap singular values are about ``sigma``.

    The opposite pure blocks of ``singular_overlap_car_pair`` (S's and T's
    first two modes) with T's block tilted by theta into the third mode:
    the shared zero becomes two singular values ~ c theta^2, c fitted at
    theta = 1e-3. A common orthogonal conjugation makes the matrices dense.
    """
    block = car.mu_covariance(0.5).matrix
    s, t = (scipy.linalg.block_diag(b, sampling.random_car_covariance(rng, d - 2).matrix)
            for b in (block, block.conj()))
    o = sampling.random_orthogonal(rng, d)

    def tilted(theta):
        g = np.eye(d)
        g[1:3, 1:3] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        return car.validate_car(o @ s @ o.T), car.validate_car(o @ g @ t @ g.T @ o.T)

    c = _overlap_svd(*tilted(1e-3))[-1] / 1e-6
    return tilted(math.sqrt(sigma / c))


@pytest.mark.parametrize("d", [3, 4, 8, 64])
def test_zero_decisions_at_the_certificate_edge(rng, d):
    zero_tol = tolerances.ZERO_TOL
    for k in EDGE_MULTIPLES:
        s, t = _edge_pair(rng, d, k * zero_tol)
        sv = _overlap_svd(s, t)
        assert sv[-1] == pytest.approx(k * zero_tol, rel=0.05, abs=1e-15)
        zeros = _svd_zero_count(sv)
        assert car.meet_criterion(s, t) == zeros, (d, k)
        assert (car.trans_prob_car(s, t) == 0.0) == (zeros > 0), (d, k)
    # one small singular value and d - 1 at 1: the AM-GM bound is log sigma_min
    # itself, so the margin decides exactly here; M need not come from a pair
    for k in EDGE_MULTIPLES:
        u, v = (sampling.random_orthogonal(rng, d) for _ in range(2))
        m = (u * np.r_[np.ones(d - 1), k * zero_tol]) @ v
        log_tp, zeros = car._overlap(m)
        want = _svd_zero_count(np.linalg.svd(m, compute_uv=False))
        assert zeros == want and (log_tp == -math.inf) == (want > 0), (d, k)


def test_random_large_pair_runs_no_svd(rng, monkeypatch):
    s, t = sampling.random_car_pair(rng, 512)

    def refuse(*args, **kwargs):
        raise AssertionError("a nonsingular pair ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert car.trans_prob_car(s, t) > 0.0 and car.meet_criterion(s, t) == 0
    assert math.isfinite(car.log_trans_prob_car(t, s))
    # |det M| ~ e^-55, far below CERTIFY_MARGIN * ZERO_TOL, yet no sigma is near a
    # zero: the AM-GM bound, not |det M| alone, must clear it
    sv = rng.uniform(0.8, 1.0, 512)
    u, v = (sampling.random_orthogonal(rng, 512) for _ in range(2))
    log_tp, zeros = car._overlap((u * sv) @ v)
    assert zeros == 0 and log_tp == pytest.approx(0.5 * np.sum(np.log(sv)), rel=1e-12)
    assert 2 * log_tp < math.log(tolerances.CERTIFY_MARGIN * tolerances.ZERO_TOL)


# ---------------------------------------- Klich's trace formula, past the oracle cap


def _klich_log_overlap(s, t):
    """log tr(sqrt(rho) sqrt(tau)) by Klich's trace formula (2003), with numpy alone.

    With S = (I + e^H)^-1, tr(sqrt(rho) sqrt(tau)) = det(I + e^{H_S/2} e^{H_T/2})^(1/2)
    / (det(I + e^{H_S}) det(I + e^{H_T}))^(1/4), and det(I + e^H) = 1 / det S.
    Takes nondegenerate covariances only.
    """
    def half(m):  # e^{H/2} = ((I - S) / S)^(1/2), and log det S
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt((1.0 - w) / w)) @ v.conj().T, np.sum(np.log(w))

    (a, log_det_s), (b, log_det_t) = half(s.matrix), half(t.matrix)
    return 0.5 * np.linalg.slogdet(np.eye(len(a)) + a @ b)[1] + 0.25 * (log_det_s + log_det_t)


def _inner_pair(rng, d):
    """Two random covariances with spectrum in [0.05, 0.95]."""
    return tuple(sampling.random_car_covariance(rng, d, rng.uniform(0.1, 0.45)) for _ in range(2))


@pytest.mark.parametrize("modes", [2, 3, 4, 5])
def test_klich_formula_matches_the_fock_oracle(rng, modes):
    s, t = _inner_pair(rng, 2 * modes)
    rho, tau = (car_oracle.density_from_covariance(c) for c in (s, t))
    assert math.exp(_klich_log_overlap(s, t)) == pytest.approx(car_oracle.overlap(rho, tau),
                                                               abs=1e-12)


@pytest.mark.parametrize("d", [16, 64, 256])
def test_log_tp_matches_klich_past_the_oracle_cap(rng, d):
    for _ in range(3):
        s, t = _inner_pair(rng, d)
        want = _klich_log_overlap(s, t)
        assert car.log_trans_prob_car(s, t) == pytest.approx(want, rel=1e-12, abs=0.0)


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


# ------------------------------------------------------------- pair reuse


def _pair_values(s, t):
    """Everything the overlap SVD of the ordered pair feeds."""
    return (car.trans_prob_car(s, t), car.log_trans_prob_car(s, t), car.meet_criterion(s, t),
            car.quadrature_identity_check(s, t)[1])


def _fresh(c):
    return car.validate_car(c.matrix.copy())


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_pair_functions_share_one_overlap_factorisation(rng, monkeypatch):
    calls = []
    for name in ("slogdet", "svd"):
        def spy(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, a.shape[-2:]))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    for pair, svds in ((sampling.random_car_pair(rng, 6), []),
                       (sampling.singular_overlap_car_pair(rng, 6), [("svd", (6, 6)), ("svd", (12, 12))])):
        calls.clear()
        car.trans_prob_car(*pair)
        car.log_trans_prob_car(*pair)
        car.meet_criterion(*pair)
        car.quadrature_identity_check(*pair)
        # the pair's overlap once, the quadratures' overlap once: an LU each, and
        # an SVD only where the determinant cannot rule out a zero singular value
        assert sorted(calls) == sorted([("slogdet", (6, 6)), ("slogdet", (12, 12))] + svds)


@pytest.mark.parametrize("stacked", [False, True])
def test_pair_reuse_matches_fresh_calls_bitwise(rng, stacked):
    # the first pair has tp 0 and a nonempty meet
    covs = [*sampling.singular_overlap_car_pair(rng, 6)]
    covs += [sampling.random_car_covariance(rng, 6) for _ in range(7)]
    if stacked:
        covs = [car.validate_car(np.stack([a.matrix, b.matrix])) for a, b in zip(covs, covs[1:])]
    s, t, u = covs[0], covs[1], covs[2]
    twin = _fresh(t)  # a distinct partner with the same values
    for x, y in ((s, t), (t, s), (s, t), (s, u), (s, t), (s, twin), (s, t), (s, s), (s, t)):
        assert all(map(_same_bits, _pair_values(x, y), _pair_values(_fresh(x), _fresh(y))))
    # partners freed after use: a new one may reuse a freed object's id
    for m in [c.matrix for c in covs[3:]]:
        partner = car.validate_car(m.copy())
        want = _pair_values(_fresh(s), _fresh(partner))
        assert all(map(_same_bits, _pair_values(s, partner), want))
        del partner


def test_covariances_pickle_after_pair_calls(rng):
    s, t = sampling.random_car_pair(rng, 4)
    want = _pair_values(s, t)
    for s2, t2 in (pickle.loads(pickle.dumps((s, t))), (pickle.loads(pickle.dumps(s)), t)):
        assert np.array_equal(s2.matrix, s.matrix) and np.array_equal(t2.matrix, t.matrix)
        assert all(map(_same_bits, _pair_values(s2, t2), want))


# ------------------------------------------------------ one-mode closed forms

SNAP = tolerances.DEGENERACY_SNAP
# pure, near pure, the snap edge and one ulp either side, zero of both signs, underflow
EDGE_MUS = [0.5, -0.5, 0.5 - 1e-13, -(0.5 - 1e-13), 0.0, -0.0, 1e-300, -1e-300, 0.3,
            *(m for edge in (0.5 - SNAP, SNAP - 0.5)
              for m in (edge, np.nextafter(edge, 1.0), np.nextafter(edge, -1.0)))]


def _matrix_route(s, t):
    """``(tp, log tp, meet, qe)`` of 2 x 2 pairs through their 2 x 2 matrices, with numpy.

    G and Y from ``matcore.root_parts``, M = 2(G_S G_T - Y_S Y_T), LAPACK's singular
    values under the zero rule, and the HS norm of [G_S - G_T, Y_S - Y_T].
    """
    (gs, ys), (gt, yt) = (matcore.root_parts(c.matrix.imag, *c.spectrum, SNAP) for c in (s, t))
    sv = np.linalg.svd(2.0 * (gs @ gt - ys @ yt), compute_uv=False)
    zeros = np.count_nonzero(sv <= tolerances.ZERO_TOL * np.maximum(1.0, sv[..., :1]), axis=-1)
    with np.errstate(divide="ignore"):
        log_tp = np.minimum(0.5 * np.sum(np.log(sv), axis=-1), 0.0)
    log_tp[zeros > 0] = -np.inf
    qe = np.linalg.norm(np.concatenate([gs - gt, ys - yt], axis=-1), axis=(-2, -1))
    return np.exp(log_tp), log_tp, zeros, qe


def _mode_values(s, t):
    return (car.trans_prob_car(s, t), car.log_trans_prob_car(s, t), car.meet_criterion(s, t),
            car.qe_distance_car(s, t))


def test_one_mode_closed_forms_keep_the_matrix_route_bits(rng):
    edges = np.array(EDGE_MUS)
    mu_s = np.concatenate([np.repeat(edges, edges.size), rng.uniform(-0.5, 0.5, 2000),
                           0.5 - 10.0 ** rng.uniform(-16, -1, 500)])
    mu_t = np.concatenate([np.tile(edges, edges.size), rng.uniform(-0.5, 0.5, 2000),
                           -0.5 + 10.0 ** rng.uniform(-16, -1, 500)])
    s, t = car.mu_covariance(mu_s), car.mu_covariance(mu_t)
    want = _matrix_route(s, t)
    assert all(map(_same_bits, _mode_values(s, t), want))
    # the edges reach both zero counts and both sides of the snap
    assert set(want[2].tolist()) == {0, 2} and np.isinf(want[1]).any()
    for i in [*range(edges.size**2), *range(edges.size**2, mu_s.size, 5)]:
        a, b = car.mu_covariance(mu_s[i]), car.mu_covariance(mu_t[i])
        got = _mode_values(a, b)
        assert [type(x) for x in got] == [float, float, int, float]
        assert all(_same_bits(x, w[i]) for x, w in zip(got, want)), (mu_s[i], mu_t[i])


def test_one_mode_closed_forms_read_the_roots_entries(rng):
    s = car.mu_covariance(np.concatenate([EDGE_MUS, rng.uniform(-0.5, 0.5, 64)]))
    (g_mat, y_mat), (g, y) = s.roots, s.mode_roots
    assert np.array_equal(g_mat[:, 0, 0], g) and np.array_equal(g_mat[:, 1, 1], g)
    assert np.array_equal(y_mat[:, 1, 0], y) and np.array_equal(y_mat[:, 0, 1], -y)
    assert not np.any(g_mat[:, 0, 1]) and not np.any(y_mat[:, 0, 0])


def _reference_table(family, n):
    """qe^2 and -log tp of modes 1..n, 2 x 2 modes through :func:`_matrix_route`."""
    qe_sq, neg_log_tp = np.empty(n), np.empty(n)
    for modes, s, t in family.stack(1, n):
        if s.dim == 2:
            _, log_tp, _, qe = _matrix_route(s, t)
        else:
            log_tp, qe = car.log_trans_prob_car(s, t), car.qe_distance_car(s, t)
        qe_sq[modes - 1] = [x**2 for x in qe.tolist()]
        neg_log_tp[modes - 1] = -log_tp
    return qe_sq, neg_log_tp


def _car_families(rng):
    edges = [car.mu_covariance(m) for m in EDGE_MUS]
    pairs = [(a, b) for a in edges for b in edges[::3]]
    pairs += [tuple(car.mu_covariance(m) for m in rng.uniform(-0.5, 0.5, 2)) for _ in range(40)]
    literal = seqmodel.literal_family(seqmodel.CAR, pairs)
    mixed = seqmodel.literal_family(seqmodel.CAR, pairs[:5] + [sampling.random_car_pair(rng, 4)]
                                    + pairs[5:9], tail=pairs[9])
    rule = seqmodel.ModeFamily(seqmodel.CAR, "rule", lambda k: (car.mu_covariance(0.3),
                                                                car.mu_covariance(0.3 + 0.1 / k)))
    return [seqmodel.car_power_family(p) for p in (0.5, 1.0, 2.0)] + [
        seqmodel.car_counterexample(),
        seqmodel.car_mu_sequence(lambda k: 0.5 - 1.0 / (k + 2), lambda k: 0.5 - 1.0 / (k + 1)),
        rule, literal, mixed,
        seqmodel.concat_families(literal, 7, seqmodel.car_power_family(2.0)),
        seqmodel.concat_families(seqmodel.car_power_family(1.0), 100, mixed),
    ]


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_one_mode_term_tables_keep_the_matrix_route_bits(rng, n):
    for family in _car_families(rng):
        got = seqmodel._term_table(family, n)
        assert all(map(_same_bits, got, _reference_table(family, n))), family.label


def test_one_mode_scans_take_no_matrix_roots_and_no_svd(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-mode CAR pair took the matrix route")

    for module, name in ((matcore, "root_parts"), (matcore, "svdvals"), (car, "svdvals"),
                         (np.linalg, "svd")):
        monkeypatch.setattr(module, name, refuse)
    for family in _car_families(rng)[:7]:
        seqmodel.classify_sequence(family, n_max=1024)
    assert _mode_values(car.mu_covariance(0.5), car.mu_covariance(-0.5)) == (0.0, -math.inf, 2,
                                                                            math.sqrt(2.0))


def test_quadrature_check_of_one_dimensional_covariances(monkeypatch):
    # the only 2 x 2 overlap left, M = I, takes the LU like every other size
    calls = []
    for name in ("slogdet", "svd"):
        def spy(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    assert car.quadrature_identity_check([[0.5]], [[0.5]]) == (1.0, 1.0)
    assert calls == [("slogdet", (1, 1)), ("slogdet", (2, 2))]


# ---------------------------------------------- one-mode spectrum in closed form

# 5000 uniform offsets and the edges: zeros of both signs, pure, underflowing squares
SPECTRUM_EDGES = [0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300, 1e-160, 1e-12, 0.5 - 1e-11]


def _spectrum_mus(rng):
    return np.concatenate([rng.uniform(-0.5, 0.5, 5000), SPECTRUM_EDGES, EDGE_MUS])


def _eigh_route(cov):
    """The factorisation the 2 x 2 closed form replaces: ``matcore.eigh`` of A^T A."""
    a = cov.matrix.imag
    return matcore.eigh(matcore.adjoint(a) @ a)


@pytest.fixture
def eigh_route(monkeypatch):
    """Run ``body()`` with every spectrum read through :func:`_eigh_route`."""
    def run(body):
        with monkeypatch.context() as m:
            m.setattr(car.CarCovariance, "spectrum", property(_eigh_route))
            return body()
    return run


def _same_arrays(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_mode_spectrum_keeps_the_eigh_bits(rng):
    mus = _spectrum_mus(rng)
    stack = car.mu_covariance(mus)
    assert all(map(_same_arrays, stack.spectrum, _eigh_route(stack)))
    assert np.signbit(stack.spectrum[1][..., 1, 0]).all()  # the basis [[1, 0], [-0, 1]]
    for mu in [*mus[:: len(mus) // 200].tolist(), *SPECTRUM_EDGES]:
        cov = car.mu_covariance(mu)
        assert all(map(_same_arrays, cov.spectrum, _eigh_route(cov))), mu
    # raw matrices whose defects validation removes: Hermiticity, the relation, a
    # real part of the off-diagonal, each within VALIDATION_TOL
    tol = tolerances.VALIDATION_TOL
    herm, real, off = (rng.uniform(-tol, tol, 500) / k for k in (2, 4, 2))
    raw = np.stack([mu_matrix(*args) for args in zip(mus[:500], herm, real)])
    raw[:, 1, 0] += off
    for cov in (car.validate_car(raw), *map(car.validate_car, raw[:50])):
        assert all(map(_same_arrays, cov.spectrum, _eigh_route(cov)))


def test_lowest_eigenvalue_reads_the_last_of_an_ascending_spectrum(rng):
    stack = car.validate_car(np.stack([sampling.random_car_covariance(rng, 8).matrix
                                       for _ in range(16)]))
    covs = [car.validate_car(np.zeros((0, 0))), car.mu_covariance(_spectrum_mus(rng)), stack,
            *(sampling.random_car_covariance(rng, d) for d in (2, 4, 16, 64))]
    for cov in covs:
        want = 0.5 - np.sqrt(np.max(cov.spectrum[0], axis=-1, initial=0.0))
        assert _same_arrays(np.asarray(car._lowest_eigenvalue(cov)), np.asarray(want))


def test_single_covariance_readers_keep_the_eigh_bits(rng, eigh_route):
    mus = [m for m in _spectrum_mus(rng)[::50].tolist() + SPECTRUM_EDGES]

    def readers():
        out = []
        for mu in mus:
            cov = car.mu_covariance(mu)
            out += [car.quadrature(cov), np.array(car.is_standard_car(cov)),
                    np.array(cli._car_range(cov))]  # the range qf validate reports
            if car.is_standard_car(cov):
                out.append(car.hamiltonian_of(cov))
        return out

    want = eigh_route(readers)
    got = readers()
    assert len(got) == len(want) > 2 * len(mus) and all(map(_same_arrays, got, want))


def _spectrum_families():
    mu = 0.3141592653589793
    pairs = [tuple(car.mu_covariance(m) for m in p)
             for p in ((0.3, 0.1), (0.5, -0.5), (0.0, 0.2), (0.5 - 1e-13, 0.49), (-0.0, 1e-300))]
    return [seqmodel.car_power_family(1.0), seqmodel.car_power_family(2.0),
            seqmodel.car_mu_sequence(lambda k: mu, lambda k: mu + 0.1 * k**-1.5),
            seqmodel.car_counterexample(), seqmodel.literal_family(seqmodel.CAR, pairs)]


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_mode_spectrum_term_tables_keep_the_eigh_bits(n, eigh_route):
    want = eigh_route(lambda: [seqmodel._term_table(f, n) for f in _spectrum_families()])
    got = [seqmodel._term_table(f, n) for f in _spectrum_families()]
    for family, a, b in zip(_spectrum_families(), got, want):
        assert all(map(_same_arrays, a, b)), family.label


def test_validating_a_mode_stack_runs_no_eigen_kernel(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a 2 x 2 CAR covariance took an eigen kernel")

    for name in dir(np.linalg):
        if inspect.isfunction(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(matcore, "eigh", refuse)
    monkeypatch.setattr(car, "eigh", refuse)
    raw = np.stack([mu_matrix(mu) for mu in rng.uniform(-0.5, 0.5, 1024)])
    cov = car.validate_car(raw)
    assert cov.matrix.shape == (1024, 2, 2) and "spectrum" in vars(cov)
    with pytest.raises(CovarianceError, match="not PSD"):
        car.validate_car(np.stack([raw[0], mu_matrix(0.7)]))


def test_validate_refuses_a_mode_whose_square_overflows():
    # mu^2 = inf: the A^T A route read a NaN spectrum here and accepted the matrix
    for mu in (1e155, -1e200, 1.7e308):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(CovarianceError, match="eigenvalue -inf"):
            car.validate_car(mu_matrix(mu))


# ------------------------------------------- one-mode covariances built valid

# the spectrum grid, offsets either side of the pure edge, subnormals, and offsets past
# 1/2 that the PSD check admits within VALIDATION_TOL * (1 + max|entry|)
BUILT_EDGES = [*SPECTRUM_EDGES, 0.5 + 1e-12, 0.5 - 1e-12, -(0.5 + 1e-12), 5e-324, -5e-324,
               0.5 + 1.2e-10, -(0.5 + 1.4e-10)]


def _validated(mu):
    """The route ``mu_covariance`` replaces: ``validate_car`` of the raw matrix."""
    mus = np.asarray(mu, dtype=float)
    raw = np.stack([mu_matrix(m) for m in mus.ravel().tolist()]).reshape(mus.shape + (2, 2))
    return car.validate_car(raw)


def _cached(cov):
    return [cov.matrix, *cov.spectrum, *cov.roots, *cov.mode_roots]


def test_mu_covariance_keeps_the_validate_car_bits(rng):
    mus = np.concatenate([_spectrum_mus(rng), BUILT_EDGES])
    assert all(map(_same_arrays, _cached(car.mu_covariance(mus)), _cached(_validated(mus))))
    for mu in [*mus[:: len(mus) // 300].tolist(), *BUILT_EDGES, *EDGE_MUS]:
        got, want = car.mu_covariance(mu), _validated(mu)
        assert all(map(_same_arrays, _cached(got), _cached(want))), mu
        assert not got.matrix.flags.writeable
    # integer, boolean and complex-typed real offsets give the float offset's covariance
    for mu, same in ((0, 0.0), (np.array([0, 0]), [0.0, 0.0]), (np.complex128(0.3), 0.3),
                     (False, 0.0)):
        assert _same_arrays(car.mu_covariance(mu).matrix, _validated(same).matrix)


@pytest.mark.parametrize("mu", [0.7, -0.51, math.nan, math.inf, -math.inf, 1e155, 1.7e308,
                                [0.1, 0.9], 0.5 + 1.6e-10, [0.2, math.nan], True])
def test_mu_covariance_refuses_as_validate_car_does(mu):
    messages = []
    for build in (car.mu_covariance, _validated):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(CovarianceError) as err:
            build(mu)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_mu_covariance_takes_complex_offsets_through_validate_car():
    with pytest.raises(CovarianceError, match="not Hermitian"):
        car.mu_covariance(0.3 + 0.1j)


def test_car_power_scan_never_validates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a CAR rule scan called validate_car")

    monkeypatch.setattr(car, "validate_car", refuse)
    v = seqmodel.classify_sequence(seqmodel.car_power_family(2.0), n_max=1024)
    assert v.kind == "QuasiEquivalent"
    seqmodel.classify_sequence(
        seqmodel.car_mu_sequence(lambda k: 0.3, lambda k: 0.3 + 0.1 * k**-1.5), n_max=1024)
