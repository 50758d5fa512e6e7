"""Unit tests for the dense matrix calculus layer."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasifree import matcore
from quasifree.errors import NotPositiveError, SupportError


def random_skew(rng, d, cplx=True):
    m = rng.standard_normal((d, d))
    if cplx:
        m = m + 1j * rng.standard_normal((d, d))
    return 0.5 * (m - m.T)


def random_pd(rng, d, ridge=0.1):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m @ m.conj().T / d + ridge * np.eye(d)


PAIRING_DIM_CAP = 12


def pfaffian_pairings(a: np.ndarray) -> complex:
    """Pfaffian as the exhaustive signed sum over pair partitions, O((d-1)!!).

    Brute-force reference for :func:`matcore.pfaffian`; refuses dimensions
    above 12 where the enumeration explodes.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    if d % 2:
        raise ValueError(f"pfaffian needs even dimension, got {d}")
    if d > PAIRING_DIM_CAP:
        raise ValueError(
            f"pairing enumeration is exponential; dimension {d} exceeds cap "
            f"{PAIRING_DIM_CAP}, use pfaffian()"
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


def ratio(x, g):
    """The ratio of :func:`matcore.ratio_violations`, asserting no support violation."""
    out, bad, errors = matcore.ratio_violations(x, g)
    assert not np.any(bad) and not errors
    return out


# ---------------------------------------------------------------- pfaffian


def test_pfaffian_two_by_two_convention():
    a = 0.3 - 1.7j
    m = np.array([[0.0, a], [-a, 0.0]])
    assert matcore.pfaffian(m) == pytest.approx(a)


def test_pfaffian_empty_and_odd():
    assert matcore.pfaffian(np.zeros((0, 0))) == 1.0
    with pytest.raises(ValueError, match="even dimension"):
        matcore.pfaffian(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="even dimension"):
        pfaffian_pairings(np.zeros((5, 5)))


def test_pfaffian_zero_matrix():
    assert matcore.pfaffian(np.zeros((4, 4))) == 0.0


def test_pfaffian_matches_pairing_enumeration(rng):
    """Elimination and brute-force pair-partition sum must agree (dual route)."""
    for d in (2, 4, 6, 8):
        for _ in range(5):
            a = random_skew(rng, d)
            fast = matcore.pfaffian(a)
            slow = pfaffian_pairings(a)
            assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


def test_pfaffian_pairings_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        pfaffian_pairings(np.zeros((14, 14)))


def test_pfaffian_square_is_determinant(rng):
    for d in range(2, 11, 2):
        a = random_skew(rng, d)
        pf = matcore.pfaffian(a)
        det = np.linalg.det(a)
        assert abs(pf**2 - det) <= 1e-9 * max(1.0, abs(det))


def test_pfaffian_congruence(rng):
    """pf(B A B^T) = det(B) pf(A)."""
    d = 6
    a = random_skew(rng, d)
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lhs = matcore.pfaffian(b @ a @ b.T)
    rhs = np.linalg.det(b) * matcore.pfaffian(a)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@seed(20240817)
@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        (6, 6),
        elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
)
def test_pfaffian_square_is_determinant_hypothesis(m):
    a = 0.5 * (m - m.T)
    pf = matcore.pfaffian(a.copy())
    det = np.linalg.det(a)
    scale = max(1.0, float(np.linalg.norm(a)) ** 6)
    assert abs(pf**2 - det) <= 1e-10 * scale


def test_pfaffian_does_not_mutate_input(rng):
    a = random_skew(rng, 6)
    before = a.copy()
    matcore.pfaffian(a)
    assert np.array_equal(a, before)


# ------------------------------------------------------------- eigenlayer


def test_eig_h_reconstructs_and_is_deterministic(rng):
    h = random_pd(rng, 5)
    w, v = matcore.eig_h(h)
    assert np.all(np.diff(w) >= 0)
    rec = (v * w) @ v.conj().T
    assert np.linalg.norm(rec - h) <= 1e-10
    w2, v2 = matcore.eig_h(h.copy())
    assert np.array_equal(w, w2) and np.array_equal(v, v2)


def test_sqrt_psd_roundtrip(rng):
    h = random_pd(rng, 6, ridge=0.0)
    r = matcore.sqrt_psd(h)
    assert np.linalg.norm(r @ r - h) <= 1e-9 * max(1.0, np.linalg.norm(h))
    assert np.linalg.norm(r - r.conj().T) <= 1e-12


def test_sqrt_psd_clamps_roundoff_negatives():
    h = np.diag([1.0, -1e-14])
    r = matcore.sqrt_psd(h)
    assert r[1, 1] == 0.0


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPositiveError) as exc:
        matcore.sqrt_psd(np.diag([1.0, -0.1]))
    assert exc.value.min_eigenvalue == pytest.approx(-0.1)


def test_support_projection():
    p = matcore.support_projection(np.diag([2.0, 0.0, 1e-16]))
    assert np.linalg.norm(p - np.diag([1.0, 0.0, 0.0])) <= 1e-12
    # zero matrix has empty support
    assert np.linalg.norm(matcore.support_projection(np.zeros((3, 3)))) == 0.0


def test_support_groups_split_by_rank_and_keep_order():
    w = np.array([[-2.0, 0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 3.0]])
    v = np.stack([np.eye(3), 2.0 * np.eye(3), 3.0 * np.eye(3)]).astype(complex)
    groups = list(matcore.support_groups(w, v, matcore.abs_support(w, 1e-10)))
    assert [g[0].tolist() for g in groups] == [[False, False, True], [True, True, False]]
    _, w1, basis1, null1 = groups[0]
    assert w1.tolist() == [[3.0]] and np.array_equal(basis1[0], 3.0 * np.eye(3)[:, 2:])
    _, w2, basis2, null2 = groups[1]
    # support columns move behind the kernel column, each side in order
    assert w2.tolist() == [[-2.0, 1.0], [1.0, 2.0]]
    assert np.array_equal(basis2[0], np.eye(3)[:, [0, 2]])
    assert np.array_equal(null2[0], np.eye(3)[:, [1]])
    assert np.array_equal(basis2[1], 2.0 * np.eye(3)[:, 1:])


def test_stacked_helpers_match_single_matrices_bitwise(rng):
    a = np.stack([random_pd(rng, 4) for _ in range(3)])
    b = np.stack([random_pd(rng, 4) for _ in range(3)])
    b[1] = np.diag([1.0, 1.0, 0.0, 0.0])  # a rank-deficient support in the stack
    g = matcore.geometric_mean(a, b)
    r = ratio(a, a + b)
    for i in range(3):
        assert np.array_equal(g[i], matcore.geometric_mean(a[i], b[i]))
        assert np.array_equal(r[i], ratio(a[i], a[i] + b[i]))
        assert np.array_equal(matcore.sqrt_psd(a)[i], matcore.sqrt_psd(a[i]))
        assert matcore.hs_norm(a)[i] == matcore.hs_norm(a[i])


def test_hermitian_part_and_conj():
    x = np.array([[1.0 + 1j, 2.0], [0.0, -1j]])
    h = matcore.hermitian_part(x)
    assert np.linalg.norm(h - h.conj().T) == 0.0
    # real input keeps a real dtype (real eigh downstream); complex stays complex
    hr = matcore.hermitian_part(x.real)
    assert hr.dtype == np.float64 and np.array_equal(hr, h.real)
    assert matcore.hermitian_part(np.eye(2, dtype=int)).dtype == np.float64
    assert matcore.hs_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0))


# --------------------------------------------------------- geometric mean


def test_geometric_mean_commuting_diagonal():
    a = np.diag([1.0, 4.0, 9.0])
    b = np.diag([4.0, 1.0, 1.0])
    g = matcore.geometric_mean(a, b)
    assert np.linalg.norm(g - np.diag([2.0, 2.0, 3.0])) <= 1e-10


def test_geometric_mean_symmetric_and_idempotent(rng):
    a = random_pd(rng, 5)
    b = random_pd(rng, 5)
    gab = matcore.geometric_mean(a, b)
    gba = matcore.geometric_mean(b, a)
    assert np.linalg.norm(gab - gba) <= 1e-8 * np.linalg.norm(gab)
    assert np.linalg.norm(matcore.geometric_mean(a, a) - a) <= 1e-9 * np.linalg.norm(a)


def test_geometric_mean_congruence(rng):
    """gm(M a M*, M b M*) = M gm(a, b) M* for invertible M."""
    d = 4
    a = random_pd(rng, d)
    b = random_pd(rng, d)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lhs = matcore.geometric_mean(m @ a @ m.conj().T, m @ b @ m.conj().T)
    rhs = m @ matcore.geometric_mean(a, b) @ m.conj().T
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_geometric_mean_support_restriction():
    a = np.diag([1.0, 1.0, 0.0])
    b = np.diag([0.0, 1.0, 1.0])
    g = matcore.geometric_mean(a, b)
    assert np.linalg.norm(g - np.diag([0.0, 1.0, 0.0])) <= 1e-10


def test_geometric_mean_with_zero_is_zero(rng):
    a = random_pd(rng, 4)
    g = matcore.geometric_mean(a, np.zeros((4, 4)))
    assert np.linalg.norm(g) == 0.0


def test_geometric_mean_rejects_indefinite(rng):
    with pytest.raises(NotPositiveError):
        matcore.geometric_mean(np.diag([1.0, -1.0]), np.eye(2))


# ------------------------------------------------------------------ ratio


def test_ratio_invertible_denominator(rng):
    x = random_pd(rng, 4)
    g = random_pd(rng, 4)
    r = ratio(x, g)
    ginv_half = np.linalg.inv(matcore.sqrt_psd(g))
    expect = ginv_half @ x @ ginv_half
    assert np.linalg.norm(r - expect) <= 1e-8 * np.linalg.norm(expect)


def test_ratio_partition_of_identity(rng):
    x = random_pd(rng, 5)
    y = random_pd(rng, 5)
    g = x + y
    total = ratio(x, g) + ratio(y, g)
    assert np.linalg.norm(total - np.eye(5)) <= 1e-9


def test_ratio_support_violation_carries_witness():
    x = np.diag([1.0, 1.0])
    g = np.diag([1.0, 0.0])
    _, bad, errors = matcore.ratio_violations(x, g)
    assert bad and len(errors) == 1 and isinstance(errors[0], SupportError)
    v = errors[0].witness
    assert np.linalg.norm(g @ v) <= 1e-12
    assert np.linalg.norm(x @ v) > 0.5


def test_ratio_zero_off_support():
    x = np.diag([1.0, 0.0, 0.0])
    g = np.diag([2.0, 1.0, 0.0])
    r = ratio(x, g)
    assert np.linalg.norm(r - np.diag([0.5, 0.0, 0.0])) <= 1e-12


# ------------------------------------------------------------ projections


def test_projection_defect():
    assert matcore.projection_defect(np.diag([1.0, 0.0])) == 0.0
    assert matcore.projection_defect(np.diag([0.5, 0.0])) == pytest.approx(0.25)


def test_shape_guards():
    with pytest.raises(ValueError, match="square"):
        matcore.eig_h(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        matcore.ratio_violations(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="shape mismatch"):
        matcore.geometric_mean(np.eye(2), np.eye(3))
