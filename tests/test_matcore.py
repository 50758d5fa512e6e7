"""Unit tests for the dense matrix calculus layer."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasifree import car, car_oracle, ccr, ccr_oracle, matcore, sampling, seqmodel
from quasifree.errors import NotPositiveError


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
@settings(max_examples=60, deadline=None, derandomize=True)
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


def test_eigh_reconstructs_and_is_deterministic(rng):
    h = random_pd(rng, 5)
    w, v = matcore.eigh(h)
    assert np.all(np.diff(w) >= 0)
    rec = (v * w) @ v.conj().T
    assert np.linalg.norm(rec - h) <= 1e-10
    w2, v2 = matcore.eigh(h.copy())
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


def test_raise_first_above_refuses_a_nan_deviation():
    dev = np.zeros((3, 2, 2))
    dev[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="matrix nan"):
        matcore.raise_first_above(dev, 1e-10, lambda: np.ones(3),
                                  lambda v: ValueError(f"matrix {v}"))
    matcore.raise_first_above(np.zeros((3, 2, 2)), 1e-10, None, None)  # passes on one max


def common_support_stack(rng, d, dtype):
    """Pairs (a, b) of PSD d x d matrices whose common support has each rank k = 0..d, with
    its orthonormal basis c: each operand also has columns of its own off it."""
    pairs = []
    for k in range(d + 1):
        z = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if dtype is complex
                                           else 0.0)
        q = np.linalg.qr(z)[0]
        extra = (d - k) // 2
        qa = q[:, : k + extra]
        qb = np.concatenate([q[:, :k], q[:, k + extra : k + 2 * extra]], axis=1)
        a, b = ((m * rng.uniform(0.5, 2.0, m.shape[1])) @ m.conj().T for m in (qa, qb))
        pairs.append((a, b, q[:, :k]))
    return pairs


def test_stacked_helpers_match_single_matrices_bitwise(rng):
    """Common supports of every rank 0..d in one stack, real and complex: each mean keeps
    the bits of its own call, and is the mean of the pair compressed to the common support."""
    for dtype in (float, complex):
        pairs = common_support_stack(rng, 6, dtype)
        a, b = (np.stack(m) for m in zip(*[p[:2] for p in pairs]))
        g = matcore.geometric_mean(a, b)
        assert g.dtype == dtype
        for i, (ai, bi, c) in enumerate(pairs):
            assert np.array_equal(g[i], matcore.geometric_mean(ai, bi))
            ch = c.conj().T
            ref = c @ numpy_geometric_mean(ch @ ai @ c, ch @ bi @ c) @ ch if c.shape[1] else 0 * ai
            assert matcore.hs_norm(g[i] - ref) <= 1e-12 * matcore.hs_norm(ref)
    a = np.stack([random_pd(rng, 4) for _ in range(3)])
    for i in range(3):
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


def numpy_geometric_mean(a, b):
    """a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2} from numpy.linalg alone, a positive definite."""
    w, v = np.linalg.eigh(a)
    root, inv_root = ((v * f(w)) @ v.conj().T for f in (np.sqrt, lambda x: 1.0 / np.sqrt(x)))
    m = inv_root @ b @ inv_root
    wm, vm = np.linalg.eigh(0.5 * (m + m.conj().T))
    return root @ ((vm * np.sqrt(np.clip(wm, 0.0, None))) @ vm.conj().T) @ root


def random_real_pd(rng, d, ridge=0.1):
    m = rng.standard_normal((d, d))
    return m @ m.T / d + ridge * np.eye(d)


@pytest.mark.parametrize("d", [3, 16, 64])
def test_geometric_mean_of_full_supports_matches_the_formula(rng, d):
    for a, b in ((random_real_pd(rng, d), random_real_pd(rng, d)),
                 (random_pd(rng, d), random_pd(rng, d))):
        ref = numpy_geometric_mean(a, b)
        assert matcore.hs_norm(matcore.geometric_mean(a, b) - ref) <= 1e-12 * matcore.hs_norm(ref)


def test_geometric_mean_factorises_full_supports_once(rng, monkeypatch):
    """Full supports: the eigh of a and of b, and the square root's (3); a rank-deficient
    operand adds the eigh of P_A + P_B and of a on the common support (5)."""
    a, b = random_real_pd(rng, 64), random_real_pd(rng, 64)
    calls = _lapack_spy(monkeypatch)
    matcore.geometric_mean(a, b)
    assert calls == [("eigh", (1, 64, 64))] * 3
    calls.clear()
    p = np.diag((np.arange(64) > 0).astype(float))
    matcore.geometric_mean(a, p @ b @ p)
    assert [kernel for kernel, _ in calls] == ["eigh"] * 5


def test_geometric_mean_stack_of_full_and_deficient_supports_keeps_single_call_bits(rng):
    a = np.stack([random_real_pd(rng, 64) for _ in range(4)])
    b = np.stack([random_real_pd(rng, 64) for _ in range(4)])
    v = np.linalg.qr(rng.standard_normal((64, 64)))[0]
    a[1] = (v[:, :40] * rng.uniform(0.5, 2.0, 40)) @ v[:, :40].T  # rank 40
    b[2] = (v[:, 10:] * rng.uniform(0.5, 2.0, 54)) @ v[:, 10:].T  # rank 54
    g = matcore.geometric_mean(a, b)
    for i in range(4):
        assert np.array_equal(g[i], matcore.geometric_mean(a[i], b[i]))
    # the deficient pairs live on the common support
    assert np.linalg.matrix_rank(g[1]) == 40 and np.linalg.matrix_rank(g[2]) == 54



# ------------------------------------------------------- 2 x 2 closed forms

EPS = np.finfo(float).eps


def edge_2x2(rng) -> dict:
    """Named stacks of real 2 x 2 matrices, general (not symmetric)."""
    g = rng.standard_normal((64, 2, 2))
    u, v = rng.standard_normal((2, 16, 2))
    zero = np.zeros((2, 2, 2))
    zero[1] = -0.0
    diagonal = [[1.0, 3.0], [3.0, 1.0], [-1.0, 2.0], [2.0, -1.0], [0.0, 5.0],
                [-5.0, 0.0], [1.0, 1.0], [-2.0, -2.0], [-0.0, 0.0], [1.0, -1.0]]
    equal = [[[a, b], [b, a]] for a in (1.0, -1.0, 0.0, -0.0, 3.0)
             for b in (1e-20, 0.5, -2.0, 1e10)]
    integer_rank_one = [[[1.0, 2.0], [3.0, 6.0]], [[0.0, 1.0], [0.0, 0.0]],
                        [[2.0, -4.0], [-1.0, 2.0]], [[0.0, 0.0], [5.0, 0.0]]]
    # the overlap matrix of the 2-dim singular pair is exactly zero
    s, t = sampling.singular_overlap_car_pair(rng, 2)
    (gs, ys), (gt, yt) = (c.roots for c in (s, t))
    return {
        "random": g,
        "zero": zero,
        "diagonal": np.array([np.diag(d) for d in diagonal]),
        "equal diagonal": np.array(equal),
        "rank one": u[:, :, None] * v[:, None, :],
        "symmetric rank one": u[:, :, None] * u[:, None, :],
        "integer rank one": np.array(integer_rank_one),
        "negative definite": -(g @ g.swapaxes(-1, -2)) - 1e-3 * np.eye(2),
        "singular overlap": (2.0 * (gs @ gt - ys @ yt))[None],
        "scaled 1e150": 1e150 * g,
        "scaled 1e-150": 1e-150 * g,
    }


def _scale(x):
    """Largest |entry| per matrix, within a factor 2 of the norm (no squares:
    1e-150 entries would underflow)."""
    return np.max(np.abs(x), axis=(-2, -1))


# Both routes err by a few eps * ||x|| (LAPACK's complex eigvalsh by up to ~5)
TOL = 8 * EPS
EDGE_FAMILIES = tuple(edge_2x2(np.random.default_rng(0)))


@pytest.mark.parametrize("family", EDGE_FAMILIES)
def test_eigh_2x2_closed_form_matches_lapack(rng, family):
    h = matcore.hermitian_part(edge_2x2(rng)[family])
    w, v = matcore.eigh(h)
    scale = _scale(h)[:, None]
    assert np.all(np.abs(w - np.linalg.eigvalsh(h)) <= TOL * scale)
    assert np.all(w[:, 0] <= w[:, 1])
    unit = np.where(scale > 0, scale, 1.0)[..., None]
    rebuilt = (v * (w[:, None, :] / unit)) @ v.swapaxes(-1, -2)
    assert np.max(np.abs(rebuilt - h / unit)) <= 4 * EPS
    assert np.max(np.abs(v.swapaxes(-1, -2) @ v - np.eye(2))) <= 2 * EPS
    assert np.array_equal(matcore.eigvalsh(h), w)


@pytest.mark.parametrize("family", EDGE_FAMILIES)
def test_svdvals_2x2_closed_form_matches_lapack(rng, family):
    """2 x 2 singular values have no closed form of their own any more: LAPACK's, bit for bit."""
    x = edge_2x2(rng)[family]
    sv = matcore.svdvals(x)
    assert _same_bits(sv, np.linalg.svd(x, compute_uv=False))
    assert np.all(sv[:, 0] >= sv[:, 1]) and np.all(sv >= 0.0)
    if family in ("zero", "singular overlap"):
        assert not sv.any()


def test_eigvalsh_2x2_complex_hermitian_matches_lapack(rng):
    z = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    z = matcore.hermitian_part(z)
    imaginary = z.copy()
    imaginary[:, 0, 1] = 1j * z[:, 0, 1].imag
    imaginary[:, 1, 0] = imaginary[:, 0, 1].conj()
    diagonal = z.copy()
    diagonal[:, 0, 1] = diagonal[:, 1, 0] = 0.0
    for h in (z, imaginary, diagonal, 1e150 * z, 1e-150 * z):
        w = matcore.eigvalsh(h)
        assert w.dtype == np.float64 and np.all(w[:, 0] <= w[:, 1])
        assert np.all(np.abs(w - np.linalg.eigvalsh(h)) <= TOL * _scale(h)[:, None])
    # the real reduction: the spectrum of [[a, |b|], [|b|, c]]
    real = np.abs(z)
    real[:, 0, 0], real[:, 1, 1] = z[:, 0, 0].real, z[:, 1, 1].real
    assert np.all(np.abs(matcore.eigvalsh(z) - matcore.eigvalsh(real)) <= TOL * _scale(z)[:, None])


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_2x2_kernels_give_each_matrix_its_bits_alone(rng):
    edges = np.concatenate(list(edge_2x2(rng).values()))
    x = np.concatenate([edges, rng.standard_normal((1025 - len(edges), 2, 2))])
    h = matcore.hermitian_part(x)
    z = matcore.hermitian_part(x + 1j * rng.standard_normal(x.shape))
    w, v = matcore.eigh(h)
    wz, wr = matcore.eigvalsh(z), matcore.eigvalsh(h)
    for i in range(x.shape[0]):
        wi, vi = matcore.eigh(h[i])
        assert _same_bits(wi, w[i]) and _same_bits(vi, v[i])
        assert _same_bits(matcore.eigvalsh(h[i]), wr[i])
        assert _same_bits(matcore.eigvalsh(z[i]), wz[i])


def test_kernels_call_lapack_off_2x2(rng):
    real = [rng.standard_normal(shape) for shape in ((1, 1), (3, 3), (5, 4, 4), (0, 0))]
    cplx = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    for x in real + [cplx]:
        h = matcore.hermitian_part(x)
        for got, want in zip(matcore.eigh(h), np.linalg.eigh(h)):
            assert _same_bits(got, want)
        assert _same_bits(matcore.svdvals(x), np.linalg.svd(x, compute_uv=False))
    for x in real:
        h = matcore.hermitian_part(x)
        assert _same_bits(matcore.eigvalsh(h), np.linalg.eigvalsh(h))



@seed(20240817)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    arrays(
        np.float64,
        (2, 2),
        elements=st.floats(min_value=-1e100, max_value=1e100, allow_subnormal=False),
    )
)
def test_2x2_closed_forms_match_lapack_hypothesis(x):
    h = matcore.hermitian_part(x)
    w, v = matcore.eigh(h)
    scale = max(float(_scale(h)), np.finfo(float).tiny)
    assert np.all(np.abs(w - np.linalg.eigvalsh(h)) <= TOL * scale)
    assert np.max(np.abs((v * (w / scale)) @ v.T - h / scale)) <= 4 * EPS
    assert np.max(np.abs(v.T @ v - np.eye(2))) <= 2 * EPS


# ---------------------------------------------------------- kernel routing


def _lapack_spy(monkeypatch) -> list:
    """Record (kernel, shape) of every numpy.linalg eigh/eigvalsh/svd/slogdet/det call."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "slogdet", "det"):
        def spy(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("family", [seqmodel.car_power_family(2.0),
                                    seqmodel.ccr_thermal_power_family(2.0),
                                    seqmodel.car_counterexample()],
                         ids=lambda fam: fam.label)
def test_builtin_families_call_no_lapack_kernel(monkeypatch, family):
    calls = _lapack_spy(monkeypatch)
    seqmodel.classify_sequence(family, n_max=64)
    assert calls == []


def test_4x4_literal_family_still_calls_lapack(monkeypatch, rng):
    family = seqmodel.literal_family(seqmodel.CAR, [sampling.random_car_pair(rng, 4)])
    calls = _lapack_spy(monkeypatch)
    seqmodel.classify_sequence(family, n_max=64)
    # a random 4 x 4 pair's overlap is certified nonsingular by its LU alone
    assert {kernel for kernel, _ in calls} == {"eigh", "slogdet"}
    assert all(shape[-2:] == (4, 4) for _, shape in calls)


@pytest.mark.parametrize("module", [car, ccr])
def test_pair_modules_reach_lapack_only_through_matcore(module):
    tree = ast.parse(Path(module.__file__).read_text())
    direct = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh", "svd", "slogdet", "det")
              and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
    direct += [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")]
    assert direct == []


def test_oracles_take_their_spectra_from_numpy(monkeypatch):
    """The oracles check the closed forms, so they must not run through them."""
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called a matcore spectral kernel")

    for name in ("eigh", "eigvalsh", "svdvals", "sqrt_psd"):
        monkeypatch.setattr(matcore, name, refuse)
    rho, tau = (car_oracle.density_from_covariance(car.mu_covariance(mu)) for mu in (0.3, -0.1))
    assert rho.shape == (2, 2)
    car_oracle.overlap(rho, tau)
    car_oracle.fidelity_tr(rho, tau)
    states = [ccr_oracle.gaussian_density(ccr_oracle.thermal_hamiltonian(q), 20)
              for q in (0.2, 0.4)]
    ccr_oracle.overlap_ccr(*states)


# ------------------------------------------------------------ projections


def test_projection_defect():
    assert matcore.projection_defect(np.diag([1.0, 0.0])) == 0.0
    assert matcore.projection_defect(np.diag([0.5, 0.0])) == pytest.approx(0.25)


def test_shape_guards():
    with pytest.raises(ValueError, match="square"):
        matcore.sqrt_psd(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        matcore.geometric_mean(np.eye(2), np.eye(3))
