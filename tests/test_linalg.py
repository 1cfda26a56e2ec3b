"""Tests for the linear-algebra layer.

Reference values are produced by deliberately naive implementations (index
loops, eigenvalue detours) that share no code with the library routines.
"""

import warnings

import numpy as np
import pytest

from qimet import linalg
from qimet.channels import channel_from_json
from qimet.errors import DimensionMismatch, NotHermitian, NotPSD


def _rand_complex(gen, rows, cols):
    return gen.normal(size=(rows, cols)) + 1j * gen.normal(size=(rows, cols))


# ------------------------------------------------------------------
# vectorization
# ------------------------------------------------------------------

def naive_col_vec(mat):
    rows, cols = mat.shape
    v = np.zeros(rows * cols, dtype=complex)
    for c in range(cols):
        for r in range(rows):
            v[c * rows + r] = mat[r, c]
    return v


def test_col_vec_matches_naive_loop():
    gen = linalg.rng(101)
    for rows, cols in [(1, 1), (2, 3), (4, 4), (5, 2)]:
        a = _rand_complex(gen, rows, cols)
        np.testing.assert_array_equal(linalg.col_vec(a), naive_col_vec(a))


def test_col_vec_identity_layout():
    # columns stack in order: identity gives (1,0,0,1)
    np.testing.assert_array_equal(linalg.col_vec(np.eye(2)),
                                  np.array([1.0, 0.0, 0.0, 1.0]))


def test_col_vec_product_identity():
    # col_vec(A B C) == kron(C^T, A) col_vec(B), checked to 1e-12
    gen = linalg.rng(103)
    for da, db, dc, dd in [(2, 2, 2, 2), (3, 2, 4, 2), (5, 3, 2, 6)]:
        a = _rand_complex(gen, da, db)
        b = _rand_complex(gen, db, dc)
        c = _rand_complex(gen, dc, dd)
        lhs = linalg.col_vec(a @ b @ c)
        rhs = linalg.kron(c.T, a) @ linalg.col_vec(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_col_vec_inner_product_is_hs_inner_product():
    gen = linalg.rng(104)
    for dim in [2, 3, 5]:
        a = _rand_complex(gen, dim, dim)
        b = _rand_complex(gen, dim, dim)
        lhs = np.vdot(linalg.col_vec(a), linalg.col_vec(b))
        rhs = np.trace(a.conj().T @ b)
        assert abs(lhs - rhs) < 1e-12


# ------------------------------------------------------------------
# norms
# ------------------------------------------------------------------

def eig_route_trace_norm(mat):
    # sum of sqrt eigenvalues of the smaller Gram factor -- no SVD involved
    # (the smaller factor is full rank for generic inputs, keeping the sqrt
    # numerically sharp)
    rows, cols = mat.shape
    gram = mat.conj().T @ mat if cols <= rows else mat @ mat.conj().T
    vals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    return float(np.sum(np.sqrt(np.maximum(vals, 0.0))))


def test_trace_norm_matches_eigenvalue_route():
    gen = linalg.rng(110)
    for rows, cols in [(2, 2), (3, 3), (4, 2), (2, 6), (8, 8)]:
        a = _rand_complex(gen, rows, cols)
        assert abs(linalg.trace_norm(a) - eig_route_trace_norm(a)) < 1e-10


def test_trace_norm_hermitian_is_abs_eigenvalue_sum():
    gen = linalg.rng(111)
    a = linalg.hermitize(_rand_complex(gen, 6, 6))
    expected = float(np.sum(np.abs(np.linalg.eigvalsh(a))))
    assert abs(linalg.trace_norm(a) - expected) < 1e-10


def test_numerical_rank():
    gen = linalg.rng(113)
    u, _ = np.linalg.qr(_rand_complex(gen, 6, 6))
    v, _ = np.linalg.qr(_rand_complex(gen, 6, 6))
    s = np.array([3.0, 1.0, 0.5, 1e-3, 0.0, 0.0])
    a = (u * s) @ v.conj().T
    assert linalg.numerical_rank(a) == 4
    assert linalg.numerical_rank(np.zeros((3, 3))) == 0


# ------------------------------------------------------------------
# Hermitian / PSD
# ------------------------------------------------------------------

def test_herm_eig_rejects_non_hermitian():
    # the eigendecomposition behind psd_sqrt and check_density checks
    # shape, finiteness and Hermiticity
    non_hermitian = np.array([[0.0, 1.0], [0.0, 0.0]])
    for call in (linalg.psd_sqrt, linalg.check_density):
        with pytest.raises(NotHermitian):
            call(non_hermitian)
        with pytest.raises(DimensionMismatch):
            call(np.zeros((2, 3)))
    # the square check comes before the size comparison, which would index
    # the shape of a 0-d input
    with pytest.raises(DimensionMismatch):
        linalg.check_density(1.0, 1)
    # NaN fails every "deviation > tol" comparison, so it is rejected first
    nan = np.array([[1.0, 0.0], [0.0, np.nan]])
    for call in (linalg.psd_sqrt, linalg.check_density):
        with pytest.raises(ValueError, match="finite"):
            call(nan)


def test_checked_hermitian_stays_finite_where_the_sum_overflows():
    # A + A† overflows near the float maximum; the Hermitian part does not,
    # and a ChoiMatrix once stored the inf after NumPy RuntimeWarnings
    big = np.array([[1e308, 1e308 + 1e308j], [1e308 - 1e308j, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        herm = linalg._checked_hermitian(big)
    assert np.array_equal(herm, big)
    # elsewhere it is hermitize(A), bit for bit
    gen = linalg.rng(121)
    for scale in (1e-300, 1.0, 1e300):
        a = _rand_complex(gen, 5, 5) * scale
        a = a + a.conj().T
        a[0, 1] += 1e-11  # nearly Hermitian at scale 1
        assert np.array_equal(linalg._checked_hermitian(a),
                              linalg.hermitize(a))


def test_herm_eig_reconstructs():
    gen = linalg.rng(120)
    g = _rand_complex(gen, 7, 7)
    a = g @ g.conj().T
    vals, vecs = linalg._clamped_psd_eig(a)
    np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, a, atol=1e-12)
    assert np.all(np.diff(vals) >= 0.0)


def test_psd_sqrt_squares_back():
    gen = linalg.rng(121)
    for dim in [2, 4, 9]:
        g = _rand_complex(gen, dim, dim)
        a = g @ g.conj().T
        r = linalg.psd_sqrt(a)
        np.testing.assert_allclose(r @ r, a, atol=1e-10 * max(1, np.abs(a).max()))
        # the root itself is Hermitian PSD
        assert np.max(np.abs(r - r.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(r).min() > -1e-12


def test_psd_sqrt_clamps_roundoff_negatives():
    a = np.diag([1.0, -1e-12])
    r = linalg.psd_sqrt(a)
    np.testing.assert_allclose(r, np.diag([1.0, 0.0]), atol=1e-6)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        linalg.psd_sqrt(np.diag([1.0, -1e-3]))


# ------------------------------------------------------------------
# partial trace
# ------------------------------------------------------------------

def naive_partial_trace_first(mat, d1, d2):
    # keep the first factor of kron(A, B) layout by explicit index loops
    out = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for k in range(d2):
                out[i, j] += mat[i * d2 + k, j * d2 + k]
    return out


def naive_partial_trace_second(mat, d1, d2):
    out = np.zeros((d2, d2), dtype=complex)
    for i in range(d2):
        for j in range(d2):
            for k in range(d1):
                out[i, j] += mat[k * d2 + i, k * d2 + j]
    return out


def test_partial_trace_matches_naive_loops():
    gen = linalg.rng(130)
    for d1, d2 in [(2, 2), (2, 3), (3, 4)]:
        m = _rand_complex(gen, d1 * d2, d1 * d2)
        np.testing.assert_allclose(linalg.partial_trace(m, [d1, d2], [0]),
                                   naive_partial_trace_first(m, d1, d2),
                                   atol=1e-13)
        np.testing.assert_allclose(linalg.partial_trace(m, [d1, d2], [1]),
                                   naive_partial_trace_second(m, d1, d2),
                                   atol=1e-13)


def test_partial_trace_of_kron_factorizes():
    gen = linalg.rng(131)
    a = _rand_complex(gen, 3, 3)
    b = _rand_complex(gen, 2, 2)
    m = linalg.kron(a, b)
    np.testing.assert_allclose(linalg.partial_trace(m, [3, 2], [0]),
                               a * np.trace(b), atol=1e-12)
    np.testing.assert_allclose(linalg.partial_trace(m, [3, 2], [1]),
                               b * np.trace(a), atol=1e-12)


def test_partial_trace_three_factors():
    gen = linalg.rng(132)
    a = _rand_complex(gen, 2, 2)
    b = _rand_complex(gen, 3, 3)
    c = _rand_complex(gen, 2, 2)
    m = linalg.kron(linalg.kron(a, b), c)
    np.testing.assert_allclose(
        linalg.partial_trace(m, [2, 3, 2], [1]),
        b * np.trace(a) * np.trace(c), atol=1e-12)
    np.testing.assert_allclose(
        linalg.partial_trace(m, [2, 3, 2], [0, 2]),
        linalg.kron(a, c) * np.trace(b), atol=1e-12)


def test_partial_trace_keep_all_and_none():
    gen = linalg.rng(133)
    m = _rand_complex(gen, 6, 6)
    np.testing.assert_array_equal(linalg.partial_trace(m, [2, 3], [0, 1]), m)
    np.testing.assert_allclose(linalg.partial_trace(m, [2, 3], []),
                               np.array([[np.trace(m)]]), atol=1e-13)


def test_partial_trace_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.partial_trace(np.zeros((4, 4)), [2, 3], [0])


# ------------------------------------------------------------------
# states
# ------------------------------------------------------------------

def test_check_density_accepts_valid():
    gen = linalg.rng(140)
    rho = linalg.random_density(4, gen)
    linalg.check_density(rho)


def test_check_density_rejects_bad_trace():
    with pytest.raises(ValueError):
        linalg.check_density(np.diag([0.7, 0.7]))


def test_check_density_rejects_negative():
    with pytest.raises(NotPSD):
        linalg.check_density(np.diag([1.1, -0.1]))


def test_check_density_returns_its_decomposition():
    # the state as a complex array and the clamped eigendecomposition of the
    # PSD check, which reconstructs it; a rank-1 state's roundoff negatives
    # are clamped to zero
    gen = linalg.rng(141)
    v = linalg.random_pure_states(4, 1, gen)[0]
    rho = np.outer(v, v.conj())
    out, vals, vecs = linalg.check_density(rho, 4)
    assert out.dtype == complex
    np.testing.assert_array_equal(out, rho)
    assert np.all(vals >= 0.0) and np.all(np.diff(vals) >= 0.0)
    np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, rho, atol=1e-12)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-12)
    assert abs(vals[-1] - 1.0) < 1e-12


def test_random_pure_and_density_reproducible():
    v1 = linalg.random_pure_states(3, 1, linalg.rng(7))[0]
    v2 = linalg.random_pure_states(3, 1, linalg.rng(7))[0]
    np.testing.assert_array_equal(v1, v2)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-12
    r1 = linalg.random_density(3, linalg.rng(8))
    r2 = linalg.random_density(3, linalg.rng(8))
    np.testing.assert_array_equal(r1, r2)


def test_random_pure_states_match_sequential_normalized_draws():
    # row k has the same bits whatever the count, so a search over more
    # random starts only ever adds candidates
    for dim in (1, 2, 4, 9):
        gen = linalg.rng(9 + dim)
        raw = [gen.normal(size=dim) + 1j * gen.normal(size=dim)
               for _ in range(12)]
        ref = np.array([v / np.linalg.norm(v) for v in raw])
        for count in (0, 1, 5, 12):
            rows = linalg.random_pure_states(dim, count, linalg.rng(9 + dim))
            np.testing.assert_array_equal(rows, ref[:count])


# ------------------------------------------------------------------
# serialization
# ------------------------------------------------------------------

def test_matrix_json_roundtrip_exact():
    gen = linalg.rng(150)
    a = _rand_complex(gen, 3, 4)
    obj = linalg.matrix_to_json(a)
    np.testing.assert_array_equal(linalg.matrix_from_json(obj), a)


def test_matrix_json_roundtrip_through_text():
    import json
    gen = linalg.rng(151)
    a = _rand_complex(gen, 2, 2)
    text = json.dumps(linalg.matrix_to_json(a))
    np.testing.assert_array_equal(linalg.matrix_from_json(json.loads(text)), a)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"rows": 2, "cols": 2, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"rows": 2})
    # an integer beyond the float range raised OverflowError; nan and inf
    # decode, and the KrausChannel constructor refuses them
    for bad in [float("nan"), float("inf"), 10 ** 400, -10 ** 400]:
        for entries in ({"re": [[1.0, bad]], "im": [[0.0, 0.0]]},
                        {"re": [[1.0, 0.0]], "im": [[bad, 0.0]]}):
            obj = {"rows": 1, "cols": 2, **entries}
            with pytest.raises(ValueError, match="finite"):
                channel_from_json({"dim_in": 2, "dim_out": 1, "kraus": [obj]})


@pytest.mark.parametrize("bad", [4.9, 2.0, "2", True])
def test_matrix_from_json_rejects_non_integer_sizes(bad):
    # sizes are JSON integers; a float or string used to be truncated
    obj = {"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, 1.0]],
           "im": [[0.0, 0.0], [0.0, 0.0]]}
    for key in ("rows", "cols"):
        with pytest.raises(ValueError, match="malformed matrix object"):
            linalg.matrix_from_json({**obj, key: bad})


@pytest.mark.parametrize("bad", ["1.0", True, False, None, [1.0]])
def test_matrix_from_json_rejects_non_number_entries(bad):
    # entries are JSON numbers; "1.0" and [[false]] used to decode
    for part in ("re", "im"):
        obj = {"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, 1.0]],
               "im": [[0.0, 0.0], [0, 0]]}
        obj[part][1][1] = bad
        with pytest.raises(ValueError, match="malformed matrix object"):
            linalg.matrix_from_json(obj)
    with pytest.raises(ValueError, match="malformed matrix object"):
        linalg.matrix_from_json({"rows": 1, "cols": 1, "re": [[1.0]],
                                 "im": bad})
