import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qimet.channels import (ChoiMatrix, choi_from_kraus, identity_channel,
                            nu_lambda, random_stochastic_channel,
                            weyl_operators)
from qimet.errors import (DimensionMismatch, DimensionTooLarge, NotHermitian,
                          QimetError, Unconverged)
from qimet.instruments import (branch_differences, expand_nonuniform,
                               full_channel, ideal_instrument,
                               random_general_implementation)
from qimet.linalg import (col_vec, hermitize, partial_trace, random_density,
                          rng, trace_norm)
from qimet.metrics import nonuniform_outcome_diamond
from qimet.oracle import (DiamondNormResult, _adjoint, _certificates,
                          _cholesky, _cholesky_inverse, _hillclimb, _lifted,
                          _newton_solver, _nt_scaling, _scaled_eigvalsh,
                          _second_order, _solve_sdp, _step_scale,
                          diamond_lower_hillclimb, diamond_norm,
                          result_to_json)
from qimet.verify import shipped_counterexample_model


def random_hermitian_choi(dim_in, dim_out, seed, scale=1.0):
    gen = rng(seed)
    side = dim_in * dim_out
    a = gen.normal(size=(side, side)) + 1j * gen.normal(size=(side, side))
    return ChoiMatrix(dim_in, dim_out, scale * hermitize(a + a.conj().T) / side)


def output_rotated(choi, seed=7):
    """``(I ⊗ U) C (I ⊗ U)†`` for a seeded Haar unitary ``U`` on the output:
    the same diamond norm, with every output coupled to every other."""
    gen = rng(seed)
    d = choi.dim_out
    q, r = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    u = np.kron(np.eye(choi.dim_in), q * (np.diagonal(r) / abs(np.diagonal(r))))
    return ChoiMatrix(choi.dim_in, d, u @ choi.matrix @ u.conj().T)


def unitary_difference(dim, a, b):
    ju = choi_from_kraus(identity_channel(dim))
    v = weyl_operators(dim)[a * dim + b].reshape(-1, order="F")
    jv = ChoiMatrix(dim, dim, np.outer(v, v.conj()) / dim)
    return ChoiMatrix(dim, dim, ju.matrix - jv.matrix)


# ------------------------------------------------------------------
# solver fundamentals
# ------------------------------------------------------------------

def test_zero_map(monkeypatch):
    # every output is its own sector; the zero stack is never solved
    stacks = solved_stacks(monkeypatch)
    for dims in ((2, 2), (3, 4)):
        zero = ChoiMatrix(*dims, np.zeros((dims[0] * dims[1],) * 2))
        assert diamond_norm(zero) == DiamondNormResult(0.0, 0.0, 0.0, 0.0, 0)
    assert not stacks


def test_unitary_distance_is_two():
    for dim in (2, 3):
        res = diamond_norm(unitary_difference(dim, 1, 0), tol=1e-7)
        assert abs(res.value - 2.0) < 1e-7
        assert res.gap <= 1e-7


def test_stochastic_closed_form_qubit():
    from qimet.channels import StochasticChannel
    t = StochasticChannel(2, 1.0, {(0, 0): 0.9, (1, 0): 0.1})
    delta = ChoiMatrix(2, 2, t.choi().matrix
                       - choi_from_kraus(identity_channel(2)).matrix)
    res = diamond_norm(delta, tol=1e-8)
    assert abs(res.value - 0.2) < 1e-8


def test_stochastic_closed_form_random():
    ji2 = choi_from_kraus(identity_channel(2))
    ji3 = choi_from_kraus(identity_channel(3))
    for i in range(10):
        dim = 2 + i % 2
        t = random_stochastic_channel(dim, nu=0.2 + 0.08 * i, seed=800 + i)
        nu, lam = nu_lambda(t)
        ji = ji2 if dim == 2 else ji3
        delta = ChoiMatrix(dim, dim, t.choi().matrix - ji.matrix)
        res = diamond_norm(delta, tol=1e-7)
        closed = 2.0 * ((1.0 + nu) / 2.0 - nu * lam)
        assert abs(res.value - closed) < 1e-6


def test_scalar_input_side_is_trace_norm():
    # dim_in = 1: the diamond norm reduces to the trace norm of the block
    delta = random_hermitian_choi(1, 3, seed=5)
    res = diamond_norm(delta, tol=1e-8)
    assert abs(res.value - trace_norm(delta.matrix)) < 1e-7
    # diagonal: every output is its own sector of side 1
    diag = np.array([0.5, -0.25, 0.125, -0.0625])
    res = diamond_norm(ChoiMatrix(1, 4, np.diag(diag)))
    assert res.value == res.primal_bound == res.dual_bound == np.abs(diag).sum()


def test_solves_a_map_at_the_side_limit():
    delta = random_hermitian_choi(12, 12, seed=3)
    res = diamond_norm(delta, tol=1e-7)
    assert res.gap <= 1e-7


def test_wide_map_at_the_input_limit_keeps_a_bracket():
    # 24 x 6 sits exactly at MAX_WOODBURY_ENTRIES; two iterations suffice to
    # show it runs and certifies a bracket
    delta = random_hermitian_choi(24, 6, seed=3)
    with pytest.raises(Unconverged) as info:
        diamond_norm(delta, tol=1e-7, max_iterations=2)
    partial = info.value.result
    assert partial.primal_bound <= partial.dual_bound


def test_one_by_one():
    res = diamond_norm(ChoiMatrix(1, 1, np.array([[-0.7]])))
    assert res.value == pytest.approx(0.7)
    assert res.gap == 0.0


# ------------------------------------------------------------------
# certification
# ------------------------------------------------------------------

def test_certified_bracket_and_gap():
    for i in range(6):
        delta = random_hermitian_choi(2, 3, seed=30 + i)
        res = diamond_norm(delta, tol=1e-7)
        assert res.primal_bound <= res.value <= res.dual_bound
        assert res.gap == res.dual_bound - res.primal_bound
        assert res.gap <= 1e-7
        assert res.iterations > 0


def test_homogeneity():
    delta = random_hermitian_choi(2, 2, seed=44)
    base = diamond_norm(delta, tol=1e-8).value
    for c in (0.5, 2.0):
        scaled = diamond_norm(ChoiMatrix(2, 2, c * delta.matrix), tol=1e-8)
        assert abs(scaled.value - c * base) < 1e-7


def test_triangle_inequality():
    for i in range(4):
        d1 = random_hermitian_choi(2, 2, seed=90 + i)
        d2 = random_hermitian_choi(2, 2, seed=190 + i)
        v1 = diamond_norm(d1, tol=1e-7).value
        v2 = diamond_norm(d2, tol=1e-7).value
        total = ChoiMatrix(2, 2, d1.matrix + d2.matrix)
        v12 = diamond_norm(total, tol=1e-7).value
        assert v12 <= v1 + v2 + 2e-7


def test_choi_trace_norm_is_a_lower_bound():
    # the maximally entangled probe gives ||Delta||_dia >= ||J||_1, so the
    # certified lower bound must dominate it up to the gap
    delta = random_hermitian_choi(3, 2, seed=77)
    res = diamond_norm(delta, tol=1e-7)
    assert res.primal_bound >= trace_norm(delta.matrix) - 1e-6


def test_unconverged_keeps_valid_bounds():
    delta = random_hermitian_choi(3, 3, seed=61)
    with pytest.raises(Unconverged) as info:
        diamond_norm(delta, tol=1e-9, max_iterations=3)
    partial = info.value.result
    assert partial.gap > 1e-9
    assert partial.iterations == 3
    assert "max_iterations" in str(info.value)
    full = diamond_norm(delta, tol=1e-7)
    assert partial.primal_bound <= full.value + 1e-9
    assert full.value <= partial.dual_bound + 1e-9


def test_zero_iterations_return_the_starting_bracket():
    # the start Y = 1.25 I, Z3 = I / dim_in certifies ||J||_1 from below and
    # min(1.25 dim_out ||C||_2, ||C||_1) from above, with C = dim_in J
    delta = random_hermitian_choi(2, 3, seed=62)
    c = 2 * delta.matrix
    with pytest.raises(Unconverged) as info:
        diamond_norm(delta, tol=1e-7, max_iterations=0)
    start = info.value.result
    assert start.iterations == 0
    assert start.primal_bound == pytest.approx(trace_norm(delta.matrix),
                                               rel=1e-12)
    assert start.dual_bound == pytest.approx(
        min(1.25 * 3 * np.linalg.norm(c, 2), trace_norm(c)), rel=1e-12)


def test_rejects_bad_max_iterations():
    # a negative count used to act as 0
    # True used to run one iteration and serialize "iterations": true
    for bad in (-1, 2.5, "3", True, False):
        with pytest.raises(ValueError):
            diamond_norm(random_hermitian_choi(2, 2, seed=63), tol=1e-7,
                         max_iterations=bad)
    with pytest.raises(Unconverged) as info:  # NumPy integers still count
        diamond_norm(random_hermitian_choi(2, 2, seed=63), tol=1e-7,
                     max_iterations=np.int64(0))
    assert info.value.result.iterations == 0


def test_failed_factorization_counts_the_interrupted_iteration(monkeypatch):
    # the third Newton factorization fails after two steps; that stop
    # counts as iteration 3
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("forced")
        return _newton_solver(*args)

    monkeypatch.setattr("qimet.oracle._newton_solver", failing)
    with pytest.raises(Unconverged) as info:
        diamond_norm(random_hermitian_choi(2, 2, seed=64), tol=1e-7)
    assert info.value.result.iterations == 3
    assert "linalg_error" in str(info.value)


def test_dimension_cap():
    # side 145 exceeds MAX_CHOI_SIDE; 36 x 4 is side 144 but its Woodbury
    # factor exceeds MAX_WOODBURY_ENTRIES
    for dim_in, dim_out in ((29, 5), (36, 4)):
        side = dim_in * dim_out
        with pytest.raises(DimensionTooLarge):
            diamond_norm(ChoiMatrix(dim_in, dim_out, np.eye(side) / side))
    # four side-144 blocks at dim_in 12 (a D=4, E=3 instrument) sit at the
    # Woodbury limit, and a fifth block exceeds it
    block = ChoiMatrix(12, 12, np.eye(144) / 144)
    with pytest.raises(DimensionTooLarge, match="5 block"):
        diamond_norm([block] * 5)


@pytest.mark.parametrize("bad", [
    [], (), np.eye(4) / 2, [np.eye(4) / 2], "choi", None,
    [ChoiMatrix(2, 2, np.eye(4) / 4), np.eye(4) / 4],
    [ChoiMatrix(2, 2, np.eye(4) / 4), ChoiMatrix(4, 1, np.eye(4) / 4)],
    [ChoiMatrix(2, 2, np.eye(4) / 4), ChoiMatrix(2, 3, np.eye(6) / 6)],
])
def test_rejects_anything_but_choi_blocks_of_one_shape(bad):
    # a bare ndarray used to fail with an AttributeError on dim_in
    with pytest.raises(DimensionMismatch, match="ChoiMatrix blocks"):
        diamond_norm(bad)
    assert issubclass(DimensionMismatch, QimetError)


def test_one_block_list_is_the_single_map():
    delta = random_hermitian_choi(2, 3, seed=66)
    assert diamond_norm([delta], tol=1e-7) == diamond_norm(delta, tol=1e-7)
    assert diamond_norm((delta,), tol=1e-7) == diamond_norm(delta, tol=1e-7)


def test_non_hermitian_rejected_at_the_type():
    # the ChoiMatrix type is the solver's Hermiticity guard
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        ChoiMatrix(2, 2, mat)


def factored_matrices(monkeypatch):
    """Every matrix the solver Cholesky-factorizes, one per slack, dual,
    pencil or capacitance: each slice of a stack passed to ``_cholesky``."""
    factored = []

    def spy(m):
        factored.extend(m.reshape(-1, *m.shape[-2:]))
        return _cholesky(m)

    monkeypatch.setattr("qimet.oracle._cholesky", spy)
    return factored


def scaled_duals(monkeypatch):
    """The dual ``Z`` of every Nesterov-Todd scaling, one per cone family:
    the input block ``Z3`` of every iterate, then the ``(2, B, n, n)`` stack
    ``Z1_j, Z2_j`` of every iterate that steps."""
    duals = []

    def spy(s, z):
        duals.append(z)
        return _nt_scaling(s, z)

    monkeypatch.setattr("qimet.oracle._nt_scaling", spy)
    return duals


def test_iterates_stay_exactly_hermitian(monkeypatch):
    # every slack and dual the solver factorizes or scales, in every block,
    # is exactly Hermitian, though only products are symmetrized; the input
    # carries a 1e-12 asymmetry
    factored = factored_matrices(monkeypatch)
    duals = scaled_duals(monkeypatch)
    gen = rng(165)
    for blocks in (1, 3):
        delta = []
        for k in range(blocks):
            skew = 1e-12 * (gen.normal(size=(6, 6))
                            + 1j * gen.normal(size=(6, 6)))
            delta.append(ChoiMatrix(
                2, 3, random_hermitian_choi(2, 3, 165 + k).matrix + skew))
        factored.clear()
        duals.clear()
        result = diamond_norm(delta, tol=1e-8)
        assert result.gap <= 1e-8
        # per iterate, the start and the converged one included, the slacks
        # Y_j ∓ C_j and the dual Z3 of the input block's scaling; per Newton
        # step the duals Z1_j, Z2_j of the block scaling, the B pencils
        # W1_j + W2_j and the one capacitance I + H
        steps = result.iterations
        assert len(factored) == ((2 * blocks + 1) * (steps + 1)
                                 + (3 * blocks + 1) * steps)
        assert len(duals) == 2 * steps + 1
        for m in [*factored, *duals]:
            assert np.array_equal(m, _adjoint(m))


def test_converged_iterate_scales_no_block_stack(monkeypatch):
    # the bounds and the stop test need only the slack Cholesky and the
    # input block's scaling; the block stack is scaled by iterates that step
    duals = scaled_duals(monkeypatch)
    for delta in (random_hermitian_choi(2, 3, seed=166), instrument_blocks(1)):
        duals.clear()
        result = diamond_norm(delta, tol=1e-7)
        # Z3, then the (2, B, n, n) stack, per step; Z3 alone at the end
        assert result.iterations > 0
        assert [z.ndim for z in duals] == [2, 4] * result.iterations + [2]


def test_rejects_bad_tolerance():
    for tol in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            diamond_norm(ChoiMatrix(2, 2, np.eye(4) / 2), tol=tol,
                         max_iterations=3)


def test_result_json_roundtrip():
    res = diamond_norm(unitary_difference(2, 0, 1), tol=1e-7)
    obj = result_to_json(res)
    assert set(obj) == {"value", "primal_bound", "dual_bound", "gap",
                        "iterations"}
    assert obj["value"] == res.value


# ------------------------------------------------------------------
# interior-point helpers against dense references
# ------------------------------------------------------------------

def random_pd(side, cond, gen):
    a = gen.normal(size=(side, side)) + 1j * gen.normal(size=(side, side))
    q, _ = np.linalg.qr(a)
    return hermitize((q * np.logspace(0.0, -np.log10(cond), side))
                     @ q.conj().T)


def dense_newton_system(w1s, w2s, w3, dim_in, dim_out):
    """The complex (B n**2 + 1) Newton matrix on ``(col_vec(dY_1), ...,
    col_vec(dY_B), dt)``: block-diagonal Kronecker terms, and the
    partial-trace term and ``G`` shared by every pair of blocks."""
    n, blocks = dim_in * dim_out, len(w1s)
    traced = np.stack([col_vec(partial_trace(e.reshape(n, n, order="F"),
                                             [dim_in, dim_out], [0]))
                       for e in np.eye(n * n)], axis=1)
    g = np.tile(col_vec(np.kron(w3 @ w3, np.eye(dim_out))), blocks)
    m = np.empty((blocks * n * n + 1, blocks * n * n + 1), dtype=complex)
    m[:-1, :-1] = (scipy.linalg.block_diag(*(np.kron(w1.T, w1)
                                             + np.kron(w2.T, w2)
                                             for w1, w2 in zip(w1s, w2s)))
                   + np.kron(np.ones((blocks, blocks)), traced.conj().T
                             @ np.kron(w3.T, w3) @ traced))
    m[:-1, -1] = -g
    m[-1, :-1] = -g.conj()
    m[-1, -1] = np.trace(w3 @ w3)
    return m


@pytest.mark.parametrize("dim_in, dim_out", [(2, 2), (2, 3), (3, 3)])
def test_newton_solve_matches_dense_system(dim_in, dim_out):
    # with several blocks the partial trace couples them through sum_j dY_j
    n = dim_in * dim_out
    gen = rng(1000 + n)
    for blocks, cond in itertools.product((1, 2, 3), (1.0, 1e2, 1e4)):
        w1 = np.stack([random_pd(n, cond, gen) for _ in range(blocks)])
        w2 = np.stack([random_pd(n, cond, gen) for _ in range(blocks)])
        w3 = random_pd(dim_in, cond, gen)
        r_y = np.stack([random_hermitian_choi(dim_in, dim_out, seed=n + k)
                        .matrix for k in range(blocks)])
        r_t = float(gen.normal())
        # any factors with W = M M†; the system is the one they give
        m = np.linalg.cholesky(np.stack([w1, w2]))
        m3 = np.linalg.cholesky(w3)
        w1, w2 = hermitize(m @ _adjoint(m))
        w3 = hermitize(m3 @ _adjoint(m3))
        solve = _newton_solver(m, m3, dim_in, dim_out)
        dense = dense_newton_system(w1, w2, w3, dim_in, dim_out)
        ref = np.linalg.solve(dense, np.append(col_vec(np.hstack(r_y)), r_t))
        dy, dt = solve(r_y, r_t)
        ref_dy = ref[:-1].reshape(blocks, n, n).transpose(0, 2, 1)
        assert dy.shape == (blocks, n, n)
        assert np.linalg.norm(dy - ref_dy) <= 1e-9 * np.linalg.norm(ref_dy)
        assert abs(dt - ref[-1]) <= 1e-9 * abs(ref[-1])
        # r_y = None is the zero right-hand side of the affine predictor
        ref = np.linalg.solve(dense, np.append(np.zeros(blocks * n * n), r_t))
        dy, dt = solve(None, r_t)
        ref_dy = ref[:-1].reshape(blocks, n, n).transpose(0, 2, 1)
        assert np.linalg.norm(dy - ref_dy) <= 1e-9 * np.linalg.norm(ref_dy)
        assert abs(dt - ref[-1]) <= 1e-9 * abs(ref[-1])


def test_singular_pencil_stops_without_nan():
    # W1 + W2 = I with W2 = diag(1, 0): the pencil eigenvalues are exactly 0
    # and 1, so (1-λp)(1-λq) + λp λq is 0 for p != q; the factorization raises
    # instead of dividing by zero (a rounded λ just outside [0, 1] made the
    # sum negative and its square root NaN)
    m = np.stack([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError, match="pencil"):
        _newton_solver(m[:, None], np.eye(2, dtype=complex), 2, 1)


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
def test_nt_scaling_maps_z_to_s(cond):
    gen = rng(2000)
    for side in (2, 6, 24):
        s, z = random_pd(side, cond, gen), random_pd(side, cond, gen)
        m, mh, _ = _nt_scaling(s, z)
        w_inv = m @ mh
        assert (np.linalg.norm(w_inv @ s @ w_inv - z)
                <= 1e-9 * np.linalg.norm(z))
        assert np.array_equal(mh, m.conj().T)


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
def test_nt_scaling_point_is_diagonal(cond):
    # M maps S and Z to the same point diag(v): M† S M = diag(v) and
    # Z = M diag(v) M†
    gen = rng(2100)
    for side in (2, 6, 24):
        s, z = random_pd(side, cond, gen), random_pd(side, cond, gen)
        m, _, v = _nt_scaling(s, z)
        assert (np.linalg.norm(m.conj().T @ s @ m - np.diag(v))
                <= 1e-9 * np.linalg.norm(v))
        assert (np.linalg.norm((m * v) @ m.conj().T - z)
                <= 1e-9 * np.linalg.norm(z))


def test_nt_scaling_rejects_a_pair_off_the_cone():
    # a dual that is not positive definite has no Cholesky factor, and a
    # slack that is not has a nonpositive NT eigenvalue
    pd = random_pd(4, 10.0, rng(2150))
    for bad in (np.diag([1.0, 1.0, 1.0, -1e-3]).astype(complex),
                np.zeros((4, 4), dtype=complex)):
        for s, z in ((pd, bad), (bad, pd)):
            with pytest.raises(np.linalg.LinAlgError):
                _nt_scaling(s, z)


def random_scaled_pair(side, cond, gen):
    """``(S, Z)``, their scaling ``(M, M†, v)`` and a Hermitian ``dS``."""
    s, z = random_pd(side, cond, gen), random_pd(side, cond, gen)
    a = gen.normal(size=(side, side)) + 1j * gen.normal(size=(side, side))
    return s, z, _nt_scaling(s, z), hermitize(a)


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
def test_second_order_term_solves_the_scaled_lyapunov_equation(cond):
    # diag(v) X + X diag(v) = D_x D_z + D_z D_x, X exactly Hermitian
    gen = rng(2200)
    for side in (2, 6, 24):
        _, _, (_, _, v), d_x = random_scaled_pair(side, cond, gen)
        d_z = random_hermitian_choi(1, side, side).matrix
        x = _second_order(v, d_x, d_z)
        assert np.array_equal(x, x.conj().T)
        rhs = d_x @ d_z + d_z @ d_x
        assert (np.linalg.norm(v[:, None] * x + x * v - rhs)
                <= 1e-9 * np.linalg.norm(rhs))


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
def test_predictor_dual_direction_in_the_scaled_frame(cond):
    # the affine direction dZ = -Z - W⁻¹ dS W⁻¹, W⁻¹ = M M†, is, in the
    # scaled frame, D_z = M⁻¹ dZ M⁻† = -diag(v) - M† dS M, with no product
    # of its own
    gen = rng(2300)
    for side in (2, 6, 24):
        _, z, (m, mh, v), ds = random_scaled_pair(side, cond, gen)
        w_inv = m @ mh
        d_z = -np.diag(v) - mh @ ds @ m
        m_inv = np.linalg.inv(m)
        ref = m_inv @ (-z - w_inv @ ds @ w_inv) @ m_inv.conj().T
        assert np.linalg.norm(d_z - ref) <= 1e-12 * np.linalg.norm(ref)


def test_cholesky_inverse_factors_and_inverts():
    gen = rng(2500)
    for side in (1, 3, 8):
        m = random_pd(side, 1e3, gen)
        chol, chol_inv = _cholesky(m), _cholesky_inverse(m)
        np.testing.assert_allclose(chol @ chol.conj().T, m, atol=1e-12)
        np.testing.assert_allclose(chol_inv @ chol, np.eye(side), atol=1e-9)
        assert not np.triu(chol, 1).any() and not np.triu(chol_inv, 1).any()
    # a stack factors slice by slice
    stack = np.stack([random_pd(6, 1e3, gen) for _ in range(3)])
    for m, c_inv in zip(stack, _cholesky_inverse(stack)):
        assert np.array_equal(c_inv, _cholesky_inverse(m))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cholesky_rejects_non_finite_entries(bad):
    # LAPACK factors a NaN or +inf entry without an error and returns a
    # factor that is not finite; the helpers raise instead
    for pos in ((1, 1), (2, 0)):
        m = np.eye(3, dtype=complex)
        m[pos] = m[pos[::-1]] = bad
        for helper in (_cholesky, _cholesky_inverse):
            with pytest.raises(np.linalg.LinAlgError):
                helper(m)


def test_cholesky_inverse_rejects_indefinite():
    for m in (np.diag([1.0, -1e-3]).astype(complex),
              np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex),
              np.zeros((3, 3), dtype=complex)):
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_inverse(m)


@pytest.mark.parametrize("dims", [(2, 2), (2, 5), (4, 3), (3, 1)])
def test_lower_certificate_matches_kron_form(dims):
    # the factor Ψ = diag(√v) M† of Z3 = M diag(v) M† gives the value at
    # rho = Z3 / tr Z3, here against (sqrt(rho) ⊗ I) C (sqrt(rho) ⊗ I) with
    # sqrt(rho) from eigh
    dim_in, dim_out = dims
    gen = rng(2600 + dim_in * dim_out)
    c = random_hermitian_choi(dim_in, dim_out, 2700 + dim_in).matrix
    rho = random_density(dim_in, gen)
    _, mh3, v3 = _nt_scaling(random_pd(dim_in, 1e2, gen), 3.0 * rho)
    lower, _ = _certificates(c, np.eye(dim_in), mh3, v3)
    w, u = np.linalg.eigh(rho)
    g = np.kron((u * np.sqrt(w)) @ u.conj().T, np.eye(dim_out))
    assert abs(lower - trace_norm(g @ c @ g)) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_any_factor_gives_a_lower_bound(dims):
    dim_in, dim_out = dims
    delta = random_hermitian_choi(dim_in, dim_out, 2800 + dim_in * dim_out)
    c = dim_in * delta.matrix
    dual_bound = diamond_norm(delta, tol=1e-7).dual_bound
    gen = rng(2900 + dim_in * dim_out)
    psis = (gen.normal(size=(20, dim_in, dim_in))
            + 1j * gen.normal(size=(20, dim_in, dim_in)))
    psis[:5] = psis[:5, :, :1] * psis[:5, :1, :]  # rank one
    lifted = _lifted(c, psis)
    for psi, omega in zip(psis, lifted):
        lift = np.kron(psi, np.eye(dim_out))
        assert np.abs(omega - lift @ c @ lift.conj().T).max() <= 1e-12
        value = trace_norm(omega) / np.linalg.norm(psi) ** 2
        assert value <= dual_bound + 1e-9


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
def test_max_step_is_the_generalized_eigenvalue_bound(cond):
    # the scaled step bound on D_x = M† dS M, -1 / lambda_min(V^{-1/2} D_x
    # V^{-1/2}), is -1 / lambda_min(S⁻¹ dS)
    gen = rng(3000)

    def least(v, m, d):
        return _scaled_eigvalsh(_step_scale(v), m.conj().T @ d @ m).min()

    for side in (2, 6, 24):
        s, _, (m, _, v), d = random_scaled_pair(side, cond, gen)
        ref = -1.0 / scipy.linalg.eigh(d, s, eigvals_only=True).min()
        assert -1.0 / least(v, m, d) == pytest.approx(ref, rel=1e-9)
        # a positive semidefinite direction never leaves the cone
        assert least(v, m, d @ d) >= -1e-14
        assert least(v, m, np.zeros((side, side))) == 0.0
        # a stacked pair gives the tighter of the two bounds
        s2, _, (m2, _, v2), d2 = random_scaled_pair(side, cond, gen)
        ref2 = -1.0 / scipy.linalg.eigh(d2, s2, eigvals_only=True).min()
        pair = np.stack([m.conj().T @ d @ m, m2.conj().T @ d2 @ m2])
        assert -1.0 / _scaled_eigvalsh(_step_scale(np.stack([v, v2])),
                                       pair).min() == (
            pytest.approx(min(ref, ref2), rel=1e-9))


# ------------------------------------------------------------------
# Mehrotra predictor-corrector
# ------------------------------------------------------------------

def instrument_delta(seed):
    impl = random_general_implementation(2, 2, seed)
    return (choi_from_kraus(full_channel(impl))
            - choi_from_kraus(full_channel(ideal_instrument(2, 2))))


def instrument_blocks(seed):
    """The same instrument's error as its two side-16 outcome blocks."""
    impl = random_general_implementation(2, 2, seed)
    return [ChoiMatrix(4, 4, b) for b in branch_differences(impl)]


def test_corrector_converges_in_few_iterations():
    # a side-32 instrument delta took 22 iterations with the centering-only
    # corrector; the second-order term halves that, as its two side-16
    # outcome blocks (given, or split from the full delta) or as one dense
    # side-32 matrix (the full delta with its outputs rotated together)
    for delta in (instrument_delta(1), instrument_blocks(1),
                  output_rotated(instrument_delta(1))):
        res = diamond_norm(delta, tol=1e-7)
        assert res.gap <= 1e-7
        assert res.iterations <= 12


@pytest.mark.parametrize("seed", [1, 5])
def test_iterates_stay_dual_feasible(monkeypatch, seed):
    # the corrector's targets enter every dual direction; each dual iterate
    # must keep Z1_j + Z2_j = Z3 ⊗ I in every block j and tr Z3 = 1
    duals = scaled_duals(monkeypatch)
    blocks = instrument_blocks(seed)
    result = diamond_norm(blocks, tol=1e-7)
    assert len(duals) == 2 * result.iterations + 1
    assert abs(np.trace(duals[-1]) - 1.0) < 1e-7
    for z3, (z1, z2) in zip(duals[::2], duals[1::2]):
        assert z1.shape == z2.shape == (len(blocks), 16, 16)
        lifted = np.kron(z3, np.eye(len(z1[0]) // len(z3)))  # Z3 ⊗ I
        for z1_j, z2_j in zip(z1, z2):
            assert np.abs(z1_j + z2_j - lifted).max() < 1e-7
        assert abs(np.trace(z3) - 1.0) < 1e-7


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_instrument_blocks_converge_at_a_tight_tolerance(dims):
    # tol 1e-9 on the outcome blocks of a general instrument; a pencil built
    # from the NT factors instead of from W1 + W2, or the dual updated as
    # r - Z - W⁻¹ dS W⁻¹ in the original frame, stops short on linalg_error
    D, E = dims
    impl = random_general_implementation(D, E, 0)
    blocks = [ChoiMatrix(D * E, D * E, b) for b in branch_differences(impl)]
    res = diamond_norm(blocks, tol=1e-9)
    assert res.gap <= 1e-9
    assert res.iterations <= 20


def test_memory_before_each_newton_build_stays_flat(monkeypatch):
    # a step's directions, targets and Newton factor are freed with the
    # step, so the memory held just before each Newton build does not grow
    # from iterate to iterate; it grew by about five (2, B, n, n) stacks
    # while the previous step's directions and targets stayed bound
    held = []

    def spy(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return _newton_solver(*args)

    monkeypatch.setattr("qimet.oracle._newton_solver", spy)
    blocks = [random_hermitian_choi(6, 6, seed=71 + k) for k in range(2)]
    tracemalloc.start()
    try:
        result = diamond_norm(blocks, tol=1e-7)
    finally:
        tracemalloc.stop()
    assert len(held) == result.iterations >= 3
    stack = 2 * len(blocks) * 36 ** 2 * 16  # bytes of one (2, B, n, n) stack
    assert max(held) - min(held) < stack


def corrupted_solver(seed, size):
    """``_newton_solver`` whose every ``dY`` carries a seeded Hermitian
    perturbation of the given relative size."""
    gen = rng(seed)

    def factorize(*args):
        solve = _newton_solver(*args)

        def corrupted(r_y, r_t):
            dy, dt = solve(r_y, r_t)
            noise = hermitize(gen.normal(size=dy.shape)
                              + 1j * gen.normal(size=dy.shape))
            return dy + size * np.linalg.norm(dy) / np.linalg.norm(
                noise) * noise, dt

        return corrupted

    return factorize


@pytest.mark.parametrize("size", [1e-8, 1e-6, 1e-3, 1.0])
def test_corrupted_newton_direction_never_certifies_a_wrong_value(
        monkeypatch, size):
    # the bounds come from exactly feasible points, not from the direction:
    # a wrong direction may slow or stop the solve, but every bracket it
    # certifies still holds the clean value
    cases = [random_hermitian_choi(2, 3, seed=67), instrument_blocks(2)]
    clean = [diamond_norm(delta, tol=1e-9) for delta in cases]
    monkeypatch.setattr("qimet.oracle._newton_solver",
                        corrupted_solver(68, size))
    for delta, ref in zip(cases, clean):
        try:
            res = diamond_norm(delta, tol=1e-9, max_iterations=40)
        except Unconverged as err:
            res = err.result
            assert res.primal_bound <= ref.value + 1e-9
            assert ref.value <= res.dual_bound + 1e-9
        else:
            assert_brackets_overlap(res, ref)


@pytest.mark.parametrize("part", ["dy", "dt"])
def test_nan_direction_stops_the_solve_where_it_arises(monkeypatch, part):
    # a NaN in the third Newton solve's dY or dt stops the step from iterate
    # 2, as iteration 3, before any iterate takes the NaN, and the bracket
    # certified so far holds the clean value
    delta = random_hermitian_choi(2, 3, seed=69)
    clean = diamond_norm(delta, tol=1e-9)
    calls = []

    def factorize(*args):
        calls.append(None)
        solve = _newton_solver(*args)
        if len(calls) < 3:
            return solve

        def poisoned(r_y, r_t):
            dy, dt = solve(r_y, r_t)
            return (dy * np.nan, dt) if part == "dy" else (dy, np.nan)

        return poisoned

    monkeypatch.setattr("qimet.oracle._newton_solver", factorize)
    with pytest.raises(Unconverged, match="linalg_error") as info:
        diamond_norm(delta, tol=1e-9)
    res = info.value.result
    assert res.iterations == 3
    assert res.primal_bound <= clean.value + 1e-9
    assert clean.value <= res.dual_bound + 1e-9


@pytest.mark.parametrize("call", [9, 10, 12])
def test_nan_step_bound_stops_the_solve_where_it_arises(monkeypatch, call):
    # eigvalsh may return NaN for a NaN entry instead of raising, and
    # min(1, -tau / nan) is a full step; iteration 2's step bounds are calls
    # 9-10 (predictor) and 11-12 (corrector), one per cone family
    delta = random_hermitian_choi(2, 3, seed=69)
    clean = diamond_norm(delta, tol=1e-9)
    calls = []

    def poisoned(scale, d):
        calls.append(None)
        lam = _scaled_eigvalsh(scale, d)
        if len(calls) == call:
            lam[..., 0] = np.nan
        return lam

    monkeypatch.setattr("qimet.oracle._scaled_eigvalsh", poisoned)
    with pytest.raises(Unconverged, match="linalg_error") as info:
        diamond_norm(delta, tol=1e-9)
    res = info.value.result
    assert res.iterations == 3
    assert res.primal_bound <= clean.value + 1e-9
    assert clean.value <= res.dual_bound + 1e-9


# ------------------------------------------------------------------
# output sectors
# ------------------------------------------------------------------

def solved_stacks(monkeypatch):
    """The ``(B, n, n)`` stack of every ``_solve_sdp`` call."""
    stacks = []

    def spy(c, *args):
        stacks.append(c)
        return _solve_sdp(c, *args)

    monkeypatch.setattr("qimet.oracle._solve_sdp", spy)
    return stacks


def assert_brackets_overlap(a, b):
    assert a.primal_bound <= b.dual_bound + 1e-9
    assert b.primal_bound <= a.dual_bound + 1e-9


def test_instrument_delta_solves_as_its_outcome_blocks(monkeypatch):
    # the outcome is the fastest output index, so the two sectors interleave
    stacks = solved_stacks(monkeypatch)
    full = diamond_norm(instrument_delta(5), tol=1e-7)
    assert stacks[-1].shape == (2, 16, 16)
    assert_brackets_overlap(full, diamond_norm(instrument_blocks(5), tol=1e-7))
    dense = diamond_norm(output_rotated(instrument_delta(5)), tol=1e-7)
    assert stacks[-1].shape == (1, 32, 32)
    assert_brackets_overlap(full, dense)


def test_random_map_is_one_sector(monkeypatch):
    stacks = solved_stacks(monkeypatch)
    diamond_norm(random_hermitian_choi(4, 6, seed=0), tol=1e-7)
    assert stacks[0].shape == (1, 24, 24)


def sectored_choi(dim_in, sectors, seed):
    """A random Hermitian Choi matrix whose output ``o`` couples only to the
    outputs of its own sector, ``sectors[o]``."""
    dim_out = len(sectors)
    mat = random_hermitian_choi(dim_in, dim_out, seed).matrix.reshape(
        dim_in, dim_out, dim_in, dim_out)
    keep = np.equal.outer(sectors, sectors)
    return ChoiMatrix(dim_in, dim_out, (mat * keep[None, :, None]).reshape(
        dim_in * dim_out, -1))


def test_unequal_sectors_do_not_split(monkeypatch):
    stacks = solved_stacks(monkeypatch)
    delta = sectored_choi(2, [0, 0, 1], seed=3)
    result = diamond_norm(delta, tol=1e-7)
    assert stacks[0].shape == (1, 6, 6)
    assert_brackets_overlap(result, diamond_norm(output_rotated(delta),
                                                 tol=1e-7))


@pytest.mark.parametrize("patterns, shape", [
    # sectors {0,1}, {2,3} in both: two blocks each
    (([0, 0, 1, 1], [0, 0, 1, 2]), (4, 4, 4)),
    # {0,2}, {1,3} and {0,1}, {2,3}: together they couple every output
    (([0, 1, 0, 1], [0, 0, 1, 1]), (2, 8, 8)),
])
def test_block_list_splits_along_the_common_partition(monkeypatch, patterns,
                                                      shape):
    stacks = solved_stacks(monkeypatch)
    blocks = [sectored_choi(2, p, seed) for seed, p in enumerate(patterns)]
    result = diamond_norm(blocks, tol=1e-7)
    assert stacks[0].shape == shape
    dense = diamond_norm([output_rotated(b) for b in blocks], tol=1e-7)
    assert stacks[1].shape == (2, 8, 8)
    assert_brackets_overlap(result, dense)


def test_untouched_outputs_and_zero_blocks_are_dropped(monkeypatch):
    # the shipped counterexample's branch 0 is exactly zero, and branch 1
    # touches only outputs 1 and 3: one side-8 block is left to solve
    stacks = solved_stacks(monkeypatch)
    model = shipped_counterexample_model()
    blocks = [ChoiMatrix(4, 4, b)
              for b in branch_differences(expand_nonuniform(model))]
    result = diamond_norm(blocks, tol=1e-7)
    assert stacks[-1].shape == (1, 8, 8)
    assert abs(result.value - nonuniform_outcome_diamond(model)) <= 1e-7
    dense = diamond_norm([output_rotated(b) for b in blocks], tol=1e-7)
    assert stacks[-1].shape == (1, 16, 16)
    assert_brackets_overlap(result, dense)


def test_limits_apply_before_the_split():
    # a (3,3) full delta would split into three side-81 blocks, within the
    # limits, but its side 243 as given exceeds MAX_CHOI_SIDE
    impl = random_general_implementation(3, 3, 0)
    delta = (choi_from_kraus(full_channel(impl))
             - choi_from_kraus(full_channel(ideal_instrument(3, 3))))
    assert delta.matrix.shape == (243, 243)
    with pytest.raises(DimensionTooLarge, match="243"):
        diamond_norm(delta)


# ------------------------------------------------------------------
# hill-climbing lower bound
# ------------------------------------------------------------------

def test_hillclimb_zero_map():
    assert diamond_lower_hillclimb(ChoiMatrix(2, 2, np.zeros((4, 4)))) == 0.0


def test_hillclimb_reaches_unitary_distance():
    for (a, b) in ((1, 0), (0, 1), (1, 1)):
        val = diamond_lower_hillclimb(unitary_difference(2, a, b),
                                      restarts=50, seed=1)
        assert abs(val - 2.0) < 1e-3
        assert val <= 2.0 + 1e-9


def test_hillclimb_below_dual_bound():
    for i in range(5):
        delta = random_hermitian_choi(2, 2, seed=400 + i)
        res = diamond_norm(delta, tol=1e-7)
        val = diamond_lower_hillclimb(delta, restarts=20, seed=i)
        assert val <= res.dual_bound + 1e-9


def test_hillclimb_monotone_and_deterministic():
    delta = random_hermitian_choi(2, 3, seed=15)
    vals = [diamond_lower_hillclimb(delta, restarts=r, seed=9)
            for r in (1, 2, 5, 12)]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    assert diamond_lower_hillclimb(delta, restarts=12, seed=9) == vals[-1]


def test_hillclimb_state_is_consistent():
    delta = random_hermitian_choi(2, 2, seed=23)
    val, psi = _hillclimb(delta, restarts=10, seed=4)
    assert psi.shape == (4,)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    # recompute the objective at psi: (I ⊗ Delta)(psi psi†) applies
    # Delta(X) = dim_in Tr_in[(X^T ⊗ I) J] to each reference block of psi psi†
    rho = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2)
    omega = np.block([[2 * partial_trace(np.kron(rho[s, :, r].T, np.eye(2))
                                         @ delta.matrix, [2, 2], [1])
                       for r in range(2)] for s in range(2)])
    assert abs(trace_norm(omega) - val) < 1e-10


def test_hillclimb_rejects_bad_restarts():
    with pytest.raises(ValueError):
        diamond_lower_hillclimb(ChoiMatrix(2, 2, np.eye(4) / 2), restarts=0)


@pytest.mark.parametrize("bad", [2.5, True])
def test_hillclimb_restarts_must_be_an_integer(bad):
    # 2.5 escaped as a NumPy TypeError, and True ran one restart
    with pytest.raises(ValueError, match="integer"):
        diamond_lower_hillclimb(ChoiMatrix(2, 2, np.eye(4) / 2), restarts=bad)


@pytest.mark.parametrize("bad", [np.eye(4) / 2,
                                 [ChoiMatrix(2, 2, np.eye(4) / 4)]])
def test_hillclimb_rejects_anything_but_a_choi_matrix(bad):
    # an ndarray or a list used to fail with an AttributeError on dim_in
    with pytest.raises(DimensionMismatch, match="ChoiMatrix"):
        diamond_lower_hillclimb(bad)
