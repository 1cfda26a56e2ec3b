"""Tests for channel representations and stochastic mixtures."""

import json

import numpy as np
import pytest

from qimet import channels as ch
from qimet import linalg
from qimet.config import TOL
from qimet.errors import (DimensionMismatch, InvalidModel, NotHermitian,
                          UnsupportedDimension)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def _assert_trace_preserving(channel):
    total = sum(k.conj().T @ k for k in channel.kraus_ops)
    np.testing.assert_allclose(total, np.eye(channel.dim_in), atol=1e-12)


def _random_kraus_set(gen, dim_in, dim_out, count):
    """Trace-preserving channel from a random isometry split into blocks."""
    g = gen.normal(size=(dim_out * count, dim_in)) \
        + 1j * gen.normal(size=(dim_out * count, dim_in))
    q, _ = np.linalg.qr(g)
    return tuple(q[i * dim_out:(i + 1) * dim_out, :] for i in range(count))


# ------------------------------------------------------------------
# Kraus / Choi basics
# ------------------------------------------------------------------

def test_identity_choi_is_maximally_entangled():
    for dim in [2, 3, 4]:
        choi = ch.StochasticChannel(dim, 1.0, {(0, 0): 1.0}).choi()
        v = np.eye(dim).reshape(-1, order="F")  # column-stacked identity
        np.testing.assert_allclose(choi.matrix, np.outer(v, v) / dim,
                                   atol=1e-14)
        assert abs(choi.matrix.trace().real - 1.0) < 1e-14


def test_choi_trace_one_for_trace_preserving():
    gen = linalg.rng(201)
    for dim_in, dim_out, count in [(2, 2, 3), (3, 2, 2), (2, 4, 5)]:
        kraus = _random_kraus_set(gen, dim_in, dim_out, count)
        channel = ch.KrausChannel(dim_in, dim_out, kraus)
        _assert_trace_preserving(channel)
        choi = ch.choi_from_kraus(channel)
        assert abs(choi.matrix.trace().real - 1.0) < 1e-12


def test_kraus_rank_counts_independent_operators():
    gen = linalg.rng(203)
    for dim, count in [(2, 1), (2, 3), (3, 5), (4, 2)]:
        channel = ch.KrausChannel(dim, dim,
                                  _random_kraus_set(gen, dim, dim, count))
        assert ch.kraus_rank(channel) == count
        # redundant operators don't raise the rank
        padded = ch.KrausChannel(
            dim, dim,
            tuple(k / np.sqrt(2) for k in channel.kraus_ops) * 2)
        assert ch.kraus_rank(padded) == count


def test_choi_matches_sum_of_outer_products():
    # rank 1, rank above the Choi side, and non-square operators
    gen = linalg.rng(204)
    for dim_in, dim_out, rank in [(3, 3, 1), (2, 2, 7), (2, 3, 4), (4, 2, 3)]:
        ops = gen.normal(size=(rank, dim_out, dim_in)) \
            + 1j * gen.normal(size=(rank, dim_out, dim_in))
        vecs = [k.reshape(-1, order="F") for k in ops]
        want = sum(np.outer(v, v.conj()) for v in vecs) / dim_in
        choi = ch.choi_from_kraus(ch.KrausChannel(dim_in, dim_out, ops))
        np.testing.assert_allclose(choi.matrix, want, rtol=0, atol=1e-14)


def test_kraus_ops_stored_as_one_read_only_array():
    channel = ch.KrausChannel(2, 2, [X, Z])
    ops = channel.kraus_ops
    assert isinstance(ops, np.ndarray)
    assert ops.shape == (2, 2, 2)
    assert ops.dtype == complex
    assert not ops.flags.writeable
    with pytest.raises(ValueError):
        ops[0, 0, 0] = 5.0
    np.testing.assert_array_equal(ops[1], Z)
    # a stacked array is accepted as it is
    again = ch.KrausChannel(2, 2, ops)
    np.testing.assert_array_equal(again.kraus_ops, ops)


@pytest.mark.parametrize("dtype", [complex, float])
def test_kraus_channel_copies_a_stacked_array(dtype):
    # the 81 operators of a (3,3) expanded branch: the channel keeps a
    # read-only copy, so writing to the source leaves it unchanged
    source = np.random.default_rng(5).normal(size=(81, 9, 9)).astype(dtype)
    channel = ch.KrausChannel(9, 9, source)
    kept = channel.kraus_ops.copy()
    source[0, 0, 0] = 99.0
    np.testing.assert_array_equal(channel.kraus_ops, kept)
    assert channel.kraus_ops.dtype == complex
    assert not channel.kraus_ops.flags.writeable
    assert not np.shares_memory(channel.kraus_ops, source)


@pytest.mark.parametrize("bad", [
    [[["1", "0"], ["0", "1"]]], [[[None, 0], [0, 1]]],
    [np.eye(2, dtype=object)]])
def test_kraus_channel_refuses_strings_and_objects(bad):
    # the complex cast is same_kind: strings and objects are not read as
    # numbers
    with pytest.raises(TypeError, match="same_kind"):
        ch.KrausChannel(2, 2, bad)


def test_kraus_channel_rejects_ragged_and_empty_sets():
    with pytest.raises(DimensionMismatch):
        ch.KrausChannel(2, 2, [X, np.eye(3)])
    with pytest.raises(DimensionMismatch):
        ch.KrausChannel(2, 2, [X, np.eye(2)[:1]])
    with pytest.raises(DimensionMismatch):
        ch.KrausChannel(2, 2, [])
    with pytest.raises(DimensionMismatch):
        ch.KrausChannel(2, 2, np.zeros((0, 2, 2)))
    with pytest.raises(DimensionMismatch):
        ch.KrausChannel(2, 3, [X])


@pytest.mark.parametrize("dim_in, dim_out",
                         [(2.0, 2), (2, 2.0), (True, 1), (1, True)])
def test_channel_dimensions_must_be_integers(dim_in, dim_out):
    # a float or bool dimension used to construct, and the oracle then
    # failed on it with a bare TypeError from np.eye
    side = int(dim_in * dim_out)
    with pytest.raises(DimensionMismatch, match="integers"):
        ch.ChoiMatrix(dim_in, dim_out, np.eye(side) / side)
    with pytest.raises(DimensionMismatch, match="integers"):
        ch.KrausChannel(dim_in, dim_out,
                        [np.eye(int(dim_out), int(dim_in))])


def test_channel_dimensions_accept_numpy_integers():
    two = np.int64(2)
    assert ch.ChoiMatrix(two, 1, np.eye(2) / 2).dim_in == 2
    assert ch.KrausChannel(two, two, [X]).dim_out == 2


def test_numpy_integer_dimensions_are_stored_as_int_and_serialize():
    # NumPy integer dimensions used to be stored as they came, and json
    # then refused to encode them
    two = np.int64(2)
    choi = ch.ChoiMatrix(two, np.int32(1), np.eye(2) / 2)
    kraus = ch.KrausChannel(two, two, [X])
    stochastic = ch.StochasticChannel(two, 1.0, {(0, 0): 1.0})
    for dim in (choi.dim_in, choi.dim_out, kraus.dim_in, kraus.dim_out,
                stochastic.dim):
        assert type(dim) is int
    json.dumps(ch.choi_to_json(choi))
    json.dumps(ch.channel_to_json(kraus))
    json.dumps(ch.stochastic_to_json(stochastic))


@pytest.mark.parametrize("bad", [2.0, True, "2", 0, -1])
def test_stochastic_dimension_must_be_a_positive_integer(bad):
    # a float or bool dimension used to construct, and kraus_ops() then
    # failed with a bare TypeError
    with pytest.raises(UnsupportedDimension, match="integer"):
        ch.StochasticChannel(bad, 1.0, {(0, 0): 1.0})


def test_stochastic_dimension_is_bounded():
    # a 200-level channel used to construct, and its Kraus operators then
    # asked for a 25.6 GB Weyl basis
    for dim in (6, 200, 10 ** 400):
        with pytest.raises(UnsupportedDimension, match="up to 5"):
            ch.StochasticChannel(dim, 1.0, {(0, 0): 1.0})
    assert len(ch.StochasticChannel(5, 1.0, {(4, 4): 1.0}).kraus_ops()) == 1


def test_choi_reproduces_action_via_partial_trace():
    # E(rho) = dim_in * Tr_in[ (rho^T ⊗ I) J ]
    gen = linalg.rng(205)
    channel = ch.KrausChannel(2, 3, _random_kraus_set(gen, 2, 3, 2))
    choi = ch.choi_from_kraus(channel)
    rho = linalg.random_density(2, gen)
    lifted = linalg.kron(rho.T, np.eye(3)) @ choi.matrix
    recovered = 2 * linalg.partial_trace(lifted, [2, 3], [1])
    np.testing.assert_allclose(recovered, channel.apply(rho), atol=1e-12)


def test_choi_matrix_validates():
    with pytest.raises(NotHermitian):
        ch.ChoiMatrix(2, 1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        ch.ChoiMatrix(2, 2, np.eye(3))
    with pytest.raises(DimensionMismatch):
        ch.ChoiMatrix(0, 3, np.zeros((0, 0)))
    for bad in (np.nan, np.inf):
        m = np.eye(4) / 4
        m[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ch.ChoiMatrix(2, 2, m)


def test_choi_matrix_stores_exactly_hermitian_part():
    def exactly_hermitian(m):
        return np.array_equal(m, m.conj().T)

    gen = linalg.rng(206)
    g = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
    base = (g + g.conj().T) / 12
    skewed = base + 1e-12 * (gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6)))
    stored = ch.ChoiMatrix(2, 3, skewed).matrix
    assert exactly_hermitian(stored)
    assert not stored.flags.writeable
    np.testing.assert_array_equal(stored, linalg.hermitize(skewed))
    with pytest.raises(NotHermitian):
        ch.ChoiMatrix(2, 3, base + 2 * TOL.herm * np.triu(np.ones((6, 6)), 1))
    chois = [ch.choi_from_kraus(ch.KrausChannel(
        dim_in, dim_out, _random_kraus_set(gen, dim_in, dim_out, rank)))
        for dim_in, dim_out, rank in [(2, 3, 2), (3, 3, 4), (4, 2, 9)]]
    for choi in chois:
        assert exactly_hermitian(choi.matrix)
    other = ch.choi_from_kraus(ch.KrausChannel(
        3, 3, _random_kraus_set(gen, 3, 3, 2)))
    assert exactly_hermitian((chois[1] - other).matrix)


def test_choi_difference_arithmetic():
    a = ch.StochasticChannel(2, 1.0, {(0, 0): 1.0}).choi()
    b = ch.choi_from_kraus(ch.KrausChannel(2, 2, (X,)))
    delta = a - b
    np.testing.assert_allclose(delta.matrix, a.matrix - b.matrix)
    with pytest.raises(DimensionMismatch):
        a - ch.StochasticChannel(3, 1.0, {(0, 0): 1.0}).choi()


# ------------------------------------------------------------------
# shift-and-phase basis
# ------------------------------------------------------------------

def test_weyl_operators_qubit():
    ops = ch.weyl_operators(2)  # U_(a,b) at index 2a + b
    np.testing.assert_array_equal(ops[0], np.eye(2))
    np.testing.assert_array_equal(ops[2], X)
    np.testing.assert_allclose(ops[1], Z, atol=1e-15)
    np.testing.assert_allclose(ops[3], X @ Z, atol=1e-15)


def test_weyl_operators_orthogonal_unitary():
    for dim in [1, 2, 3, 4]:
        ops = ch.weyl_operators(dim)
        assert ops.shape == (dim * dim, dim, dim)
        shift = np.roll(np.eye(dim), 1, axis=0)
        phase = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
        for a in range(dim):  # index a * dim + b holds X^a Z^b
            for b in range(dim):
                np.testing.assert_allclose(
                    ops[a * dim + b], np.linalg.matrix_power(shift, a)
                    @ np.linalg.matrix_power(phase, b), atol=1e-13)
        np.testing.assert_allclose(ops @ ops.conj().swapaxes(1, 2),
                                   np.broadcast_to(np.eye(dim), ops.shape),
                                   atol=1e-13)
        gram = np.einsum("kij,lij->kl", ops.conj(), ops)  # trace(U_k† U_l)
        np.testing.assert_allclose(gram, dim * np.eye(dim * dim), atol=1e-12)


def test_weyl_operators_cached_and_read_only():
    ops = ch.weyl_operators(3)
    assert ops is ch.weyl_operators(3)
    assert not ops.flags.writeable
    with pytest.raises(ValueError):
        ops[0, 0, 0] = 2.0
    with pytest.raises(UnsupportedDimension):
        ch.weyl_operators(0)


@pytest.mark.parametrize("bad, cached", [(2.0, np.int64(2)), (True, 1),
                                         (3.0, None)])
def test_weyl_dimension_is_checked_before_the_cache(bad, cached):
    # the cache takes 2.0 for the key np.int64(2) and True for 1, so 2.0
    # returned the qubit basis once it was built and raised a bare
    # TypeError in a fresh process
    if cached is not None:
        ch.weyl_operators(cached)
    with pytest.raises(UnsupportedDimension, match="integer"):
        ch.weyl_operators(bad)
    assert ch.weyl_operators(np.int64(3)) is ch.weyl_operators(3)


# ------------------------------------------------------------------
# stochastic channels
# ------------------------------------------------------------------

def test_stochastic_kraus_ops_bit_identical_to_weighted_basis():
    for dim in (1, 2, 3, 4):
        basis = ch.weyl_operators(dim)
        for seed in range(5):
            t = ch.random_stochastic_channel(dim, 0.4 + 0.15 * seed, seed)
            ref = np.array([np.sqrt(w) * basis[a * dim + b]
                            for (a, b), w in t.weights.items() if w > 0.0])
            got = t.kraus_ops()
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
    sparse = ch.StochasticChannel(3, 0.5, {(2, 1): 0.5, (0, 2): 0.0})
    assert (sparse.kraus_ops().tobytes()
            == (np.sqrt(0.5) * ch.weyl_operators(3)[7]).tobytes())
    assert ch.StochasticChannel(2, 0.0, {}).kraus_ops().shape == (0, 2, 2)


def test_stochastic_channel_basics():
    t = ch.StochasticChannel(2, 1.0, {(0, 0): 0.9, (1, 0): 0.1})
    _assert_trace_preserving(t.as_channel())
    choi = t.choi()
    assert abs(choi.matrix.trace().real - 1.0) < 1e-14
    nu, lam = ch.nu_lambda(t)
    assert abs(nu - 1.0) < 1e-12
    assert abs(lam - 0.9) < 1e-12


def test_from_weights_reads_a_one_shot_iterable():
    # the pairs are read once, so a generator gives the same channel as a
    # dict; it used to be consumed by the sum, leaving nu = 0.5 and no
    # weights
    pairs = {(0, 0): 0.25, (1, 1): 0.5}
    t = ch.StochasticChannel.from_weights(2, (item for item in pairs.items()))
    assert t == ch.StochasticChannel.from_weights(2, pairs)
    assert t.nu == 0.75


def test_stochastic_channel_subnormalized():
    t = ch.StochasticChannel.from_weights(3, {(0, 0): 0.3, (2, 1): 0.2})
    assert abs(t.nu - 0.5) < 1e-15
    nu, lam = ch.nu_lambda(t)
    assert abs(nu - 0.5) < 1e-12
    assert abs(lam - 0.6) < 1e-12
    assert abs(t.choi().matrix.trace().real - 0.5) < 1e-12


def test_stochastic_zero_channel_lambda_convention():
    t = ch.StochasticChannel(2, 0.0, {})
    nu, lam = ch.nu_lambda(t)
    assert nu == 0.0
    assert lam == 1.0
    # no Kraus operators: as_channel stands in one zero operator
    assert len(t.kraus_ops()) == 0
    choi = t.choi()
    assert (choi.dim_in, choi.dim_out) == (2, 2)
    np.testing.assert_array_equal(choi.matrix, np.zeros((4, 4)))


def test_stochastic_small_channel_lambda_is_its_identity_share():
    # nu = 1e-9 is small but not zero, so lambda = w_(0,0)/nu = 0; only
    # nu == 0 takes the lambda = 1 convention
    nu, lam = ch.nu_lambda(ch.StochasticChannel(2, 1e-9, {(0, 1): 1e-9}))
    assert nu == 1e-9
    assert nu * lam == 0.0


def test_stochastic_channel_validation():
    with pytest.raises(InvalidModel):
        ch.StochasticChannel(2, 1.0, {(0, 0): 0.5})  # sum != nu
    with pytest.raises(InvalidModel):
        ch.StochasticChannel(2, 0.5, {(0, 0): 0.7, (1, 1): -0.2})
    with pytest.raises(InvalidModel):
        ch.StochasticChannel(2, 1.0, {(0, 2): 1.0})  # label out of range
    with pytest.raises(InvalidModel, match="duplicate"):
        ch.StochasticChannel(2, 1.0, [((0, 0), 0.5), ((0, 0), 0.5)])
    # NaN passes every "abs(x - y) > tol" check, so it is rejected up front
    for nu, weight in [(np.nan, 0.5), (0.5, np.nan), (np.inf, np.inf)]:
        with pytest.raises(InvalidModel, match="finite"):
            ch.StochasticChannel(2, nu, {(0, 0): 0.5, (1, 1): weight})


@pytest.mark.parametrize("bad", [
    "1.0", True, np.bool_(True), 1 + 0j, None, [1.0],
    pytest.param(10 ** 400, id="1e400"), pytest.param(-10 ** 400, id="-1e400"),
    pytest.param(10 ** 5000, id="1e5000")])
def test_stochastic_channel_rejects_non_real_numbers(bad):
    # a string or bool weight was converted by float(), and nu="1.0" or an
    # int beyond the float range escaped as a bare TypeError from np.isfinite
    with pytest.raises(InvalidModel, match="finite real number"):
        ch.StochasticChannel(2, 1.0, {(0, 0): bad})
    with pytest.raises(InvalidModel, match="finite real number"):
        ch.StochasticChannel(2, bad, {(0, 0): 1.0})
    # the two other entry points that take weights or nu follow the rule
    with pytest.raises(InvalidModel, match="finite real number"):
        ch.StochasticChannel.from_weights(2, {(0, 0): bad})
    with pytest.raises(InvalidModel, match="finite real number"):
        ch.random_stochastic_channel(2, bad, seed=0)


def test_stochastic_from_json_reads_huge_integers_as_inf():
    # an int beyond the float range reads as the float literal 1e400 does
    obj = {"dim": 2, "nu": 1.0, "weights": [{"a": 0, "b": 0, "w": 1.0}]}
    for big, shown in ((10 ** 400, "inf"), (-10 ** 400, "-inf")):
        for bad in ({**obj, "nu": big},
                    {**obj, "weights": [{"a": 0, "b": 0, "w": big}]}):
            with pytest.raises(InvalidModel,
                               match=f"finite real number: {shown}$"):
                ch.stochastic_from_json(bad)


def test_stochastic_channel_stores_numpy_reals_as_float():
    t = ch.StochasticChannel(2, np.float32(1.0), {(0, 0): np.int64(1)})
    assert (type(t.nu), type(t.weights[(0, 0)])) == (float, float)
    assert json.loads(json.dumps(ch.stochastic_to_json(t)))["nu"] == 1.0


def test_identity_vector_is_choi_eigenvector():
    # col_vec(I) is an eigenvector of the Choi matrix with eigenvalue
    # nu * lambda -- the invariant behind the closed-form extraction
    gen = linalg.rng(210)
    for trial in range(20):
        dim = int(gen.integers(1, 5))
        t = ch.random_stochastic_channel(dim, float(gen.uniform(0.1, 1.0)),
                                         seed=300 + trial)
        v = linalg.col_vec(np.eye(dim))
        nu, lam = ch.nu_lambda(t)
        resid = t.choi().matrix @ v - (nu * lam) * v
        assert np.max(np.abs(resid)) < 1e-12


def test_nu_lambda_matches_stored_weights():
    # reference: nu is the Choi trace, nu * lambda = <vec I| J |vec I> / dim
    gen = linalg.rng(211)
    for trial in range(50):
        dim = int(gen.integers(1, 5))
        nu_in = float(gen.uniform(0.0, 1.0))
        t = ch.random_stochastic_channel(dim, nu_in, seed=400 + trial)
        nu, lam = ch.nu_lambda(t)
        choi = t.choi().matrix
        v = linalg.col_vec(np.eye(dim))
        assert abs(nu - nu_in) < 1e-10
        assert abs(nu - choi.trace().real) < 1e-14
        assert abs(nu * lam - (v @ choi @ v).real / dim) < 1e-14


def test_nu_lambda_on_plain_channel():
    # only stochastic channels carry (nu, lambda); a plain map is refused
    identity = ch.StochasticChannel(3, 1.0, {(0, 0): 1.0})
    nu, lam = ch.nu_lambda(identity)
    assert abs(nu - 1.0) < 1e-14 and abs(lam - 1.0) < 1e-14
    for plain in (identity.as_channel(), identity.choi()):
        with pytest.raises(TypeError):
            ch.nu_lambda(plain)


def test_random_stochastic_channel_deterministic():
    a = ch.random_stochastic_channel(3, 0.7, seed=42)
    b = ch.random_stochastic_channel(3, 0.7, seed=42)
    assert a.weights == b.weights
    c = ch.random_stochastic_channel(3, 0.7, seed=43)
    assert a.weights != c.weights
    assert abs(sum(a.weights.values()) - 0.7) < 1e-12
    assert all(w >= 0 for w in a.weights.values())


def test_random_stochastic_channel_dimension_guard():
    # the generator shares the channels' bound of 5
    assert ch.random_stochastic_channel(5, 1.0, seed=1).dim == 5
    with pytest.raises(UnsupportedDimension):
        ch.random_stochastic_channel(6, 1.0, seed=1)
    with pytest.raises(UnsupportedDimension):
        ch.random_stochastic_channel(0, 1.0, seed=1)


@pytest.mark.parametrize("bad", [2.0, True])
def test_random_stochastic_channel_dimension_must_be_an_integer(bad):
    # 2.0 escaped as a NumPy TypeError
    with pytest.raises(UnsupportedDimension, match="integer"):
        ch.random_stochastic_channel(bad, 1.0, seed=1)


# ------------------------------------------------------------------
# serialization
# ------------------------------------------------------------------

def test_channel_json_roundtrip():
    gen = linalg.rng(220)
    channel = ch.KrausChannel(2, 3, _random_kraus_set(gen, 2, 3, 2))
    text = json.dumps(ch.channel_to_json(channel))
    back = ch.channel_from_json(json.loads(text))
    assert back.dim_in == 2 and back.dim_out == 3
    for k1, k2 in zip(back.kraus_ops, channel.kraus_ops):
        np.testing.assert_array_equal(k1, k2)


def test_stochastic_json_roundtrip_bit_exact():
    t = ch.random_stochastic_channel(3, 0.654321, seed=77)
    text = json.dumps(ch.stochastic_to_json(t))
    back = ch.stochastic_from_json(json.loads(text))
    assert back.dim == t.dim
    assert back.nu == t.nu
    assert back.weights == t.weights  # exact float equality after round trip


def test_choi_json_roundtrip():
    choi = ch.StochasticChannel(2, 1.0, {(0, 0): 1.0}).choi()
    back = ch.choi_from_json(json.loads(json.dumps(ch.choi_to_json(choi))))
    np.testing.assert_array_equal(back.matrix, choi.matrix)
    assert (back.dim_in, back.dim_out) == (2, 2)


def test_stochastic_from_json_rejects_repeated_labels():
    obj = {"dim": 2, "nu": 1.0,
           "weights": [{"a": 0, "b": 0, "w": 0.5}, {"a": 0, "b": 0, "w": 0.5}]}
    with pytest.raises(InvalidModel, match="duplicate"):
        ch.stochastic_from_json(obj)


@pytest.mark.parametrize("bad", ["1.0", True, None, [1.0]])
def test_stochastic_from_json_rejects_non_number_floats(bad):
    # nu and weights are JSON numbers; "1.0" and true used to decode.  The
    # constructor refuses them.
    obj = ch.stochastic_to_json(ch.StochasticChannel(2, 1.0, {(0, 0): 1.0}))
    with pytest.raises(InvalidModel, match="^nu must be a finite real"):
        ch.stochastic_from_json({**obj, "nu": bad})
    obj = json.loads(json.dumps(obj))
    obj["weights"][0]["w"] = bad
    with pytest.raises(InvalidModel, match=r"^weight at \(0, 0\) must be a"):
        ch.stochastic_from_json(obj)


def test_stochastic_from_json_accepts_integer_numbers():
    obj = {"dim": 2, "nu": 1, "weights": [{"a": 1, "b": 0, "w": 1}]}
    assert ch.stochastic_from_json(obj).weights == {(1, 0): 1.0}


@pytest.mark.parametrize("bad", [0.6, 1.0, "1", True, np.bool_(True)])
def test_stochastic_channel_rejects_non_integer_labels(bad):
    # (0.6, 0) used to be stored as (0, 0)
    for key in ((bad, 0), (0, bad)):
        with pytest.raises(InvalidModel, match="must be an integer"):
            ch.StochasticChannel(2, 1.0, {key: 1.0})


def test_stochastic_channel_rejects_labels_of_other_arity():
    # (0, 1, 7) used to be stored as (0, 1), and (1,) raised IndexError
    for key in ((0, 1, 7), (1,)):
        with pytest.raises(InvalidModel, match="2 indices"):
            ch.StochasticChannel(2, 1.0, {key: 1.0})


def test_stochastic_channel_accepts_numpy_integer_labels():
    t = ch.StochasticChannel(3, 1.0, {(np.int64(2), np.uint8(1)): 1.0})
    assert t.weights == {(2, 1): 1.0}
    assert all(type(k) is int for k in next(iter(t.weights)))


def test_channel_from_json_malformed():
    with pytest.raises(ValueError):
        ch.channel_from_json({"dim_in": 2})


@pytest.mark.parametrize("bad", [4.5, 2.0, "2", True])
def test_from_json_rejects_non_integer_fields(bad):
    # dimensions and weight labels are JSON integers, never truncated
    identity = ch.StochasticChannel(2, 1.0, {(0, 0): 1.0})
    channel = ch.channel_to_json(identity.as_channel())
    choi = ch.choi_to_json(identity.choi())
    stochastic = ch.stochastic_to_json(ch.random_stochastic_channel(2, 1.0, 5))
    cases = [(ch.channel_from_json, channel, "dim_in"),
             (ch.channel_from_json, channel, "dim_out"),
             (ch.choi_from_json, choi, "dim_in"),
             (ch.choi_from_json, choi, "dim_out"),
             (ch.stochastic_from_json, stochastic, "dim")]
    # the constructors refuse them: KrausChannel and ChoiMatrix with
    # DimensionMismatch, StochasticChannel by its dimension bound
    for decode, obj, key in cases:
        error = (UnsupportedDimension if key == "dim"
                 else DimensionMismatch)
        with pytest.raises(error, match="integers"):
            decode({**obj, key: bad})
    for key in ("a", "b"):
        obj = json.loads(json.dumps(stochastic))
        obj["weights"][1][key] = bad
        with pytest.raises(InvalidModel, match="^label .* must be an integer"):
            ch.stochastic_from_json(obj)
