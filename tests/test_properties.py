"""Property-based tests of the package's invariants.

Examples are derandomized and no example database is kept, so every run
draws the same inputs and writes nothing to the working tree.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qimet.channels import (ChoiMatrix, KrausChannel, StochasticChannel,
                            choi_from_json, choi_from_kraus, choi_to_json,
                            nu_lambda)
from qimet.instruments import (NonUniformStochasticModel, branch_differences,
                               expand_nonuniform, expand_uniform, full_channel,
                               ideal_instrument, model_from_json,
                               model_to_json, random_general_implementation,
                               random_nonuniform_model, random_uniform_model)
from qimet.linalg import (col_vec, hermitize, random_density,
                          random_pure_states, rng, trace_norm)
from qimet.metrics import (_branch_distances, _probes, build_report,
                           diamond_identity_stochastic,
                           instrument_diamond_lower_max,
                           instrument_diamond_upper,
                           nonuniform_outcome_diamond, uniform_diamond_exact)
from qimet.oracle import DiamondNormResult, diamond_norm
from qimet.verify import _phi_plus_bound

#: model kind -> (generator, expansion to an implementation)
KINDS = {
    "uniform": (random_uniform_model, expand_uniform),
    "nonuniform": (random_nonuniform_model, expand_nonuniform),
    "general": (random_general_implementation, lambda impl: impl),
}


@st.composite
def stochastic_channels(draw):
    """Stochastic channels on 1..4 levels with weight ``nu`` in (0, 1]: each
    of the ``dim**2`` weights is drawn from [0, 1/dim**2], zeros included."""
    dim = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.0, 1.0 / dim**2,
                                      allow_subnormal=False),
                            min_size=dim**2, max_size=dim**2)
                   .filter(lambda w: sum(w) > 0.0))
    return StochasticChannel.from_weights(
        dim, {(k // dim, k % dim): w for k, w in enumerate(weights)})


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(stochastic_channels())
def test_stochastic_distance_to_identity_is_attained_at_phi_plus(t):
    # J(T) - J(id) is (T ⊗ I - I ⊗ I) applied to the maximally entangled
    # state, so its trace norm is the diamond distance exactly when that
    # state is an optimal input, as covariance makes it for these channels
    identity = StochasticChannel(t.dim, 1.0, {(0, 0): 1.0})
    at_phi_plus = trace_norm((t.choi() - identity.choi()).matrix)
    assert np.isclose(at_phi_plus, 2.0 * diamond_identity_stochastic(t),
                      rtol=0.0, atol=1e-12)


def implementations(kind, seed):
    """A random model of ``kind`` with its expanded implementation, at every
    D in {2, 3} and E in {1, 2, 3}."""
    generate, expand = KINDS[kind]
    for D in (2, 3):
        for E in (1, 2, 3):
            model = generate(D, E, seed=seed)
            yield model, expand(model)


INSTRUMENTS = settings(derandomize=True, database=None, max_examples=5,
                       deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


def full_route_delta(impl):
    """The implementation's error as one Choi difference of full channels,
    the outcome register appended to the output."""
    ideal = ideal_instrument(impl.D, impl.E)
    return (choi_from_kraus(full_channel(impl))
            - choi_from_kraus(full_channel(ideal)))


def haar_unitary(d, gen):
    q, r = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def output_rotated(choi, seed=7):
    """``(I ⊗ U) C (I ⊗ U)†`` for a seeded Haar unitary ``U`` on the output:
    the same diamond norm, with every output coupled to every other, so the
    oracle solves it as one dense block."""
    u = np.kron(np.eye(choi.dim_in), haar_unitary(choi.dim_out, rng(seed)))
    return ChoiMatrix(choi.dim_in, choi.dim_out, u @ choi.matrix @ u.conj().T)


def direct_sum(blocks):
    """Choi matrix with block ``j`` of a ``(B, s, s)`` stack at an appended
    output outcome ``j``, the fastest output index, and zeros elsewhere."""
    count, s = blocks.shape[:2]
    full = np.zeros((s, count, s, count), dtype=complex)
    full[:, np.arange(count), :, np.arange(count)] = blocks
    return full.reshape(s * count, s * count)


@pytest.mark.parametrize("kind", sorted(KINDS))
@INSTRUMENTS
@given(seed=SEEDS)
def test_assembled_delta_matches_the_full_channel_route(kind, seed):
    # the branch-difference stack is the full-channel delta's block diagonal
    for _, impl in implementations(kind, seed):
        assembled = direct_sum(branch_differences(impl))
        ref = full_route_delta(impl).matrix
        assert np.max(np.abs(assembled - ref)) <= 1e-15


@pytest.mark.parametrize("kind", sorted(KINDS))
@INSTRUMENTS
@given(seed=SEEDS)
def test_branch_trace_norms_add_up_to_the_delta_trace_norm(kind, seed):
    # the orthogonality lemma on the outcome sectors of a real instrument
    for _, impl in implementations(kind, seed):
        total = sum(trace_norm(block) for block in branch_differences(impl))
        assert np.isclose(total, trace_norm(full_route_delta(impl).matrix),
                          rtol=1e-12, atol=1e-13)


def assert_brackets_overlap(a, b):
    assert a.primal_bound <= b.dual_bound + 1e-9
    assert b.primal_bound <= a.dual_bound + 1e-9


@pytest.mark.parametrize("kind", sorted(KINDS))
@INSTRUMENTS
@given(seed=SEEDS)
def test_block_oracle_matches_the_full_channel_route(kind, seed):
    # the oracle on the outcome blocks, on the full-channel delta (which it
    # splits into those blocks) and on that delta as one dense block
    generate, expand = KINDS[kind]
    for D, E in ((2, 1), (2, 2), (3, 1)):
        impl = expand(generate(D, E, seed=seed))
        side = D * E
        blocks = [ChoiMatrix(side, side, b) for b in branch_differences(impl)]
        by_blocks = diamond_norm(blocks, tol=1e-7)
        full = full_route_delta(impl)
        assert_brackets_overlap(by_blocks, diamond_norm(full, tol=1e-7))
        assert_brackets_overlap(by_blocks,
                                diamond_norm(output_rotated(full), tol=1e-7))


def random_blocks(seed, count, dims):
    """``count`` random Hermitian Choi blocks of one shape."""
    dim_in, dim_out = dims
    side = dim_in * dim_out
    gen = rng(seed)
    a = (gen.normal(size=(count, side, side))
         + 1j * gen.normal(size=(count, side, side)))
    return [ChoiMatrix(dim_in, dim_out, b) for b in hermitize(a) / side]


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(seed=SEEDS, count=st.integers(2, 4),
       dims=st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]))
def test_block_oracle_matches_the_direct_sum(seed, count, dims):
    # random Hermitian blocks, solved as blocks, as one block-diagonal map
    # (which the oracle splits back into them) and as that map made dense
    dim_in, dim_out = dims
    blocks = random_blocks(seed, count, dims)
    full = ChoiMatrix(dim_in, dim_out * count,
                      direct_sum(np.stack([b.matrix for b in blocks])))
    by_blocks = diamond_norm(blocks, tol=1e-7)
    assert_brackets_overlap(by_blocks, diamond_norm(full, tol=1e-7))
    assert_brackets_overlap(by_blocks,
                            diamond_norm(output_rotated(full), tol=1e-7))


ORACLE = settings(derandomize=True, database=None, max_examples=10,
                  deadline=None)
BLOCKS = {"seed": SEEDS, "count": st.integers(1, 3),
          "dims": st.sampled_from([(1, 3), (2, 1), (2, 2), (2, 3), (3, 2)])}


@ORACLE
@given(**BLOCKS, factor=st.floats(-8.0, 8.0).filter(lambda a: abs(a) > 1e-3))
def test_oracle_is_absolutely_homogeneous(seed, count, dims, factor):
    # ||aC||◇ = |a| ||C||◇: the scaled bracket overlaps the scaled solve's
    blocks = random_blocks(seed, count, dims)
    base = diamond_norm(blocks, tol=1e-7)
    scaled = diamond_norm([ChoiMatrix(*dims, factor * b.matrix)
                           for b in blocks], tol=1e-7)
    slack = 1e-9 * max(1.0, abs(factor))
    assert scaled.primal_bound <= abs(factor) * base.dual_bound + slack
    assert abs(factor) * base.primal_bound <= scaled.dual_bound + slack


@ORACLE
@given(**BLOCKS)
def test_oracle_obeys_the_triangle_inequality(seed, count, dims):
    # the certified lower bound of ||C1 + C2||◇ never exceeds the certified
    # upper bounds of ||C1||◇ + ||C2||◇
    first = random_blocks(seed, count, dims)
    second = random_blocks(seed + 1, count, dims)
    total = [ChoiMatrix(*dims, a.matrix + b.matrix)
             for a, b in zip(first, second)]
    assert (diamond_norm(total, tol=1e-7).primal_bound
            <= diamond_norm(first, tol=1e-7).dual_bound
            + diamond_norm(second, tol=1e-7).dual_bound + 1e-9)


@ORACLE
@given(**BLOCKS)
def test_oracle_is_invariant_under_local_unitaries(seed, count, dims):
    # (U ⊗ V_j) C_j (U ⊗ V_j)†, one input unitary U and an output unitary
    # V_j per block, leaves the norm of the direct sum unchanged
    dim_in, dim_out = dims
    blocks = random_blocks(seed, count, dims)
    gen = rng(seed + 2)
    u = haar_unitary(dim_in, gen)
    rotated = []
    for b in blocks:
        w = np.kron(u, haar_unitary(dim_out, gen))
        rotated.append(ChoiMatrix(dim_in, dim_out, w @ b.matrix @ w.conj().T))
    assert_brackets_overlap(diamond_norm(blocks, tol=1e-7),
                            diamond_norm(rotated, tol=1e-7))


def outcome_dependent_model(D, E, seed):
    """A model with only ``(0, 0, j)`` errors: a seeded trace-preserving
    stochastic channel on the unmeasured register per outcome.  On these
    tables :func:`nonuniform_outcome_diamond` is also ``max_j 2(1 -
    lambda_j)`` read channel by channel, ``max_j ||T_j - I_E||_diamond``."""
    gen = rng(seed)
    table = {(0, 0, j): StochasticChannel.from_weights(E, {
        (k // E, k % E): w for k, w in enumerate(gen.dirichlet(np.ones(E * E)))})
        for j in range(D)}
    return NonUniformStochasticModel(D, E, table)


def near_ideal_model(D, E, seed, eps):
    """``eps`` times a random nonuniform table plus ``1 - eps`` times the
    ideal one, an identity at each ``(0, 0, j)``: every kind of entry, at a
    distance of about ``2*eps``."""
    table = {}
    for key, t in random_nonuniform_model(D, E, seed=seed).table.items():
        weights = {label: eps * w for label, w in t.weights.items()}
        if key[:2] == (0, 0):
            weights[(0, 0)] = weights.get((0, 0), 0.0) + 1.0 - eps
        table[key] = StochasticChannel.from_weights(E, weights)
    return NonUniformStochasticModel(D, E, table)


@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(seed=SEEDS)
def test_closed_forms_lie_in_the_oracle_bracket(seed):
    # the uniform closed form 2(1 - nu00 lambda00) and the nonuniform
    # max_j 2(1 - w_j) = D max_j d_j against the certified bracket on the
    # blocks; the outcome-dependent tables, and the random and near-ideal
    # nonuniform tables, kept at D*E <= 6, are solved at tol 1e-10 (1e-12
    # below a distance of 1e-3)
    cases = []
    for D, E in ((2, 1), (2, 2), (3, 2), (3, 3)):
        uniform = random_uniform_model(D, E, seed=seed)
        exact = 2.0 * uniform_diamond_exact(uniform)
        assert abs(D * max(_branch_distances(uniform)) - exact) <= 1e-15
        outcome = outcome_dependent_model(D, E, seed)
        closed = nonuniform_outcome_diamond(outcome)
        walked = max(2.0 * (1.0 - nu_lambda(t)[1])
                     for t in outcome.table.values())
        assert abs(closed - walked) <= 1e-15
        cases += [(exact, expand_uniform(uniform), 1e-7),
                  (closed, expand_nonuniform(outcome), 1e-10)]
    models = [random_nonuniform_model(D, E, seed=seed)
              for D, E in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))]
    models += [near_ideal_model(D, E, seed, eps)
               for D, E in ((2, 2), (3, 2), (2, 3)) for eps in (1e-4, 0.05)]
    for model in models:
        closed = nonuniform_outcome_diamond(model)
        cases.append((closed, expand_nonuniform(model),
                      1e-12 if closed < 1e-3 else 1e-10))
    for closed, impl, tol in cases:
        side = impl.D * impl.E
        blocks = [ChoiMatrix(side, side, b) for b in branch_differences(impl)]
        res = diamond_norm(blocks, tol=tol)
        # a stack certified at iteration 0 has a primal bound within
        # rounding of the closed form, on either side
        assert res.primal_bound - 1e-14 <= closed <= res.dual_bound + 1e-14


@st.composite
def choi_matrices(draw):
    """Hermitian Choi matrices up to side 12, entries spread over many
    binades, exact zeros included."""
    dim_in, dim_out = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    side = dim_in * dim_out
    gen = rng(draw(SEEDS))
    a = (gen.normal(size=(side, side)) + 1j * gen.normal(size=(side, side)))
    a *= 10.0 ** gen.integers(-300, 300, size=(side, side))
    a[gen.random((side, side)) < 0.2] = 0.0
    a = np.tril(a, -1) + np.diag(a.diagonal().real)
    return ChoiMatrix(dim_in, dim_out, a + np.tril(a, -1).conj().T)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(choi_matrices())
def test_choi_json_round_trips_exactly(choi):
    text = json.dumps(choi_to_json(choi))
    back = choi_from_json(json.loads(text))
    assert (back.dim_in, back.dim_out) == (choi.dim_in, choi.dim_out)
    assert np.array_equal(back.matrix, choi.matrix)
    assert json.dumps(choi_to_json(back)) == text


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(value=FINITE, primal=FINITE, dual=FINITE, gap=FINITE,
       iterations=st.integers(0, 10**6))
def test_oracle_result_json_round_trips_exactly(value, primal, dual, gap,
                                                iterations):
    result = DiamondNormResult(value, primal, dual, gap, iterations)
    obj = json.loads(json.dumps(dataclasses.asdict(result)))
    assert type(obj["iterations"]) is int
    assert DiamondNormResult(**obj) == result


@pytest.mark.parametrize("kind", sorted(KINDS))
@INSTRUMENTS
@given(seed=SEEDS)
def test_report_upper_is_the_scaled_branch_distance_sum(kind, seed):
    # the report and the public bound share one route per kind; a
    # stochastic model's expansion takes the implementation route
    for model, impl in implementations(kind, seed):
        report = build_report(model)
        assert report.diamond_upper == (
            impl.D * impl.E * sum(report.per_branch_trace_distances))
        assert instrument_diamond_upper(model) == report.diamond_upper
        if kind == "general":
            assert instrument_diamond_upper(impl) == report.diamond_upper
        else:
            assert instrument_diamond_upper(impl) == pytest.approx(
                report.diamond_upper, rel=0, abs=1e-12)


def stack_bounds(impl, restarts, seed):
    """``(lower_max, upper, distances)`` from the branch-difference stack:
    one SVD per block, and each probe ``Delta_j(sigma_j) = E*D * sum_ab
    sigma_ab B_j[(a,j), :, (b,j), :]`` over the candidate states of
    :func:`instrument_diamond_lower_max`."""
    stack = branch_differences(impl)
    D, E = impl.D, impl.E
    distances = [trace_norm(block) for block in stack]
    eye = np.eye(E, dtype=complex)
    psi = random_pure_states(E, restarts, rng(seed))
    sigmas = np.concatenate([eye[None] / E,
                             eye[:, :, None] * eye[:, None, :],
                             psi[:, :, None] * psi[:, None, :].conj()])
    lower = -np.inf
    for j, block in enumerate(stack):
        rows = block.reshape(E, D, E * D, E, D, E * D)[:, j, :, :, j]
        out = E * D * np.tensordot(sigmas, rows, axes=([1, 2], [0, 2]))
        values = (np.sum(np.linalg.svd(out, compute_uv=False), axis=1)
                  - np.trace(out, axis1=1, axis2=2).real)
        lower = max(lower, float(np.max(values)))
    return lower, D * E * sum(distances), distances


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_report_bounds_match_the_branch_difference_stack(kind):
    # the report reads closed forms or Kraus factors; the stack is the
    # dense route it replaced
    generate, expand = KINDS[kind]
    for D, E, seed in itertools.product((2, 3, 4), (1, 2, 3, 4), (0, 1, 2)):
        model = generate(D, E, seed=seed)
        report = build_report(model, seed=seed)
        lower, upper, distances = stack_bounds(expand(model), 20, seed)
        assert report.diamond_lower == pytest.approx(lower, rel=0, abs=1e-12)
        assert report.diamond_upper == pytest.approx(upper, rel=0, abs=1e-12)
        np.testing.assert_allclose(report.per_branch_trace_distances,
                                   distances, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["uniform", "nonuniform"])
def test_stochastic_branch_distances_are_closed_forms(kind):
    # d_j = 2 (1 - w_j) / D with w_j the identity weight of T_(0,0,j), or
    # of T_(0,0) for every j of a uniform model; so a uniform report's
    # upper bound is D*E * 2 (1 - w) = D*E times its exact distance
    generate, _ = KINDS[kind]
    for D, E, seed in itertools.product((2, 3, 4), (1, 2, 3, 4), (0, 1, 2)):
        model = generate(D, E, seed=seed)
        report = build_report(model)
        for j, distance in enumerate(report.per_branch_trace_distances):
            key = (0, 0) if kind == "uniform" else (0, 0, j)
            t00 = model.table.get(key)
            w = t00.weights.get((0, 0), 0.0) if t00 is not None else 0.0
            assert distance == pytest.approx(2 * (1 - w) / D, rel=0,
                                             abs=1e-12)
        if kind == "uniform":
            assert report.diamond_upper == pytest.approx(
                D * E * report.diamond_exact, rel=0, abs=1e-12)


def probe_by_apply(branch, sigma, j, D):
    """``1 - tr M_j(sigma_j) + ||M_j(sigma_j) - sigma_j||_1`` with
    ``sigma_j = sigma ⊗ |j><j|``, from the branch's own action."""
    ket = np.zeros((D, D))
    ket[j, j] = 1.0
    sigma_j = np.kron(sigma, ket)
    out = branch.apply(sigma_j)
    return 1.0 - np.trace(out).real + trace_norm(out - sigma_j)


@pytest.mark.parametrize("kind", sorted(KINDS))
@INSTRUMENTS
@given(seed=SEEDS)
def test_stack_probe_matches_the_branch_action(kind, seed):
    # the probe values read from the table or the Kraus operators
    gen = rng(seed)
    for model, impl in implementations(kind, seed):
        psi = random_pure_states(impl.E, 1, gen)[0]
        sigmas = np.stack([np.outer(psi, psi.conj()),
                           random_density(impl.E, gen)])
        for j, branch in enumerate(impl.branches):
            want = [probe_by_apply(branch, s, j, impl.D) for s in sigmas]
            np.testing.assert_allclose(_probes(model, sigmas)[j], want,
                                       rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("kind", sorted(KINDS))
@INSTRUMENTS
@given(seed=SEEDS)
def test_phi_plus_bound_matches_the_reference_extended_action(kind, seed):
    # the probe of branch 0 of the extension K -> I_E ⊗ K at Phi+ on
    # (reference E) ⊗ E
    for _, impl in implementations(kind, seed):
        E, side = impl.E, impl.E * impl.D
        kraus = impl.branches[0].kraus_ops
        extended = KrausChannel(E * side, E * side,
                                [np.kron(np.eye(E), k) for k in kraus])
        phi = col_vec(np.eye(E)) / np.sqrt(E)
        want = probe_by_apply(extended, np.outer(phi, phi), 0, impl.D)
        got = _phi_plus_bound(branch_differences(impl), E)
        assert abs(got - want) <= 1e-13


@pytest.mark.parametrize("kind", sorted(KINDS))
@INSTRUMENTS
@given(seed=SEEDS, restarts=st.integers(0, 8))
def test_lower_bound_never_exceeds_the_upper_bound(kind, seed, restarts):
    for _, impl in implementations(kind, seed):
        assert (instrument_diamond_lower_max(impl, restarts, seed)
                <= instrument_diamond_upper(impl))


@pytest.mark.parametrize("kind", sorted(KINDS))
@INSTRUMENTS
@given(seed=SEEDS, int_type=st.sampled_from([np.int64, np.int32, np.uint8]))
def test_model_json_round_trips_with_numpy_integer_dimensions(kind, seed,
                                                              int_type):
    generate, _ = KINDS[kind]
    for D in (2, 3):
        for E in (1, 2, 3):
            obj = model_to_json(generate(int_type(D), int_type(E), seed))
            assert (type(obj["D"]), type(obj["E"])) == (int, int)
            text = json.dumps(obj)
            assert json.dumps(model_to_json(model_from_json(
                json.loads(text)))) == text
