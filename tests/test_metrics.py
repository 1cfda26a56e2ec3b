import mpmath
import numpy as np
import pytest

from qimet.channels import (ChoiMatrix, KrausChannel, StochasticChannel,
                            choi_from_kraus, identity_channel, nu_lambda,
                            random_stochastic_channel, weyl_operators)
from qimet.errors import DimensionMismatch, InvalidModel, NotPSD
from qimet.instruments import (InstrumentImplementation,
                               NonUniformStochasticModel,
                               UniformStochasticModel, expand_nonuniform,
                               expand_uniform, full_channel, ideal_instrument,
                               random_general_implementation,
                               random_nonuniform_model, random_uniform_model)
from qimet.linalg import rng, random_density, random_pure, trace_norm
from qimet.metrics import (MetricsReport, build_report,
                           diamond_identity_stochastic, fvg_bounds,
                           fidelity_nonuniform_closed, fidelity_uniform_closed,
                           instrument_diamond_lower,
                           instrument_diamond_lower_max,
                           instrument_diamond_upper,
                           instrument_fidelity_branchwise,
                           nonuniform_outcome_diamond, process_fidelity,
                           report_to_json, uniform_diamond_exact)
from qimet.verify import _trace_fidelity


def readout_flip_model():
    # E = 1, outcome reported flipped with probability 0.2
    keep = StochasticChannel(1, 0.8, {(0, 0): 0.8})
    flip = StochasticChannel(1, 0.2, {(0, 0): 0.2})
    return UniformStochasticModel(2, 1, {(0, 0): keep, (1, 0): flip})


def outcome_dependent_model():
    # outcome 0 clean, outcome 1 dephases the unmeasured qubit
    t0 = StochasticChannel(2, 1.0, {(0, 0): 1.0})
    t1 = StochasticChannel(2, 1.0, {(0, 0): 0.8, (0, 1): 0.2})
    return NonUniformStochasticModel(2, 2, {(0, 0, 0): t0, (0, 0, 1): t1})


# ------------------------------------------------------------------
# process fidelity
# ------------------------------------------------------------------

def test_process_fidelity_self_is_one():
    j = choi_from_kraus(identity_channel(3))
    assert abs(process_fidelity(j, j) - 1.0) < 1e-12


def test_process_fidelity_orthogonal_unitaries():
    x = weyl_operators(2)[2].reshape(-1, order="F")  # U_(1,0) = X
    ji = choi_from_kraus(identity_channel(2))
    jx = ChoiMatrix(2, 2, np.outer(x, x.conj()) / 2)
    assert process_fidelity(ji, jx) < 1e-12


def test_process_fidelity_matches_nu_lambda():
    ji = choi_from_kraus(identity_channel(3))
    for i in range(20):
        t = random_stochastic_channel(3, nu=0.3 + 0.07 * i, seed=60 + i)
        nu, lam = nu_lambda(t)
        f = process_fidelity(t.choi(), ji)
        assert abs(f - nu * lam) < 5e-9


def test_process_fidelity_symmetric():
    gen = rng(4)
    for _ in range(10):
        a = random_density(4, gen)
        b = random_density(4, gen)
        ja, jb = ChoiMatrix(2, 2, a), ChoiMatrix(2, 2, b)
        assert abs(process_fidelity(ja, jb) - process_fidelity(jb, ja)) < 1e-10


def test_process_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        process_fidelity(choi_from_kraus(identity_channel(2)),
                         choi_from_kraus(identity_channel(3)))


def test_process_fidelity_rejects_indefinite():
    x = weyl_operators(2)[2].reshape(-1, order="F")  # U_(1,0) = X
    ji = choi_from_kraus(identity_channel(2))
    jx = ChoiMatrix(2, 2, np.outer(x, x.conj()) / 2)
    with pytest.raises(NotPSD):
        process_fidelity(ji - jx, ji)


# ------------------------------------------------------------------
# Kraus-factor process fidelity to the ideal (verify's trace route)
# ------------------------------------------------------------------

def implementations(D, E, seed):
    """A uniform, a non-uniform and a general implementation at (D, E)."""
    return (expand_uniform(random_uniform_model(D, E, seed=seed)),
            expand_nonuniform(random_nonuniform_model(D, E, seed=seed)),
            random_general_implementation(D, E, seed=seed))


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_kraus_fidelity_matches_choi_route(dims):
    # the ideal branches have rank-one Choi states, where the psd_sqrt route
    # errs by up to ~1e-9; the trace route takes no square root
    ideal = ideal_instrument(*dims)
    for seed in range(5000, 5003):
        for impl in implementations(*dims, seed):
            ref = instrument_fidelity_branchwise(ideal, impl)
            assert abs(_trace_fidelity(impl) - ref) <= 1e-8


def _fidelity_mp(a, b, digits=40):
    """``||sqrt(J_A) sqrt(J_B)||_1^2`` of the Choi states in ``digits``-digit
    arithmetic, so that zero eigenvalues stay far below the test tolerance.

    Both states are written in an orthonormal basis ``Q`` of the span of
    the ``col_vec(K)`` of both Kraus sets; ``Q† J Q`` keeps every nonzero
    eigenvalue and the fidelity, and is only as large as the two ranks."""
    with mpmath.workdps(digits):
        ops = np.concatenate([a.kraus_ops, b.kraus_ops])
        cols = mpmath.matrix(
            ops.swapaxes(1, 2).reshape(len(ops), -1).tolist()).T
        q, _ = mpmath.qr(cols, mode="skinny")
        coords = q.H * cols  # each col_vec(K) in the basis Q
        xa = coords[:, :len(a.kraus_ops)]
        xb = coords[:, len(a.kraus_ops):]

        def root(m):
            vals, vecs = mpmath.eighe(m)
            diag = mpmath.diag([mpmath.sqrt(max(x, 0)) for x in vals])
            return vecs * diag * vecs.H

        ra = root(xa * xa.H / a.dim_in)
        vals, _ = mpmath.eighe(ra * (xb * xb.H / b.dim_in) * ra)
        return float(sum(mpmath.sqrt(max(x, 0)) for x in vals) ** 2)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_kraus_fidelity_exact_on_low_choi_rank(dims):
    # general implementations against the ideal, whose branch Choi states
    # have rank one; the 40-digit route evaluates the definition branch by
    # branch and sums the square roots over the orthogonal outcome sectors
    ideal = ideal_instrument(*dims)
    for seed in range(5200, 5203):
        impl = random_general_implementation(*dims, seed=seed)
        root = sum(np.sqrt(_fidelity_mp(a, b))
                   for a, b in zip(ideal.branches, impl.branches))
        assert abs(_trace_fidelity(impl) - root * root) <= 1e-12


def test_kraus_fidelity_of_ideal_and_kraus_freedom():
    # F = 1 on the ideal; a unitary mix of one branch's Kraus operators is
    # the same map and leaves F unchanged
    assert abs(_trace_fidelity(ideal_instrument(3, 2)) - 1.0) <= 1e-15
    gen = rng(5100)
    for seed in range(4):
        impl = random_general_implementation(2, 3, seed=seed)
        q, _ = np.linalg.qr(gen.normal(size=(2, 2))
                            + 1j * gen.normal(size=(2, 2)))
        ops = np.einsum("kl,lrc->krc", q, impl.branches[1].kraus_ops)
        mixed = InstrumentImplementation(
            2, 3, (impl.branches[0], KrausChannel(6, 6, ops)))
        assert abs(_trace_fidelity(mixed) - _trace_fidelity(impl)) <= 1e-14


# ------------------------------------------------------------------
# branchwise instrument fidelity
# ------------------------------------------------------------------

def test_branchwise_self_is_one():
    impl = expand_uniform(random_uniform_model(2, 2, seed=3))
    assert abs(instrument_fidelity_branchwise(impl, impl) - 1.0) < 1e-10


def test_branchwise_matches_uniform_closed_form():
    model = random_uniform_model(3, 2, seed=8)
    impl = expand_uniform(model)
    ideal = ideal_instrument(3, 2)
    assert abs(instrument_fidelity_branchwise(ideal, impl)
               - fidelity_uniform_closed(model)) < 1e-9


def test_branchwise_agrees_with_full_channel_fidelity():
    # sum-of-square-roots structure vs the fidelity of the complete channels
    for i in range(8):
        a = random_general_implementation(2, 2, seed=70 + i)
        b = random_general_implementation(2, 2, seed=170 + i)
        direct = process_fidelity(choi_from_kraus(full_channel(a)),
                                  choi_from_kraus(full_channel(b)))
        assert abs(instrument_fidelity_branchwise(a, b) - direct) < 1e-8


def test_branchwise_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        instrument_fidelity_branchwise(ideal_instrument(2, 1),
                                       ideal_instrument(2, 2))


# ------------------------------------------------------------------
# closed-form fidelities
# ------------------------------------------------------------------

def test_uniform_closed_perfect():
    perfect = UniformStochasticModel(
        2, 2, {(0, 0): StochasticChannel(2, 1.0, {(0, 0): 1.0})})
    assert fidelity_uniform_closed(perfect) == 1.0


def test_uniform_closed_no_identity_slot():
    model = UniformStochasticModel(
        2, 1, {(1, 0): StochasticChannel(1, 1.0, {(0, 0): 1.0})})
    assert fidelity_uniform_closed(model) == 0.0


def test_uniform_closed_worked_example():
    t00 = StochasticChannel(2, 0.8, {(0, 0): 0.72, (0, 1): 0.08})
    rest = StochasticChannel(2, 0.2, {(1, 0): 0.2})
    model = UniformStochasticModel(2, 2, {(0, 0): t00, (1, 0): rest})
    assert abs(fidelity_uniform_closed(model) - 0.72) < 1e-12


def test_uniform_closed_vs_direct_choi():
    for i in range(25):
        model = random_uniform_model(2 + i % 2, 1 + i % 3, seed=700 + i)
        impl = expand_uniform(model)
        ideal = ideal_instrument(model.D, model.E)
        direct = process_fidelity(choi_from_kraus(full_channel(ideal)),
                                  choi_from_kraus(full_channel(impl)))
        assert abs(direct - fidelity_uniform_closed(model)) < 1e-8


def test_nonuniform_closed_uniform_reduction():
    # outcome-independent table collapses to the uniform closed form
    model = random_uniform_model(2, 2, seed=11)
    copied = {(a, b, j): t for (a, b), t in model.table.items()
              for j in range(2)}
    nmodel = NonUniformStochasticModel(2, 2, copied)
    assert abs(fidelity_nonuniform_closed(nmodel)
               - fidelity_uniform_closed(model)) < 1e-12


def test_nonuniform_closed_worked_example():
    tid = StochasticChannel(2, 1.0, {(0, 0): 1.0})
    t1 = StochasticChannel(2, 1.0, {(0, 0): 0.64, (0, 1): 0.36})
    model = NonUniformStochasticModel(2, 2, {(0, 0, 0): tid, (0, 0, 1): t1})
    assert abs(fidelity_nonuniform_closed(model) - 0.81) < 1e-12


def test_nonuniform_closed_in_unit_interval():
    for i in range(10):
        model = random_nonuniform_model(3, 2, seed=40 + i)
        f = fidelity_nonuniform_closed(model)
        assert 0.0 <= f <= 1.0 + 1e-12


def test_nonuniform_closed_vs_direct_choi():
    for i in range(25):
        model = random_nonuniform_model(2 + i % 2, 1 + i % 3, seed=1100 + i)
        impl = expand_nonuniform(model)
        ideal = ideal_instrument(model.D, model.E)
        direct = process_fidelity(choi_from_kraus(full_channel(ideal)),
                                  choi_from_kraus(full_channel(impl)))
        assert abs(direct - fidelity_nonuniform_closed(model)) < 1e-8


# ------------------------------------------------------------------
# stochastic-channel diamond distance
# ------------------------------------------------------------------

def test_diamond_identity_of_identity():
    t = StochasticChannel(2, 1.0, {(0, 0): 1.0})
    assert abs(diamond_identity_stochastic(t)) < 1e-12


def test_diamond_identity_worked_examples():
    dep = StochasticChannel(2, 1.0, {(0, 0): 0.9, (1, 0): 0.1})
    assert abs(diamond_identity_stochastic(dep) - 0.1) < 1e-12
    sub = StochasticChannel(2, 0.5, {(0, 0): 0.45, (1, 1): 0.05})
    assert abs(diamond_identity_stochastic(sub) - 0.30) < 1e-12


def test_diamond_identity_equals_choi_route():
    # (1 + nu)/2 - nu*lambda == (1 + ||J||_1)/2 - F(J, J(I))
    ji = choi_from_kraus(identity_channel(2))
    for i in range(20):
        t = random_stochastic_channel(2, nu=0.2 + 0.04 * i, seed=300 + i)
        j = t.choi()
        other = (1.0 + trace_norm(j.matrix)) / 2.0 - process_fidelity(j, ji)
        assert abs(diamond_identity_stochastic(t) - other) < 1e-10


# ------------------------------------------------------------------
# general instrument bounds
# ------------------------------------------------------------------

def test_lower_bound_ideal_is_zero():
    impl = ideal_instrument(2, 2)
    gen = rng(9)
    for j in range(2):
        assert abs(instrument_diamond_lower(impl, np.eye(2) / 2, j)) < 1e-12
        assert abs(instrument_diamond_lower(impl, random_density(2, gen), j)) < 1e-12


@pytest.mark.parametrize("D, E", [(2, 2), (3, 2)])
def test_lower_bound_matches_full_branch_action(D, E):
    # the column-slice evaluation equals the bound evaluated on the whole
    # embedded state sigma ⊗ |j><j| through KrausChannel.apply
    gen = rng(50 + D)
    for i in range(5):
        impl = random_general_implementation(D, E, seed=60 + 10 * D + i)
        for j in range(D):
            sigma = random_density(E, gen)
            sigma_j = np.kron(sigma, np.diag(np.eye(D)[j]))
            out = impl.branches[j].apply(sigma_j)
            ref = 1.0 - np.trace(out).real + trace_norm(out - sigma_j)
            assert abs(instrument_diamond_lower(impl, sigma, j) - ref) < 1e-12


def test_lower_max_saturates_readout_flip():
    # E = 1: the scalar probe saturates the exact value 2*(1 - nu00)
    impl = expand_uniform(readout_flip_model())
    assert abs(instrument_diamond_lower_max(impl, restarts=2, seed=0) - 0.4) < 1e-12


def test_lower_at_most_upper():
    for i in range(10):
        impl = random_general_implementation(2, 2, seed=80 + i)
        lo = instrument_diamond_lower_max(impl, restarts=4, seed=i)
        up = instrument_diamond_upper(impl)
        assert lo <= up + 1e-9


def test_lower_max_monotone_and_deterministic():
    impl = random_general_implementation(2, 2, seed=5)
    vals = [instrument_diamond_lower_max(impl, restarts=r, seed=7)
            for r in (0, 1, 3, 9)]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    again = instrument_diamond_lower_max(impl, restarts=9, seed=7)
    assert again == vals[-1]


def test_lower_bound_input_validation():
    impl = ideal_instrument(2, 2)
    # True used to probe outcome 1, and 1.0 raised a bare TypeError
    for bad in (5, -1, True, 1.0):
        with pytest.raises(ValueError, match="outcome index"):
            instrument_diamond_lower(impl, np.eye(2) / 2, bad)
    assert instrument_diamond_lower(impl, np.eye(2) / 2, np.int64(1)) == \
        pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        instrument_diamond_lower(impl, np.eye(3) / 3, 0)
    with pytest.raises(ValueError):
        instrument_diamond_lower_max(impl, restarts=-1)


@pytest.mark.parametrize("bad", [2.5, True])
def test_lower_max_restarts_must_be_an_integer(bad):
    # 2.5 escaped as a NumPy TypeError, and True ran one restart
    with pytest.raises(ValueError, match="integer"):
        instrument_diamond_lower_max(ideal_instrument(2, 2), restarts=bad)


def test_upper_bound_ideal_is_zero():
    assert abs(instrument_diamond_upper(ideal_instrument(3, 2))) < 1e-12


def test_upper_bound_readout_flip():
    impl = expand_uniform(readout_flip_model())
    assert instrument_diamond_upper(impl) >= 0.4 - 1e-12


# ------------------------------------------------------------------
# exact diamond distances for structured models
# ------------------------------------------------------------------

def test_uniform_diamond_exact_values():
    perfect = UniformStochasticModel(
        2, 1, {(0, 0): StochasticChannel(1, 1.0, {(0, 0): 1.0})})
    assert uniform_diamond_exact(perfect) == 0.0
    assert abs(uniform_diamond_exact(readout_flip_model()) - 0.2) < 1e-12
    degenerate = UniformStochasticModel(
        2, 1, {(1, 0): StochasticChannel(1, 1.0, {(0, 0): 1.0})})
    assert uniform_diamond_exact(degenerate) == 1.0


def test_outcome_diamond_all_identity():
    tid = StochasticChannel(2, 1.0, {(0, 0): 1.0})
    model = NonUniformStochasticModel(2, 2, {(0, 0, 0): tid, (0, 0, 1): tid})
    assert nonuniform_outcome_diamond(model) == 0.0


def test_outcome_diamond_worked_example():
    assert abs(nonuniform_outcome_diamond(outcome_dependent_model()) - 0.4) < 1e-12


def test_outcome_diamond_rejects_off_diagonal():
    t = StochasticChannel(2, 1.0, {(0, 0): 1.0})
    half = StochasticChannel(2, 0.5, {(0, 0): 0.5})
    model = NonUniformStochasticModel(
        2, 2, {(0, 0, 0): t, (0, 0, 1): half, (0, 1, 1): half})
    with pytest.raises(InvalidModel):
        nonuniform_outcome_diamond(model)


def test_outcome_diamond_vs_fidelity_route():
    # the outcome-resolved norm is NOT 2*(1 - closed-form fidelity)
    model = outcome_dependent_model()
    full = nonuniform_outcome_diamond(model)
    via_fidelity = 2.0 * (1.0 - fidelity_nonuniform_closed(model))
    assert abs(0.5 * full - (1.0 - fidelity_nonuniform_closed(model))) >= 0.01
    assert abs(full - via_fidelity) > 0.01


# ------------------------------------------------------------------
# Fuchs-van de Graaf bounds
# ------------------------------------------------------------------

def test_fvg_identical_pure_states():
    rho = np.outer([1, 0], [1, 0]).astype(complex)
    assert fvg_bounds(rho, rho) == (0.0, 0.0, 0.0)


def test_fvg_pure_vs_maximally_mixed():
    rho = np.outer([1, 0], [1, 0]).astype(complex)
    lo, mid, up = fvg_bounds(rho, np.eye(2) / 2)
    assert abs(lo - 0.5) < 1e-12
    assert abs(mid - 0.5) < 1e-12
    assert abs(up - np.sqrt(0.5)) < 1e-12


def test_fvg_orthogonal_pure_states():
    a = np.outer([1, 0], [1, 0]).astype(complex)
    b = np.outer([0, 1], [0, 1]).astype(complex)
    lo, mid, up = fvg_bounds(a, b)
    assert abs(lo - 1.0) < 1e-12 and abs(mid - 1.0) < 1e-12 and abs(up - 1.0) < 1e-12


def test_fvg_chain_on_random_pairs():
    gen = rng(21)
    for i in range(60):
        dim = 2 + i % 3
        if i % 3 == 0:
            psi = random_pure(dim, gen)
            rho = np.outer(psi, psi.conj())
        else:
            rho = random_density(dim, gen, rank=1 + i % dim)
        sigma = random_density(dim, gen)
        lo, mid, up = fvg_bounds(rho, sigma)
        assert lo <= mid + 1e-10
        assert mid <= up + 1e-10


# ------------------------------------------------------------------
# aggregated report
# ------------------------------------------------------------------

def test_report_perfect_model():
    perfect = UniformStochasticModel(
        2, 2, {(0, 0): StochasticChannel(2, 1.0, {(0, 0): 1.0})})
    rep = build_report(perfect, seed=0)
    assert abs(rep.fidelity - 1.0) < 1e-12
    assert abs(rep.diamond_lower) < 1e-9
    assert abs(rep.diamond_upper) < 1e-9
    assert abs(rep.diamond_exact) < 1e-12
    assert all(d < 1e-10 for d in rep.per_branch_trace_distances)


def test_report_uniform_worked_example():
    t00 = StochasticChannel(2, 0.8, {(0, 0): 0.72, (0, 1): 0.08})
    rest = StochasticChannel(2, 0.2, {(1, 0): 0.2})
    model = UniformStochasticModel(2, 2, {(0, 0): t00, (1, 0): rest})
    rep = build_report(model, seed=2)
    assert abs(rep.fidelity - 0.72) < 1e-12
    assert abs(rep.diamond_exact - 0.56) < 1e-12
    assert abs(rep.nu00 - 0.8) < 1e-12
    assert abs(rep.lambda00 - 0.9) < 1e-12
    assert rep.diamond_lower <= rep.diamond_exact <= rep.diamond_upper
    assert len(rep.per_branch_trace_distances) == 2


def test_report_nonuniform_has_no_exact_fields():
    rep = build_report(random_nonuniform_model(2, 2, seed=13), seed=0)
    assert rep.diamond_exact is None
    assert rep.nu00 is None and rep.lambda00 is None
    assert rep.diamond_lower <= rep.diamond_upper + 1e-9


def test_report_general_implementation():
    impl = random_general_implementation(2, 2, seed=19)
    rep = build_report(impl, seed=1)
    assert 0.0 <= rep.fidelity <= 1.0 + 1e-9
    assert rep.diamond_exact is None
    assert len(rep.per_branch_trace_distances) == impl.D


def test_report_bracket_on_random_models():
    for i in range(8):
        rep = build_report(random_uniform_model(2, 2, seed=2200 + i), seed=i)
        assert rep.diamond_lower <= rep.diamond_exact + 1e-9
        assert rep.diamond_exact <= rep.diamond_upper + 1e-9


def test_report_upper_is_sum_of_branch_distances():
    # build_report derives the upper bound from the per-branch distances it
    # reports; the sums run in the same order, so equality is exact
    cases = [(random_uniform_model(2, 3, seed=31), expand_uniform),
             (random_nonuniform_model(3, 2, seed=32), expand_nonuniform),
             (random_general_implementation(2, 2, seed=33), lambda m: m)]
    for model, expand in cases:
        rep = build_report(model, seed=0)
        impl = expand(model)
        assert rep.diamond_upper == (impl.D * impl.E
                                     * sum(rep.per_branch_trace_distances))
        assert instrument_diamond_upper(impl) == rep.diamond_upper


def test_report_json_shape():
    rep = build_report(readout_flip_model(), seed=0)
    obj = report_to_json(rep)
    assert obj["conventions"] == {"diamond": "full-norm"}
    assert set(obj) == {"fidelity", "diamond_lower", "diamond_upper",
                        "diamond_exact", "nu00", "lambda00",
                        "per_branch_trace_distances", "conventions"}


def test_report_rejects_inverted_bracket():
    with pytest.raises(ValueError):
        MetricsReport(fidelity=0.5, diamond_lower=1.0, diamond_upper=0.5,
                      diamond_exact=None, nu00=None, lambda00=None,
                      per_branch_trace_distances=())


def test_report_rejects_unknown_input():
    with pytest.raises(TypeError):
        build_report("not a model")
