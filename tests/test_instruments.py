"""Tests for subsystem measurements and their implementations."""

import json
import warnings

import numpy as np
import pytest

from qimet import channels as ch
from qimet import instruments as inst
from qimet import linalg
from qimet.errors import (DimensionMismatch, InvalidModel,
                          UnsupportedDimension)
from qimet.verify import shipped_counterexample_model


def outcome_probabilities(impl, rho):
    """Born rule ``p(j) = trace(M_j(rho))``."""
    return np.array([branch.apply(rho).trace().real
                     for branch in impl.branches])


def readout_flip_model():
    """D=2, E=1: correct readout with weight 0.8, flipped with weight 0.2."""
    return inst.UniformStochasticModel(2, 1, {
        (0, 0): ch.StochasticChannel(1, 0.8, {(0, 0): 0.8}),
        (1, 1): ch.StochasticChannel(1, 0.2, {(0, 0): 0.2}),
    })


# ------------------------------------------------------------------
# ideal instrument
# ------------------------------------------------------------------

def test_projectors_resolve_identity():
    for D, E in [(2, 1), (2, 3), (3, 2)]:
        ideal = inst.ideal_instrument(D, E)
        pis = [branch.kraus_ops[0] for branch in ideal.branches]
        total = sum(pis)
        np.testing.assert_array_equal(total, np.eye(E * D))
        for i, pi in enumerate(pis):
            for j, pj in enumerate(pis):
                expected = pi if i == j else np.zeros_like(pi)
                np.testing.assert_array_equal(pi @ pj, expected)


def test_ideal_branch_kraus_d2_e1():
    ideal = inst.ideal_instrument(2, 1)
    for j, branch in enumerate(ideal.branches):
        assert len(branch.kraus_ops) == 1
        expected = np.zeros((2, 2))
        expected[j, j] = 1.0
        np.testing.assert_array_equal(branch.kraus_ops[0], expected)


def test_ideal_preserves_trace_of_any_state():
    gen = linalg.rng(301)
    ideal = inst.ideal_instrument(3, 2)
    for _ in range(5):
        rho = linalg.random_density(6, gen)
        total = sum(branch.apply(rho).trace().real
                    for branch in ideal.branches)
        assert abs(total - 1.0) < 1e-12


def test_ideal_branch_choi_trace_is_one_over_d():
    for D, E in [(2, 1), (2, 2), (3, 2)]:
        ideal = inst.ideal_instrument(D, E)
        for branch in ideal.branches:
            tr = ch.choi_from_kraus(branch).matrix.trace().real
            assert abs(tr - 1.0 / D) < 1e-12


def test_dimension_guards():
    with pytest.raises(UnsupportedDimension, match="need D >= 2 and E >= 1"):
        inst.ideal_instrument(1, 2)
    with pytest.raises(UnsupportedDimension):
        inst.ideal_instrument(2, 0)


@pytest.mark.parametrize("D, E", [(6, 1), (2, 6), (10 ** 6, 2),
                                  (10 ** 400, 1)])
def test_instrument_dimensions_are_bounded(D, E):
    # D = 10**6 used to construct, and the report then hung in the D² slot
    # lookups of every branch; the bound holds before any loop over D
    branches = inst.ideal_instrument(2, 1).branches
    for build in (lambda D, E: inst.InstrumentImplementation(D, E, branches),
                  lambda D, E: inst.UniformStochasticModel(D, E, {}),
                  lambda D, E: inst.NonUniformStochasticModel(D, E, {})):
        with pytest.raises(UnsupportedDimension, match="up to 5"):
            build(D, E)
    assert inst.ideal_instrument(5, 5).D == 5


def test_model_json_past_the_bound_names_the_cause():
    doc = inst.model_to_json(inst.random_uniform_model(2, 2, 0))
    for D in (30, 10 ** 6, 10 ** 400):
        with pytest.raises(InvalidModel, match="up to 5") as info:
            inst.model_from_json(dict(doc, D=D))
        assert isinstance(info.value.__cause__, UnsupportedDimension)


@pytest.mark.parametrize("D, E", [(2.0, 1), (2, 1.0), (2, True), (True, 1),
                                  ("2", 1)])
def test_instrument_dimensions_must_be_integers(D, E):
    # E = True used to construct, and a float D escaped as a bare TypeError
    branches = inst.ideal_instrument(2, 1).branches
    for build in (inst.ideal_instrument,
                  lambda D, E: inst.InstrumentImplementation(D, E, branches),
                  lambda D, E: inst.UniformStochasticModel(D, E, {}),
                  lambda D, E: inst.NonUniformStochasticModel(D, E, {})):
        with pytest.raises(UnsupportedDimension):
            build(D, E)


def test_numpy_integer_instrument_dimensions_are_stored_as_int():
    # NumPy integer dimensions used to be stored as they came, and json
    # then refused to encode the model
    two = np.int64(2)
    for model in (inst.random_uniform_model(two, two, 0),
                  inst.random_nonuniform_model(two, np.int32(1), 0),
                  inst.random_general_implementation(two, two, 0),
                  inst.ideal_instrument(two, np.int32(2))):
        assert type(model.D) is int and type(model.E) is int
        json.dumps(inst.model_to_json(model))


@pytest.mark.parametrize("generate", [inst.random_uniform_model,
                                      inst.random_nonuniform_model,
                                      inst.random_general_implementation])
@pytest.mark.parametrize("D, E", [(2.0, 2), (2, 2.0), (2, True)])
def test_generator_dimensions_must_be_integers(generate, D, E):
    # a float dimension escaped as a NumPy TypeError
    with pytest.raises(UnsupportedDimension):
        generate(D, E, 0)


def test_implementation_rejects_non_finite_kraus():
    ideal = inst.ideal_instrument(2, 1)
    bad = np.array(ideal.branches[0].kraus_ops[0])
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        inst.InstrumentImplementation(2, 1, (
            ch.KrausChannel(2, 2, (bad,)), ideal.branches[1]))


# ------------------------------------------------------------------
# uniform expansion
# ------------------------------------------------------------------

def test_perfect_model_expands_to_ideal():
    for D, E in [(2, 1), (2, 2), (3, 2)]:
        model = inst.UniformStochasticModel(D, E, {
            (0, 0): ch.StochasticChannel(E, 1.0, {(0, 0): 1.0})})
        impl = inst.expand_uniform(model)
        ideal = inst.ideal_instrument(D, E)
        for got, want in zip(impl.branches, ideal.branches):
            assert len(got.kraus_ops) == 1
            np.testing.assert_allclose(got.kraus_ops[0], want.kraus_ops[0],
                                       atol=1e-14)


def test_readout_flip_born_probabilities():
    impl = inst.expand_uniform(readout_flip_model())
    p0 = outcome_probabilities(impl, np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(p0, [0.8, 0.2], atol=1e-12)
    p1 = outcome_probabilities(impl, np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(p1, [0.2, 0.8], atol=1e-12)


def test_trace_preservation_check_refuses_nan_without_warnings():
    # sum K†K overflows to inf - inf = NaN, and "NaN > tol" is false, so
    # this model used to build, and its report failed later
    huge = np.array([[1e200j, 1e200], [-1e200 + 1e200j, 1e200 - 1e200j]])
    for kraus in (huge, np.array([[1e308, 0.0], [0.0, 0.0]])):
        branches = (ch.KrausChannel(2, 2, [kraus]),
                    ch.KrausChannel(2, 2, [np.zeros((2, 2))]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidModel, match="not trace preserving"):
                inst.InstrumentImplementation(2, 1, branches)


def test_expanded_models_trace_preserving():
    gen = linalg.rng(302)
    for trial in range(10):
        D = int(gen.integers(2, 4))
        E = int(gen.integers(1, 4))
        impl = inst.expand_uniform(inst.random_uniform_model(D, E, seed=500 + trial))
        for _ in range(10):
            rho = linalg.random_density(E * D, gen)
            p = outcome_probabilities(impl, rho)
            assert np.all(p >= -1e-12)
            assert abs(p.sum() - 1.0) < 1e-10


def test_uniform_model_weight_validation():
    with pytest.raises(InvalidModel):
        inst.UniformStochasticModel(2, 1, {
            (0, 0): ch.StochasticChannel(1, 0.5, {(0, 0): 0.5})})
    with pytest.raises(InvalidModel):
        inst.UniformStochasticModel(2, 1, {
            (0, 2): ch.StochasticChannel(1, 1.0, {(0, 0): 1.0})})
    with pytest.raises(InvalidModel):
        inst.UniformStochasticModel(2, 2, {   # wrong channel dimension
            (0, 0): ch.StochasticChannel(1, 1.0, {(0, 0): 1.0})})


# ------------------------------------------------------------------
# non-uniform expansion
# ------------------------------------------------------------------

def test_constant_table_matches_uniform_expansion():
    gen = linalg.rng(303)
    D, E = 2, 2
    uni = inst.random_uniform_model(D, E, seed=77)
    table = {(a, b, j): t for (a, b), t in uni.table.items()
             for j in range(D)}
    # per-outcome sums equal the uniform total = 1
    non = inst.NonUniformStochasticModel(D, E, table)
    impl_u = inst.expand_uniform(uni)
    impl_n = inst.expand_nonuniform(non)
    rho = linalg.random_density(E * D, gen)
    for bu, bn in zip(impl_u.branches, impl_n.branches):
        np.testing.assert_allclose(bu.apply(rho), bn.apply(rho), atol=1e-12)


def test_outcome_dependent_model_branch_structure():
    model = shipped_counterexample_model()
    impl = inst.expand_nonuniform(model)
    # branch j acts as T_j ⊗ ad_{|j><j|}
    gen = linalg.rng(304)
    sigma = linalg.random_density(2, gen)
    for j in range(2):
        basis = np.zeros((2, 2), dtype=complex)
        basis[j, j] = 1.0
        out = impl.branches[j].apply(linalg.kron(sigma, basis))
        t_j = model.table[(0, 0, j)]
        expected = linalg.kron(t_j.as_channel().apply(sigma), basis)
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_nonuniform_per_outcome_normalization_enforced():
    t = ch.StochasticChannel(1, 0.5, {(0, 0): 0.5})
    with pytest.raises(InvalidModel):
        inst.NonUniformStochasticModel(2, 1, {(0, 0, 0): t, (0, 0, 1): t})


def test_nonuniform_non_tp_table_rejected_at_construction():
    # per-outcome sums are 1 but report-flip weights are outcome dependent
    one = ch.StochasticChannel(1, 1.0, {(0, 0): 1.0})
    with pytest.raises(InvalidModel, match="not trace preserving"):
        inst.NonUniformStochasticModel(2, 1, {(0, 1, 0): one, (0, 0, 1): one})
    # sum K†K is diagonal, with sum_(a,b,j): j+b = c nu_(a,b,j) on basis
    # column c, so a table is a model exactly when every column gets weight
    # 1, and then it expands; odd trials share one report-flip marginal over
    # the outcomes (TP)
    gen = linalg.rng(306)
    verdicts = set()
    for trial in range(40):
        D, E = int(gen.integers(2, 4)), int(gen.integers(1, 3))
        shared = gen.dirichlet(np.ones(D))
        table, columns = {}, np.zeros(D)
        for j in range(D):
            mu = shared if trial % 2 else gen.dirichlet(np.ones(D))
            for b in range(D):
                a = int(gen.integers(D))
                table[(a, b, j)] = ch.random_stochastic_channel(
                    E, mu[b], seed=1000 * trial + D * j + b)
                columns[(j + b) % D] += mu[b]
        tp = bool(np.all(np.abs(columns - 1.0) <= 1e-9))
        if tp:
            inst.expand_nonuniform(
                inst.NonUniformStochasticModel(D, E, table))
        else:
            with pytest.raises(InvalidModel, match="not trace preserving"):
                inst.NonUniformStochasticModel(D, E, table)
        verdicts.add(tp)
    assert verdicts == {True, False}


def test_random_nonuniform_models_are_tp():
    gen = linalg.rng(305)
    for trial in range(10):
        D = int(gen.integers(2, 4))
        E = int(gen.integers(1, 3))
        impl = inst.expand_nonuniform(
            inst.random_nonuniform_model(D, E, seed=600 + trial))
        rho = linalg.random_density(E * D, gen)
        p = outcome_probabilities(impl, rho)
        assert abs(p.sum() - 1.0) < 1e-10


# ------------------------------------------------------------------
# full channel
# ------------------------------------------------------------------

def test_full_channel_ideal_d2_e1():
    fc = inst.full_channel(inst.ideal_instrument(2, 1))
    assert (fc.dim_in, fc.dim_out) == (2, 4)
    for j, k in enumerate(fc.kraus_ops):
        expected = np.zeros((4, 2))
        expected[j * 2 + j, j] = 1.0  # |j><j| ⊗ |j>
        np.testing.assert_array_equal(k, expected)


def test_expansions_and_full_channel_match_per_operator_kron():
    D, E = 3, 2
    model = inst.random_nonuniform_model(D, E, seed=312)
    for j, branch in enumerate(inst.expand_nonuniform(model).branches):
        want = []
        for a in range(D):
            for b in range(D):
                flip = np.zeros((D, D))
                flip[(j + a) % D, (j + b) % D] = 1.0
                want += [np.kron(k, flip)
                         for k in model.table[(a, b, j)].kraus_ops()]
        np.testing.assert_array_equal(branch.kraus_ops, np.array(want))
    impl = inst.random_general_implementation(D, E, seed=311)
    fc = inst.full_channel(impl)
    want = []
    for j, branch in enumerate(impl.branches):
        ket = np.zeros((D, 1))
        ket[j, 0] = 1.0
        want += [np.kron(k, ket) for k in branch.kraus_ops]
    np.testing.assert_array_equal(fc.kraus_ops, np.array(want))


def test_full_channel_trace_out_outcome_is_forget_map():
    gen = linalg.rng(306)
    D, E = 3, 2
    ideal = inst.ideal_instrument(D, E)
    fc = inst.full_channel(ideal)
    rho = linalg.random_density(E * D, gen)
    out = fc.apply(rho)
    forgotten = linalg.partial_trace(out, [E * D, D], [0])
    pis = [branch.kraus_ops[0] for branch in ideal.branches]
    expected = sum(pi @ rho @ pi for pi in pis)
    np.testing.assert_allclose(forgotten, expected, atol=1e-12)


def test_full_channel_choi_trace_one():
    gen = linalg.rng(307)
    for trial in range(5):
        impl = inst.expand_uniform(
            inst.random_uniform_model(2, 2, seed=700 + trial))
        fc = inst.full_channel(impl)
        total = sum(k.conj().T @ k for k in fc.kraus_ops)
        np.testing.assert_allclose(total, np.eye(fc.dim_in), atol=1e-12)
        assert abs(ch.choi_from_kraus(fc).matrix.trace().real - 1.0) < 1e-12


@pytest.mark.parametrize("D, E", [(2, 1), (3, 2)])
def test_branch_differences_equal_branch_choi_differences(D, E):
    # the ideal rank-one term is subtracted in place on its support, which
    # gives the same bits as subtracting the ideal branch's Choi matrix
    ideal = inst.ideal_instrument(D, E)
    assert not np.any(inst.branch_differences(ideal))
    impl = inst.random_general_implementation(D, E, seed=320 + D)
    blocks = inst.branch_differences(impl)
    assert blocks.shape == (D, (E * D) ** 2, (E * D) ** 2)
    assert not blocks.flags.writeable
    for block, noisy, clean in zip(blocks, impl.branches, ideal.branches):
        np.testing.assert_array_equal(
            block, ch.choi_from_kraus(noisy).matrix
            - ch.choi_from_kraus(clean).matrix)


def test_born_probabilities_match_outcome_register_marginal():
    gen = linalg.rng(308)
    impl = inst.expand_nonuniform(inst.random_nonuniform_model(2, 2, seed=42))
    fc = inst.full_channel(impl)
    rho = linalg.random_density(4, gen)
    out = fc.apply(rho)
    marginal = linalg.partial_trace(out, [4, 2], [1])
    p = outcome_probabilities(impl, rho)
    np.testing.assert_allclose(np.diag(marginal).real, p, atol=1e-10)
    assert np.max(np.abs(marginal - np.diag(np.diag(marginal)))) < 1e-10


def test_born_probabilities_dimension_mismatch():
    impl = inst.ideal_instrument(2, 2)
    with pytest.raises(DimensionMismatch):
        outcome_probabilities(impl, np.eye(2) / 2)


# ------------------------------------------------------------------
# serialization
# ------------------------------------------------------------------

def test_model_json_roundtrip_uniform():
    model = inst.random_uniform_model(2, 2, seed=13)
    back = inst.model_from_json(json.loads(json.dumps(inst.model_to_json(model))))
    assert isinstance(back, inst.UniformStochasticModel)
    assert back.D == model.D and back.E == model.E
    for key, t in model.table.items():
        assert back.table[key].weights == t.weights


def test_model_json_roundtrip_nonuniform():
    model = inst.random_nonuniform_model(3, 1, seed=14)
    back = inst.model_from_json(json.loads(json.dumps(inst.model_to_json(model))))
    assert isinstance(back, inst.NonUniformStochasticModel)
    assert set(back.table) == set(model.table)


def test_model_json_roundtrip_general():
    impl = inst.random_general_implementation(2, 2, seed=15)
    back = inst.model_from_json(json.loads(json.dumps(inst.model_to_json(impl))))
    assert isinstance(back, inst.InstrumentImplementation)
    gen = linalg.rng(310)
    rho = linalg.random_density(4, gen)
    for b1, b2 in zip(back.branches, impl.branches):
        np.testing.assert_allclose(b1.apply(rho), b2.apply(rho), atol=1e-14)


def test_model_from_json_reports_failures():
    model = inst.random_uniform_model(2, 1, seed=16)
    obj = inst.model_to_json(model)
    obj["table"][0]["channel"]["nu"] = 0.123  # break the weight sum
    with pytest.raises(InvalidModel) as err:
        inst.model_from_json(obj)
    assert "sum" in str(err.value)


def test_model_from_json_rejects_repeated_entries():
    # D=2, E=1: (0,0) listed twice at 0.5 plus (1,1) at 0.5 lists 1.5 in total
    def entry(a, b, **extra):
        return dict(a=a, b=b, **extra, channel={
            "dim": 1, "nu": 0.5, "weights": [{"a": 0, "b": 0, "w": 0.5}]})
    uniform = {"type": "uniform", "D": 2, "E": 1,
               "table": [entry(0, 0), entry(0, 0), entry(1, 1)]}
    with pytest.raises(InvalidModel, match="duplicate"):
        inst.model_from_json(uniform)
    nonuniform = {"type": "nonuniform", "D": 2, "E": 1,
                  "table": [entry(0, 0, j=0), entry(0, 0, j=0),
                            entry(1, 1, j=0)]}
    with pytest.raises(InvalidModel, match="duplicate"):
        inst.model_from_json(nonuniform)


def test_model_from_json_wraps_every_validation_failure():
    # the same InvalidModel with its prefix, whichever constructor refused
    general = inst.model_to_json(inst.ideal_instrument(2, 1))
    broken = []
    for kraus in ([], [linalg.matrix_to_json(np.eye(1))]):
        bad = json.loads(json.dumps(general))
        bad["branches"][0]["kraus"] = kraus
        broken.append(bad)
    bad = json.loads(json.dumps(general))
    bad["branches"][0]["dim_in"] = 0
    broken.append(bad)
    bad = inst.model_to_json(readout_flip_model())
    bad["table"][0]["channel"]["dim"] = 0
    broken.append(bad)
    for obj in broken:
        with pytest.raises(InvalidModel, match="^model validation failed: "):
            inst.model_from_json(obj)


def test_model_from_json_malformed_raises_value_error():
    with pytest.raises(ValueError):
        inst.model_from_json({"type": "uniform", "D": 2})
    with pytest.raises(ValueError):
        inst.model_from_json({"type": "mystery", "D": 2, "E": 1})


@pytest.mark.parametrize("bad", [2.7, 0.6, "2", True])
def test_model_from_json_rejects_non_integer_fields(bad):
    # D, E and table labels are JSON integers; 2.7 used to decode as 2
    uniform = inst.model_to_json(inst.random_uniform_model(2, 2, seed=3))
    nonuniform = inst.model_to_json(inst.random_nonuniform_model(2, 2, seed=3))
    broken = [{**uniform, "D": bad}, {**nonuniform, "E": bad}]
    for obj, key in ((uniform, "a"), (uniform, "b"), (nonuniform, "j")):
        obj = json.loads(json.dumps(obj))
        obj["table"][-1][key] = bad
        broken.append(obj)
    # the model constructors refuse them: D and E by the dimension bound,
    # labels as table keys
    for obj in broken:
        with pytest.raises(InvalidModel,
                           match="^model validation failed: .*integer"):
            inst.model_from_json(obj)


@pytest.mark.parametrize("bad", [0.6, 1.0, "1", True])
def test_model_tables_reject_non_integer_labels(bad):
    # (0.6, 0) used to be stored as (0, 0) by the Python constructors
    t = ch.StochasticChannel(1, 1.0, {(0, 0): 1.0})
    with pytest.raises(InvalidModel, match="must be an integer"):
        inst.UniformStochasticModel(2, 1, {(bad, 0): t, (1, 1): t})
    with pytest.raises(InvalidModel, match="must be an integer"):
        inst.NonUniformStochasticModel(
            2, 1, {(0, 0, bad): t, (0, 0, 1): t})


def test_model_tables_accept_numpy_integer_labels():
    t = ch.StochasticChannel(1, 1.0, {(0, 0): 1.0})
    model = inst.UniformStochasticModel(2, 1, {(np.int64(0), np.int32(0)): t})
    assert list(model.table) == [(0, 0)]
    assert all(type(k) is int for k in next(iter(model.table)))


@pytest.mark.parametrize("bad", ["0.5", True, None])
def test_model_from_json_rejects_non_number_floats(bad):
    # weights, nu and matrix entries are JSON numbers, never strings or bools
    uniform = inst.model_to_json(inst.random_uniform_model(2, 2, seed=3))
    general = inst.model_to_json(inst.ideal_instrument(2, 1))
    broken = []
    for path in (("nu",), ("weights", 0, "w")):
        obj = json.loads(json.dumps(uniform))
        target = obj["table"][0]["channel"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        # the StochasticChannel constructor refuses nu and the weights
        with pytest.raises(InvalidModel, match="^model validation failed: "
                           ".* must be a finite real number"):
            inst.model_from_json(obj)
    for part in ("re", "im"):
        obj = json.loads(json.dumps(general))
        obj["branches"][0]["kraus"][0][part][1][0] = bad
        broken.append(obj)
    for obj in broken:
        with pytest.raises(ValueError, match="^malformed model object"):
            inst.model_from_json(obj)
