"""One size policy across every entry point that takes a dimension.

Models, stochastic channels, Weyl bases and the four random generators share
the model bound ``channels._MAX_MODEL_DIM``; the verify checks add their own
limits from one table, the two SDP checks' from the oracle's Choi-side cap;
the oracle refuses a larger Choi side.  At each bound the entry point works.
One past it, it raises ``UnsupportedDimension`` before anything is drawn.
"""

from functools import partial
from unittest import mock

import numpy as np
import pytest

import qimet.channels
import qimet.instruments
import qimet.verify
from qimet.channels import (ChoiMatrix, StochasticChannel,
                            random_stochastic_channel, weyl_operators)
from qimet.errors import UnsupportedDimension, Unconverged
from qimet.instruments import (InstrumentImplementation,
                               NonUniformStochasticModel,
                               UniformStochasticModel, ideal_instrument,
                               random_general_implementation,
                               random_nonuniform_model, random_uniform_model)
from qimet.oracle import diamond_norm
from qimet.verify import THEOREM_IDS, run_trial

IDENTITY = StochasticChannel(5, 1.0, {(0, 0): 1.0})


def starting_bracket(delta, tol):
    """The oracle after its size checks, stopped at its starting bracket."""
    try:
        return diamond_norm(delta, tol=tol, max_iterations=0)
    except Unconverged as exc:
        return exc.result


def instrument_bounds_trial(D, E):
    # the full solve at D*E = 12 sits at the oracle's Woodbury cap and takes
    # 11 s; tests/test_cli.py solves the (3,3) check to the end.  A starting
    # bracket need not pass, so no record is returned.
    with mock.patch.object(qimet.verify, "diamond_norm", starting_bracket):
        run_trial("thm-instrument-bounds", 0, D, E)


MODEL_PAST = [(6, 5), (5, 6), (1, 5), (5, 0)]
STOCHASTIC_PAST = [(2, 6), (2, 0)]

#: entry point -> (call on (D, E), (D, E) at the bound, each one past it)
CASES = {
    "random_uniform_model": (
        lambda D, E: random_uniform_model(D, E, 0), (5, 5), MODEL_PAST),
    "random_nonuniform_model": (
        lambda D, E: random_nonuniform_model(D, E, 0), (5, 5), MODEL_PAST),
    "random_general_implementation": (
        lambda D, E: random_general_implementation(D, E, 0), (5, 5),
        MODEL_PAST),
    "random_stochastic_channel": (
        lambda D, E: random_stochastic_channel(E, 1.0, 0), (2, 5),
        STOCHASTIC_PAST),
    "StochasticChannel": (
        lambda D, E: StochasticChannel(E, 1.0, {(0, 0): 1.0}), (2, 5),
        STOCHASTIC_PAST),
    "weyl_operators": (lambda D, E: weyl_operators(E), (2, 5),
                       STOCHASTIC_PAST),
    "InstrumentImplementation": (
        lambda D, E: InstrumentImplementation(
            D, E, ideal_instrument(5, 5).branches), (5, 5), MODEL_PAST),
    "UniformStochasticModel": (
        lambda D, E: UniformStochasticModel(D, E, {(0, 0): IDENTITY}),
        (5, 5), MODEL_PAST),
    "NonUniformStochasticModel": (
        lambda D, E: NonUniformStochasticModel(
            D, E, {(0, 0, j): IDENTITY for j in range(D)}),
        (5, 5), MODEL_PAST),
    # the oracle's (dim_in, dim_out): Choi side 144 at most
    "diamond_norm": (
        lambda i, o: diamond_norm(ChoiMatrix(i, o, np.eye(i * o) / (i * o))),
        (12, 12), [(29, 5)]),
    "t-stochastic-diamond-identity": (
        partial(run_trial, "t-stochastic-diamond-identity", 0), (2, 5),
        STOCHASTIC_PAST),
    "cor-uniform-fidelity": (partial(run_trial, "cor-uniform-fidelity", 0),
                             (5, 5), MODEL_PAST),
    "cor-nonuniform-fidelity": (
        partial(run_trial, "cor-nonuniform-fidelity", 0), (5, 5),
        MODEL_PAST),
    # both SDP checks: D*E <= 12, where D = 4, E = 3 meets the Woodbury
    # cap; past it, and within the model bound, D*E is 15 or 16
    "thm-uniform-diamond": (partial(run_trial, "thm-uniform-diamond", 0),
                            (4, 3), [(4, 4), (5, 3), (3, 5)]),
    "thm-instrument-bounds": (instrument_bounds_trial, (4, 3),
                              [(4, 4), (5, 3), (3, 5)]),
    # these two draw their own sizes and read neither D nor E
    "sec7-counterexample": (partial(run_trial, "sec7-counterexample", 0),
                            (6, 6), []),
    "fvg-appendix": (partial(run_trial, "fvg-appendix", 0), (6, 6), []),
    "lemma-orthogonality": (partial(run_trial, "lemma-orthogonality", 0),
                            (2, 256), [(2, 257), (2, 0)]),
    "kraus-rank": (partial(run_trial, "kraus-rank", 0), (12, 12),
                   [(13, 12), (0, 3)]),
}


def test_every_theorem_id_has_a_case():
    assert set(THEOREM_IDS) <= set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_size_entry_point_works_at_its_bound_and_refuses_past_it(
        name, monkeypatch):
    call, at, past = CASES[name]
    assert getattr(call(*at), "passed", True)  # a record must pass

    def refuse(*args, **kwargs):
        raise AssertionError("drew or generated past a size bound")

    for module in (qimet.channels, qimet.instruments, qimet.verify):
        monkeypatch.setattr(module, "rng", refuse)
    # the SDP checks refuse from the table, before their generators run
    for generator in ("random_uniform_model", "random_general_implementation"):
        monkeypatch.setattr(qimet.verify, generator, refuse)
    for dims in past:
        with pytest.raises(UnsupportedDimension):
            call(*dims)
