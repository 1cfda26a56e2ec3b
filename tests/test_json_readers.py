"""The JSON readers decode and the constructors validate.

Each scalar a reader takes from a document goes unchecked to the matching
constructor, so a bad value must raise what that constructor raises on it,
with the same message; ``model_from_json`` wraps the refusal in
``InvalidModel`` under its ``model validation failed: `` prefix.
"""

import json

import pytest

from qimet.channels import (ChoiMatrix, KrausChannel, StochasticChannel,
                            channel_from_json, channel_to_json,
                            choi_from_json, choi_from_kraus, choi_to_json,
                            stochastic_from_json, stochastic_to_json)
from qimet.errors import InvalidModel
from qimet.instruments import (InstrumentImplementation,
                               NonUniformStochasticModel,
                               UniformStochasticModel, expand_uniform,
                               model_from_json, model_to_json)

#: A bool, a string, a float where an integer is due, null, a list and an
#: integer beyond the float range.
BAD = (True, "2", 2.0, None, [2], 10 ** 400)

T1 = StochasticChannel(1, 1.0, {(0, 0): 1.0})
T2 = StochasticChannel(2, 1.0, {(0, 0): 1.0})
UNIFORM = UniformStochasticModel(2, 1, {(0, 0): T1})
NONUNIFORM = NonUniformStochasticModel(2, 1, {(0, 0, 0): T1, (0, 0, 1): T1})
GENERAL = expand_uniform(UNIFORM)
BRANCH = GENERAL.branches[0]
CHOI = choi_from_kraus(BRANCH)

#: (reader, document, path of the scalar, the constructor call on it)
CHANNEL_CASES = [
    (channel_from_json, channel_to_json(BRANCH), ("dim_in",),
     lambda v: KrausChannel(v, 2, BRANCH.kraus_ops)),
    (channel_from_json, channel_to_json(BRANCH), ("dim_out",),
     lambda v: KrausChannel(2, v, BRANCH.kraus_ops)),
    (choi_from_json, choi_to_json(CHOI), ("dim_in",),
     lambda v: ChoiMatrix(v, 2, CHOI.matrix)),
    (choi_from_json, choi_to_json(CHOI), ("dim_out",),
     lambda v: ChoiMatrix(2, v, CHOI.matrix)),
    (stochastic_from_json, stochastic_to_json(T2), ("dim",),
     lambda v: StochasticChannel(v, 1.0, [((0, 0), 1.0)])),
    (stochastic_from_json, stochastic_to_json(T2), ("nu",),
     lambda v: StochasticChannel(2, v, [((0, 0), 1.0)])),
    (stochastic_from_json, stochastic_to_json(T2), ("weights", 0, "a"),
     lambda v: StochasticChannel(2, 1.0, [((v, 0), 1.0)])),
    (stochastic_from_json, stochastic_to_json(T2), ("weights", 0, "b"),
     lambda v: StochasticChannel(2, 1.0, [((0, v), 1.0)])),
    (stochastic_from_json, stochastic_to_json(T2), ("weights", 0, "w"),
     lambda v: StochasticChannel(2, 1.0, [((0, 0), v)])),
]
MODEL_CASES = [
    (model_to_json(UNIFORM), ("D",),
     lambda v: UniformStochasticModel(v, 1, [((0, 0), T1)])),
    (model_to_json(UNIFORM), ("E",),
     lambda v: UniformStochasticModel(2, v, [((0, 0), T1)])),
    (model_to_json(UNIFORM), ("table", 0, "a"),
     lambda v: UniformStochasticModel(2, 1, [((v, 0), T1)])),
    (model_to_json(UNIFORM), ("table", 0, "b"),
     lambda v: UniformStochasticModel(2, 1, [((0, v), T1)])),
    (model_to_json(NONUNIFORM), ("table", 0, "j"),
     lambda v: NonUniformStochasticModel(2, 1,
                                         [((0, 0, v), T1), ((0, 0, 1), T1)])),
    (model_to_json(GENERAL), ("D",),
     lambda v: InstrumentImplementation(v, 1, GENERAL.branches)),
    (model_to_json(GENERAL), ("E",),
     lambda v: InstrumentImplementation(2, v, GENERAL.branches)),
]


def _with(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at ``path``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _refusal(call):
    with pytest.raises(Exception) as info:
        call()
    return info.value


def _case_id(case):
    reader, doc, path = case[0], case[-3], case[-2]
    name = reader.__name__ if callable(reader) else doc["type"]
    return "-".join([name, *map(str, path)])


@pytest.mark.parametrize("reader, doc, path, construct", CHANNEL_CASES,
                         ids=map(_case_id, CHANNEL_CASES))
def test_channel_readers_raise_the_constructors_error(reader, doc, path,
                                                      construct):
    for bad in BAD:
        got = _refusal(lambda: reader(_with(doc, path, bad)))
        want = _refusal(lambda: construct(bad))
        assert (type(got), str(got)) == (type(want), str(want)), bad


@pytest.mark.parametrize("doc, path, construct", MODEL_CASES,
                         ids=map(_case_id, MODEL_CASES))
def test_model_reader_wraps_the_constructors_error(doc, path, construct):
    for bad in BAD:
        got = _refusal(lambda: model_from_json(_with(doc, path, bad)))
        want = _refusal(lambda: construct(bad))
        assert type(got) is InvalidModel, bad
        assert str(got) == f"model validation failed: {want}"
        assert type(got.__cause__) is type(want)


def test_every_case_starts_from_a_document_the_reader_accepts():
    for reader, doc, _, _ in CHANNEL_CASES:
        reader(doc)
    for doc, _, _ in MODEL_CASES:
        model_from_json(doc)
