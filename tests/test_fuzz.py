"""Fuzz test of the JSON readers behind ``qimet metrics`` and
``qimet oracle-diamond``, and of ``qimet verify``'s dimensions.

Valid ``qimet gen`` and ``choi_to_json`` documents are mutated one value at
a time: a key is deleted, or a value becomes ``None``, a bool, a string, a
list, a huge or negative integer, or ``1e308``.  ``qimet verify`` runs each
theorem id with ``--dim-d`` or ``--dim-e`` set to 0, -1, 10**6 or 10**400.
Every command goes through ``qimet.cli.main`` in one child process, one
after another, under an address-space limit and a per-command alarm, so
that a hang or a failed allocation can neither stall nor exhaust the suite.
Each must exit 0, 1 or 2, with no other exception and no time-out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qimet
from qimet.channels import (StochasticChannel, choi_to_json,
                            random_stochastic_channel)
from qimet.instruments import (model_to_json, random_general_implementation,
                               random_nonuniform_model, random_uniform_model)
from qimet.verify import THEOREM_IDS

#: Values swapped in at a mutated position; ``DELETE`` removes a key.
DELETE = object()
REPLACEMENTS = (None, True, False, "1", [], [1], 10 ** 400, 10 ** 6, -1,
                1e308)
#: ``qimet verify`` dimension values; each id runs one trial.
VERIFY_DIMS = (0, -1, 10 ** 6, 10 ** 400)
#: Address-space limit of the child (it needs about 150 MB) and its alarm
#: per command, in seconds.
CHILD_BYTES = 1 << 30
ALARM_S = 2
#: How many of the enumerated mutations run, drawn with a fixed seed.
SAMPLE = 1000

CHILD = f"""
import contextlib, io, json, resource, signal, sys
resource.setrlimit(resource.RLIMIT_AS, ({CHILD_BYTES}, {CHILD_BYTES}))
from qimet.cli import main

class TimedOut(BaseException):  # no handler in qimet can swallow it
    pass

def alarm(*_):
    raise TimedOut

signal.signal(signal.SIGALRM, alarm)
for line in sys.stdin:
    argv = json.loads(line)
    signal.alarm({ALARM_S})
    try:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            outcome = main(argv)
    except TimedOut:
        outcome = "timed out"
    except Exception as exc:
        outcome = f"{{type(exc).__name__}}: {{exc}}"[:300]
    finally:
        signal.alarm(0)
    print(json.dumps([argv, outcome]), flush=True)
"""


def _paths(node, prefix=()):
    """Every position in a JSON document, as key/index tuples."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


def _seed_documents():
    """(command, document) pairs that ``qimet`` accepts unchanged."""
    models = (random_uniform_model(2, 2, 0), random_nonuniform_model(2, 1, 1),
              random_general_implementation(2, 1, 2))
    delta = (random_stochastic_channel(2, 1.0, 3).choi()
             - StochasticChannel(2, 1.0, {(0, 0): 1.0}).choi())
    return ([("metrics", model_to_json(m)) for m in models]
            + [("oracle-diamond", choi_to_json(delta))])


def _explicit_documents():
    """Model files past the dimension bound, which used to hang the report
    (D = 10**6, D = 10**400) or exhaust memory (D = 30, a 200-level
    channel); each must exit 2."""
    doc = model_to_json(random_uniform_model(2, 2, 0))
    wide = json.loads(json.dumps(doc))
    wide["E"] = 200
    for entry in wide["table"]:
        entry["channel"]["dim"] = 200
    return [("metrics", dict(doc, D=D)) for D in (10 ** 6, 10 ** 400, 30)] \
        + [("metrics", wide)]


def _documents():
    mutations = [(command, doc, path, value)
                 for command, doc in _seed_documents()
                 for path in _paths(doc)
                 for value in REPLACEMENTS + ((DELETE,) if isinstance(
                     path[-1], str) else ())]
    picks = np.random.default_rng(0).choice(len(mutations), SAMPLE,
                                            replace=False)
    return _explicit_documents() + [
        (command, _mutated(doc, path, value))
        for command, doc, path, value in (mutations[i] for i in sorted(picks))]


def _verify_argvs():
    """``qimet verify`` with one dimension out of the ordinary; kraus-rank
    at 10**6 used to die with a NumPy memory error."""
    return [["verify", theorem, "--trials", "1", option, str(value)]
            for theorem in THEOREM_IDS
            for option in ("--dim-d", "--dim-e")
            for value in VERIFY_DIMS]


def test_mutated_documents_exit_cleanly(tmp_path):
    lines = []
    for i, (command, doc) in enumerate(_documents()):
        path = tmp_path / f"doc-{i}.json"
        path.write_text(json.dumps(doc))
        lines.append(json.dumps([command, str(path)]))
    lines += [json.dumps(argv) for argv in _verify_argvs()]
    child = subprocess.run(
        [sys.executable, "-c", CHILD], input="\n".join(lines) + "\n",
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                 PYTHONPATH=str(Path(qimet.__file__).parents[1])))
    assert child.returncode == 0, child.stderr[-2000:]
    outcomes = [json.loads(line) for line in child.stdout.splitlines()]
    assert len(outcomes) == len(lines)
    assert [outcome for _, outcome in outcomes[:4]] == [2] * 4
    bad = [(argv, outcome) for argv, outcome in outcomes
           if outcome not in (0, 1, 2)]
    assert not bad, [(Path(argv[-1]).read_text()[:200]
                      if argv[0] != "verify" else argv, outcome)
                     for argv, outcome in bad[:5]]
