"""The benchmark's three workloads: seeded inputs, timed ops, output checks.

Every workload builds one *pass*, a fixed list of ops made from ``--seed``;
a run repeats the pass.  An op is a call into qimet's public API; its output
is collected and checked outside the timed region.

Inputs whose checks need stored reference values (``oracle-dense`` and
``report-cli``) are drawn by the seed from fixed pools of seeded instances,
so that ``reference.json`` can hold a value for every input a seed can pick.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import qimet.cli
import qimet.verify
from qimet.channels import ChoiMatrix, choi_from_kraus, choi_to_json
from qimet.instruments import (full_channel, ideal_instrument, model_to_json,
                               random_general_implementation,
                               random_nonuniform_model, random_uniform_model)
from qimet.linalg import rng
from qimet.metrics import instrument_diamond_lower_max, instrument_diamond_upper

#: Instance seeds of the oracle inputs: side-32 instrument deltas (D=2, E=2)
#: and side-24 random Hermitian maps (dim_in 4, dim_out 6).
INSTRUMENT_POOL = tuple(range(8))
RANDOM_POOL = tuple(range(4))
#: Per pass: how many of each pool a seed picks.
INSTRUMENT_PICKS = 6
RANDOM_PICKS = 2
ORACLE_TOL = 1e-7
#: Slack on comparisons between certified brackets, for roundoff.
BRACKET_SLACK = 1e-9
#: Slack on the instrument sandwich, as in the thm-instrument-bounds check.
SANDWICH_SLACK = 1e-6

#: Model seeds of the report inputs, per (kind, D, E).
REPORT_POOL = tuple(range(16))
REPORT_KINDS = {
    "uniform": random_uniform_model,
    "nonuniform": random_nonuniform_model,
    "general": random_general_implementation,
}
REPORT_DIMS = ((2, 2), (2, 3), (3, 3))
#: Allowed deviation of a report value from the stored one (relative to
#: ``max(1, |reference|)``).
REPORT_TOL = 1e-9

#: The trials of acceptance criteria 1, 2, 3, 5 (E=1 half), 7 and 8 in
#: ``tests/test_acceptance.py``: (theorem id, D, E, trial count).  ``None``
#: dims take the theorem's defaults.
ACCEPTANCE_TRIALS = (
    ("t-stochastic-diamond-identity", 2, 2, 100),
    ("t-stochastic-diamond-identity", 3, 3, 100),
    *(("cor-uniform-fidelity", d, e, 84) for d in (2, 3) for e in (1, 2, 3)),
    *(("cor-nonuniform-fidelity", d, e, 34)
      for d in (2, 3) for e in (1, 2, 3)),
    ("thm-instrument-bounds", 2, 1, 50),
    ("fvg-appendix", None, None, 1000),
    ("kraus-rank", None, None, 200),
    ("lemma-orthogonality", None, None, 200),
)
#: A verify-mix pass runs each count divided by this (every count divides).
VERIFY_SCALE = 2
VERIFY_THEOREMS = tuple(sorted({entry[0] for entry in ACCEPTANCE_TRIALS}))


@dataclass
class Op:
    """One timed call.

    ``reset`` runs untimed before the call; ``run`` is the timed call;
    ``collect`` turns its return value into the output to check and runs
    untimed; ``check`` returns an error message, or ``None`` when the output
    is correct.  Ops sharing a ``key`` share an input, and CLI ops with one
    key must write identical bytes.
    """

    key: str
    reset: Callable[[], None]
    run: Callable[[], object]
    collect: Callable[[object], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list
    #: argv of ``setup_probe.py``: one warm-up op on the smallest input.
    warmup: list


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _nothing():
    return None


def _cli_op(key, argv, out, check):
    def reset():
        if os.path.exists(out):
            os.remove(out)

    def collect(code):
        if code != 0 or not os.path.exists(out):
            return code, None
        with open(out, "rb") as fh:
            return code, fh.read()

    def checked(output):
        code, data = output
        if code != 0:
            return f"exit code {code}"
        if data is None:
            return "no output file"
        return check(data)

    return Op(key, reset, lambda: qimet.cli.main(argv), collect, checked)


# ------------------------------------------------------------------
# oracle-dense
# ------------------------------------------------------------------

def instrument_delta(seed):
    impl = random_general_implementation(2, 2, seed)
    delta = (choi_from_kraus(full_channel(impl))
             - choi_from_kraus(full_channel(ideal_instrument(2, 2))))
    return impl, delta


def random_map(seed):
    """Random Hermitian map, normalised as in acceptance criterion 9."""
    gen = rng(seed)
    side = 24
    m = gen.normal(size=(side, side)) + 1j * gen.normal(size=(side, side))
    return ChoiMatrix(4, 6, (m + m.conj().T) / (2 * side))


def oracle_schedule(seed):
    """Pass order: three instrument deltas, then one random map, twice."""
    gen = rng(seed)
    inst = [int(s) for s in gen.choice(INSTRUMENT_POOL, INSTRUMENT_PICKS,
                                       replace=False)]
    rand = [int(s) for s in gen.choice(RANDOM_POOL, RANDOM_PICKS,
                                       replace=False)]
    order = []
    for i, r in enumerate(rand):
        order += [("instrument", s) for s in inst[3 * i:3 * i + 3]]
        order.append(("random", r))
    return order


def _oracle_check(ref, sandwich):
    low_ref, up_ref = ref

    def check(data):
        res = json.loads(data)
        lo, up = res["primal_bound"], res["dual_bound"]
        if not res["gap"] <= ORACLE_TOL:
            return f"gap {res['gap']!r} above {ORACLE_TOL}"
        if not lo <= up:
            return f"primal bound {lo!r} above dual bound {up!r}"
        if lo > up_ref + BRACKET_SLACK or low_ref > up + BRACKET_SLACK:
            return f"bracket [{lo!r}, {up!r}] misses reference {ref!r}"
        if sandwich is not None:
            lower_max, upper = sandwich
            if not (lower_max - SANDWICH_SLACK <= res["value"]
                    <= upper + SANDWICH_SLACK):
                return (f"value {res['value']!r} outside instrument bounds "
                        f"[{lower_max!r}, {upper!r}]")
        return None
    return check


def oracle_dense(seed, work, reference):
    out = os.path.join(work, "oracle-out.json")
    ops = []
    files = {}
    for kind, s in oracle_schedule(seed):
        key = f"{kind}-{s}"
        if key not in files:
            path = os.path.join(work, f"choi-{key}.json")
            if kind == "instrument":
                impl, delta = instrument_delta(s)
                sandwich = (instrument_diamond_lower_max(impl, seed=s),
                            instrument_diamond_upper(impl))
            else:
                delta, sandwich = random_map(s), None
            _write_json(path, choi_to_json(delta))
            files[key] = (path, sandwich)
        path, sandwich = files[key]
        argv = ["oracle-diamond", path, "--tol", repr(ORACLE_TOL),
                "--out", out]
        ops.append(_cli_op(key, argv, out,
                           _oracle_check(reference[kind][str(s)], sandwich)))
    smallest = next(op.key for op in ops if op.key.startswith("random-"))
    warmup = ["cli", "oracle-diamond", files[smallest][0], "--tol",
              repr(ORACLE_TOL), "--out", os.path.join(work, "warmup-out.json")]
    return Workload(ops, warmup)


# ------------------------------------------------------------------
# verify-mix
# ------------------------------------------------------------------

def verify_schedule(seed):
    """Pass of ``(theorem_id, trial_seed, D, E)``, one trial seed per op.

    The trials of each entry of ``ACCEPTANCE_TRIALS`` are spread evenly over
    the pass, so that every stretch of it has about the same mix.
    """
    gen = rng(seed)
    slots = []
    for rank, (theorem, d, e, count) in enumerate(ACCEPTANCE_TRIALS):
        n = count // VERIFY_SCALE
        slots += [((k + 0.5) / n, rank, theorem, d, e) for k in range(n)]
    slots.sort(key=lambda slot: slot[:2])
    return [(theorem, int(gen.integers(2**31 - 1)), d, e)
            for _, _, theorem, d, e in slots]


def _verify_op(theorem, trial, d, e):
    def check(record):
        return None if record.passed else f"record failed: {record!r}"
    return Op(f"{theorem}-{trial}", _nothing,
              lambda: qimet.verify.run_trial(theorem, trial, d, e),
              lambda record: record, check)


def verify_mix(seed, work, reference):
    schedule = verify_schedule(seed)
    ops = [_verify_op(*entry) for entry in schedule]
    # The smallest trial that calls the oracle, so that its lazy costs count.
    theorem, trial, d, e = next(
        entry for entry in schedule
        if entry[0] == "t-stochastic-diamond-identity" and entry[2] == 2)
    warmup = ["trial", theorem, str(trial), str(d), str(e)]
    return Workload(ops, warmup)


# ------------------------------------------------------------------
# report-cli
# ------------------------------------------------------------------

def report_key(kind, d, e, s):
    return f"{kind}-{d}-{e}-{s}"


def report_models(seed):
    """One pool model per (kind, D, E), smallest dimensions first."""
    gen = rng(seed)
    return [(kind, d, e, int(gen.choice(REPORT_POOL)))
            for d, e in REPORT_DIMS for kind in REPORT_KINDS]


def write_model(work, kind, d, e, s):
    path = os.path.join(work, f"model-{report_key(kind, d, e, s)}.json")
    _write_json(path, model_to_json(REPORT_KINDS[kind](d, e, s)))
    return path


def _close(a, b):
    if a is None or b is None:
        return a is b
    if isinstance(b, list):
        return (isinstance(a, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if isinstance(b, dict):
        return a == b
    return abs(a - b) <= REPORT_TOL * max(1.0, abs(b))


def _report_check(ref):
    def check(data):
        report = json.loads(data)
        if set(report) != set(ref):
            return f"report fields {sorted(report)} differ from reference"
        for field, want in ref.items():
            if not _close(report[field], want):
                return f"{field} = {report[field]!r}, reference {want!r}"
        return None
    return check


def report_cli(seed, work, reference):
    out = os.path.join(work, "report-out.json")
    ops, paths = [], []
    for kind, d, e, s in report_models(seed):
        key = report_key(kind, d, e, s)
        paths.append(write_model(work, kind, d, e, s))
        ops.append(_cli_op(key, ["metrics", paths[-1], "--out", out], out,
                           _report_check(reference[key])))
    warmup = ["cli", "metrics", paths[0],
              "--out", os.path.join(work, "warmup-out.json")]
    return Workload(ops, warmup)


WORKLOADS = {
    "oracle-dense": oracle_dense,
    "verify-mix": verify_mix,
    "report-cli": report_cli,
}


def build(name, seed, work, reference):
    """Write the inputs of workload ``name`` for ``seed`` into ``work``."""
    return WORKLOADS[name](seed, work, reference.get(name, {}))


def check_outputs(ops, outputs):
    """Per executed op, ``None`` or why it failed.

    ``outputs[i]`` is the collected output of ``ops[i]``, or the exception
    its call raised.  CLI ops that share a key must write identical bytes.
    """
    first_bytes = {}
    errors = []
    for op, output in zip(ops, outputs):
        if isinstance(output, Exception):
            errors.append(f"{type(output).__name__}: {output}")
            continue
        try:
            error = op.check(output)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
        if error is None and isinstance(output, tuple):
            data = output[1]
            if first_bytes.setdefault(op.key, data) != data:
                error = "output bytes differ from an earlier run of this input"
        errors.append(error)
    return errors
