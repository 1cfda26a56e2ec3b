"""Command-line front end.

Commands
--------
``gen``             write a random model/implementation as JSON
``metrics``         compute a metrics report for a model file
``verify``          run randomized theorem checks with deterministic seeds
``oracle-diamond``  certified diamond norm of a Choi-matrix JSON file

Outputs are deterministic byte-for-byte for identical invocations; CSV
columns follow the fields of ``MetricsReport`` and ``VerificationRecord``.
Exit codes: 0 success, 1 verification failure (or an unconverged oracle), 2
usage or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .channels import choi_from_json
from .errors import QimetError, Unconverged
from .instruments import (model_from_json, model_to_json,
                          random_general_implementation,
                          random_nonuniform_model, random_uniform_model)
from .metrics import MetricsReport, build_report
from .oracle import diamond_norm
from .verify import (_CHECKS, THEOREM_IDS, VerificationRecord, run_trials,
                     summarize)

__all__ = ["main"]

_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(MetricsReport))
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(VerificationRecord))


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    """One CSV cell: 17-significant-digit floats, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _csv_lines(fields, rows) -> str:
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_fmt(row[f]) for f in fields))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------
# commands
# ------------------------------------------------------------------

def _cmd_gen(args) -> int:
    makers = {
        "uniform": random_uniform_model,
        "nonuniform": random_nonuniform_model,
        "general": random_general_implementation,
    }
    model = makers[args.kind](args.dim_d, args.dim_e, args.seed)
    _emit(_dumps(model_to_json(model)), args.out)
    return 0


def _cmd_metrics(args) -> int:
    model = model_from_json(_load_json(args.model))
    report = dict(dataclasses.asdict(build_report(model, seed=args.seed)),
                  conventions={"diamond": "full-norm"})
    if args.format == "csv":
        text = _csv_lines(_REPORT_FIELDS, [report])
    else:
        text = _dumps(report)
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    records = run_trials(args.theorem_id, args.trials, args.seed,
                         dim_d=args.dim_d, dim_e=args.dim_e, tol=args.tol)
    rows = [dataclasses.asdict(r) for r in records]
    summary = dict(summarize(records), theorem_id=args.theorem_id)
    if args.format == "csv":
        body = _csv_lines(_RECORD_FIELDS, rows)
        _emit(body, args.out)
        stream = sys.stdout if args.out is not None else sys.stderr
        stream.write(json.dumps(summary, sort_keys=True) + "\n")
    else:
        body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        _emit(body, args.out)
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0 if summary["passed"] == summary["trials"] else 1


def _cmd_oracle(args) -> int:
    choi = choi_from_json(_load_json(args.choi))
    try:
        result = diamond_norm(choi, tol=args.tol)
    except Unconverged as exc:
        _emit(_dumps(dataclasses.asdict(exc.result)), args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(_dumps(dataclasses.asdict(result)), args.out)
    return 0


# ------------------------------------------------------------------
# argument parsing
# ------------------------------------------------------------------

def _limits_text() -> str:
    """The verify checks' dimension limits, one clause per limited check."""
    clauses = [f"{theorem_id} needs {limit[0]}"
               for theorem_id, (*_, limit) in _CHECKS.items()
               if limit is not None]
    return "; ".join(clauses + ["outside these they exit 2 before drawing."])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept for the
    process: ``parse_args`` keeps no state on it between calls (defaults,
    ``func`` included, land in a fresh namespace, and help reads the
    terminal width when it prints), so later ``main`` calls reuse it."""
    parser = argparse.ArgumentParser(
        prog="qimet",
        description="Error metrics for noisy quantum measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random model file")
    gen.add_argument("kind", choices=("uniform", "nonuniform", "general"))
    gen.add_argument("--dim-d", type=int, default=2,
                     help="measured register dimension (default 2)")
    gen.add_argument("--dim-e", type=int, default=2,
                     help="unmeasured register dimension (default 2)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    met = sub.add_parser("metrics", help="metrics report for a model file")
    met.add_argument("model", help="model JSON path")
    met.add_argument("--seed", type=int, default=0,
                     help="seed for the probe-state search (default 0)")
    met.add_argument("--format", choices=("json", "csv"), default="json")
    met.add_argument("--out", default=None)
    met.set_defaults(func=_cmd_metrics)

    ver = sub.add_parser(
        "verify", help="randomized theorem verification",
        epilog=_limits_text())
    ver.add_argument("theorem_id", choices=THEOREM_IDS, metavar="theorem_id",
                     help=f"one of: {', '.join(THEOREM_IDS)}")
    ver.add_argument("--trials", type=int, default=20,
                     help="number of trials (default 20)")
    ver.add_argument("--seed", type=int, default=0,
                     help="seed of the first trial; trial i uses seed + i "
                          "(default 0)")
    ver.add_argument("--dim-d", type=int, default=None,
                     help="measured register dimension D (default 2)")
    ver.add_argument("--dim-e", type=int, default=None,
                     help="unmeasured register dimension E (default 2; 3 for "
                          "kraus-rank, 6 for lemma-orthogonality; "
                          "fvg-appendix and sec7-counterexample draw their "
                          "own sizes)")
    ver.add_argument("--tol", type=float, default=None,
                     help="override the per-check pass tolerance")
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    ver.add_argument("--out", default=None,
                     help="write records to a file; summary goes to stdout")
    ver.set_defaults(func=_cmd_verify)

    orc = sub.add_parser("oracle-diamond",
                         help="certified diamond norm of a Choi JSON file")
    orc.add_argument("choi", help="ChoiMatrix JSON path")
    orc.add_argument("--tol", type=float, default=1e-6)
    orc.add_argument("--out", default=None)
    orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except (QimetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
