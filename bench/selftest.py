"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload for one pass and checks that:

* every metric ``BENCHMARK.json`` names is printed by name with its unit,
  in the human-readable lines and in the final JSON line, and so are
  ``fail_ratio``, ``op_s.p50`` and, where a run has 100 ops, ``op_s.p90``;
* every metric name matches ``[A-Za-z0-9_.-]+``;
* a deliberately corrupted reference value shows up as failed ops, and so in
  ``fail_ratio``, instead of passing (``oracle-dense`` and ``report-cli``;
  ``verify-mix`` checks ``record.passed`` and has no stored reference).

Takes about two minutes, most of it one ``oracle-dense`` pass and two
``verify-mix`` passes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run(workload, trace, reference=None):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.001", "--trace", str(trace)]
    if reference is not None:
        argv += ["--reference", reference]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0,
           f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(workload, lines, result, declared):
    expected = {m["name"]: m["unit"] for m in declared}
    expect(set(result["metrics"]) == set(expected),
           f"{workload}: metrics {sorted(result['metrics'])} differ from "
           f"{sorted(expected)}")
    for name, unit in expected.items():
        expect(NAME.match(name), f"bad metric name {name!r}")
        expect(result["metrics"][name]["unit"] == unit,
               f"{workload}: {name} has unit "
               f"{result['metrics'][name]['unit']!r}, want {unit!r}")
        expect(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines),
               f"{workload}: {name} not printed with unit {unit}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{workload}: attempted {result['attempted']!r}")
    printed = [("fail_ratio", "ratio")]
    if "--trace" not in workload:
        printed.append(("op_s.p50", "s"))
    if workload == "verify-mix":  # one pass is over 100 ops
        printed.append(("op_s.p90", "s"))
    for name, unit in printed:
        expect(any(line.startswith(f"{name} = ") and f" {unit}" in line
                   for line in lines),
               f"{workload}: {name} not printed with unit {unit}")


def corrupted(workload, work):
    """Copy of the stored reference with every value of ``workload`` off."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    if workload == "oracle-dense":
        for brackets in reference[workload].values():
            for bracket in brackets.values():
                bracket[0] += 1.0
                bracket[1] += 1.0
    else:
        for report in reference[workload].values():
            report["fidelity"] += 1e-3
    path = Path(work) / f"reference-{workload}.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    return str(path)


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as work:
        for workload in names:
            lines, result = run(workload, 0)
            check_metrics(workload, lines, result, spec["end_to_end"])
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload}: clean run failed {result['failed']} ops")
            if workload == "verify-mix":
                continue
            lines, result = run(workload, 0, corrupted(workload, work))
            expect(not result["correct"]
                   and result["failed"] == result["attempted"]
                   and "fail_ratio = 1.0 ratio" in "\n".join(lines),
                   f"{workload}: corrupted reference not caught: {result}")
        lines, result = run("report-cli", 1)
        check_metrics("report-cli --trace 1", lines, result, spec["per_layer"])
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
