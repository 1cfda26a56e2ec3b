import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qimet.channels import (StochasticChannel, choi_from_kraus, choi_to_json,
                            identity_channel, weyl_operators)
import qimet
from qimet.cli import main
from qimet.instruments import (UniformStochasticModel, model_from_json,
                               model_to_json)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(path, model):
    path.write_text(json.dumps(model_to_json(model)))


def perfect_model():
    return UniformStochasticModel(
        2, 2, {(0, 0): StochasticChannel(2, 1.0, {(0, 0): 1.0})})


# ------------------------------------------------------------------
# gen
# ------------------------------------------------------------------

def test_gen_output_loads(capsys, tmp_path):
    out = tmp_path / "m.json"
    code, _, _ = run_cli(capsys, "gen", "uniform", "--dim-d", "2",
                         "--dim-e", "2", "--seed", "7", "--out", str(out))
    assert code == 0
    model = model_from_json(json.loads(out.read_text()))
    assert (model.D, model.E) == (2, 2)


def test_gen_identical_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run_cli(capsys, "gen", "nonuniform", "--seed", "11",
                             "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_writes_stdout_by_default(capsys):
    code, out, _ = run_cli(capsys, "gen", "general", "--seed", "3")
    assert code == 0
    model = model_from_json(json.loads(out))
    assert model.D == 2


def test_gen_unsupported_dimension(capsys):
    code, _, err = run_cli(capsys, "gen", "uniform", "--dim-e", "5")
    assert code == 2
    assert "E in 1..4" in err


def test_gen_rejects_unknown_kind(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "exotic"])
    assert info.value.code == 2


# ------------------------------------------------------------------
# metrics
# ------------------------------------------------------------------

def test_metrics_perfect_model(capsys, tmp_path):
    path = tmp_path / "perfect.json"
    write_model(path, perfect_model())
    code, out, _ = run_cli(capsys, "metrics", str(path))
    assert code == 0
    report = json.loads(out)
    assert abs(report["fidelity"] - 1.0) < 1e-12
    assert abs(report["diamond_exact"]) < 1e-12
    assert report["conventions"] == {"diamond": "full-norm"}


def test_metrics_worked_example(capsys, tmp_path):
    t00 = StochasticChannel(2, 0.8, {(0, 0): 0.72, (0, 1): 0.08})
    rest = StochasticChannel(2, 0.2, {(1, 0): 0.2})
    path = tmp_path / "m.json"
    write_model(path, UniformStochasticModel(2, 2, {(0, 0): t00, (1, 0): rest}))
    code, out, _ = run_cli(capsys, "metrics", str(path))
    assert code == 0
    report = json.loads(out)
    assert abs(report["fidelity"] - 0.72) < 1e-12
    assert abs(report["diamond_exact"] - 0.56) < 1e-12


def test_metrics_csv(capsys, tmp_path):
    path = tmp_path / "m.json"
    write_model(path, perfect_model())
    code, out, _ = run_cli(capsys, "metrics", str(path), "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    # the columns are the MetricsReport fields in order
    assert header == ("fidelity,diamond_lower,diamond_upper,diamond_exact,"
                      "nu00,lambda00,per_branch_trace_distances")
    cells = row.split(",")
    assert float(cells[0]) == pytest.approx(1.0)


def test_metrics_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code, _, err = run_cli(capsys, "metrics", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_metrics_invalid_model(capsys, tmp_path):
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps({"type": "uniform", "D": 2, "E": 1,
                                "table": []}))
    code, _, err = run_cli(capsys, "metrics", str(path))
    assert code == 2
    assert "error:" in err


def _flip_entry(a, b, nu):
    return {"a": a, "b": b, "channel": {
        "dim": 1, "nu": nu, "weights": [{"a": 0, "b": 0, "w": nu}]}}


def test_metrics_rejects_repeated_table_entry(capsys, tmp_path):
    # (0,0) twice at 0.5 and (1,1) at 0.5: a listed total of 1.5
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"type": "uniform", "D": 2, "E": 1, "table": [
        _flip_entry(0, 0, 0.5), _flip_entry(0, 0, 0.5),
        _flip_entry(1, 1, 0.5)]}))
    code, out, err = run_cli(capsys, "metrics", str(path))
    assert code == 2
    assert out == ""
    assert "duplicate" in err


def test_metrics_rejects_nan_weight(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"type": "uniform", "D": 2, "E": 1, "table": [
        _flip_entry(0, 0, 1.0), _flip_entry(1, 1, float("nan"))]}))
    code, out, err = run_cli(capsys, "metrics", str(path))
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_metrics_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "metrics", str(tmp_path / "nope.json"))
    assert code == 2


# ------------------------------------------------------------------
# verify
# ------------------------------------------------------------------

def test_verify_records_and_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "fvg-appendix",
                           "--trials", "5", "--seed", "42")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6  # 5 records + summary
    records = [json.loads(line) for line in lines[:5]]
    assert [r["trial_seed"] for r in records] == [42, 43, 44, 45, 46]
    assert all(r["passed"] for r in records)
    summary = json.loads(lines[-1])
    assert summary["trials"] == 5 and summary["passed"] == 5


def test_verify_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        code, _, _ = run_cli(capsys, "verify", "lemma-orthogonality",
                             "--trials", "8", "--seed", "5", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_csv_file_output(capsys, tmp_path):
    out = tmp_path / "records.csv"
    code, stdout, _ = run_cli(capsys, "verify", "kraus-rank", "--trials", "4",
                              "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("theorem_id,trial_seed,closed_form,oracle_value,"
                        "abs_error,passed")
    assert len(lines) == 5
    assert json.loads(stdout)["passed"] == 4


def test_verify_zero_trials(capsys):
    code, _, err = run_cli(capsys, "verify", "fvg-appendix", "--trials", "0")
    assert code == 2
    assert "trials must be >= 1" in err


@pytest.mark.parametrize("theorem", ["thm-instrument-bounds",
                                     "thm-uniform-diamond"])
def test_verify_solves_three_by_three_instruments(capsys, theorem):
    # three side-81 outcome blocks; the zero-padded side-243 delta was
    # refused with DimensionTooLarge (exit 2)
    code, out, _ = run_cli(capsys, "verify", theorem, "--trials", "1",
                           "--dim-d", "3", "--dim-e", "3")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["passed"] == 1


def test_verify_unknown_theorem(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "no-such-theorem"])
    assert info.value.code == 2


def test_verify_failure_exits_one(capsys):
    # an unachievable tolerance forces failed records
    code, out, _ = run_cli(capsys, "verify", "lemma-orthogonality",
                           "--trials", "2", "--tol", "0")
    assert code == 1
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["passed"] < summary["trials"]


def test_verify_rejects_bad_tolerance(capsys):
    # a NaN or negative tolerance is an input error, not a failed trial
    for bad in ("nan", "-1"):
        code, out, err = run_cli(capsys, "verify", "lemma-orthogonality",
                                 "--trials", "2", "--tol", bad)
        assert code == 2
        assert out == ""
        assert "tol must be" in err


# ------------------------------------------------------------------
# oracle-diamond
# ------------------------------------------------------------------

def test_oracle_diamond_unitary_pair(capsys, tmp_path):
    v = weyl_operators(2)[2].reshape(-1, order="F")  # U_(1,0) = X
    delta = choi_from_kraus(identity_channel(2)).matrix - np.outer(v, v.conj()) / 2
    from qimet.channels import ChoiMatrix
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(choi_to_json(ChoiMatrix(2, 2, delta))))
    code, out, _ = run_cli(capsys, "oracle-diamond", str(path),
                           "--tol", "1e-7")
    assert code == 0
    result = json.loads(out)
    assert abs(result["value"] - 2.0) < 1e-6
    assert result["gap"] <= 1e-7


def test_oracle_diamond_bad_tol(capsys, tmp_path):
    from qimet.channels import ChoiMatrix
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(choi_to_json(ChoiMatrix(1, 2, np.eye(2)))))
    code, _, err = run_cli(capsys, "oracle-diamond", str(path), "--tol", "-1")
    assert code == 2
    assert "positive" in err


def test_oracle_diamond_rejects_nan(capsys, tmp_path):
    from qimet.channels import ChoiMatrix
    obj = choi_to_json(ChoiMatrix(2, 2, np.eye(4) / 4))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(obj))
    obj["matrix"]["re"][1][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "oracle-diamond", str(path))
    assert code == 2
    assert out == ""
    assert "finite" in err
    # a NaN tolerance would never be compared as exceeded
    code, out, err = run_cli(capsys, "oracle-diamond", str(good),
                             "--tol", "nan")
    assert code == 2
    assert out == ""
    assert "positive" in err


def test_oracle_diamond_deep_tolerance_stops_without_warnings(tmp_path):
    # a side-24 map solved toward a gap at machine precision: a pencil
    # eigenvalue rounded outside [0, 1] once printed NumPy's sqrt and divide
    # RuntimeWarnings before a NaN stopped the solve; a fresh process shows
    # what a user sees on stderr
    from qimet.channels import ChoiMatrix
    g = np.random.default_rng(3)
    m = g.normal(size=(24, 24)) + 1j * g.normal(size=(24, 24))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(choi_to_json(
        ChoiMatrix(4, 6, (m + m.conj().T) / 48))))
    env = {**os.environ, "PYTHONPATH": str(Path(qimet.__file__).parents[1])}
    for tol in ("1e-11", "1e-12"):
        run = subprocess.run([sys.executable, "-m", "qimet.cli",
                              "oracle-diamond", str(path), "--tol", tol],
                             env=env, capture_output=True, text=True)
        assert "Warning" not in run.stderr
        result = json.loads(run.stdout)
        if run.returncode == 0:
            assert result["gap"] <= float(tol)
        else:
            assert run.returncode == 1
            assert re.search(r"stopped: (max_iterations|step_collapse"
                             r"|linalg_error)\)$", run.stderr.strip())


def test_oracle_diamond_malformed(capsys, tmp_path):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps({"dim_in": 2}))
    code, _, err = run_cli(capsys, "oracle-diamond", str(path))
    assert code == 2


def test_non_integer_sizes_exit_2(capsys, tmp_path):
    # a truncated size used to decode a 4.9-row matrix as 4 rows
    mat = np.eye(4) / 2
    obj = {"dim_in": 2, "dim_out": 2, "matrix": {
        "rows": 4.9, "cols": 4, "re": mat.tolist(), "im": (0 * mat).tolist()}}
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "oracle-diamond", str(path))
    assert (code, out) == (2, "")
    assert "malformed" in err


def test_non_number_floats_exit_2(capsys, tmp_path):
    # a string or boolean where a number belongs used to decode
    mat = np.eye(4) / 2
    choi = {"dim_in": 2, "dim_out": 2, "matrix": {
        "rows": 4, "cols": 4, "re": mat.tolist(), "im": (0 * mat).tolist()}}
    choi["matrix"]["im"][0][0] = False
    model = model_to_json(UniformStochasticModel(2, 1, {
        (0, 0): StochasticChannel(1, 1.0, {(0, 0): 1.0})}))
    model["table"][0]["channel"]["nu"] = "1.0"
    for command, obj in (("oracle-diamond", choi), ("metrics", model)):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert "malformed" in err


def test_integers_too_large_for_a_float_exit_2(capsys, tmp_path):
    # an integer beyond the float range escaped as an OverflowError
    # traceback with exit code 1, the code of a failed check
    choi = {"dim_in": 1, "dim_out": 1, "matrix": {
        "rows": 1, "cols": 1, "re": [[10 ** 400]], "im": [[0]]}}
    model = model_to_json(UniformStochasticModel(2, 1, {
        (0, 0): StochasticChannel(1, 1.0, {(0, 0): 1.0})}))
    model["table"][0]["channel"]["nu"] = 10 ** 400
    for command, obj in (("oracle-diamond", choi), ("metrics", model)):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "finite" in err


# ------------------------------------------------------------------
# package surface
# ------------------------------------------------------------------

def test_every_public_name_resolves():
    import qimet
    import qimet.cli
    for module_name in qimet.__all__:
        if module_name == "__version__":
            continue
        module = getattr(qimet, module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name} is listed " \
                "in __all__ but not defined"
    # whatever the command line uses from the package is public API; a
    # module without __all__ exports every name without a leading underscore
    for name, obj in vars(qimet.cli).items():
        home = getattr(obj, "__module__", "")
        if ((inspect.isfunction(obj) or inspect.isclass(obj))
                and home.startswith("qimet.") and home != "qimet.cli"):
            exported = getattr(sys.modules[home], "__all__", None)
            assert (not name.startswith("_") if exported is None
                    else name in exported), \
                f"qimet.cli uses {home}.{name}, which {home} does not export"


def test_cli_import_leaves_scipy_sparse_unloaded():
    # every command pays the CLI's imports; scipy.sparse alone costs tens of
    # milliseconds, and no command needs it
    env = {**os.environ, "PYTHONPATH": str(Path(qimet.__file__).parents[1])}
    probe = ("import sys, qimet.cli; print(sorted(m for m in sys.modules "
             "if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy made unimportable, a
    # fresh interpreter imports the CLI and verify and runs the oracle and a
    # report, and a plain CLI import loads no scipy module
    from qimet.channels import ChoiMatrix
    v = weyl_operators(2)[2].reshape(-1, order="F")  # U_(1,0) = X
    delta = (choi_from_kraus(identity_channel(2)).matrix
             - np.outer(v, v.conj()) / 2)
    choi, model = tmp_path / "delta.json", tmp_path / "model.json"
    choi.write_text(json.dumps(choi_to_json(ChoiMatrix(2, 2, delta))))
    assert main(["gen", "general", "--seed", "3", "--out", str(model)]) == 0
    argvs = [["oracle-diamond", str(choi), "--tol", "1e-7"],
             ["metrics", str(model)]]
    env = {**os.environ, "PYTHONPATH": str(Path(qimet.__file__).parents[1])}
    probe = ("import sys; sys.modules['scipy'] = None\n"
             "import qimet.cli, qimet.verify\n"
             f"print([qimet.cli.main(a) for a in {argvs!r}])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[0, 0]"
    probe = ("import sys, qimet.cli; print(sorted(m for m in sys.modules "
             "if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
