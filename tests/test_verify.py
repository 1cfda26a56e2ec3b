"""Tests for the randomized verification runners."""

import dataclasses

import pytest

import qimet.metrics
import qimet.verify
from qimet.channels import StochasticChannel
from qimet.errors import UnsupportedDimension
from qimet.instruments import (UniformStochasticModel, branch_differences,
                               expand_uniform)
from qimet.verify import run_trial

FIDELITY_IDS = ("cor-uniform-fidelity", "cor-nonuniform-fidelity")


def test_records_are_slotted_and_frozen():
    # a run keeps every record, so none carries an instance dict
    record = run_trial("kraus-rank", 0)
    assert not hasattr(record, "__dict__")
    assert tuple(dataclasses.asdict(record)) == record.__slots__
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.passed = False


@pytest.mark.parametrize("theorem_id", FIDELITY_IDS)
def test_fidelity_checks_match_closed_form_to_roundoff(theorem_id):
    # (D, E) = (2, 3): rank-deficient full-channel Choi states, where a
    # Choi square-root route is off by ~1e-9
    for seed in range(10):
        record = run_trial(theorem_id, seed, 2, 3)
        assert record.passed
        assert record.abs_error <= 1e-12


@pytest.mark.parametrize("theorem_id", FIDELITY_IDS)
def test_fidelity_checks_build_no_choi_matrix(theorem_id, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fidelity check took a Choi route")

    monkeypatch.setattr(qimet.metrics, "psd_sqrt", refuse)
    monkeypatch.setattr(qimet.verify, "choi_from_kraus", refuse)
    for seed in range(3):
        assert run_trial(theorem_id, seed, 3, 3).passed


@pytest.mark.parametrize("theorem_id", FIDELITY_IDS + (
    "thm-instrument-bounds", "thm-uniform-diamond", "sec7-counterexample"))
def test_instrument_checks_build_no_full_channel(theorem_id, monkeypatch):
    # the instrument error is assembled from the branch differences, and
    # the fidelity is read from the branch Kraus operators
    def refuse(*args, **kwargs):
        raise AssertionError("the check built a full channel")

    monkeypatch.setattr(qimet.verify, "full_channel", refuse, raising=False)
    monkeypatch.setattr(qimet.verify, "ideal_instrument", refuse,
                        raising=False)
    monkeypatch.setattr(qimet.metrics, "ideal_instrument", refuse)
    for seed in range(2):
        assert run_trial(theorem_id, seed).passed


def test_instrument_bounds_build_one_stack_per_trial(monkeypatch):
    # only the SDP reads a stack; the bounds come from the Kraus operators,
    # and the metrics module has no stack to build
    calls = []

    def counted(impl):
        calls.append(impl)
        return branch_differences(impl)

    monkeypatch.setattr(qimet.verify, "branch_differences", counted)
    assert not hasattr(qimet.metrics, "branch_differences")
    for seed in range(3):
        assert run_trial("thm-instrument-bounds", seed).passed
    assert len(calls) == 3


@pytest.mark.parametrize("theorem_id, D, E", [
    ("kraus-rank", 10**6, 10**6), ("kraus-rank", 10**400, 1),
    ("kraus-rank", 12, 13), ("kraus-rank", 0, 3), ("kraus-rank", 2, -1),
    ("lemma-orthogonality", 2, 0), ("lemma-orthogonality", 2, -5),
    ("lemma-orthogonality", 2, 257)],
    ids=lambda v: "10**400" if v == 10**400 else None)
def test_verify_dimensions_are_bounded_before_any_draw(theorem_id, D, E,
                                                       monkeypatch):
    # kraus-rank at (10**6, 10**6) died with a NumPy memory error, and
    # lemma-orthogonality ran E <= 1 silently at dimension 2
    def refuse(*args):
        raise AssertionError("drew before checking the dimensions")

    monkeypatch.setattr(qimet.verify, "rng", refuse)
    with pytest.raises(UnsupportedDimension, match=f"^{theorem_id} needs "):
        run_trial(theorem_id, 0, D, E)


@pytest.mark.parametrize("theorem_id, D, E", [
    ("kraus-rank", 12, 12), ("kraus-rank", 144, 1), ("kraus-rank", 1, 1),
    ("lemma-orthogonality", 2, 256), ("lemma-orthogonality", 10**6, 1)])
def test_verify_dimensions_at_their_limits_run(theorem_id, D, E):
    assert run_trial(theorem_id, 0, D, E).passed


@pytest.mark.parametrize("bad", [2.5, True, 0])
def test_trial_count_must_be_a_positive_integer(bad):
    # 2.5 escaped as a TypeError from range(), and True ran one trial
    with pytest.raises(ValueError, match="trials must be"):
        qimet.verify.run_trials("fvg-appendix", bad, 0)


@pytest.mark.parametrize("D, E", [(2, 1), (2, 3), (3, 2)])
def test_uniform_diamond_passes_away_from_default_dims(D, E):
    records = qimet.verify.run_trials("thm-uniform-diamond", 2, 0, D, E)
    assert all(r.passed for r in records)
    assert max(r.abs_error for r in records) <= 1e-6


def test_uniform_model_without_identity_entry_saturates_at_phi_plus():
    # no (0, 0) table entry: nu00 = 0, so the closed form is 2, and the
    # probe bound at the maximally entangled state on (reference x E),
    # read from block 0 of the branch differences, reaches it
    flip = StochasticChannel(2, 0.5, {(0, 1): 0.3, (1, 1): 0.2})
    shift = StochasticChannel(2, 0.5, {(1, 0): 0.5})
    model = UniformStochasticModel(2, 2, {(1, 0): flip, (0, 1): shift})
    assert 2.0 * qimet.metrics.uniform_diamond_exact(model) == 2.0
    saturated = qimet.verify._phi_plus_bound(
        branch_differences(expand_uniform(model)), 2)
    assert saturated == pytest.approx(2.0, abs=1e-12)
