"""Tests for the randomized verification runners."""

import pytest

import qimet.metrics
import qimet.verify
from qimet.verify import run_trial

FIDELITY_IDS = ("cor-uniform-fidelity", "cor-nonuniform-fidelity")


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
