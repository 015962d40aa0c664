"""Smoke tests of the benchmark itself: ``pytest mixbench -q``.

Sizes are tiny (``--seconds 1``: one session per slice), so they check
determinism and the correctness gate, not timing.
"""

import json
import os

import pytest

from mixbench import ROOT, calib
from mixbench.metrics import END_TO_END, PER_LAYER
from mixbench.run import execute, main
from mixbench.selfcheck import benchmark_json, manifest_json
from mixbench.workloads import WORKLOADS

#: sha256 of calib.py when the benchmark was defined.
CALIB_PY_SHA256 = (
    "28c01f2e84525516148fb1c660a3b3ca2c560e37a2ea13cd0db7218f62455900"
)


def _nodes(raw):
    return [piece["nodes"] for piece in raw["slices"]]


@pytest.fixture(scope="module")
def served_runs():
    """Two end-to-end runs with one seed and one with another."""
    workload = WORKLOADS["adhoc_compile"]
    return [
        execute(workload, seed, 1, trace=False) for seed in (7, 7, 8)
    ]


@pytest.fixture(scope="module")
def traced_runs():
    workload = WORKLOADS["bbq_churn"]
    return [execute(workload, 7, 1, trace=True) for _ in range(2)]


def test_same_seed_repeats_transcript_and_counts(served_runs):
    (first, raw_a), (second, raw_b), _ = served_runs
    assert first["correct"] and second["correct"]
    assert raw_a["transcript"] == raw_b["transcript"]
    assert _nodes(raw_a) == _nodes(raw_b)
    shipped = "tuples_shipped_per_session"
    assert (first["metrics"][shipped]["value"]
            == second["metrics"][shipped]["value"])
    assert first["attempted"] == second["attempted"]


def test_other_seed_other_transcript_same_metrics(served_runs):
    (first, raw_a), _, (other, raw_c) = served_runs
    assert other["correct"]
    assert raw_a["transcript"] != raw_c["transcript"]
    assert set(first["metrics"]) == set(other["metrics"]) == {
        m.name for m in END_TO_END
    }


def test_traced_counts_repeat_and_cover_every_layer_metric(traced_runs):
    (first, raw_a), (second, raw_b) = traced_runs
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m.name for m in PER_LAYER}
    for name in ("server.frames_per_session",
                 "qdom.commands_per_session",
                 "sources.tuples_shipped_per_session",
                 "rewriter.compiles_per_session"):
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
    assert raw_a["transcript"] == raw_b["transcript"]
    # Every session of a smoke run opens with a DML batch (its readers'
    # answers were checked against the oracle that applied the same).
    assert first["metrics"]["cache.invalidations_per_session"]["value"] > 0
    assert first["metrics"]["relational.dml_ms_per_statement"]["value"] > 0
    assert raw_a["trace"]["spans"] and not raw_a["missing_targets"]


def test_wrong_expectation_fails_the_run(capsys):
    code = main(["--workload", "adhoc_compile", "--seed", "3",
                 "--seconds", "1", "--inject-mismatch"])
    assert code != 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert result["correct"] is False and result["failed"] >= 1


def test_calibration_kernel_is_frozen():
    # The recorded hash is a literal on purpose: regenerating
    # MANIFEST.json must not be able to bless an edited kernel.
    assert calib.source_hash() == CALIB_PY_SHA256
    assert calib.REF_MS == 7.5


def test_benchmark_and_manifest_match_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared == benchmark_json()
    with open(os.path.join(ROOT, "mixbench", "MANIFEST.json")) as handle:
        manifest = json.load(handle)
    assert manifest == manifest_json()
    assert manifest["calib_py_sha256"] == CALIB_PY_SHA256
