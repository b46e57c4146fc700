"""BENCHMARK.json names exactly the metrics the benchmark prints.

    python -m pytest -q perfbench/test_perfbench_contract.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_per_layer_names_match_the_traced_run():
    assert [m["name"] for m in SPEC["per_layer"]] == measure.per_layer_names()


def test_workloads_match_the_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


def test_end_to_end_metrics_have_setup_and_bounds():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["setup_s", "pass_s", "peak_rss_mb", "mc_tta_s"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_sources(tmp_path, capsys):
    old = run.SRC
    run.SRC = tmp_path / "src"
    try:
        assert run.main(["--workload", "carleson-mc", "--seed", "1", "--seconds", "1"]) != 0
    finally:
        run.SRC = old
    assert "no carleson_lab sources" in capsys.readouterr().err
    assert os.path.isdir(old)
