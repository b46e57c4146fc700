import json
from pathlib import Path

import numpy as np
import pytest

from carleson_lab import bergman, cli


def run_cli(args):
    return cli.main(list(args))


def test_ball_summary_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = run_cli(["ball", "--params", '{"z0": [0.6, 0.0], "r": 0.5}', "--out", str(out)])
    assert rc == 0
    assert (out / "results.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["volume"] == pytest.approx(0.123657, abs=1e-6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert "numpy" in manifest["versions"]
    assert manifest["exit_code"] == 0


def test_spec_file_roundtrip(tmp_path):
    spec = {
        "name": "volume",
        "operation": "ball",
        "parameters": {"op": "ball_volume", "z0": [0.6, 0.0], "r": 0.5},
        "output": {"dir": str(tmp_path / "o")},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli(["ball", "--spec", str(path)]) == 0
    rows = (tmp_path / "o" / "results.csv").read_text().splitlines()
    assert rows[0] == "field,value"
    assert rows[1].startswith("volume,0.1236565632170")


def test_unknown_spec_keys_rejected(tmp_path, capsys):
    path = tmp_path / "spec.json"
    for spec, field in (
        ({"name": "x", "operation": "ball", "mystery": 1}, "mystery"),
        ({"name": "x", "operation": "ball", "mc": {"seed": 1, "substreams": 4}}, "substreams"),
    ):
        path.write_text(json.dumps(spec))
        assert run_cli(["ball", "--spec", str(path)]) == cli.EXIT_USAGE
        assert field in capsys.readouterr().err


def test_malformed_sequence_declarations_exit_usage(tmp_path, capsys):
    # each names the offending field and ends without a traceback
    for text, field in (
        ('{"type": "ladder"}', "'n'"),
        ('{"type": "ladder", "n": "abc"}', "sequence/n"),
        ('{"type": "csv"}', "'path'"),
        ('{"type": "points"}', "'rows'"),
    ):
        rc = run_cli(["seq", "analyze", "--sequence", text, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE, text
        assert field in err and "Traceback" not in err, err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"name": "x",\n  "operation": }')
    assert run_cli(["ball", "--spec", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert ":2:" in err  # line-anchored message


def test_spec_operation_mismatch(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "x", "operation": "cover"}))
    assert run_cli(["ball", "--spec", str(path)]) == cli.EXIT_USAGE


def test_unknown_subcommand_usage_exit():
    assert run_cli(["frobnicate"]) == cli.EXIT_USAGE


def test_berezin_of_volume(tmp_path):
    out = tmp_path / "o"
    rc = run_cli(
        [
            "berezin",
            "--measure",
            '{"dimension": 1, "density": {"type": "power", "s": 0.0}}',
            "--params",
            '{"k_max": 5}',
            "--samples",
            "4000",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sup"] == pytest.approx(1.0, abs=0.1)


def test_carleson_test_divergent_density_exit_fail(tmp_path):
    rc = run_cli(
        [
            "carleson-test",
            "--measure",
            '{"dimension": 1, "density": {"type": "power", "s": -0.5}}',
            "--params",
            '{"k_max": 10, "ball_samples": 2000, "global_samples": 4000, "n_polynomials": 2}',
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == cli.EXIT_FAIL
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["overall"] == "fail"
    assert summary["agreement"] is True


def test_carleson_test_csv_rows_shape(tmp_path):
    rc = run_cli(
        [
            "carleson-test",
            "--measure",
            '{"dimension": 1, "density": {"type": "power", "s": 0.0}}',
            "--params",
            '{"k_max": 6, "ball_samples": 1000, "global_samples": 2000, "n_polynomials": 2}',
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 0
    header = (tmp_path / "o" / "results.csv").read_text().splitlines()[0]
    assert header.endswith("d,ratio,berezin")


def test_seq_escape_ladder(tmp_path):
    out = tmp_path / "o"
    rc = run_cli(
        [
            "seq",
            "escape",
            "--sequence",
            '{"type": "ladder", "n": 1, "count": 50}',
            "--params",
            '{"exponent": "n+1"}',
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total"] == pytest.approx(0.156518, abs=1e-6)


def test_seq_decompose_two_classes(tmp_path):
    rc = run_cli(
        [
            "seq",
            "decompose",
            "--sequence",
            '{"type": "points", "rows": [[0,0],[0.05,0],[0.5,0],[0.55,0]], "metric": "euclidean"}',
            "--params",
            '{"r": 0.1}',
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["n_classes"] == 2


def test_seq_shells_and_analyze(tmp_path):
    assert run_cli(
        ["seq", "shells", "--sequence", '{"type": "ladder", "n": 1, "count": 20}', "--out", str(tmp_path / "a")]
    ) == 0
    assert run_cli(
        ["seq", "analyze", "--sequence", '{"type": "ladder", "n": 1, "count": 20}', "--out", str(tmp_path / "b")]
    ) == 0
    rows = (tmp_path / "a" / "results.csv").read_text().splitlines()
    assert rows[0] == "m,N_m"


def test_cover_subcommand(tmp_path):
    rc = run_cli(
        ["cover", "--params", '{"n": 1, "epsilon": 0.2, "r": 0.5, "probes": 1500}', "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["uncovered"] == 0


def test_ek_subcommand(tmp_path):
    rc = run_cli(
        ["ek", "--params", '{"op": "ek_ball_measure", "z0": [0.0, 0.0], "r": 0.5}', "--samples", "20000", "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["n_excluded"] == 0


def test_run_replayable_byte_identical(tmp_path):
    args = [
        "berezin",
        "--measure",
        '{"dimension": 1, "density": {"type": "power", "s": 0.5}}',
        "--params",
        '{"k_max": 6}',
        "--samples",
        "2000",
        "--seed",
        "13",
    ]
    assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()


def test_json_output_format(tmp_path):
    rc = run_cli(
        ["ball", "--params", '{"op": "ball_volume", "z0": [0.3, 0.0], "r": 0.4}', "--format", "json", "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    data = json.loads((tmp_path / "o" / "results.json").read_text())
    assert data["header"] == ["field", "value"]


def test_registry_covers_primary_operations():
    # every public operation of the primary modules is reachable from a subcommand
    expected_ops = {
        "geometry_ball.pseudo_distance",
        "geometry_ball.ball_automorphism",
        "geometry_ball.kobayashi_ball",
        "geometry_ball.ball_volume",
        "geometry_ball.sample_ball_uniform",
        "geometry_ball.check_lemma_ball_inequality",
        "domains.boundary_distance",
        "domains.kobayashi_bounds",
        "domains.estimate_boundary_constants",
        "domains.check_distance_comparison",
        "domains.check_defining_fn_inequality",
        "bergman.kernel",
        "bergman.normalized_kernel",
        "bergman.berezin_transform",
        "bergman.check_kernel_upper",
        "bergman.check_kernel_lower",
        "bergman.check_submean",
        "measures.measure_of_ball",
        "measures.carleson_ratio_test",
        "measures.carleson_berezin_test",
        "measures.carleson_functional_test",
        "measures.cross_check_equivalence",
        "sequences.separation_constant",
        "sequences.count_in_ball",
        "sequences.greedy_decompose",
        "sequences.greedy_cover",
        "sequences.dirac_carleson_measure",
        "sequences.escape_sum",
        "sequences.shell_counts",
        "invariant_measure.ek_density",
        "invariant_measure.ek_ball_measure",
        "integrate.sample_unit_ball",
        "integrate.integrate_density",
        "cli.run",
        "cli.verify",
    }
    assert expected_ops <= set(cli.OPERATION_REGISTRY)
    # and each registry target resolves to a real handler or builtin
    for op, (subcommand, _) in cli.OPERATION_REGISTRY.items():
        assert subcommand in set(cli.HANDLERS) | {"verify", "*"}, op


def test_verify_row_names_cover_every_result():
    names = set()
    for row in cli.VERIFY_ROWS:
        names.add(row.__name__)
    assert len(cli.VERIFY_ROWS) >= 19


def test_verify_detects_kernel_mutation(tmp_path, monkeypatch):
    # flipping the kernel sign must break the reproducing-property row
    orig = bergman.kernel_values
    monkeypatch.setattr(bergman, "kernel_values", lambda z, pts: -orig(z, pts))
    rep = cli._row_kernel_reproducing(cli.QUICK_BUDGET, 0)
    assert rep.passed is False
