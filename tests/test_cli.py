import contextlib
import copy
import csv
import importlib
import io
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson_lab import bergman, cli, geometry_ball, measures, sequences, verify
from carleson_lab.integrate import MCConfig
from carleson_lab.reports import write_csv


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


# scipy is imported at its call site, and input is read without jsonschema: a
# fresh interpreter that imports the package, or runs one of these calls
# through cli.main, loads neither.  Boundary distances on the non-ball domains
# are a numpy projection, so they load no scipy either
_ELLIPSOID = '{"type": "ellipsoid", "semi_axes": [1.5, 1.0, 1.2, 0.9]}'
_PERTURBED_BALL = '{"type": "perturbed_ball", "dimension": 2, "epsilon": 0.1}'
_SCIPY_FREE_CALLS = {
    "import": None,
    "ball": ["ball", "--params", '{"z0": [0.6, 0.0], "r": 0.5}'],
    "berezin": ["berezin", "--measure", '{"dimension": 1, "density": {"type": "power", "s": 0.0}}',
                "--params", '{"k_max": 8}', "--samples", "40000"],
    # a pole density draws from the Beta tilt, whose normalisation is a closed form
    "berezin-pole": ["berezin", "--measure", '{"dimension": 1, "density": {"type": "power", "s": -0.5}}',
                     "--params", '{"k_max": 8}', "--samples", "40000"],
    "malformed": ["seq", "analyze", "--sequence", '{"type": "ladder"}'],
    # a ball count of one block of centres builds no KD-tree
    "seq-analyze-one-point": ["seq", "analyze", "--sequence", '{"type": "points", "rows": [[0.3, 0.1]]}'],
    **{f"{op}-{name}": ["ball", "--domain", domain, "--params", json.dumps({"op": op, **params})]
       for name, domain in (("ellipsoid", _ELLIPSOID), ("perturbed-ball", _PERTURBED_BALL))
       for op, params in (("boundary_distance", {"z": [0.3, 0.1, 0.0, 0.2]}),
                          ("check_distance_comparison", {"z0": [0.3, 0.1, 0.0, 0.2], "r": 0.5, "samples": 200}))},
}
_LOADED_MODULES = """
import json, sys
import carleson_lab, carleson_lab.cli as cli
argv = json.loads(sys.argv[1])
code = None if argv is None else cli.main(argv)
print(json.dumps({"code": code, "numpy.random": "numpy.random" in sys.modules,
                  "numpy.ma": "numpy.ma" in sys.modules, "jsonschema": "jsonschema" in sys.modules,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _package_env() -> dict:
    """The environment, with this package's sources first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _modules_loaded_by(tmp_path, argv) -> dict:
    """Exit code and loaded modules of a fresh interpreter that runs ``argv``
    through cli.main (or, for None, only imports the package)."""
    if argv is not None:
        argv = [*argv, "--out", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, json.dumps(argv)], cwd=tmp_path, env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(_SCIPY_FREE_CALLS))
def test_import_and_light_commands_load_no_scipy(tmp_path, case):
    argv = _SCIPY_FREE_CALLS[case]
    loaded = _modules_loaded_by(tmp_path, argv)
    assert loaded["scipy"] == [], loaded["scipy"][:5]
    assert loaded["jsonschema"] is False
    assert loaded["numpy.random"]
    if case not in ("import", "malformed"):
        assert loaded["code"] == cli.EXIT_PASS
        assert "scipy" not in json.loads((tmp_path / "o" / "manifest.json").read_text())["versions"]
    elif case == "malformed":
        assert loaded["code"] == cli.EXIT_USAGE


# the verdicts take their medians without np.median, whose first call imports
# numpy.ma (about 9 ms of every run); the README's carleson-test measure, the
# pole (1 - |w|^2)^-1/2, is no Carleson measure and exits 1
_MA_FREE_CALLS = {name: (_SCIPY_FREE_CALLS[name], cli.EXIT_PASS) for name in ("berezin", "berezin-pole")} | {
    "carleson-test": (["carleson-test", "--measure", '{"dimension": 1, "density": {"type": "power", "s": -0.5}}'],
                      cli.EXIT_FAIL),
}


@pytest.mark.parametrize("case", sorted(_MA_FREE_CALLS))
def test_berezin_and_carleson_test_load_no_numpy_ma(tmp_path, case):
    argv, code = _MA_FREE_CALLS[case]
    loaded = _modules_loaded_by(tmp_path, argv)
    assert loaded["code"] == code
    assert loaded["numpy.ma"] is False


# packings and covers draw their scrambled Sobol candidates in numpy, and
# boundary distances are a numpy projection, so the calls that build them load
# scipy but never scipy.stats or scipy.optimize
_STATS_FREE_CALLS = {
    "cover": ["cover", "--params", '{"n": 1, "epsilon": 0.1, "r": 0.5}'],
    "packing": ["seq", "analyze", "--sequence", '{"type": "packing", "n": 1}'],
    "verify": ["verify", "quick", "--seed", "5"],
}


@pytest.mark.parametrize("case", sorted(_STATS_FREE_CALLS))
def test_packings_covers_and_verify_load_no_scipy_stats(tmp_path, case):
    loaded = _modules_loaded_by(tmp_path, _STATS_FREE_CALLS[case])
    assert loaded["code"] == cli.EXIT_PASS
    assert "scipy.spatial" in loaded["scipy"]
    assert "scipy.stats" not in loaded["scipy"]
    assert "scipy.optimize" not in loaded["scipy"]


# Builds above MAX_VALUES values exit 3 naming the field, in a process whose
# address space is capped at 3 GiB, where each allocation would fail
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from carleson_lab import cli
sys.exit(cli.main(sys.argv[1:]))
"""


_POWER_10 = '{"dimension": 10, "density": {"type": "power", "s": 0.5}}'


@pytest.mark.parametrize("argv,field", [
    pytest.param(["seq", "analyze", "--sequence", '{"type": "ladder", "n": 10000000}'], "bad sequence/n (",
                 id="ladder"),
    pytest.param(["berezin", "--measure", '{"dimension": 10000000}'], "bad measure/dimension (", id="measure"),
    pytest.param(["seq", "analyze", "--sequence", '{"type": "packing", "n": 60}'], "bad sequence/n (", id="packing"),
    pytest.param(["carleson-test", "--measure", _POWER_10, "--params", '{"ball_samples": 10000000}'],
                 "bad parameters/ball_samples (", id="ball_samples"),
    pytest.param(["carleson-test", "--measure", _POWER_10, "--params", '{"global_samples": 10000000}'],
                 "bad parameters/global_samples (", id="global_samples"),
    pytest.param(["ball", "--domain", '{"type": "perturbed_ball", "dimension": 1000}', "--params",
                  json.dumps({"op": "boundary_distance", "z": [0.0] * 2000})], "bad domain/dimension (",
                 id="projection"),
])
def test_builds_above_the_value_ceiling_exit_usage(tmp_path, argv, field):
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv, "--out", str(tmp_path)], cwd=tmp_path,
                          env=_package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert field in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


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
        ({"name": "x", "operation": "ball", "mc": {"strata": [0.3, 0.6, 0.9]}}, "mc/strata"),
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


def test_unread_declarations_exit_usage_before_any_work(tmp_path, capsys):
    # a declaration that the operation would ignore is refused, naming it,
    # and the run writes nothing
    ladder = '{"type": "ladder", "n": 1, "count": 5}'
    pair = '{"op": "pseudo_distance", "z": [0.1, 0.0], "w": [0.2, 0.0]}'
    for k, (argv, field) in enumerate((
        (["ball", "--measure", '{"dimension": 1}'], "bad measure (ball op 'summary' does not read a measure)"),
        (["ball", "--sequence", ladder], "bad sequence (ball op 'summary' does not read a sequence)"),
        (["ball", "--params", pair, "--domain", '{"type": "ball", "dimension": 1}'], "bad domain ("),
        (["berezin", "--params", pair.replace("pseudo_distance", "kernel"), "--measure", '{"dimension": 1}'],
         "bad measure ("),
        (["cover", "--sequence", ladder], "bad sequence (cover does not read a sequence)"),
        (["seq", "analyze", "--sequence", ladder, "--domain", '{"type": "ball", "dimension": 1}'], "bad domain ("),
        (["carleson-test", "--measure", '{"dimension": 1}', "--sequence", ladder],
         "bad sequence (carleson-test does not read a sequence beside a measure)"),
    )):
        out = tmp_path / str(k)
        rc = run_cli(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE, argv
        assert field in err and "Traceback" not in err, err
        assert not out.exists(), argv


def _command_argv(command: str) -> list[str]:
    return ["seq", command[4:]] if command.startswith("seq-") else [command]


_LADDER_DECL = {"type": "ladder", "n": 1, "count": 10}
# one well-formed spec per kind of object, and where in it the misspelt key goes
_MISSPELT = {
    "spec": ({"operation": "ball", "parameters": {"op": "ball_volume"}}, (), "paramters"),
    "mc": ({"operation": "ball", "parameters": {"op": "ball_volume"}, "mc": {"seed": 1}}, ("mc",), "sead"),
    "output": ({"operation": "ball", "parameters": {"op": "ball_volume"}}, ("output",), "formt"),
    "domain-ball": ({"operation": "ball", "parameters": {"op": "boundary_distance", "z": [0.5, 0.1]},
                     "domain": {"type": "ball", "dimension": 1}}, ("domain",), "dimensions"),
    "domain-ellipsoid": ({"operation": "ball", "parameters": {"op": "boundary_distance", "z": [0.5, 0.1]},
                          "domain": {"type": "ellipsoid", "semi_axes": [1.5, 1.0]}}, ("domain",), "dimension"),
    "domain-perturbed-ball": ({"operation": "ball", "parameters": {"op": "boundary_distance", "z": [0.5, 0.1]},
                               "domain": {"type": "perturbed_ball", "dimension": 1, "epsilon": 0.1}},
                              ("domain",), "bump_centre"),
    "measure": ({"operation": "berezin", "parameters": {"k_max": 2},
                 "measure": {"dimension": 1, "atoms": [[[0.5, 0.0], 1.0]], "density": "none"}}, ("measure",), "atom"),
    "density": ({"operation": "berezin", "parameters": {"k_max": 2},
                 "measure": {"dimension": 1, "density": {"type": "power", "s": 0.5}}}, ("measure", "density"), "c"),
    "sequence-ladder": ({"operation": "seq-analyze", "sequence": _LADDER_DECL}, ("sequence",), "cout"),
    "sequence-packing": ({"operation": "seq-analyze", "sequence": {"type": "packing", "n": 1, "epsilon": 0.2}},
                         ("sequence",), "epsilno"),
    "sequence-lattice": ({"operation": "seq-analyze", "sequence": {"type": "lattice", "n": 1}}, ("sequence",),
                         "spaceing"),
    "sequence-csv": ({"operation": "seq-analyze", "sequence": {"type": "csv", "path": "CSV"}}, ("sequence",),
                     "rows"),
    "sequence-points": ({"operation": "seq-analyze", "sequence": {"type": "points", "rows": [[0.1, 0.0], [0.5, 0.0]]}},
                        ("sequence",), "path"),
    "parameters": ({"operation": "ball", "parameters": {"op": "ball_volume", "r": 0.5}}, ("parameters",), "radius"),
    "weight": ({"operation": "seq-escape", "sequence": _LADDER_DECL, "parameters": {"weight": {"kind": "power", "s": 2}}},
               ("parameters", "weight"), "exponent"),
}


@pytest.mark.parametrize("case", sorted(_MISSPELT))
def test_every_object_refuses_a_misspelt_key(tmp_path, capsys, case):
    # a key that no reader reads would run at the default of the key it meant:
    # each kind of object refuses one, naming it, and the run writes nothing
    spec, where, key = _MISSPELT[case]
    spec = json.loads(json.dumps({"name": case, "mc": {"n_samples": 400}, **spec}))
    if spec.get("sequence", {}).get("path") == "CSV":
        spec["sequence"]["path"] = str(tmp_path / "pts.csv")
        (tmp_path / "pts.csv").write_text("re0,im0\n0.1,0.0\n0.5,0.0\n")
    argv = _command_argv(spec["operation"]) + ["--spec", str(tmp_path / "spec.json")]
    for out, bad in ((tmp_path / "ok", False), (tmp_path / "bad", True)):
        spec["output"] = {**spec.get("output", {}), "dir": str(out)}
        target = spec
        for step in where:
            target = target.setdefault(step, {})
        if bad:
            target[key] = 1
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = run_cli(argv)
        err = capsys.readouterr().err
        assert (rc == cli.EXIT_USAGE) is bad, (case, rc, err)
        assert out.exists() is not bad
    assert f"bad {'/'.join(where or ('spec',))}/{key} (" in err and "Traceback" not in err, err


# inputs that ran, exited 1 or ended in a traceback, before every object refused
# what it does not read, every number had to be finite and the one-point kernel
# and density refused points outside the ball; CSV is a point CSV's path, the
# file holding the given text (None: no file)
_REFUSED = {
    "misspelt-declaration-key": (["seq", "analyze", "--sequence", '{"type": "packing", "n": 1, "epsilno": 0.2}'],
                                 None, "bad sequence/epsilno (sequence type 'packing' does not read it)"),
    "unread-domain-key": (["ball", "--domain", '{"type": "ellipsoid", "semi_axes": [1.5, 1.0], "dimension": 3}',
                           "--params", '{"op": "boundary_distance", "z": [0.3, 0.1]}'], None,
                          "bad domain/dimension (domain type 'ellipsoid' does not read it)"),
    "unread-density-key": (["berezin", "--measure", '{"dimension": 1, "density": {"type": "power", "s": 0.5, "c": 7}}'],
                           None, "bad measure/density/c (measure/density type 'power' does not read it)"),
    "unread-weight-key": (["seq", "escape", "--sequence", '{"type": "ladder", "n": 1, "count": 10}', "--params",
                           '{"weight": {"kind": "exp_inverse", "s": 3}}'], None,
                          "bad parameters/weight/s (parameters/weight kind 'exp_inverse' does not read it)"),
    "nan-atom": (["berezin", "--measure", '{"dimension": 1, "atoms": [[[NaN, 0], 1.0]], "density": "none"}'], None,
                 "bad measure/atoms (ValueError: expected a finite number, got nan)"),
    "nan-row": (["seq", "analyze", "--sequence", '{"type": "points", "rows": [[NaN, 0], [0.5, 0]]}'], None,
                "bad sequence/rows (ValueError: expected a finite number, got nan)"),
    "nan-semi-axis": (["ball", "--domain", '{"type": "ellipsoid", "semi_axes": [NaN, 1.0]}', "--params",
                       '{"op": "boundary_distance", "z": [0.3, 0.1]}'], None,
                      "bad domain/semi_axes (ValueError: expected a finite number, got nan)"),
    "infinite-parameter": (["ball", "--params", '{"r": Infinity}'], None,
                           "bad parameters/r (ValueError: expected a finite number, got inf)"),
    "csv-missing": (["seq", "analyze", "--sequence", "CSV"], None, "bad sequence/path (FileNotFoundError: "),
    "csv-text-cell": (["seq", "analyze", "--sequence", "CSV"], "re0,im0\n0.1,abc\n",
                      "bad sequence/path (ValueError: could not convert string to float: 'abc')"),
    "csv-nan-cell": (["seq", "analyze", "--sequence", "CSV"], "re0,im0\n0.1,nan\n",
                     "bad sequence/path (ValueError: expected a finite number, got nan)"),
    "csv-odd-row": (["seq", "analyze", "--sequence", "CSV"], "re0,im0\n0.1,0.0\n0.2\n",
                    "bad sequence/path (ValueError: rows differ in length)"),
    "csv-header-only-escape": (["seq", "escape", "--sequence", "CSV"], "re0,im0\n",
                               "bad sequence/path (TypeError: expected a non-empty list of rows, got [])"),
    "csv-header-only-decompose": (["seq", "decompose", "--sequence", "CSV"], "re0,im0\n",
                                  "bad sequence/path (TypeError: expected a non-empty list of rows, got [])"),
    # a point outside the ball, or within BOUNDARY_MARGIN of its sphere, as the distances refuse it
    "ek-density-outside": (["ek", "--params", '{"op": "ek_density", "z": [1.5, 0.0]}'], None,
                           "point must lie strictly inside the unit ball (||z|| = 1.5 "),
    "kernel-contact": (["berezin", "--params", '{"op": "kernel", "z": [0.99999999999999, 0.0], '
                        '"w": [0.99999999999999, 0.0]}'], None, "first point must lie strictly inside the unit ball"),
    "kernel-outside": (["berezin", "--params", '{"op": "kernel", "z": [1.5, 0.0], "w": [0.5, 0.0]}'], None,
                       "first point must lie strictly inside the unit ball (||z|| = 1.5 "),
    "normalized-kernel-outside": (["berezin", "--params", '{"op": "normalized_kernel", "z": [0.5, 0.0], '
                                   '"w": [1.5, 0.0]}'], None,
                                  "point must lie strictly inside the unit ball (||z|| = 1.5 "),
    # a base point or a probe outside the ball or of another dimension, which ran
    # at exit 0 or ended in a traceback before each point rule had one home
    "seq-analyze-base-outside": (["seq", "analyze", "--sequence", '{"type": "ladder", "n": 1, "count": 10}',
                                  "--params", '{"z0": [1.5, 0]}'], None,
                                 "base point must be finite and lie inside the unit ball"),
    "seq-shells-base-dimension": (["seq", "shells", "--sequence", '{"type": "ladder", "n": 1, "count": 10}',
                                   "--params", '{"z0": [0.5, 0, 0, 0]}'], None,
                                  "bad shape (1, 2) for base point: a point has 1 coordinates"),
    "berezin-probe-dimension-density": (["berezin", "--measure", '{"dimension": 1, "density": {"type": "power", '
                                         '"s": 0.5}}', "--params", '{"probes": [[0.5, 0, 0.1, 0]]}'], None,
                                        "probe point has 2 coordinates, not 1"),
    "berezin-probe-dimension-atoms": (["berezin", "--measure", '{"dimension": 1, "atoms": [[[0.5, 0.0], 1.0]], '
                                       '"density": "none"}', "--params", '{"probes": [[0.5, 0, 0.1, 0]]}'], None,
                                      "probe point has 2 coordinates, not 1"),
    # a radius that is not positive, which made one class or a count of 0
    "seq-decompose-negative-radius": (["seq", "decompose", "--sequence", '{"type": "points", "rows": '
                                       '[[0.1, 0], [0.15, 0], [0.5, 0]]}', "--params", '{"r": -1}'], None,
                                      "must be positive, got -1.0"),
    # a sample size below 100, which was raised to 100 unrecorded
    "carleson-test-few-ball-samples": (["carleson-test", "--measure", '{"dimension": 1, "density": {"type": "power", '
                                        '"s": 0.5}}', "--params", '{"ball_samples": 10, "global_samples": 7, '
                                        '"k_max": 4, "n_polynomials": 0}'], None,
                                       "bad parameters/ball_samples (ValueError: must be in [100, 10000000])"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_refused_inputs_name_their_field(tmp_path, capsys, case):
    argv, text, message = _REFUSED[case]
    path = tmp_path / "pts.csv"
    if text is not None:
        path.write_text(text)
    argv = [json.dumps({"type": "csv", "path": str(path)}) if arg == "CSV" else arg for arg in argv]
    assert run_cli(argv + ["--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


_BESIDE_SPEC = {
    "seed": "9", "samples": "4000", "out": "DIR", "format": "json", "params": '{"r": 0.9}',
    "measure": '{"dimension": 1}', "domain": '{"type": "ball", "dimension": 1}',
    "sequence": '{"type": "ladder", "n": 1, "count": 5}',
}


@pytest.mark.parametrize("flag", list(_BESIDE_SPEC))
def test_flags_beside_a_spec_exit_usage(tmp_path, capsys, flag):
    # a spec file gives the whole run: a flag beside it, which the run would
    # ignore, is refused before the spec is read, and nothing is written
    spec = {"name": "x", "operation": "ball", "output": {"dir": str(tmp_path / "spec-out")}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    value = str(tmp_path / "flag-out") if _BESIDE_SPEC[flag] == "DIR" else _BESIDE_SPEC[flag]
    assert run_cli(["ball", "--spec", str(tmp_path / "spec.json"), f"--{flag}", value]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"bad --{flag} (" in err and "Traceback" not in err, err
    assert not (tmp_path / "spec-out").exists() and not (tmp_path / "flag-out").exists()
    # the same spec alone runs
    assert run_cli(["ball", "--spec", str(tmp_path / "spec.json")]) == cli.EXIT_PASS


def test_flags_left_out_take_the_spec_readers_defaults(tmp_path, monkeypatch):
    # the parser holds no defaults: mc's seed 0 and 20,000 samples, output's
    # "out" and "csv" come from the spec reader, as for a spec that omits them
    monkeypatch.chdir(tmp_path)
    assert run_cli(["ball", "--params", '{"op": "ball_volume"}']) == cli.EXIT_PASS
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 0 and manifest["mc"] == {"seed": 0, "n_samples": 20_000}
    assert (tmp_path / "out" / "results.csv").exists()
    spec = cli._spec_from_args(cli.build_parser().parse_args(["ek"]), "ek")
    assert (spec.mc, spec.out_dir, spec.out_format) == (MCConfig(), "out", "csv")


def test_csv_roundtrip(tmp_path):
    # a file written by the run artifacts' CSV writer (re/im column pairs,
    # full-precision reprs) reads back bit for bit through the spec's reader
    seq = sequences.PointSequence.radial_ladder(2, 8)
    path = tmp_path / "pts.csv"
    write_csv(path, ["re0", "im0", "re1", "im1"], geometry_ball.points_to_rows(seq.points))
    decl = {"type": "csv", "path": str(path), "metric": "euclidean"}
    back = cli.ExperimentSpec.from_dict({"name": "x", "operation": "seq-analyze", "sequence": decl}).sequence()
    assert np.array_equal(back.points, seq.points) and back.metric == "euclidean"
    lines = path.read_text().splitlines()
    assert lines[0] == "re0,im0,re1,im1"
    assert lines[1] == f"{repr(1.0 - math.exp(-1.0))},0.0,0.0,0.0"


_VOLUME = ["ball", "--params", '{"op": "ball_volume"}']


def test_malformed_parameters_and_declarations_exit_usage(tmp_path, capsys):
    # wrong types, missing required fields and out-of-range values each end
    # with exit 3, name the field and print no traceback
    for argv, field in (
        (["ball", "--params", '{"r": "abc"}'], "parameters/r"),
        (["ball", "--params", '{"r": 1.5}'], "radius"),
        (["ek", "--params", '{"op": "check_ek_bounds", "n": "x"}'], "parameters/n"),
        (["cover", "--params", '{"probes": "many"}'], "parameters/probes"),
        (["cover", "--params", '{"n": 0}'], "parameters/n"),
        (["cover", "--params", '{"n": 10000}'], "parameters/n"),
        # a packing's candidate count is a power of n too: it overflows, or its divisor underflows
        (["seq", "analyze", "--sequence", '{"type": "packing", "n": 11000}'], "bad sequence/n ("),
        (["seq", "analyze", "--sequence", '{"type": "packing", "n": 300}'], "bad sequence/n ("),
        (["verify", "quick", "--seed", "-1"], "--seed"),
        (["seq", "escape", "--params", '{"weight": {"kind": "power"}}'], "parameters/weight"),
        (["ball", "--params", '{"op": "pseudo_distance", "w": [0.1, 0.0]}'], "parameters/z"),
        (["ball", "--params", '{"op": "boundary_distance", "z": [0.1, 0.0]}', "--domain", '{"type": "ellipsoid"}'],
         "semi_axes"),
        (["ball", "--domain", '{"type": "ellipsoid"}'], "semi_axes"),
        (["ball", "--params", '{"op": "boundary_distance", "z": [0.1, 0.0]}', "--domain",
          '{"type": "perturbed_ball", "dimension": 2}'], "coordinates"),
        (["carleson-test", "--measure", '{"dimension": 1, "density": {"type": "power"}}'], "'s'"),
        (["berezin", "--measure", '{"dimension": 1, "density": {"type": "beta"}}'], "measure/density/type"),
        (["seq", "analyze", "--sequence", '{"type": "lattice", "n": 1, "spacing": Infinity}'], "spacing"),
        (["ball", "--params", '{"op": "frobnicate"}'], "summary, kobayashi_ball"),
        # sizes above MAX_COUNT, which would fail allocating or fill memory
        (["cover", "--params", '{"probes": 1e30}'], "parameters/probes"),
        (["cover", "--params", '{"probes": 100000000000}'], "parameters/probes"),
        (["cover", "--params", '{"candidates": 1e30}'], "parameters/candidates"),
        (["berezin", "--params", '{"op": "check_kernel_upper", "points": 1e12}'], "parameters/points"),
        (["berezin", "--samples", "1000000000000"], "mc/n_samples"),
        (["seq", "analyze", "--sequence", '{"type": "ladder", "n": 1, "count": 1000000000000}'], "sequence/count"),
        (["carleson-test", "--measure", '{"dimension": 1}', "--params", '{"ball_samples": 1e15}'],
         "parameters/ball_samples"),
        (["carleson-test", "--measure", '{"dimension": 1}', "--params", '{"global_samples": 1e15}'],
         "parameters/global_samples"),
        # the ratio test divides by ball volumes, which underflow to 0 in high dimension or at great depth
        (["carleson-test", "--measure", '{"dimension": 1000, "density": {"type": "power", "s": 0.5}}', "--params",
          '{"k_max": 2}', "--samples", "100"], "bad measure/dimension ("),
        (["carleson-test", "--measure", '{"dimension": 25, "density": {"type": "power", "s": 0.5}}', "--params",
          '{"k_max": 39}', "--samples", "100"], "bad parameters/k_max ("),
        # from depth 2^-40 on, a schedule's centres lie within the boundary margin of the sphere
        (["carleson-test", "--measure", '{"dimension": 1}', "--params", '{"k_max": 40}'], "bad parameters/k_max ("),
        (["berezin", "--params", '{"k_max": 40}'], "bad parameters/k_max ("),
        (["berezin", "--params", '{"k_max": 10000000}'], "bad parameters/k_max ("),
        # loop counts, which would run until killed
        (["carleson-test", "--measure", '{"dimension": 1}', "--params", '{"n_polynomials": 1e15}'],
         "bad parameters/n_polynomials ("),
        (["berezin", "--params", '{"op": "check_submean", "degree": 1e15}'], "bad parameters/degree ("),
        # a size of zero is malformed too, not raised to the 100-sample floor
        (["carleson-test", "--measure", '{"dimension": 1}', "--params", '{"ball_samples": 0}'],
         "parameters/ball_samples"),
        # values a loose reader would let through: a bool for an integer, an object or a string for
        # a list, rows that are empty, odd or ragged, a numeric string for a number, a fraction for an
        # integer, a dimension of 10^15.  Declarations are read with the spec, so each exits 3 under
        # ball_volume, which builds none
        (_VOLUME + ["--sequence", '{"type": "ladder", "n": true}'], "bad sequence/n ("),
        (_VOLUME + ["--measure", '{"dimension": 1, "atoms": {}}'], "bad measure/atoms ("),
        (_VOLUME + ["--measure", '{"dimension": 1, "atoms": [[[0.5], 1.0]]}'], "bad measure/atoms ("),
        (_VOLUME + ["--domain", '{"type": "ellipsoid", "semi_axes": ""}'], "bad domain/semi_axes ("),
        (_VOLUME + ["--sequence", '{"type": "points", "rows": []}'], "bad sequence/rows ("),
        (_VOLUME + ["--sequence", '{"type": "points", "rows": [[]]}'], "bad sequence/rows ("),
        (_VOLUME + ["--sequence", '{"type": "points", "rows": [[0.1, 0.0], [0.2]]}'], "bad sequence/rows ("),
        (_VOLUME + ["--measure", '{"dimension": 1, "density": {"type": "power", "s": "0.5"}}'],
         "bad measure/density/s ("),
        (_VOLUME + ["--sequence", '{"type": "ladder", "n": 1, "count": 1.5}'], "bad sequence/count ("),
        (_VOLUME + ["--measure", '{"dimension": 1000000000000000}'], "bad measure/dimension ("),
        (_VOLUME + ["--domain", '{"type": "ball", "dimension": 1000000000000000}'], "bad domain/dimension ("),
        (_VOLUME + ["--sequence", '{"type": "ladder", "n": 1000000000000000}'], "bad sequence/n ("),
        (["ball", "--params", '{"r": "0.5"}'], "bad parameters/r ("),
        (["ball", "--params", '{"samples": 1.5}'], "bad parameters/samples ("),
        (["ball", "--params", '{"op": "sample_unit_ball", "n": true}'], "bad parameters/n ("),
    ):
        rc = run_cli(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE, argv
        assert field in err and "Traceback" not in err, err


def test_readers_take_integral_floats_and_nulls(tmp_path):
    # 1.0 is an integer, as in JSON; a null optional field takes its default
    results = []
    for k, (decl, params) in enumerate((
        ('{"type": "ladder", "n": 1, "count": 20}', '{"r": 0.5}'),
        ('{"type": "ladder", "n": 1.0, "count": 20.0}', '{"r": 0.5}'),
        ('{"type": "ladder", "n": 1, "count": 20, "metric": null}', '{"r": null, "z0": null}'),
    )):
        assert run_cli(["seq", "analyze", "--sequence", decl, "--params", params, "--out", str(tmp_path / str(k))]) == 0
        results.append((tmp_path / str(k) / "results.csv").read_bytes())
    assert results[0] == results[1] == results[2]
    spec = cli.ExperimentSpec.from_dict({"name": "x", "operation": "ball", "mc": {"seed": None, "n_samples": 1000.0},
                                         "output": {"dir": None}, "parameters": None, "measure": None})
    assert (spec.mc, spec.out_dir, spec.parameters, spec.measure) == (MCConfig(n_samples=1000), "out", {}, None)


def test_loop_counts_take_zero(tmp_path):
    # no test polynomials, a constant polynomial and the top degree are valid;
    # the malformed cases exceed the ceilings
    measure = '{"dimension": 1, "density": {"type": "power", "s": 0.5}}'
    params = '{"k_max": 3, "ball_samples": 500, "global_samples": 1000, "n_polynomials": 0}'
    rc = run_cli(["carleson-test", "--measure", measure, "--params", params, "--out", str(tmp_path)])
    assert rc in (cli.EXIT_PASS, cli.EXIT_INCONCLUSIVE)
    for degree in (0, cli.MAX_DEGREE):
        params = json.dumps({"op": "check_submean", "degree": degree})
        assert run_cli(["berezin", "--params", params, "--samples", "2000", "--out", str(tmp_path)]) == cli.EXIT_PASS


# Fuzzed declarations: one valid, cheap call per table entry, with the one
# declaration it reads, if any, then one or two of its --params/--measure/
# --domain/--sequence fields replaced by junk or deleted, or else one unknown
# key added to one of its objects, nested ones included, which must exit 3.
# The junk is malformed (wrong types, out-of-range numbers, broken points); a
# size field's junk may also be an integer >= 10^15, which numpy refuses to
# allocate at once, so a missed size ceiling fails fast instead of filling memory
# (a loop count, n_polynomials or degree, would run until killed instead).
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([-1, 0, 1, 1.5, -0.5, math.nan, math.inf]),
    st.text(max_size=3),
    st.lists(st.sampled_from([0.0, 0.5, 1.5, "x"]), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "s", "type"]), st.sampled_from(["power", 1, None]), max_size=2),
)
_CHEAP = {"z": [0.1, 0.0], "w": [0.3, 0.1], "a": [0.2, 0.0], "z0": [0.2, 0.0], "r": 0.5, "n": 1, "k_max": 2,
          "samples": 100, "points": 100, "count": 5, "ball_samples": 100, "global_samples": 100,
          "n_polynomials": 1, "degree": 1, "epsilon": 0.5, "weight": {"kind": "power", "s": 2.0}, "exponent": "n"}
_SIZES = {"samples", "points", "count", "k_max", "probes", "ball_samples", "global_samples", "n_polynomials",
          "degree"}
_HUGE = st.integers(min_value=10**15, max_value=10**30)
_DECLARATIONS = {
    "measure": [{"dimension": 1, "density": {"type": "power", "s": 0.5}},
                {"dimension": 1, "atoms": [[[0.5, 0.0], 1.0]], "density": "none"}],
    "domain": [{"type": "ball", "dimension": 1}, {"type": "ellipsoid", "semi_axes": [1.5, 1.0]},
               {"type": "perturbed_ball", "dimension": 1, "epsilon": 0.1}],
    "sequence": [{"type": "ladder", "n": 1, "count": 10}, {"type": "packing", "n": 1, "delta": 0.5, "epsilon": 0.2},
                 {"type": "lattice", "n": 1, "spacing": 0.3}, {"type": "points", "rows": [[0.1, 0.0], [0.5, 0.0]]}],
}


@st.composite
def _fuzzed_call(draw):
    command, op = draw(st.sampled_from(sorted(cli.OPERATIONS, key=str)))
    params = {**_CHEAP, "op": op, "probes": 100 if command == "cover" else [[0.5, 0.0], [0.9, 0.0]]}
    reads = cli.READS.get((command, op), ())
    if command == "carleson-test" and draw(st.booleans()):
        reads = reads[1:]  # the Dirac measure of the sequence
    declarations = {kind: copy.deepcopy(draw(st.sampled_from(_DECLARATIONS[kind]))) for kind in reads[:1]}
    params["weight"] = dict(params["weight"])
    targets = [params, *declarations.values()]
    stray = draw(st.booleans())
    if stray:  # the only change, so nothing else can end the run first
        target = draw(st.sampled_from(targets + [v for t in targets for v in t.values() if isinstance(v, dict)]))
        target[draw(st.sampled_from(["stray", "Type", "s_", "n0"]))] = draw(st.sampled_from([0.5, "x", [1]]))
    for _ in range(0 if stray else draw(st.integers(1, 2))):
        target = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(st.one_of(_JUNK, _HUGE) if key in _SIZES else _JUNK)
    argv = _command_argv(command) + ["--params", json.dumps(params), "--samples", "200"]
    for kind, decl in declarations.items():
        argv += [f"--{kind}", json.dumps(decl)]
    return argv, stray


@settings(max_examples=120, deadline=None)
@given(call=_fuzzed_call())
def test_fuzzed_declarations_exit_without_traceback(tmp_path_factory, call):
    argv, stray = call
    out = tmp_path_factory.getbasetemp() / "fuzz"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run_cli(argv + ["--out", str(out)])
    assert rc in ((cli.EXIT_USAGE,) if stray else (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_INCONCLUSIVE,
                                                   cli.EXIT_USAGE)), argv
    assert "Traceback" not in err.getvalue(), argv


def test_every_operation_refuses_oversized_sizes(tmp_path, capsys):
    # the fuzz seldom pairs an operation with a size field it reads (1,500
    # examples never did), so every table entry gets each size field at 10^15.
    # One field at a time: an operation reads its fields in turn, so an earlier
    # field's refusal would hide a later field's missing ceiling.
    for command, op in sorted(cli.OPERATIONS, key=str):
        probes = 100 if command == "cover" else [[0.5, 0.0], [0.9, 0.0]]
        for size in sorted(_SIZES):
            params = {**_CHEAP, "op": op, "probes": probes, size: 10**15}
            argv = _command_argv(command)
            argv += ["--params", json.dumps(params), "--samples", "200", "--out", str(tmp_path)]
            for kind in cli.READS.get((command, op), ())[:1]:
                argv += [f"--{kind}", json.dumps(_DECLARATIONS[kind][0])]
            rc = run_cli(argv)
            err = capsys.readouterr().err
            assert rc in (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_INCONCLUSIVE, cli.EXIT_USAGE), argv
            assert "Traceback" not in err, argv


def test_unknown_operation_lists_the_table():
    spec = cli.ExperimentSpec(name="x", operation="ek", parameters={"op": "frobnicate"})
    with pytest.raises(cli.UsageError, match="ek_ball_measure, ek_density, check_ek_bounds"):
        cli.run(spec)
    with pytest.raises(cli.UsageError, match="ball, berezin, carleson-test, seq-analyze"):
        cli.run(cli.ExperimentSpec(name="x", operation="frobnicate"))


_VOLUME_MEASURE = ["--measure", '{"dimension": 1, "density": {"type": "power", "s": 0.0}}']
_LADDER = ["--sequence", '{"type": "ladder", "n": 1, "count": 10}']
_BALL = {"z0": [0.6, 0.0], "r": 0.5}
# one README-style call per table entry: its parameters and declarations
_CALLS = {
    ("ball", "summary"): (_BALL, []),
    ("ball", "kobayashi_ball"): (_BALL, []),
    ("ball", "ball_volume"): (_BALL, []),
    ("ball", "sample_ball_uniform"): ({**_BALL, "count": 5}, []),
    ("ball", "check_lemma_ball_inequality"): ({**_BALL, "samples": 100}, []),
    ("ball", "pseudo_distance"): ({"z": [0.1, 0.0], "w": [0.3, 0.1]}, []),
    ("ball", "ball_automorphism"): ({"a": [0.2, 0.0], "z": [0.1, 0.0]}, []),
    ("ball", "sample_unit_ball"): ({"n": 1, "count": 5}, []),
    ("ball", "boundary_distance"): ({"z": [0.5, 0.1]}, ["--domain", '{"type": "ball", "dimension": 1}']),
    ("ball", "kobayashi_bounds"): ({"z": [0.1, 0.0], "w": [0.3, 0.1]}, []),
    ("ball", "estimate_boundary_constants"): ({"z0": [0.0, 0.0], "probes": [[0.5, 0.0], [0.9, 0.0]]}, []),
    ("ball", "check_distance_comparison"): ({"z0": [0.5, 0.0], "samples": 100}, []),
    ("ball", "check_defining_fn_inequality"): ({"z0": [0.5, 0.0], "samples": 100}, []),
    ("berezin", "berezin_transform"): ({"k_max": 2}, _VOLUME_MEASURE),
    ("berezin", "kernel"): ({"z": [0.1, 0.0], "w": [0.3, 0.1]}, []),
    ("berezin", "normalized_kernel"): ({"z": [0.1, 0.0], "w": [0.3, 0.1]}, []),
    ("berezin", "integrate_density"): ({}, _VOLUME_MEASURE),
    ("berezin", "check_kernel_upper"): ({"n": 1, "points": 100}, []),
    ("berezin", "check_kernel_lower"): ({"n": 1, "samples": 100}, []),
    ("berezin", "check_submean"): ({"degree": 1, "z0": [0.3, 0.0], "r": 0.5}, []),
    ("carleson-test", None): ({"k_max": 2, "ball_samples": 100, "global_samples": 100, "n_polynomials": 1},
                              _VOLUME_MEASURE),
    ("seq-analyze", None): ({"r": 0.5}, _LADDER),
    ("seq-decompose", None): ({"r": 0.3}, _LADDER),
    ("seq-escape", None): ({"exponent": "n"}, _LADDER),
    ("seq-shells", None): ({"z0": [0.0, 0.0]}, _LADDER),
    ("cover", None): ({"n": 1, "epsilon": 0.5, "r": 0.5, "probes": 100}, []),
    ("ek", "ek_ball_measure"): ({"z0": [0.5, 0.0], "r": 0.5}, []),
    ("ek", "ek_density"): ({"z": [0.5, 0.0]}, []),
    ("ek", "check_ek_bounds"): ({"n": 1}, []),
}


def test_readme_calls_cover_the_table():
    assert set(_CALLS) == set(cli.OPERATIONS)


@pytest.mark.parametrize("entry", sorted(_CALLS, key=str), ids=lambda e: f"{e[0]}-{e[1]}")
def test_unread_parameter_exits_usage_naming_it(tmp_path, capsys, entry):
    # a misspelt key would run at the default of the key it meant: every entry
    # refuses a parameter it has not read, before it writes an artifact
    command, op = entry
    params, declarations = _CALLS[entry]
    params = {**params, "op": op} if op else params
    argv = _command_argv(command)
    argv += declarations + ["--samples", "400"]
    assert run_cli(argv + ["--params", json.dumps(params), "--out", str(tmp_path / "ok")]) != cli.EXIT_USAGE
    capsys.readouterr()
    out = tmp_path / "stray"
    assert run_cli(argv + ["--params", json.dumps({**params, "stray": 1}), "--out", str(out)]) == cli.EXIT_USAGE
    assert "bad parameters/stray (" in capsys.readouterr().err
    assert not out.exists()
    if op is None:  # a command without ops does not read one
        assert run_cli(argv + ["--params", json.dumps({**params, "op": "x"}), "--out", str(out)]) == cli.EXIT_USAGE
        assert "bad parameters/op (" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"name": "x",\n  "operation": }')
    assert run_cli(["ball", "--spec", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert ":2:" in err  # line-anchored message


def test_empty_spec_path_exits_usage(capsys):
    # an empty --spec names no file; it is not read as no spec at all
    assert run_cli(["ball", "--spec", ""]) == cli.EXIT_USAGE
    assert "cannot read spec file" in capsys.readouterr().err


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


def test_berezin_rows_are_the_berezin_test_rows(tmp_path):
    # the op writes carleson_berezin_test's rows: probe depth, value, std_error, probe
    measure = {"dimension": 1, "atoms": [[[0.5, 0.0], 1.0], [[0.0, 0.9], 0.5]], "density": {"type": "power", "s": 0.5}}
    rc = run_cli(["berezin", "--measure", json.dumps(measure), "--params", '{"k_max": 4}', "--samples", "2000",
                  "--seed", "3", "--out", str(tmp_path / "o")])
    assert rc == 0
    with open(tmp_path / "o" / "results.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["d", "berezin", "std_error", "c0", "c1"]
    mu = measures.Measure(1, [[0.5], [0.9j]], [1.0, 0.5], measures.PowerDensity(0.5))
    res = measures.carleson_berezin_test(mu, measures.boundary_schedule(1, 4), MCConfig(seed=3, n_samples=2000))
    want = [[r["d"], r["value"], r["std_error"], *geometry_ball.points_to_rows(r["center"][None, :])[0]]
            for r in res.rows]
    assert [[float(x) for x in row] for row in rows] == want
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["sup"] == res.sup.value


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
    # two votes; the "functional" key repeats the Berezin vote, written first
    assert list(summary["verdicts"]) == ["functional", "berezin", "ratio"]
    assert summary["verdicts"]["functional"] == summary["verdicts"]["berezin"]


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


def test_carleson_test_columns_are_the_schedule_centres(tmp_path):
    # n = 2: one re/im pair per coordinate, as boundary_schedule places them
    rc = run_cli(
        [
            "carleson-test",
            "--measure",
            '{"dimension": 2, "density": {"type": "power", "s": 0.5}}',
            "--params",
            '{"k_max": 3, "ball_samples": 500, "global_samples": 1000, "n_polynomials": 1}',
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc in (cli.EXIT_PASS, cli.EXIT_INCONCLUSIVE)
    lines = (tmp_path / "o" / "results.csv").read_text().splitlines()
    assert lines[0] == "c0,c1,c2,c3,d,ratio,berezin"
    coords = [[float(x) for x in line.split(",")[:4]] for line in lines[1:]]
    centres = [geometry_ball.points_to_rows(c[None, :])[0].tolist() for c in measures.boundary_schedule(2, 3)]
    assert coords == centres


def test_seq_analyze_lattice_keeps_metric(tmp_path):
    seps = {}
    for metric in ("euclidean", "pseudohyperbolic"):
        out = tmp_path / metric
        decl = json.dumps({"type": "lattice", "n": 1, "metric": metric})
        assert run_cli(["seq", "analyze", "--sequence", decl, "--out", str(out)]) == 0
        seps[metric] = json.loads((out / "summary.json").read_text())["separation"]
    lattice = sequences.PointSequence.perturbed_lattice(1, metric="euclidean")
    assert seps["euclidean"] == sequences.separation_constant(lattice)
    assert seps["euclidean"] != seps["pseudohyperbolic"]


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


def test_results_csv_cells_are_plain_numbers(tmp_path):
    # numpy scalars are written as their float value, not as "np.float64(...)"
    out = tmp_path / "o"
    rc = run_cli(["seq", "escape", "--sequence", '{"type": "ladder", "n": 1, "count": 5}', "--out", str(out)])
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[1] == "1,0.1353352832366127"
    assert not any("np." in line for line in lines)


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
    # scipy is loaded (the KD-tree needs it), so the manifest records its version
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == sys.modules["scipy"].__version__


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


# every public operation of the primary modules -> the (command, parameters.op)
# table entry that runs it
LIBRARY_OPERATIONS = {
    "geometry_ball.pseudo_distance": ("ball", "pseudo_distance"),
    "geometry_ball.ball_automorphism": ("ball", "ball_automorphism"),
    "geometry_ball.kobayashi_ball": ("ball", "kobayashi_ball"),
    "geometry_ball.ball_volume": ("ball", "ball_volume"),
    "geometry_ball.sample_ball_uniform": ("ball", "sample_ball_uniform"),
    "geometry_ball.check_lemma_ball_inequality": ("ball", "check_lemma_ball_inequality"),
    "domains.boundary_distance": ("ball", "boundary_distance"),
    "domains.kobayashi_bounds": ("ball", "kobayashi_bounds"),
    "domains.estimate_boundary_constants": ("ball", "estimate_boundary_constants"),
    "domains.check_distance_comparison": ("ball", "check_distance_comparison"),
    "domains.check_defining_fn_inequality": ("ball", "check_defining_fn_inequality"),
    "integrate.sample_unit_ball": ("ball", "sample_unit_ball"),
    "integrate.integrate_density": ("berezin", "integrate_density"),
    "integrate.integrate_over_balls": ("berezin", "check_submean"),
    "bergman.kernel": ("berezin", "kernel"),
    "bergman.normalized_kernel": ("berezin", "normalized_kernel"),
    "bergman.berezin_transform": ("berezin", "berezin_transform"),
    "bergman.check_kernel_upper": ("berezin", "check_kernel_upper"),
    "bergman.check_kernel_lower": ("berezin", "check_kernel_lower"),
    "bergman.check_submean": ("berezin", "check_submean"),
    "measures.measure_of_ball": ("carleson-test", None),
    "measures.carleson_ratio_test": ("carleson-test", None),
    "measures.carleson_berezin_test": ("carleson-test", None),
    "measures.carleson_functional_test": ("carleson-test", None),
    "measures.cross_check_equivalence": ("carleson-test", None),
    "sequences.dirac_carleson_measure": ("carleson-test", None),
    "sequences.separation_constant": ("seq-analyze", None),
    "sequences.count_in_ball": ("seq-analyze", None),
    "sequences.greedy_decompose": ("seq-decompose", None),
    "sequences.escape_sum": ("seq-escape", None),
    "sequences.shell_counts": ("seq-shells", None),
    "sequences.greedy_cover": ("cover", None),
    "invariant_measure.ek_density": ("ek", "ek_density"),
    "invariant_measure.ek_ball_measure": ("ek", "ek_ball_measure"),
    "invariant_measure.check_ek_bounds": ("ek", "check_ek_bounds"),
}


class _Reached(Exception):
    pass


def test_registry_covers_primary_operations(tmp_path, monkeypatch):
    # each library operation is a table entry, and running that entry calls it:
    # the function is swapped for one that raises, in every module holding it
    params = {"z": [0.1, 0.0], "w": [0.3, 0.1], "a": [0.2, 0.0], "z0": [0.2, 0.0], "k_max": 1, "samples": 100,
              "points": 100, "count": 5, "ball_samples": 100, "global_samples": 100, "n_polynomials": 1}
    probes = {"ball": [[0.5, 0.0], [0.9, 0.0]], "cover": 100}
    for name, (command, op) in LIBRARY_OPERATIONS.items():
        assert (command, op) in cli.OPERATIONS, name
        module, fn = name.split(".")
        original = getattr(importlib.import_module(f"carleson_lab.{module}"), fn)

        def reached(*args, _name=name, **kwargs):
            raise _Reached(_name)

        reads = cli.READS.get((command, op), ())
        with monkeypatch.context() as patch:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("carleson_lab"):
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            patch.setattr(mod, attr, reached)
            spec = cli.ExperimentSpec.from_dict({
                "name": name,
                "operation": command,
                # the declarations the entry reads; carleson-test reads the sequence's Dirac measure
                "measure": ({"dimension": 1, "density": {"type": "power", "s": 0.0}}
                            if command == "berezin" and "measure" in reads else None),
                "sequence": {"type": "ladder", "n": 1, "count": 5} if "sequence" in reads else None,
                "parameters": {**params, "op": op, "probes": probes.get(command), "epsilon": 0.5},
                "mc": {"seed": 0, "n_samples": 200},
                "output": {"dir": str(tmp_path)},
            })
            with pytest.raises(_Reached, match=name):
                cli.run(spec)
    # the parser offers every command of the table, and verify
    parser = cli.build_parser()
    for command in {command for command, _ in cli.OPERATIONS}:
        argv = _command_argv(command)
        assert parser.parse_args(argv).command == argv[0]
    assert parser.parse_args(["verify", "quick"]).suite == "quick"


# the table's rows in order; perfbench's cli-oneshot and the README count on 19
VERIFY_NAMES = [
    "kernel-reproducing", "volume-sandwich", "distance-comparison", "ball-inequality", "defining-fn-bound",
    "covering-multiplicity", "submean-ball", "submean-mean-comparison", "submean-neighbor", "kernel-upper",
    "kernel-lower", "normalized-kernel-lower", "carleson-equivalence", "greedy-decomposition",
    "discrete-carleson-chain", "escape-sum-full", "escape-sum-volume", "invariant-ball-measure", "escape-sum-weighted",
]


def test_verify_row_names_cover_every_result(tmp_path, capsys):
    assert len(verify.VERIFY_ROWS) == 19
    assert len(set(VERIFY_NAMES)) == 19
    assert cli.verify is verify.run_suite
    assert run_cli(["verify", "quick", "--seed", "5", "--out", str(tmp_path)]) == cli.EXIT_PASS
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:-1]]
    rows = json.loads((tmp_path / "verify_results.json").read_text())
    assert [r["name"] for r in rows] == printed == VERIFY_NAMES
    # each row's wall seconds go to the JSON only: the CSV stays a pure function of the seed
    assert all(r["seconds"] >= 0.0 and r["pass"] is True for r in rows)
    with open(tmp_path / "verify_results.csv") as fh:
        assert next(csv.reader(fh)) == ["name", "status", "statistic", "comparison", "bound", "std_error", "n_samples"]


def test_verify_batched_counts_are_count_in_ball():
    # greedy-decomposition and discrete-carleson-chain count with count_in_balls:
    # its counts are a distance matrix's and count_in_ball's, one centre at a time
    budget, seed, r = verify.QUICK_BUDGET, 5, 0.3
    bundle = verify._bundled_sequences(budget["disk_eps"], budget["ball2_eps"], seed)
    # the chain row's probes: about 16 points of each sequence
    cases = [(seq, seq.points[:: max(len(seq) // 16, 1)], 0.5) for _, seq in bundle]
    rng = np.random.default_rng(seed)
    worst_sep = math.inf
    for _ in range(budget["clouds"]):
        pts = geometry_ball.uniform_round_ball(rng, 1, budget["cloud_size"]) * 0.98
        cloud = sequences.PointSequence(points=pts)
        cases.append((cloud, pts, r))
        # the row's separation, here from the same-class pairs of the whole cloud at once
        colors = sequences.greedy_decompose(cloud, r).color_of
        same = (colors[:, None] == colors[None, :]) & ~np.eye(len(pts), dtype=bool)
        worst_sep = min(worst_sep, float(sequences.pseudo_block(pts, pts)[same].min()) / r)
    for seq, probes, radius in cases:
        counts = sequences.count_in_balls(seq, probes, radius).tolist()
        assert counts == np.count_nonzero(sequences.pseudo_block(probes, seq.points) < radius, axis=1).tolist()
        assert counts == [sequences.count_in_ball(seq, p, radius) for p in probes]
    row = verify._row_greedy_decomposition(budget, seed)
    assert row.statistic == worst_sep and row.gates == [("clouds_over_ball_count", 0.0, "==", 0.0)]


def test_verify_detects_kernel_mutation(tmp_path, monkeypatch):
    # flipping the kernel sign must break the reproducing-property row, whose
    # statistic is its worst case's ratio
    rep = verify._row_kernel_reproducing(verify.QUICK_BUDGET, 0)
    assert rep.passed is True and rep.statistic == max(case["ratio"] for case in rep.details["cases"])
    orig = bergman.kernel_values
    monkeypatch.setattr(bergman, "kernel_values", lambda z, pts: -orig(z, pts))
    rep = verify._row_kernel_reproducing(verify.QUICK_BUDGET, 0)
    assert rep.passed is False


def test_verify_kernel_lower_rows_share_the_library_floor(monkeypatch):
    # bergman.kernel_lower_bound is the only kernel-lower floor: raising it past
    # both rows' margins (about 2.4 on the raw ratio, 23 on the normalised one)
    # fails both
    rows = (verify._row_kernel_lower, verify._row_kernel_lower_normalized)
    assert all(row(verify.QUICK_BUDGET, 0).passed for row in rows)
    orig = bergman.kernel_lower_bound
    monkeypatch.setattr(bergman, "kernel_lower_bound", lambda r, n: 64.0 * orig(r, n))
    assert [row(verify.QUICK_BUDGET, 0).passed for row in rows] == [False, False]


# how a recorded gate compares its value with its bound, written apart from reports.py
_HOLDS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge, ">": operator.gt}
_STATUS = {True: "pass", False: "fail", None: "inconclusive"}
# verify quick at correct code fails one row at each of these seeds (scripts/verify_sweep_quick.json)
_FAILING_SEEDS = {35: "escape-sum-weighted", 47: "kernel-reproducing", 48: "invariant-ball-measure",
                  71: "covering-multiplicity", 171: "volume-sandwich"}
_CHECK_OPS = [("ball", "summary"), ("ball", "check_distance_comparison"), ("ball", "check_defining_fn_inequality"),
              ("berezin", "check_kernel_upper"), ("berezin", "check_kernel_lower"), ("berezin", "check_submean"),
              ("ek", "check_ek_bounds")]
_VERDICT_RUNS = {
    **{f"verify-{suite}-{seed}": ["verify", suite, "--seed", str(seed)]
       for suite, seed in [("quick", 5), ("full", 5), *(("quick", s) for s in _FAILING_SEEDS)]},
    **{f"{command}-{op}": [command, *_CALLS[command, op][1], "--samples", "400", "--params",
                           json.dumps({**_CALLS[command, op][0], "op": op})] for command, op in _CHECK_OPS},
    "cover": ["cover", "--params", '{"n": 1, "epsilon": 0.1, "r": 0.5}'],
}


@pytest.mark.parametrize("run", list(_VERDICT_RUNS))
def test_every_verdict_follows_from_its_artifact(tmp_path, capsys, run):
    # each verdict, and so the exit code, is re-derived from the gates its
    # artifact records: inconclusive when flagged so, else pass iff every gate holds
    argv = _VERDICT_RUNS[run]
    code = run_cli(argv + ["--out", str(tmp_path)])
    if argv[0] == "verify":
        records = json.loads((tmp_path / "verify_results.json").read_text())
        with open(tmp_path / "verify_results.csv") as fh:
            rows = [(row["name"], row["status"], row["comparison"]) for row in csv.DictReader(fh)]
        assert rows == [(r["name"], _STATUS[r["pass"]], r["comparison"]) for r in records]
    else:
        summary = json.loads((tmp_path / "summary.json").read_text())
        records = [summary.get("ball_inequality", summary)]
    verdicts = []
    for r in records:
        names = [gate["what"] for gate in r["gates"]]
        assert len(set(names)) == len(names), r["name"]
        assert r["gates"][0] == {"what": "statistic", "value": r["statistic"], "comparison": r["comparison"],
                                 "bound": r["bound"]}
        holds = all(_HOLDS[gate["comparison"]](gate["value"], gate["bound"]) for gate in r["gates"])
        verdicts.append(None if r["inconclusive"] else holds)
    assert [r["pass"] for r in records] == verdicts
    assert code == (cli.EXIT_FAIL if False in verdicts else cli.EXIT_INCONCLUSIVE if None in verdicts else cli.EXIT_PASS)
    if argv[0] == "verify":
        failing = _FAILING_SEEDS.get(int(argv[3]))
        assert [r["name"] for r in records if r["pass"] is not True] == ([failing] if failing else [])
