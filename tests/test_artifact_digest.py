import copy
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPTS / "artifact_digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

GOLDEN = json.loads((SCRIPTS / "artifact_digest.json").read_text())


def test_golden_matches_itself():
    assert digest.compare(GOLDEN, copy.deepcopy(GOLDEN)) == []


def test_comparator_reports_a_changed_exit_code_and_a_changed_float():
    golden = copy.deepcopy(GOLDEN)
    golden["readme-cover"]["exit_code"] += 1
    summary = golden["readme-carleson-test"]["artifacts"]["summary.json"]
    summary["berezin_sup"]["value"] *= 1.0 + 1e-6
    lines = digest.compare(golden, GOLDEN)
    assert len(lines) == 2, lines
    assert lines[0].startswith("readme-carleson-test/artifacts/summary.json/berezin_sup/value: golden ")
    assert lines[1] == f"readme-cover/exit_code: golden {golden['readme-cover']['exit_code']}, " \
                       f"got {GOLDEN['readme-cover']['exit_code']}"


def test_comparator_tolerates_float_rounding_only():
    golden = copy.deepcopy(GOLDEN)
    summary = golden["readme-carleson-test"]["artifacts"]["summary.json"]
    summary["berezin_sup"]["value"] *= 1.0 + 1e-12
    # a CSV float cell within the tolerance passes; a CSV integer or text cell must be equal
    csv_text = golden["readme-seq-decompose"]["artifacts"]["results.csv"]
    header, first, *rest = csv_text.splitlines()
    assert header == "index,class" and first == "0,0"
    golden["readme-seq-decompose"]["artifacts"]["results.csv"] = "\n".join([header, "0,1", *rest]) + "\n"
    verify_csv = golden["readme-verify-quick"]["artifacts"]["verify_results.csv"]
    golden["readme-verify-quick"]["artifacts"]["verify_results.csv"] = verify_csv.replace(",pass,", ",fail,", 1)
    lines = digest.compare(golden, GOLDEN)
    assert [line.split(":")[0] for line in lines] == [
        "readme-seq-decompose/artifacts/results.csv",
        "readme-verify-quick/artifacts/verify_results.csv",
    ], lines
    assert "row 1 column 1" in lines[0] and "'fail'" in lines[1]
