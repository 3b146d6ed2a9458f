import json
import math

import numpy as np
import pytest

from hardyop import compop
from hardyop.cli import json_dumps, main


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--json", str(out)])
    return code, json.loads(out.read_text())


def strip_runtime(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("runtime_ms", None)
    for check in doc.get("checks", ()):
        check.pop("elapsed_ms", None)
    return doc


def test_exit_code_on_invalid_selfmap(capsys):
    assert main(["norm", "2*z", "-N", "4,8"]) == 2
    assert "input error" in capsys.readouterr().err


def test_exit_code_on_parse_error(capsys):
    assert main(["distance", "z^^", "z", "-N", "4,8"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("symbol, solver", [
    ("alpha(0.5)", "eigvalsh"),    # real compression: Gram eigensolve
    ("(0.3+0.4i)*z", "svd"),       # complex compression: complex SVD
], ids=["real", "complex"])
def test_exit_code_on_lapack_failure(monkeypatch, capsys, symbol, solver):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    assert main(["norm", symbol, "-N", "8,16"]) == 3
    assert "solver error" in capsys.readouterr().err


def test_exit_code_on_unknown_flag():
    assert main(["norm", "z", "--frobnicate"]) == 2


def test_distance_rotation_target(tmp_path):
    code, doc = run_json(["distance", "i*z", "z", "-N", "3,6"], tmp_path)
    assert code == 0
    assert doc["command"] == "distance"
    assert doc["target"] == 2
    assert doc["dims"] == [3, 6]
    assert abs(doc["values"][-1] - 2.0) < 1e-11
    assert doc["pass"] is True


def test_norm_restricted_plateau(tmp_path):
    code, doc = run_json(
        ["norm", "(z^2+z^3)/2", "--restricted", "-N", "4,16,64"], tmp_path)
    assert code == 0
    assert doc["target"] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    for v in doc["values"]:
        assert v == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    for g in doc["gaps"]:
        assert abs(g) < 1e-9


def test_norm_opnorm_inner_target(tmp_path):
    code, doc = run_json(["norm", "alpha(0.5)", "-N", "16,64"], tmp_path)
    assert code == 0
    assert doc["target"] == pytest.approx(math.sqrt(3), abs=1e-12)
    assert doc["values"][0] <= doc["values"][1] <= doc["target"] + 1e-9


def test_distance_csv_mirror(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["distance", "z^2", "const(0.5)", "-N", "16,32",
                 "--json", str(tmp_path / "r.json"), "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "dim,value,target,gap"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "16"


def test_nrange_degenerate_segment(tmp_path):
    code, doc = run_json(["nrange", "alpha(0)", "-N", "32"], tmp_path)
    assert code == 0
    assert doc["target_ellipse"]["degenerate"] is True
    assert doc["target_ellipse"]["focus_a"] == [-1.0, 0.0]
    assert doc["contained"] == [True]
    assert doc["hausdorff"][0] <= 1e-8
    assert doc["interior_min_dist"] is not None


def test_nrange_dimension_schedule_gap_shrinks(tmp_path):
    code, doc = run_json(["nrange", "alpha(0.5)", "-N", "24,48", "--grid", "90"], tmp_path)
    assert code == 0
    assert doc["dims"] == [24, 48]
    assert doc["contained"] == [True, True]
    assert doc["hausdorff"][1] < doc["hausdorff"][0]


def test_nrange_builds_one_compression_per_dimension(monkeypatch, tmp_path):
    built = []
    comp_matrix = compop.comp_matrix

    def counted(s, N, *args):
        built.append(N)
        return comp_matrix(s, N, *args)

    monkeypatch.setattr(compop, "comp_matrix", counted)
    code, doc = run_json(["nrange", "alpha(0.5)", "-N", "16,32"], tmp_path)
    assert code == 0
    assert doc["interior_min_dist"] > 0
    assert built == [16, 32]


def test_nrange_no_target(tmp_path):
    code, doc = run_json(["nrange", "(z+z^2)/2", "-N", "24"], tmp_path)
    assert code == 0
    assert doc["target_ellipse"] is None
    assert doc["hausdorff"] == [None]
    assert doc["radius"][0] > 0


def test_nrange_boundary_csv(tmp_path):
    out = tmp_path / "b.csv"
    code = main(["nrange", "const(0.5)", "-N", "32", "--grid", "90",
                 "--json", str(tmp_path / "n.json"), "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,support,re,im"
    assert len(lines) == 91


def test_psolve_report(tmp_path):
    code, doc = run_json(["psolve", "(z^2+z^3)/2"], tmp_path)
    assert code == 0
    assert doc["outcome"] == "finite"
    assert doc["p"] == pytest.approx(2.0, abs=1e-6)
    assert doc["restricted_norm"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_psolve_inner_multiple(tmp_path):
    code, doc = run_json(["psolve", "0.7*z^3"], tmp_path)
    assert code == 0
    assert doc["outcome"] == "inner_multiple"
    assert doc["p"] is None


def test_psolve_unbracketed_near_inner(capsys):
    # not an inner multiple, and ||phi||_p stays below the restricted norm up to p = 2^16
    assert main(["psolve", "0.99999*z + 0.00001*z^2"]) == 3
    assert "solver error" in capsys.readouterr().err


def test_json_output_deterministic(tmp_path):
    _, doc1 = run_json(["distance", "z^2", "const(0.5)", "-N", "8,16"], tmp_path, "a.json")
    _, doc2 = run_json(["distance", "z^2", "const(0.5)", "-N", "8,16"], tmp_path, "b.json")
    assert json_dumps(strip_runtime(doc1)) == json_dumps(strip_runtime(doc2))


def test_verify_iterates_suite(tmp_path):
    code, doc = run_json(["verify", "iterates"], tmp_path)
    assert code == 0
    assert doc["pass"] is True
    assert doc["checks"][0]["name"] == "iterate_contraction"
    assert doc["checks"][0]["pass"] is True


def test_report_escapes_control_characters(tmp_path):
    # the DSL reads a tab as whitespace; the report must stay valid JSON
    symbol = "z^2\t/2"
    code, doc = run_json(["norm", symbol, "-N", "4,8"], tmp_path)
    assert code == 0
    assert doc["params"]["symbol"] == symbol


def test_verify_unknown_suite():
    assert main(["verify", "bogus"]) == 2


def test_float_formatting_17_digits():
    assert json_dumps({"x": 0.1}) == '{"x": 0.10000000000000001}'
    assert json_dumps({"x": 2.0}) == '{"x": 2}'
    assert json_dumps({"x": float("nan")}) == '{"x": null}'
    # 17 significant digits round-trip every double
    val = 1 / math.sqrt(0.75)
    assert float(json.loads(json_dumps({"x": val}))["x"]) == val
