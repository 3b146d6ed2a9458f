import csv
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardyop
from hardyop import boundary, cli, comp_matrix, compop, numrange, parse_symbol
from hardyop.cli import json_dumps, main


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in the report")


def run_json(args, tmp_path, name="out.json"):
    """Run `args` in process with --json; plain json.loads would accept NaN and Infinity."""
    out = tmp_path / name
    code = main(args + ["--json", str(out)])
    return code, json.loads(out.read_text(), parse_constant=_reject_constant)


def strip_runtime(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("runtime_ms", None)
    for check in doc.get("checks", ()):
        check.pop("elapsed_ms", None)
    return doc


def test_exit_code_on_invalid_selfmap(capsys):
    assert main(["norm", "2*z", "-N", "4,8"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["norm", "const(1)"], ["distance", "const(1)", "0"], ["norm", "const(1)", "--restricted"],
    ["norm", "const(1i)"], ["distance", "const(1)", "z"], ["distance", "z", "const(-1)"],
    ["nrange", "const(1)"], ["psolve", "const(1)"],
    ["distance", "(1+0.5*z)/(1+0.5*z)", "0"], ["distance", "z", "(1+0.5*z)/(1+0.5*z)"],
    ["norm", "const((1i-0.5i*z)/(1-0.5*z))"],
], ids=" ".join)
def test_unimodular_constant_is_not_a_selfmap(capsys, args):
    # a constant maps the disk into itself only when |c| < 1, also one
    # written as num/den with num = c den
    assert main(args + ["-N", "16" if args[0] == "psolve" else "4,16"]) == 2
    assert "is not a selfmap" in capsys.readouterr().err


def test_disguised_constant_inside_the_disk_is_accepted(tmp_path):
    # the constant 0.5 against 0: ||k_0.5 - k_0|| = sqrt(1/(1 - 0.25) - 1)
    code, doc = run_json(["distance", "(0.5+0.25*z)/(1+0.5*z)", "0", "-N", "5,17,65"], tmp_path)
    assert code == 0
    assert doc["values"][-1] == pytest.approx(1 / math.sqrt(3), abs=1e-12)


DISGUISED = "(0.5+0.25*z)/(1+0.5*z)"  # the constant 0.5 written as num/den


def test_disguised_constant_gets_the_constant_targets(tmp_path):
    # one constancy rule: num = c den is a constant for every recognizer
    _, doc = run_json(["norm", DISGUISED, "-N", "4,16"], tmp_path)
    assert doc["target"] == 1.1547005383792517
    _, doc = run_json(["distance", DISGUISED, "const(0.3)", "-N", "4,16"], tmp_path)
    # ||k_0.5 - k_0.3|| = 0.28159058180955556678 to 20 digits
    assert (doc["target"], doc["params"]["target_label"]) == (0.2815905818095556, "const_const")
    code, doc = run_json(["nrange", DISGUISED, "-N", "16,32", "--grid", "64"], tmp_path)
    assert code == 0 and doc["target_ellipse"] is not None and all(doc["contained"])


@pytest.mark.parametrize("call", ["alpha", "const"])
def test_disguised_constant_is_a_call_argument(call):
    assert str(parse_symbol(f"{call}({DISGUISED})")) == str(parse_symbol(f"{call}(0.5)"))


NEAR_UNIMODULAR = "0.99999999995+0.00000000005*z"  # 5e-11 off the constant 0.99999999995


def test_near_unimodular_symbol_gets_no_constant_target(tmp_path):
    # Cowen's affine formula gives ||C_phi|| = 1.414e5 here; the constant's
    # closed form 1/sqrt(1 - |c|^2) would report 1.0e5
    _, doc = run_json(["norm", NEAR_UNIMODULAR, "-N", "4,16"], tmp_path)
    assert doc["target"] is None
    _, doc = run_json(["distance", NEAR_UNIMODULAR, "const(0.3)", "-N", "4,16"], tmp_path)
    assert doc["target"] is None


def test_no_automorphism_has_a_pole_within_the_margin(tmp_path):
    # alpha(phi(0)) would have its pole 1/conj(phi(0)) within POLE_MARGIN of the
    # circle, which construction rejects: the recognizers find no target
    code, doc = run_json(["nrange", NEAR_UNIMODULAR, "-N", "8", "--grid", "16"], tmp_path)
    assert code == 0 and doc["target_ellipse"] is None
    code, doc = run_json(["distance", NEAR_UNIMODULAR, "z", "-N", "8,16"], tmp_path)
    assert code == 0 and doc["target"] is None


SOLVER_ERRORS = (hardyop.ConvergenceError, hardyop.BracketError, hardyop.InconsistencyError,
                 hardyop.SolverInternalError)


@pytest.mark.parametrize("cls", hardyop.HardyOpError.__subclasses__(), ids=lambda c: c.__name__)
def test_every_package_error_has_its_exit_code(monkeypatch, capsys, cls):
    def fail(args):
        raise cls("boom", 0) if cls is hardyop.ParseError else cls("boom")

    monkeypatch.setattr(cli, "cmd_norm", fail)
    err_code = 3 if cls in SOLVER_ERRORS else 2
    assert main(["norm", "z"]) == err_code
    err = capsys.readouterr().err
    assert err.startswith("solver error:" if err_code == 3 else "input error:")


def test_a_key_error_inside_a_command_is_not_reported_as_bad_input(monkeypatch, capsys):
    # a missing dict key in a command is a bug, not an input error: it
    # propagates instead of exiting 2 with "input error: 'missing'"
    def buggy(args):
        return {}["missing"]

    monkeypatch.setattr(cli, "cmd_norm", buggy)
    with pytest.raises(KeyError, match="missing"):
        main(["norm", "z", "-N", "4,8"])
    assert "input error" not in capsys.readouterr().err


@pytest.mark.parametrize("args", [["norm", "z^2"], ["distance", "z^2", "const(0.5)"]],
                         ids=" ".join)
@pytest.mark.parametrize("values, message", [
    ([0.5, 1.0], "compression values decreased"),   # the larger dimension reads less
    ([10.0, 10.0], "exceeds closed-form target"),   # both targets are below 10
], ids=["decreasing", "above-target"])
def test_failed_schedule_certificate_writes_no_report(monkeypatch, capsys, tmp_path, args,
                                                      values, message):
    # a planted solver fault ends in exit 3 and no files, never in "pass": true
    values = list(values)
    monkeypatch.setattr(compop, "_top_sv", lambda gram: values.pop())
    flags = ["-N", "4,8", "--json", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    assert main(args + flags) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("symbol", ["0.5 + 0.3*z", "const(0.5)"])
def test_restricted_needs_a_symbol_fixing_the_origin(capsys, symbol):
    # the h20 compression of C_phi is the restriction's only for phi(0) = 0
    assert main(["norm", symbol, "--restricted", "-N", "16,64"]) == 2
    assert "fixing the origin" in capsys.readouterr().err


def test_exit_code_on_parse_error(capsys):
    assert main(["distance", "z^^", "z", "-N", "4,8"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("symbol", [
    "(" * 1000 + "z" + ")" * 1000,   # deeper than the recursion limit
    "1e400*z", "z^1e400",            # literals that overflow to inf
    "z^1e300", "z^200000",           # exponents far above the degree cap
    "1e200*1e200*z", "9e99^9",       # products that overflow to inf
    "1/(2-z)^4000",                  # inf coefficients reaching the pole check
    "alpha((2+z)/(2+z))",            # a unimodular constant in disguise
], ids=lambda s: s if len(s) < 24 else "deep-nesting")
def test_malformed_symbol_is_input_error(capsys, symbol):
    assert main(["norm", symbol, "-N", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("ptol", ["nan", "inf", "0", "-1"])
def test_psolve_rejects_bad_tolerance(capsys, ptol):
    assert main(["psolve", "(z+z^2)/2", "-N", "64", "--ptol", ptol]) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("N", ["2", "7"])
def test_psolve_names_its_dimension_rule(capsys, N):
    # the restricted norms are solved at N/4, N/2 and N
    assert main(["psolve", "z^2", "-N", N]) == 2
    assert f"needs N >= 8, got {N}" in capsys.readouterr().err


@pytest.mark.parametrize("symbol, solver", [
    ("alpha(0.5)", "eigvalsh"),    # real compression: Gram eigensolve
    ("(0.2+0.1i) + 0.3*z + 0.2i*z^2", "eigvalsh"),  # complex compression: complex Gram eigensolve
    ("(0.3+0.4i)*z", "eigvalsh"),  # a rotated real symbol: Gram eigensolve of its real matrix
], ids=["real", "complex", "rotated"])
def test_exit_code_on_lapack_failure(monkeypatch, capsys, symbol, solver):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    assert main(["norm", symbol, "-N", "8,16"]) == 3
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["eigh", "eigvalsh", "solve"])
def test_nrange_exit_code_on_solver_failure(monkeypatch, capsys, solver):
    # a failed Cholesky only means "not certified"; a failed Ritz eigh, dense
    # eigvalsh or shifted solve is an error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    assert main(["nrange", "alpha(0.5)", "-N", "16", "--grid", "16"]) == 3
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
    assert list(doc["target_ellipse"]) == [
        "focus_a", "focus_b", "major_len", "minor_len", "degenerate", "closed"]
    assert doc["target_ellipse"]["degenerate"] is True
    assert doc["target_ellipse"]["focus_a"] == [-1.0, 0.0]
    assert doc["contained"] == [True]
    assert doc["hausdorff"][0] <= 1e-8
    # the focal segment has no interior: its points read a margin of 0
    assert doc["interior_margin"][0] == pytest.approx(0.0, abs=1e-12)


def test_nrange_dimension_schedule_gap_shrinks(tmp_path):
    code, doc = run_json(["nrange", "alpha(0.5)", "-N", "24,48", "--grid", "90"], tmp_path)
    assert code == 0
    assert doc["dims"] == [24, 48]
    assert doc["contained"] == [True, True]
    assert doc["hausdorff"][1] < doc["hausdorff"][0]


def test_nrange_builds_one_compression(monkeypatch, tmp_path):
    built = []

    def counted(s, N, *args):
        built.append(N)
        return comp_matrix(s, N, *args)

    monkeypatch.setattr(numrange, "comp_matrix", counted)
    code, doc = run_json(["nrange", "alpha(0.5)", "-N", "32,64"], tmp_path)
    assert code == 0
    assert len(doc["interior_margin"]) == 2 and min(doc["interior_margin"]) > 0
    assert built == [64]


@pytest.mark.parametrize("symbol, dims, tol", [
    # one convolution path: each slice is bitwise the build at its dimension,
    # for a step cut to N at N=128 (alpha(0.8)) as for one of the same length
    ("alpha(0.5)", (32, 64), 0.0),
    ("alpha(0.8)", (128, 512), 0.0),
])
def test_nrange_slices_match_per_dimension_builds(tmp_path, symbol, dims, tol):
    code, doc = run_json(["nrange", symbol, "-N", ",".join(map(str, dims)), "--grid", "32"],
                         tmp_path)
    assert code == 0
    s = parse_symbol(symbol)
    full = comp_matrix(s, dims[-1])
    for N, radius in zip(dims, doc["radius"]):
        sliced, built = boundary(full.leading(N), grid=32), boundary(comp_matrix(s, N), grid=32)
        assert np.abs(sliced.support_vals - built.support_vals).max() <= tol
        assert abs(radius - built.radius) <= tol


@pytest.mark.parametrize("dims", ["1,32", "0"])
def test_nrange_rejects_small_dimension(capsys, dims):
    # every dimension is sliced from one build, and each must still be >= 2
    assert main(["nrange", "alpha(0.5)", "-N", dims, "--grid", "16"]) == 2
    assert "input error: compression dimension" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["norm", "z^2", "--restricted"], ["distance", "z^2", "0"]],
                         ids=["--restricted", "distance"])
def test_window_norms_reject_dimension_one(capsys, args):
    # the h20 window is built at N + 1, which is >= 2 here; distance phi 0
    # holds C_phi - C_0 at N, whose column 0 is zero
    assert main(args + ["-N", "1"]) == 2
    assert "input error: compression dimension" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--weighted", "--opnorm"])
def test_norm_takes_restricted_as_its_only_mode_flag(capsys, flag):
    # ||C_phi - C_0|| is `distance phi 0`, and ||C_phi|| needs no flag
    assert main(["norm", "z^2", flag, "-N", "4,16"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("a, b", [["(z^2+z^3)/2", "0"], ["0", "(z^2+z^3)/2"]])
def test_distance_to_c0_reads_the_restricted_target(tmp_path, a, b):
    # (C_phi - C_0) f = (f - f(0)) o phi: the distance is ||C_phi on zH^2||
    code, doc = run_json(["distance", a, b, "-N", "17,65"], tmp_path)
    assert code == 0 and doc["pass"] is True and doc["params"]["target_label"] == "restricted"
    assert doc["target"] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert max(abs(g) for g in doc["gaps"]) <= 1e-15


@pytest.mark.parametrize("args", [
    ["nrange", "alpha(0.5)", "--grid", "16", "-N", "64,32"],
    ["nrange", "alpha(0.5)", "--grid", "16", "-N", "32,32"],
    ["nrange", "alpha(0.5)", "--grid", "16", "-N", "64,32,32"],
    ["norm", "z^2", "-N", ""],
    ["distance", "z^2", "0.5", "-N", ""],
    ["nrange", "alpha(0.5)", "--grid", "16", "-N", ""],
], ids=["64,32", "32,32", "64,32,32", "norm-empty", "distance-empty", "nrange-empty"])
def test_nrange_rejects_unordered_schedule(capsys, args):
    # one schedule rule for norm, distance and nrange: compop.require_schedule
    assert main(args) == 2
    assert "dimension schedule must be nonempty and strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["norm", "alpha(0.5)", "-N", "16", "--json"],
    ["norm", "alpha(0.5)", "-N", "16", "--csv"],
    ["nrange", "alpha(0.5)", "-N", "16", "--grid", "16", "--csv"],
    ["verify", "iterates", "--json"],
], ids=["norm-json", "norm-csv", "nrange-csv", "verify-json"])
@pytest.mark.parametrize("where", ["missing-directory", "is-a-directory"])
def test_unwritable_report_path_is_an_input_error(capsys, tmp_path, args, where):
    # exit 1 means a failed verification; a report that cannot be written is
    # bad input, and its temporary file is removed
    (tmp_path / "sub").mkdir()
    path = tmp_path / ("missing/x.out" if where == "missing-directory" else "sub")
    assert main(args + [str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write {path}")
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


@pytest.mark.parametrize("bad", ["json", "csv"])
@pytest.mark.parametrize("where", ["missing-directory", "is-a-directory"])
def test_one_unwritable_report_path_writes_neither_report(capsys, tmp_path, bad, where):
    # both destinations are checked before either file is moved into place
    (tmp_path / "sub").mkdir()
    paths = {"json": tmp_path / "r.json", "csv": tmp_path / "r.csv"}
    paths[bad] = tmp_path / ("missing/x.out" if where == "missing-directory" else "sub")
    args = ["norm", "z", "-N", "4,8", "--csv", str(paths["csv"]), "--json", str(paths["json"])]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write {paths[bad]}")
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


@pytest.mark.parametrize("csv_path, json_path", [
    ("same.out", "same.out"), ("./x.out", "x.out"), ("d/../x.out", "x.out"),
], ids=["identical", "dot-slash", "parent-dir"])
def test_one_path_for_both_reports_writes_neither_report(capsys, tmp_path, monkeypatch,
                                                         csv_path, json_path):
    # the JSON report would replace the CSV in the one file, so the pair is
    # refused before either is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    args = ["norm", "z", "-N", "4,8", "--csv", csv_path, "--json", json_path]
    assert main(args) == 2
    assert capsys.readouterr().err == f"input error: --csv and --json both name {json_path}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["d"]


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("symbol", ["0.5*z", "alpha(0.5)"])
def test_nrange_has_no_samples_option(capsys, symbol, samples):
    # the interior margin is read off the sweep's boundary points, so nrange
    # takes no Rayleigh sample count: --samples is an unknown argument
    assert main(["nrange", symbol, "-N", "16", "--grid", "16", "--samples", samples]) == 2
    assert "unrecognized arguments: --samples" in capsys.readouterr().err


def test_nrange_reports_dense_solves(tmp_path):
    code, doc = run_json(["nrange", "alpha(0.5)", "-N", "16,64", "--grid", "90"], tmp_path)
    assert code == 0
    solves = doc["diagnostics"]["dense_solves"]
    assert len(solves) == 2 and all(isinstance(n, int) and n >= 1 for n in solves)


def test_nrange_reports_radius_evals(tmp_path):
    # the numerical radius of this compression peaks between grid angles, so
    # the slope search makes certified evaluations at both dimensions
    code, doc = run_json(["nrange", "0.2i + 0.5*z^2", "-N", "16,64", "--grid", "90"], tmp_path)
    assert code == 0
    evals = doc["diagnostics"]["radius_evals"]
    assert len(evals) == 2 and all(isinstance(n, int) and 1 <= n <= 8 for n in evals)
    code, doc = run_json(["nrange", "alpha(0.5)", "-N", "16", "--grid", "90"], tmp_path)
    assert doc["diagnostics"]["radius_evals"] == [0]  # peak on the grid, at theta = 0


def test_nrange_no_target(tmp_path):
    code, doc = run_json(["nrange", "(z+z^2)/2", "-N", "24"], tmp_path)
    assert code == 0
    assert doc["target_ellipse"] is None
    assert doc["hausdorff"] == [None]
    assert doc["interior_margin"] == [None]
    assert doc["radius"][0] > 0


def test_nrange_boundary_csv(tmp_path):
    out = tmp_path / "b.csv"
    code = main(["nrange", "const(0.5)", "-N", "32", "--grid", "90",
                 "--json", str(tmp_path / "n.json"), "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,support,re,im"
    assert len(lines) == 91
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == 4


def test_psolve_report(tmp_path):
    code, doc = run_json(["psolve", "(z^2+z^3)/2"], tmp_path)
    assert code == 0
    assert doc["outcome"] == "finite"
    assert doc["p"] == pytest.approx(2.0, abs=1e-6)
    assert doc["restricted_norm"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_psolve_report_at_one_dimension(tmp_path):
    code, doc = run_json(["psolve", "(z+z^2)/2", "-N", "128"], tmp_path)
    assert code == 0
    assert list(doc) == ["command", "params", "outcome", "p", "residual", "restricted_norm",
                         "restricted_norm_extrapolated", "plateau_delta", "h2", "sup", "pass",
                         "runtime_ms"]
    assert doc["params"] == {"symbol": "(z+z^2)/2", "ptol": 1e-8, "N": 128}
    assert doc["outcome"] == "finite"
    assert doc["p"] == pytest.approx(5.5046859820791951, abs=1e-8)
    assert doc["restricted_norm"] == pytest.approx(0.81534233135153644, abs=1e-12)
    assert doc["plateau_delta"] == pytest.approx(0.0012435094319191986, abs=1e-12)


@pytest.mark.parametrize("flags", [["--csv", "x.csv"], ["-N", "64,256"]], ids=" ".join)
def test_psolve_rejects_unused_flags(capsys, monkeypatch, tmp_path, flags):
    # one dimension and a JSON report only: no flag is accepted and then ignored
    monkeypatch.chdir(tmp_path)
    assert main(["psolve", "(z+z^2)/2", *flags]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_psolve_inner_multiple(tmp_path):
    code, doc = run_json(["psolve", "0.7*z^3"], tmp_path)
    assert code == 0
    assert doc["outcome"] == "inner_multiple"
    assert doc["p"] is None


def test_psolve_unbracketed_near_inner(capsys):
    # not an inner multiple, and ||phi||_p stays below the restricted norm up to p = 2^16
    assert main(["psolve", "0.99999*z + 0.00001*z^2"]) == 3
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("dims", ["1", "-5"])
def test_psolve_rejects_small_dimension(capsys, dims):
    assert main(["psolve", "z^2", "-N", dims]) == 2
    assert "input error" in capsys.readouterr().err


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


def test_verify_csv_mirror(tmp_path):
    out = tmp_path / "v.csv"
    code, doc = run_json(["verify", "iterates", "--csv", str(out)], tmp_path)
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["check", "status", "margin", "elapsed_ms"]
    assert [row[0] for row in rows[1:]] == [check["name"] for check in doc["checks"]]
    assert all(row[1] == "pass" for row in rows[1:])


def test_bad_dimension_list_is_an_input_error(capsys):
    assert main(["norm", "z", "-N", "16,x"]) == 2
    assert "bad dimension list" in capsys.readouterr().err


def test_module_entry_point_runs_verify():
    # `python -m hardyop.cli` goes through cli.run, as the hardyop console script does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hardyop.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "hardyop.cli", "verify", "iterates"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_report_escapes_control_characters(tmp_path):
    # the DSL reads a tab as whitespace; the report must stay valid JSON
    symbol = "z^2\t/2"
    code, doc = run_json(["norm", symbol, "-N", "4,8"], tmp_path)
    assert code == 0
    assert doc["params"]["symbol"] == symbol


def test_verify_unknown_suite():
    assert main(["verify", "bogus"]) == 2


def test_float_formatting_shortest_round_trip():
    assert json_dumps({"x": 0.1}) == '{"x": 0.1}'
    assert json_dumps({"x": 2.0}) == '{"x": 2.0}'
    for x in (math.nan, math.inf, -math.inf):
        assert json_dumps({"x": x}) == '{"x": null}'
    assert json_dumps({"z": 1 + 2j, "t": (np.float64(0.5),)}) == '{"z": [1.0, 2.0], "t": [0.5]}'


def test_json_dumps_rejects_numpy_bool():
    # an unknown type raises instead of being written as a number
    with pytest.raises(TypeError):
        json_dumps({"ok": np.bool_(True)})


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_finite_doubles_round_trip_bitwise(x):
    bits = struct.pack("<d", x)
    assert struct.pack("<d", json.loads(json_dumps({"x": x}))["x"]) == bits
    text = cli._csv_text([[x]], ["x"])
    assert struct.pack("<d", float(list(csv.reader(text.splitlines()))[1][0])) == bits


def test_verify_all_assertion_results_are_json_booleans(verify_all_report):
    code, doc = verify_all_report
    assert code == 0
    oks = [a["ok"] for check in doc["checks"] for a in check["assertions"]]
    assert len(oks) > 80 and all(ok is True for ok in oks)
