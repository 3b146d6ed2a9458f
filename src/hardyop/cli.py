"""Command-line front end: symbol DSL in, JSON/CSV reports out.

Commands: norm, distance, nrange, psolve, verify.  Exit codes: 0 success,
1 verification failure, 2 input error, 3 solver non-convergence.  JSON and CSV
reports spell each float in its shortest round-trip form; JSON writes null for
a non-finite value.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import analysis, compop, numrange, verify
from .errors import (BracketError, ConvergenceError, HardyOpError, InconsistencyError,
                     PreconditionError, SolverInternalError)
from .symbolic import parse_symbol

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

_SOLVER_ERRORS = (ConvergenceError, BracketError, InconsistencyError, SolverInternalError,
                  np.linalg.LinAlgError)
_INPUT_ERRORS = (HardyOpError, ValueError)  # caught after _SOLVER_ERRORS


# ---------------------------------------------------------------------------
# serialization (floats in their shortest round-trip spelling; deterministic)


def _plain(obj):
    """obj with str keys, lists for tuples, [re, im] for complex and None for
    non-finite floats; any other type passes through for json to accept or reject."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return [_plain(obj.real), _plain(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def json_dumps(obj) -> str:
    return json.dumps(_plain(obj), allow_nan=False)


def _write_atomic(files: dict[str, str]) -> None:
    """Write each path's text via a temporary file in its directory, and move
    the files into place only once all are written: an unwritable path is an
    input error, and then no file is written."""
    tmps = []
    try:
        for path, text in files.items():
            if os.path.isdir(path):  # os.replace would fail only after the others moved
                raise PreconditionError(f"cannot write {path}: Is a directory")
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".hardyop-", suffix=".tmp")
            tmps.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for path, tmp in zip(files, tmps):
            os.replace(tmp, path)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _csv_text(rows: list[list], header: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument handling


def _dims(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardyop",
        description="Composition-operator norms, distances and numerical ranges "
                    "on the Hardy space of the unit disk.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, dims_default="16,64,256"):
        p.add_argument("-N", type=_dims, default=_dims(dims_default), metavar="a,b,c",
                       help="dimension schedule (strictly increasing)")
        p.add_argument("--json", metavar="PATH", help="write the JSON report here")
        p.add_argument("--csv", metavar="PATH", help="write a CSV mirror here")

    p = sub.add_parser("norm", help="compression norms of one symbol")
    p.add_argument("symbol")
    p.add_argument("--restricted", action="store_true", help="||C_phi restricted to zH^2||")
    common(p)

    p = sub.add_parser("distance", help="compression of ||C_a - C_b||")
    p.add_argument("symbol_a")
    p.add_argument("symbol_b")
    common(p)

    p = sub.add_parser("nrange", help="numerical range boundary of a compression")
    p.add_argument("symbol")
    p.add_argument("--grid", type=int, default=720, help="support angle count")
    common(p, dims_default="64")

    p = sub.add_parser("psolve", help="exponent p with ||phi||_p = restricted norm")
    p.add_argument("symbol")
    p.add_argument("--ptol", type=float, default=1e-8, help="exponent tolerance")
    p.add_argument("-N", type=int, default=512, help="largest compression dimension")
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--csv", metavar="PATH")
    return ap


# ---------------------------------------------------------------------------
# commands: each returns its report body (without "command" and "runtime_ms"),
# the CSV mirror's header and its rows; main times, writes and exits for all


def _schedule_report(task: str, params: dict, symbols: dict, args):
    rep = compop.norm_schedule(task, params, args.N)
    body = {
        "params": {**symbols, "task": task},
        "dims": list(rep.dims),
        "values": list(rep.values),
        "target": rep.target,
        "gaps": None if rep.gaps is None else list(rep.gaps),
        "pass": True,
    }
    if rep.target_label:
        body["params"]["target_label"] = rep.target_label
    rows = [[d, rep.values[i], rep.target, None if rep.gaps is None else rep.gaps[i]]
            for i, d in enumerate(rep.dims)]
    return body, ["dim", "value", "target", "gap"], rows


def cmd_norm(args):
    s = parse_symbol(args.symbol)
    task = "restricted" if args.restricted else "opnorm"
    return _schedule_report(task, {"s": s}, {"symbol": args.symbol}, args)


def cmd_distance(args):
    a, b = parse_symbol(args.symbol_a), parse_symbol(args.symbol_b)
    return _schedule_report("distance", {"a": a, "b": b},
                            {"symbol_a": args.symbol_a, "symbol_b": args.symbol_b}, args)


def cmd_nrange(args):
    ellipse, per_dim = numrange.range_schedule(parse_symbol(args.symbol), args.N, args.grid)
    nrs, compared = zip(*per_dim.values())
    fields = {"hausdorff": "hausdorff", "violation": "max_violation",
              "contained": "contained", "interior_margin": "interior_margin"}
    body = {
        "params": {"symbol": args.symbol, "grid": args.grid},
        "dims": list(per_dim),
        "radius": [nr.radius for nr in nrs],
        **{key: [None if cmp_ is None else getattr(cmp_, name) for cmp_ in compared]
           for key, name in fields.items()},
        "target_ellipse": None if ellipse is None else dataclasses.asdict(ellipse),
        "pass": ellipse is None or all(cmp_.contained for cmp_ in compared),
        "diagnostics": {"dense_solves": [nr.dense_solves for nr in nrs],
                        "radius_evals": [nr.radius_evals for nr in nrs]},
    }
    # the CSV mirror is the boundary polyline at the largest dimension
    rows = [[th, h, pt.real, pt.imag]
            for th, h, pt in zip(nrs[-1].thetas, nrs[-1].support_vals, nrs[-1].boundary_pts)]
    return body, ["theta", "support", "re", "im"], rows


def cmd_psolve(args):
    s = parse_symbol(args.symbol)
    res = analysis.p_solve(s, tol=args.ptol, N=args.N)
    body = {
        "params": {"symbol": args.symbol, "ptol": args.ptol, "N": args.N},
        "outcome": res.outcome,
        "p": res.p_value,
        "residual": res.residual,
        "restricted_norm": res.r,
        "restricted_norm_extrapolated": res.r_extrapolated,
        "plateau_delta": res.plateau_delta,
        "h2": res.h2,
        "sup": res.sup,
        "pass": True,
    }
    return body, None, None


def cmd_verify(args):
    results = verify.run_suite(args.suite)
    body = {
        "suite": args.suite,
        "checks": [{"name": r.name, "pass": r.passed, "margin": r.margin,
                    "assertions": list(r.assertions), "elapsed_ms": r.elapsed_ms}
                   for r in results],
        "pass": all(r.passed for r in results),
    }
    rows = [[r.name, "pass" if r.passed else "FAIL", r.margin,
             f"{r.elapsed_ms:.3f}"] for r in results]
    return body, ["check", "status", "margin", "elapsed_ms"], rows


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        csv_path = getattr(args, "csv", None)
        if csv_path and args.json and os.path.abspath(csv_path) == os.path.abspath(args.json):
            raise PreconditionError(f"--csv and --json both name {args.json}")
        t0 = time.perf_counter()
        body, header, rows = globals()[f"cmd_{args.command}"](args)  # per call: patchable
        report = {"command": args.command, **body,
                  "runtime_ms": (time.perf_counter() - t0) * 1000.0}
        text = json_dumps(report) + "\n"
        files = {csv_path: _csv_text(rows, header)} if csv_path else {}
        _write_atomic({**files, args.json: text} if args.json else files)  # both or neither
        sys.stdout.write(f"wrote {args.json}\n" if args.json else text)
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for check in report.get("checks", ()):
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']} (margin {check['margin']:.3g})", file=sys.stderr)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
