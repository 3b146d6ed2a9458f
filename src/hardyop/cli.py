"""Command-line front end: symbol DSL in, JSON/CSV reports out.

Commands: norm, distance, nrange, psolve, verify.  Exit codes: 0 success,
1 verification failure, 2 input error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import analysis, closedform, compop, numrange, verify
from .errors import (
    BracketError,
    ConvergenceError,
    DegreeCapError,
    HardyOpError,
    InconsistencyError,
    NotSelfmapError,
    ParseError,
    PreconditionError,
    SolverInternalError,
    UnitDiskPoleError,
)
from .symbolic import parse_symbol

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

_INPUT_ERRORS = (ParseError, UnitDiskPoleError, NotSelfmapError,
                 DegreeCapError, PreconditionError, ValueError, KeyError)
_SOLVER_ERRORS = (ConvergenceError, BracketError, InconsistencyError, SolverInternalError,
                  np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# serialization (floats printed with 17 significant digits; deterministic)


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return f"{x:.17g}"


def json_dumps(obj) -> str:
    out = io.StringIO()
    _dump(obj, out)
    return out.getvalue()


def _dump(obj, out: io.StringIO) -> None:
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(_fmt_float(obj))
    elif isinstance(obj, complex):
        _dump([obj.real, obj.imag], out)
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(", ")
            _dump(str(k), out)
            out.write(": ")
            _dump(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(", ")
            _dump(v, out)
        out.write("]")
    else:
        try:
            _dump(float(obj), out)
        except (TypeError, ValueError):
            _dump(str(obj), out)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hardyop-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: dict, args) -> None:
    text = json_dumps(report) + "\n"
    if args.json:
        _write_atomic(args.json, text)
        print(f"wrote {args.json}")
    else:
        sys.stdout.write(text)


def _emit_csv(path: str, rows: list[list], header: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


# ---------------------------------------------------------------------------
# argument handling


def _dims(text: str) -> list[int]:
    try:
        dims = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from exc
    if not dims:
        raise argparse.ArgumentTypeError("empty dimension list")
    return dims


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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--opnorm", action="store_true", help="||C_phi|| (default)")
    mode.add_argument("--restricted", action="store_true",
                      help="||C_phi restricted to zH^2||")
    mode.add_argument("--weighted", action="store_true",
                      help="||T_{phi,phi}||, the weighted composition with itself")
    common(p)

    p = sub.add_parser("distance", help="compression of ||C_a - C_b||")
    p.add_argument("symbol_a")
    p.add_argument("symbol_b")
    common(p)

    p = sub.add_parser("nrange", help="numerical range boundary of a compression")
    p.add_argument("symbol")
    p.add_argument("--grid", type=int, default=720, help="support angle count")
    p.add_argument("--samples", type=int, default=200, help="random Rayleigh samples")
    p.add_argument("--seed", type=int, default=0, help="seed for the Rayleigh samples")
    common(p, dims_default="64")

    p = sub.add_parser("psolve", help="exponent p with ||phi||_p = restricted norm")
    p.add_argument("symbol")
    p.add_argument("--ptol", type=float, default=1e-8, help="exponent tolerance")
    common(p, dims_default="512")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--csv", metavar="PATH")
    return ap


# ---------------------------------------------------------------------------
# commands


def _schedule_report(command: str, task: str, params: dict, symbols: dict, args) -> int:
    t0 = time.perf_counter()
    rep = compop.norm_schedule(task, params, args.N)
    body = {
        "command": command,
        "params": {**symbols, "task": task},
        "dims": list(rep.dims),
        "values": list(rep.values),
        "target": rep.target,
        "gaps": None if rep.gaps is None else list(rep.gaps),
        "pass": True,
    }
    if rep.target_label:
        body["params"]["target_label"] = rep.target_label
    if args.csv:
        rows = []
        for i, d in enumerate(rep.dims):
            rows.append([
                d,
                f"{rep.values[i]:.17g}",
                "" if rep.target is None else f"{rep.target:.17g}",
                "" if rep.gaps is None else f"{rep.gaps[i]:.17g}",
            ])
        _emit_csv(args.csv, rows, ["dim", "value", "target", "gap"])
    body["runtime_ms"] = (time.perf_counter() - t0) * 1000.0
    _emit(body, args)
    return EXIT_OK


def cmd_norm(args) -> int:
    s = parse_symbol(args.symbol)
    if args.restricted:
        task, params = "restricted", {"s": s}
    elif args.weighted:
        task, params = "weighted", {"w": s, "s": s}
    else:
        task, params = "opnorm", {"s": s}
    return _schedule_report("norm", task, params, {"symbol": args.symbol}, args)


def cmd_distance(args) -> int:
    a = parse_symbol(args.symbol_a)
    b = parse_symbol(args.symbol_b)
    return _schedule_report("distance", "distance", {"a": a, "b": b},
                            {"symbol_a": args.symbol_a, "symbol_b": args.symbol_b}, args)


def _ellipse_dict(e: closedform.EllipseDisk) -> dict:
    return {
        "focus_a": e.focus_a,
        "focus_b": e.focus_b,
        "major_len": e.major_len,
        "minor_len": e.minor_len,
        "degenerate": e.degenerate,
        "closed": e.closed,
    }


def cmd_nrange(args) -> int:
    s = parse_symbol(args.symbol)
    t0 = time.perf_counter()
    ellipse = closedform.recognize_ellipse(s)
    dims = sorted(set(args.N))
    per_dim = {"dims": dims, "radius": [], "hausdorff": [], "violation": [], "contained": []}
    last_nr = None
    all_contained = True
    for N in dims:
        A = compop.comp_matrix(s, N, "full")
        nr = numrange.boundary(A, grid=args.grid)
        last_nr = nr
        per_dim["radius"].append(nr.radius)
        if ellipse is not None:
            cmp_ = numrange.ellipse_compare(nr, ellipse)
            per_dim["hausdorff"].append(cmp_.hausdorff)
            per_dim["violation"].append(cmp_.max_violation)
            per_dim["contained"].append(cmp_.contained)
            all_contained = all_contained and cmp_.contained
        else:
            per_dim["hausdorff"].append(None)
            per_dim["violation"].append(None)
            per_dim["contained"].append(None)
    interior = None
    if ellipse is not None:
        # A is the compression at the largest dimension (dims is sorted, nonempty)
        pts = numrange.sample_w(A, count=args.samples, seed=args.seed)
        interior = numrange.min_boundary_distance(pts, ellipse)
    body = {
        "command": "nrange",
        "params": {"symbol": args.symbol, "grid": args.grid,
                   "samples": args.samples, "seed": args.seed},
        **per_dim,
        "target_ellipse": None if ellipse is None else _ellipse_dict(ellipse),
        "interior_min_dist": interior,
        "pass": all_contained,
        "runtime_ms": (time.perf_counter() - t0) * 1000.0,
    }
    if args.csv and last_nr is not None:
        buf = io.StringIO()
        numrange.write_boundary_csv(last_nr, buf)
        _write_atomic(args.csv, buf.getvalue())
    _emit(body, args)
    return EXIT_OK if all_contained else EXIT_VERIFY_FAIL


def cmd_psolve(args) -> int:
    s = parse_symbol(args.symbol)
    t0 = time.perf_counter()
    res = analysis.p_solve(s, tol=args.ptol, N=max(args.N))
    body = {
        "command": "psolve",
        "params": {"symbol": args.symbol, "ptol": args.ptol, "N": max(args.N)},
        "outcome": res.outcome,
        "p": res.p_value,
        "residual": res.residual,
        "restricted_norm": res.r,
        "restricted_norm_extrapolated": res.r_extrapolated,
        "plateau_delta": res.plateau_delta,
        "h2": res.h2,
        "sup": res.sup,
        "pass": True,
        "runtime_ms": (time.perf_counter() - t0) * 1000.0,
    }
    _emit(body, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    results = verify.run_suite(args.suite)
    ok = all(r.passed for r in results)
    body = {
        "command": "verify",
        "suite": args.suite,
        "checks": [
            {
                "name": r.name,
                "pass": r.passed,
                "margin": r.margin,
                "assertions": list(r.assertions),
                "elapsed_ms": r.elapsed_ms,
            }
            for r in results
        ],
        "pass": ok,
        "runtime_ms": (time.perf_counter() - t0) * 1000.0,
    }
    if args.csv:
        rows = [[r.name, "pass" if r.passed else "FAIL", f"{r.margin:.17g}",
                 f"{r.elapsed_ms:.3f}"] for r in results]
        _emit_csv(args.csv, rows, ["check", "status", "margin", "elapsed_ms"])
    _emit(body, args)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} (margin {r.margin:.3g})", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "norm": cmd_norm,
        "distance": cmd_distance,
        "nrange": cmd_nrange,
        "psolve": cmd_psolve,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HardyOpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
