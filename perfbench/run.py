#!/usr/bin/env python3
"""hardyop benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload operator-sweep --seed 1 --seconds 20 --trace 0

It imports ``hardyop`` from ``src/``, generates from the seed one operation
list per pass (``--seconds // PASS_SECONDS`` passes, each with its own
inputs), runs them, checks every output of every pass against an
independent oracle after the pass's timed region, and prints as its last
line one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced run (see perfbench/README.md).  The line
before it is a JSON detail record: context, input class shares, sample
counts and every failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import inputs
SETUP_REPS = 3
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p90_ms", "ms"),
              ("ops_failed_frac", "frac"), ("peak_rss_mb", "MB"))
VERIFY_KNOWN = {"restricted_norms": "restricted_plateau"}
# Nominal length of one pass on a 2-core OpenBLAS machine.  A run makes
# seconds // PASS_SECONDS passes (at least one): a fixed count, so that two
# commits are measured on the same samples even when one is faster.
PASS_SECONDS = {"verify-all": 25.0, "operator-sweep": 22.0, "symbol-kernels": 7.0}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate and warm up, then exit (times set-up in a fresh process)")
    ap.add_argument("--oracle-worker", action="store_true",
                    help="judge pickled passes from stdin (the runner's checker process)")
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare(root: str) -> str | None:
    """Point imports at the checkout's src/ and cap BLAS threads; None if no source."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hardyop", "__init__.py")):
        return None
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())
    sys.path.insert(0, src)
    return src


def pass_count(workload: str, seconds: float, trace: int) -> int:
    """Passes per run; a traced run makes as many untraced ones before them."""
    count = max(1, int(seconds // PASS_SECONDS[workload]))
    return max(1, count // 2) * 2 if trace else count


def setup(workload: str, seed: int, passes: int) -> list[list[dict]]:
    import ops
    specs = [inputs.generate(workload, seed, n) for n in range(passes)]
    ops.warm_up()
    return specs


def measure_setup(args) -> list[float]:
    """Time to ready in fresh processes: interpreter start, import of hardyop,
    input generation and warm-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return times


# ---------------------------------------------------------------------------
# passes


def timed_pass(specs: list[dict], report_path: str) -> tuple[float, list[list], int]:
    import ops
    recs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        for op in specs:
            t = time.perf_counter()
            try:
                if op["kind"] == "verify":
                    out = ops.run_verify(op, report_path)
                else:
                    out = ops.EXECUTORS[op["kind"]](op)
                err = None
            except Exception as exc:  # an operation that raises counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            recs.append([op, time.perf_counter() - t, out, err])
        wall = time.perf_counter() - t0
    for op, _, out, _ in recs:
        if op["kind"] == "verify" and out is not None:
            with open(report_path) as fh:
                out["report"] = json.load(fh)
    return wall, recs, len(caught)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# judging


def judge(h, recs: list[list]) -> list[dict]:
    """One verdict per operation of one pass, from the oracles.  A verdict's
    ``unexpected`` reasons are those its known defect does not explain."""
    import oracles
    verdicts = []
    for op, dt, out, err in recs:
        if op["kind"] == "verify":
            verdicts += _judge_verify(op, out, err)
            continue
        try:
            reasons = [err] if err else oracles.CHECKS[op["kind"]](h, op, out)
        except Exception as exc:  # an output the oracle cannot read is wrong
            reasons = [f"oracle could not check the output: {exc!r}"]
        verdicts.append(_verdict(op["id"], dt * 1000.0, reasons, op.get("known_defect")))
    return verdicts


def _verdict(id_: str, ms: float, reasons: list[str], known: str | None) -> dict:
    return {"id": id_, "ms": ms, "reasons": reasons, "known_defect": known,
            "unexpected": inputs.unexpected(reasons, known)}


def _judge_verify(op, out, err) -> list[dict]:
    import oracles
    if err or out is None:
        return [_verdict(op["id"], 0.0, [err or "no report"], None)]
    report = out["report"]
    try:
        reasons = oracles.check_verify_report(report, out["rc"])
    except Exception as exc:
        reasons = {c["name"]: [f"oracle could not check the report: {exc!r}"]
                   for c in report["checks"]}
    return [_verdict(f"{op['id']}:{c['name']}", c["elapsed_ms"], reasons[c["name"]],
                     VERIFY_KNOWN.get(c["name"])) for c in report["checks"]]


class Checker:
    """The oracles in a child process, fed one pass at a time over pipes.  Their
    imports (scipy.signal) and dense references stay out of this process, so
    its peak RSS is the program's and one pass's outputs."""

    def __init__(self, args):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--oracle-worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.judge([])  # wait until it has imported everything, before any timing

    def judge(self, recs: list[list]) -> list[dict]:
        pickle.dump(recs, self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def oracle_worker() -> None:
    """Judge each pickled pass from stdin, answer with pickled verdicts."""
    import hardyop as h
    import oracles  # noqa: F401  (imported before the first pass is timed)
    out, sys.stdout = sys.stdout.buffer, sys.stderr  # stray prints stay off the pipe
    while True:
        try:
            recs = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        pickle.dump(judge(h, recs), out)
        out.flush()


# ---------------------------------------------------------------------------
# context


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked through the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def context(h, src: str) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    lines = {}
    pkg = os.path.join(src, "hardyop")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines[name[:-3]] = sum(1 for _ in fh)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(), "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")},
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "compression_dtype": str(h.comp_matrix(h.identity(), 2).entries.dtype),
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "src_lines": {**lines, "total": sum(lines.values())},
    }


# ---------------------------------------------------------------------------


def p90(ms: list[float]) -> float:
    return statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]


def end_to_end(setup_times, walls, verdicts, peak_mb) -> dict:
    ms = [v["ms"] for v in verdicts]
    failed = sum(1 for v in verdicts if v["reasons"])
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "op_p90_ms": p90(ms),
        "ops_failed_frac": failed / len(verdicts),
        "peak_rss_mb": peak_mb,
    }


def main(argv=None) -> int:
    # a terminated run still removes its scratch directory and set-up children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    root = os.getcwd()
    src = prepare(root)
    if src is None:
        print("perfbench: src/hardyop not found; run from the repository root", file=sys.stderr)
        return 2
    count = pass_count(args.workload, args.seconds, args.trace)
    if args.setup_only:
        setup(args.workload, args.seed, count)
        return 0
    if args.oracle_worker:
        oracle_worker()
        return 0
    setup_times = [] if args.trace else measure_setup(args)
    import hardyop as h
    if not os.path.abspath(h.__file__).startswith(src + os.sep):
        print(f"perfbench: hardyop imported from {h.__file__}, not {src}", file=sys.stderr)
        return 2
    specs = setup(args.workload, args.seed, count)
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=root)
    report_path = os.path.join(tmp, "report.json")
    walls, verdicts, warned, traced_walls, reports = [], [], 0, [], []
    tracer = checker = None
    try:
        checker = Checker(args)
        for n in range(count):
            if args.trace and n == count // 2:
                import tracing
                tracer = tracing.Tracer()
                tracer.install()
            wall, recs, w = timed_pass(specs[n], report_path)
            peak_mb = peak_rss_mb()
            (traced_walls if tracer else walls).append(wall)
            warned += w
            if tracer:
                reports += [out["report_bytes"] for op, _, out, _ in recs
                            if op["kind"] == "verify" and out is not None]
            # the oracles run in the checker process, outside the timed region
            verdicts += checker.judge(recs)
            del recs
    finally:
        if tracer:
            tracer.uninstall()
        if checker:
            checker.close()
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        layer = tracing.layer_metrics(tracer.spans, len(traced_walls))
        layer["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
        layer["cli.report_bytes"] = (statistics.median(reports) if reports else 0, "bytes")

    failures = [v for v in verdicts if v["reasons"]]
    correct = not any(v["unexpected"] for v in failures)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
    else:
        e2e = end_to_end(setup_times, walls, verdicts, peak_mb)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    ms = [v["ms"] for v in verdicts]
    cut = p90(ms)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        # printed but not gated: its run-to-run spread is wider than any allowed bound
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "passes": count, "pass_walls_s": walls, "setup_reps_s": setup_times,
        "samples": len(ms), "samples_beyond_p90": sum(1 for x in ms if x > cut),
        "slowest_ms": [[v["id"], v["ms"]] for v in sorted(verdicts, key=lambda v: -v["ms"])[:8]],
        "warnings": warned,
        "failures": [{"id": v["id"], "known_defect": v["known_defect"], "reasons": v["reasons"],
                      "unexpected": v["unexpected"]} for v in failures],
        "known_defects": inputs.KNOWN_DEFECTS,
        "class_shares": inputs.class_shares([op for ops in specs for op in ops]),
        "context": context(h, src),
    }
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": correct, "attempted": len(verdicts), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
