"""In-memory span tracing of the hardyop layers, installed from outside.

Every public function of each package module is wrapped in a span recorder
(name, start, end, parent, info).  The wrapper is put into every namespace
that holds the function: ``compop`` binds its own ``taylor`` and
``require_selfmap`` through ``from .symbolic import ...``, so patching
``symbolic`` alone would miss those calls.  The verify suites keep their
checks in tuples, which are rebuilt; ``numrange`` gets a numpy proxy that
records its dense Hermitian eigensolves.  ``uninstall`` restores everything.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("symbolic", "hardy", "compop", "closedform", "numrange", "analysis", "verify", "cli")


def _failed_assertions(res, args, kwargs):
    return sum(1 for a in res.assertions if not a["ok"])


# small facts read off a result while its span closes
INFO = {
    "hardy.p_norm": lambda r, a, k: r.grid_size,
    "compop.power_norm": lambda r, a, k: r.iterations,
    "compop.norm_result": lambda r, a, k: r.method,
    "compop.comp_matrix": lambda r, a, k: r.entries.shape,
    "numrange.boundary": lambda r, a, k: len(r.thetas),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, info]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = ("error", type(exc).__name__)
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(result, args, kwargs)
            return result

        return span

    def _set(self, ns, attr: str, value) -> None:
        self._undo.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("hardyop")
        mods = {name: importlib.import_module(f"hardyop.{name}") for name in LAYERS}
        namespaces = [pkg, *mods.values()]
        wrapped = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                info = INFO.get(name, _failed_assertions if attr.startswith("check_") else None)
                wrapped[fn] = self.wrap(name, fn, info)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._set(ns, attr, wrapped[value])
        verify = mods["verify"]
        self._set(verify, "ALL_CHECKS", tuple(wrapped.get(f, f) for f in verify.ALL_CHECKS))
        self._set(verify, "SUITES", {k: tuple(wrapped.get(f, f) for f in v)
                                     for k, v in verify.SUITES.items()})
        numrange = mods["numrange"]
        np_ = numrange.np
        linalg = _Delegate(np_.linalg, {
            "eigh": self.wrap("numrange.eigensolve", np_.linalg.eigh),
            "eigvalsh": self.wrap("numrange.eigensolve", np_.linalg.eigvalsh),
        })
        self._set(numrange, "np", _Delegate(np_, {"linalg": linalg}))

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, value = self._undo.pop()
            setattr(ns, attr, value)


class _Delegate:
    """A module stand-in: the given overrides, everything else from target."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one or more passes


def layer_metrics(spans: list[list], passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics as {name: (value, unit)}."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def has_ancestor(i: int, names) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def outer(names) -> list[int]:
        """Spans in the group that are not nested inside another of the group."""
        names = set(names)
        return [i for i, s in enumerate(spans) if s[0] in names and not has_ancestor(i, names)]

    def seconds(names) -> float:
        return sum(dur[i] for i in outer(names))

    def calls(names) -> int:
        return len(outer(names))

    def within(name: str, outer_name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] == name and has_ancestor(i, {outer_name})]

    def by_name(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] == name]

    recognize = {s[0] for s in spans if s[0].startswith("closedform.recognize_")}
    top_sv = by_name("compop.norm_result")
    solves = len(top_sv)
    escalations = sum(1 for i in top_sv if spans[i][4] == "power+svd")
    boundary = by_name("numrange.boundary")
    angles = sum(spans[i][4] for i in boundary if isinstance(spans[i][4], int))
    eig_in_boundary = len(within("numrange.eigensolve", "numrange.boundary"))
    cm = by_name("compop.comp_matrix")
    top_sv_s = seconds({"compop.norm_result"})
    power_s = seconds({"compop.power_norm"})

    m = {
        "symbolic.parse_symbol.s": (seconds({"symbolic.parse_symbol"}), "s"),
        "symbolic.validate_selfmap.calls": (calls({"symbolic.validate_selfmap"}), "count"),
        "symbolic.validate_selfmap.s": (seconds({"symbolic.validate_selfmap"}), "s"),
        "symbolic.taylor.calls": (calls({"symbolic.taylor"}), "count"),
        "symbolic.taylor.s": (seconds({"symbolic.taylor"}), "s"),
        "symbolic.compose.s": (seconds({"symbolic.compose"}), "s"),
        "symbolic.fixed_point.s": (seconds({"symbolic.fixed_point"}), "s"),
        "hardy.p_norm.calls": (calls({"hardy.p_norm"}), "count"),
        "hardy.p_norm.s": (seconds({"hardy.p_norm"}), "s"),
        "hardy.p_norm.grid_points": (sum(spans[i][4] for i in by_name("hardy.p_norm")
                                         if isinstance(spans[i][4], int)), "count"),
        "hardy.is_inner.s": (seconds({"hardy.is_inner"}), "s"),
        "hardy.inner_multiple.s": (seconds({"hardy.inner_multiple"}), "s"),
        "compop.comp_matrix.calls": (calls({"compop.comp_matrix"}), "count"),
        "compop.comp_matrix.s": (seconds({"compop.comp_matrix"}), "s"),
        # computed, not measured: 16 bytes per complex entry of each matrix built
        "compop.comp_matrix.bytes": (sum(16 * spans[i][4][0] * spans[i][4][1] for i in cm
                                         if isinstance(spans[i][4], tuple)
                                         and spans[i][4][0] != "error"), "bytes"),
        "compop.top_sv.calls": (solves, "count"),
        "compop.top_sv.s": (top_sv_s, "s"),
        "compop.power.s": (power_s, "s"),
        "compop.power.iterations": (sum(spans[i][4] for i in by_name("compop.power_norm")
                                        if isinstance(spans[i][4], int)), "count"),
        "compop.escalations": (escalations, "count"),
        "compop.escalation_frac": (escalations / solves if solves else 0.0, "frac"),
        "compop.escalation.s": (top_sv_s - power_s, "s"),
        "compop.norm_schedule.s": (seconds({"compop.norm_schedule"}), "s"),
        "numrange.boundary.calls": (len(boundary), "count"),
        "numrange.boundary.s": (seconds({"numrange.boundary"}), "s"),
        "numrange.eigensolves": (eig_in_boundary, "count"),
        "numrange.eigensolves_per_angle": (eig_in_boundary / angles if angles else 0.0, "1/angle"),
        "numrange.failures": (sum(1 for i in boundary if isinstance(spans[i][4], tuple)
                                  and spans[i][4][0] == "error"), "count"),
        "numrange.ellipse_compare.s": (seconds({"numrange.ellipse_compare"}), "s"),
        "numrange.sample_w.s": (seconds({"numrange.sample_w"}), "s"),
        "closedform.rotation_distance.s": (seconds({"closedform.rotation_distance"}), "s"),
        "closedform.bruteforce.s": (seconds({"closedform.rotation_distance_bruteforce"}), "s"),
        "closedform.recognize.s": (seconds(recognize), "s"),
        "analysis.p_solve.calls": (calls({"analysis.p_solve"}), "count"),
        "analysis.p_solve.s": (seconds({"analysis.p_solve"}), "s"),
        "analysis.p_solve.p_norm_calls": (len(within("hardy.p_norm", "analysis.p_solve")), "count"),
        "analysis.iterate_sweep.s": (seconds({"analysis.iterate_sweep"}), "s"),
        "verify.assertions_failed": (sum(spans[i][4] for i, s in enumerate(spans)
                                         if s[0].startswith("verify.check_")
                                         and isinstance(s[4], int)), "count"),
        "cli.main.s": (seconds({"cli.main"}), "s"),
    }
    for check in importlib.import_module("hardyop.verify").ALL_CHECKS:
        name = check.__name__[len("check_"):]
        m[f"verify.check.{name}.s"] = (seconds({f"verify.check_{name}"}), "s")
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_s[s[0].split(".", 1)[0]] += dur[i] - child[i]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["trace.spans"] = (n, "count")
    return {k: (v / passes, unit) for k, (v, unit) in m.items()}

