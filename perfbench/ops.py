"""One executor per operation kind.  Each calls hardyop's public API with the
generated DSL strings and returns the raw outputs for the oracles; nothing is
checked here, so the timed region holds only the program's work."""

from __future__ import annotations

import math
import os

import hardyop as h
from hardyop import cli

P_LIST = (2, 3, 4, 8)


def _has_fixed_point(form: dict) -> bool:
    """Interior fixed point known to exist: a strict contraction (sup < 1),
    a map fixing 0, or a disk automorphism alpha(p)."""
    if form["type"] == "poly":
        return True
    return form["m"] >= 1 or abs(complex(*form["c"])) < 1 or len(form["zeros"]) == 1


def run_symbol(op: dict) -> dict:
    s = h.parse_symbol(op["text"])
    d = h.validate_selfmap(s)
    out = {"num": s.num, "den": s.den, "is_selfmap": d.is_selfmap}
    if not d.is_selfmap:
        return out
    out["taylor"] = h.taylor(s, 2048)
    out["p_norms"] = {p: h.p_norm(s, p).value for p in P_LIST}
    out["sup"] = h.p_norm(s, math.inf).value
    out["is_inner"] = h.is_inner(s).is_inner
    out["inner_multiple"] = h.inner_multiple(s)
    if "compose_with" in op:
        g = h.parse_symbol(op["compose_with"]["text"])
        c = h.compose(s, g)
        it = h.iterate(s, 2)
        out["compose"] = (c.num, c.den)
        out["iterate2"] = (it.num, it.den)
    if _has_fixed_point(op["form"]):
        out["fixed_point"] = h.fixed_point(s)
    out["opnorm_target"] = h.recognize_opnorm_target(s)
    out["restricted_target"] = h.recognize_restricted_target(s)
    e = h.recognize_ellipse(s)
    out["ellipse"] = None if e is None else (e.major_len, e.minor_len)
    if "rotated" in op:
        a = h.parse_symbol(op["rotated"]["text"])
        t = h.recognize_distance_target(a, s)
        out["rotated_target"] = None if t is None else (t.value, t.label)
    return out


def run_reject(op: dict) -> dict:
    try:
        s = h.parse_symbol(op["text"])
    except (h.ParseError, h.UnitDiskPoleError, h.NotSelfmapError):
        return {"accepted": False, "stage": "parse"}
    return {"accepted": h.validate_selfmap(s).is_selfmap, "stage": "validate"}


def run_rotation(op: dict) -> dict:
    lam, mu = complex(*op["lam"]), complex(*op["mu"])
    r = h.rotation_distance(lam, mu)
    brute = h.rotation_distance_bruteforce(lam, mu, depth=op["depth"])
    return {"value": r.value, "case": r.case, "order": r.order, "brute": brute}


def run_schedule(op: dict) -> dict:
    params = {k: h.parse_symbol(t) for k, t in op["texts"].items()}
    rep = h.norm_schedule(op["task"], params, op["dims"])
    return {"values": list(rep.values), "target": rep.target}


def run_iterate_sweep(op: dict) -> dict:
    rep = h.iterate_sweep(h.parse_symbol(op["text"]), op["n_max"], op["N"])
    return {"fixed_pt": rep.fixed_pt, "dist_to_fixed": list(rep.dist_to_fixed),
            "op_norms": list(rep.op_norms)}


def run_p_solve(op: dict) -> dict:
    r = h.p_solve(h.parse_symbol(op["text"]), N=op["N"])
    return {"outcome": r.outcome, "p": r.p_value, "r": r.r}


def run_boundary(op: dict) -> dict:
    s = h.parse_symbol(op["text"])
    A = h.comp_matrix(s, op["N"], "full")
    nr = h.boundary(A, grid=op["grid"])
    out = {"thetas": nr.thetas, "support": nr.support_vals,
           "radius": nr.radius, "ellipse": None}
    e = h.recognize_ellipse(s)
    if e is not None:
        cmp_ = h.ellipse_compare(nr, e)
        out["ellipse"] = (e.major_len, e.minor_len, cmp_.contained, cmp_.max_violation)
    if op["samples"]:
        out["w"] = h.sample_w(A, count=op["samples"], seed=op["sample_seed"])
    return out


def run_verify(op: dict, report_path: str) -> dict:
    rc = cli.main(["verify", op["suite"], "--json", report_path])
    return {"rc": rc, "report_bytes": os.path.getsize(report_path)}


EXECUTORS = {
    "symbol": run_symbol,
    "reject": run_reject,
    "rotation": run_rotation,
    "schedule": run_schedule,
    "iterate_sweep": run_iterate_sweep,
    "p_solve": run_p_solve,
    "boundary": run_boundary,
}


def warm_up() -> None:
    """Touch every code path once on tiny inputs, so lazy imports and first-call
    costs are paid before timing."""
    s = h.parse_symbol("0.5*z + 0.25*z^2")
    a = h.parse_symbol("alpha(0.3)")
    h.validate_selfmap(s)
    h.taylor(a, 64)
    h.p_norm(s, 2)
    h.p_norm(s, math.inf)
    h.is_inner(a)
    h.inner_multiple(a)
    h.compose(s, a)
    h.fixed_point(s)
    h.recognize_opnorm_target(a)
    h.recognize_restricted_target(s)
    h.recognize_ellipse(a)
    h.rotation_distance(1j, 1.0)
    h.norm_schedule("opnorm", {"s": a}, [8, 16])
    A = h.comp_matrix(a, 16)
    h.ellipse_compare(h.boundary(A, grid=16), h.alpha_ellipse(0.3))
    h.sample_w(A, 4, 0)
