"""Seeded input generator for the hardyop benchmark.

Every workload is a fixed plan of slots.  The slot decides the kind of
operation, the symbol family and its degree, so the amount of work in a run
does not depend on the seed; the seed (through ``random.Random``) picks the
coefficients, zeros, phases and free exponents.  The program under test only
ever receives the DSL strings in ``text``/``texts``; the ``form`` records the
same symbol as exact numbers so the oracles can evaluate it independently.

Known defects of the program are kept in the plan on purpose and tagged with
``known_defect``: they count as failed operations, but do not make a run
incorrect.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("verify-all", "operator-sweep", "symbol-kernels")

# Known defects at the commit that introduced the benchmark.  An operation
# tagged with one of these ids may fail without marking the run incorrect,
# but only in the way the defect fails: every reason it gives must start with
# one of the ``expect`` prefixes.  Any other reason on a tagged operation is a
# new failure.
KNOWN_DEFECTS = {
    "restricted_plateau": {
        "about": "verify restricted_norms: the plateau clause needs |r(512)-r(256)| <= 1e-6 "
                 "but the compression converges like O(1/N)",
        "expect": ("assertion failed: plateau value(512) - value(256) ",)},
    "boundary_above_dense_cut": {
        "about": "numrange.boundary above N=512 uses shifted power iteration, which stalls "
                 "on inner symbols",
        "expect": ("ConvergenceError: ",)},
    "selfmap_grid_alias": {
        "about": "validate_selfmap samples 4096 points, so z^4096 aliases to 1 and "
                 "0.6 - 0.6*z^4096 (true sup 1.2) is accepted",
        "expect": ("accepted a non-selfmap ",)},
    "pnorm_grid_alias": {
        "about": "p_norm doubles its grid from 1024 and stops when two grids agree; a z^4096 "
                 "term aliases to 1 on both, and on the 4096-point sup scan, so the values "
                 "are wrong",
        "expect": ("p_norm(p=", "sup=")},
    "sup_grid_resolution": {
        "about": "p_norm(inf) scans 4096 points and refines around the top three, missing the "
                 "peak of a degree-4095 symbol (its quadrature also aliases z^4095 to z^-1)",
        "expect": ("p_norm(p=", "sup=")},
    "pnorm_underflow": {
        "about": "p_solve brackets at p=65536, where |phi|^p underflows to 0 for "
                 "sup|phi| < 0.989, so the solve raises BracketError",
        "expect": ("BracketError: ",)},
}


def unexpected(reasons: list[str], known_defect: str | None) -> list[str]:
    """The reasons that the operation's known defect does not explain."""
    expect = KNOWN_DEFECTS[known_defect]["expect"] if known_defect else ()
    return [r for r in reasons if not r.startswith(expect)]


# ---------------------------------------------------------------------------
# numbers and DSL text


def quant(z: complex) -> complex:
    """Round to the 6 decimals the DSL text carries, so text and form agree."""
    return complex(float(f"{z.real:.6f}"), float(f"{z.imag:.6f}"))


def num(z: complex) -> str:
    z = quant(z)
    re, im = z.real + 0.0, z.imag + 0.0
    if im == 0.0:
        return f"{re:.6f}" if re >= 0 else f"({re:.6f})"
    return f"({re:.6f}{im:+.6f}i)"


def _pair(z: complex) -> list[float]:
    z = quant(z)
    return [z.real + 0.0, z.imag + 0.0]


def _polar(rng: random.Random, r: float, cplx: bool) -> complex:
    if cplx:
        return quant(cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi)))
    return quant(r if rng.random() < 0.5 else -r)


def blaschke_form(c: complex, m: int, zeros: list[complex]) -> dict:
    """c * z^m * prod (p - z)/(1 - conj(p) z)."""
    return {"type": "blaschke", "c": _pair(c), "m": m, "zeros": [_pair(p) for p in zeros]}


def poly_form(terms: dict[int, complex]) -> dict:
    return {"type": "poly", "terms": [[k, *_pair(terms[k])] for k in sorted(terms)]}


def form_text(form: dict) -> str:
    if form["type"] == "poly":
        parts = []
        for k, re, im in form["terms"]:
            c = num(complex(re, im))
            parts.append(c if k == 0 else f"{c}*z" if k == 1 else f"{c}*z^{k}")
        return " + ".join(parts)
    c = complex(*form["c"])
    zeros = [complex(*p) for p in form["zeros"]]
    factors = []
    if c != 1:
        factors.append(num(c))
    if form["m"] == 1:
        factors.append("z")
    elif form["m"] > 1:
        factors.append(f"z^{form['m']}")
    if len(zeros) == 1:
        factors.append(f"alpha({num(zeros[0])})")
    elif zeros:
        factors.append("blaschke(" + ",".join(num(p) for p in zeros) + ")")
    return "*".join(factors)


def form_degree(form: dict) -> int:
    if form["type"] == "poly":
        return max(k for k, _, _ in form["terms"])
    return form["m"] + len(form["zeros"])


def band(degree: int) -> str:
    for hi, name in ((4, "1-4"), (64, "5-64"), (512, "65-512")):
        if degree <= hi:
            return name
    return "513-4096"


def form_tags(form: dict) -> dict:
    if form["type"] == "poly":
        vals = [complex(re, im) for _, re, im in form["terms"]]
        inner = "non_inner"
    else:
        vals = [complex(*form["c"])] + [complex(*p) for p in form["zeros"]]
        inner = "inner" if abs(abs(complex(*form["c"])) - 1.0) < 1e-12 else "inner_multiple"
    return {
        "coeff": "real" if all(v.imag == 0 for v in vals) else "complex",
        "inner": inner,
        "band": band(form_degree(form)),
        "must_reject": False,
    }


# ---------------------------------------------------------------------------
# symbol families


def _zeros(rng: random.Random, k: int, cplx: bool = True) -> list[complex]:
    return [_polar(rng, rng.uniform(0.1, 0.7), cplx) for _ in range(k)]


def _poly(rng: random.Random, exps, total: float, cplx: bool = True) -> dict:
    """Polynomial with the given exponents and sum of |coefficients| = total."""
    w = [rng.uniform(0.2, 1.0) for _ in exps]
    s = sum(w)
    return poly_form({k: _polar(rng, total * wi / s, cplx) for k, wi in zip(exps, w)})


def _fixing0_pair(rng: random.Random, total: float) -> dict:
    """c1 z + c2 z^2 with |c1| + |c2| = total (the (z+z^2)/2 family)."""
    a = rng.uniform(0.35, 0.65)
    return poly_form({1: _polar(rng, quant(total * a).real, True),
                      2: _polar(rng, quant(total * (1.0 - a)).real, True)})


# ---------------------------------------------------------------------------
# symbol-kernels


def _sk_symbol(rng: random.Random, family: str, **kw) -> dict:
    cplx = kw.get("cplx", True)
    if family == "alpha":
        return blaschke_form(1.0, 0, _zeros(rng, 1, cplx))
    if family == "blaschke":
        return blaschke_form(1.0, kw["m"], _zeros(rng, kw["k"], cplx))
    if family == "scaled":
        return blaschke_form(_polar(rng, rng.uniform(0.3, 0.9), cplx), kw["m"],
                             _zeros(rng, kw["k"], cplx))
    if family == "zpow_alpha":
        return blaschke_form(1.0, kw["m"], _zeros(rng, 1))
    if family == "poly":
        exps = [rng.randint(lo, hi) for lo, hi in kw["exps"]]
        return _poly(rng, exps, rng.uniform(0.6, 0.95), cplx)
    raise ValueError(family)


# (family, options) per slot; exps entries are (lo, hi) ranges for one exponent.
# Cost groups, so the median falls among the 16 low-degree rational symbols
# (Taylor expansion dominates) and the 90th percentile among the heavy
# degree-3000..4096 symbols.  Above degree 64 the polynomials have two terms:
# their sup and p-norms are exact on any grid, so only the dedicated defect
# slots below fail, whatever the seed.  They do not fix 0: for c1 z + c2 z^K,
# recognize_restricted_target expands K powers without truncation and runs
# for minutes, which no run can wait for.
SK_PLAN = (
    # polynomials of degree 2..64
    ("poly", {"exps": ((1, 1), (2, 2)), "cplx": False}),
    ("poly", {"exps": ((0, 0), (1, 1), (3, 3)), "cplx": False}),
    ("poly", {"exps": ((1, 1), (2, 2))}),
    ("poly", {"exps": ((0, 0), (2, 2), (4, 4))}),
    ("poly", {"exps": ((1, 1), (3, 3))}),
    ("poly", {"exps": ((0, 0), (1, 1), (2, 2))}),
    ("poly", {"exps": ((0, 0), (2, 6), (8, 8))}),
    ("poly", {"exps": ((1, 1), (2, 14), (16, 16))}),
    ("poly", {"exps": ((0, 0), (2, 30), (32, 32))}),
    ("poly", {"exps": ((2, 2), (3, 46), (48, 48))}),
    ("poly", {"exps": ((1, 1), (2, 62), (64, 64))}),
    # rational symbols of degree 1..4: automorphisms, Blaschke products, scaled ones
    ("alpha", {"cplx": True}),
    ("alpha", {"cplx": True}),
    ("alpha", {"cplx": True}),
    ("alpha", {"cplx": False}),
    ("blaschke", {"m": 1, "k": 1}),
    ("blaschke", {"m": 1, "k": 1, "cplx": False}),
    ("blaschke", {"m": 1, "k": 2}),
    ("blaschke", {"m": 2, "k": 2}),
    ("blaschke", {"m": 0, "k": 2}),
    ("blaschke", {"m": 0, "k": 3}),
    ("scaled", {"m": 0, "k": 1}),
    ("scaled", {"m": 0, "k": 1}),
    ("scaled", {"m": 1, "k": 1}),
    ("scaled", {"m": 1, "k": 2}),
    ("scaled", {"m": 0, "k": 2}),
    ("scaled", {"m": 0, "k": 2, "cplx": False}),
    # degree 65..1501
    ("zpow_alpha", {"m": 100}),
    ("zpow_alpha", {"m": 250}),
    ("poly", {"exps": ((0, 0), (500, 500))}),
    ("zpow_alpha", {"m": 1500}),
    # degree 3001..4000
    ("poly", {"exps": ((0, 0), (3400, 3400))}),
    ("poly", {"exps": ((0, 0), (3700, 3700))}),
    ("poly", {"exps": ((0, 0), (4000, 4000))}),
    ("zpow_alpha", {"m": 3000}),
)


def _rotation_op(rng: random.Random, case: str) -> dict:
    mu = cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi))
    if case == "odd_root":
        k = rng.choice((3, 5, 7, 9))
        j = rng.choice([j for j in range(1, k) if math.gcd(j, k) == 1])
        lam, order = mu * cmath.exp(2j * math.pi * j / k), k
    elif case == "even_root":
        k = rng.choice((2, 4, 6, 8))
        j = rng.choice([j for j in range(1, k) if math.gcd(j, k) == 1])
        lam, order = mu * cmath.exp(2j * math.pi * j / k), k
    else:
        mu = mu * rng.uniform(0.5, 0.9)
        lam, order = cmath.rect(rng.uniform(0.5, 0.9), rng.uniform(0.0, 2.0 * math.pi)), None
    return {"kind": "rotation", "case": case, "lam": [lam.real, lam.imag],
            "mu": [mu.real, mu.imag], "order": order, "depth": 1_000_000,
            "tags": {"coeff": "complex", "inner": "n/a", "band": "n/a", "must_reject": False}}


def _symbol_op(form: dict, rng: random.Random) -> dict:
    op = {"kind": "symbol", "form": form, "text": form_text(form),
          "tags": form_tags(form), "known_defect": None}
    if form_degree(form) <= 8:
        # a low-degree selfmap to compose with: a contraction c*z + d
        g = _poly(rng, (0, 1), rng.uniform(0.5, 0.9))
        op["compose_with"] = {"form": g, "text": form_text(g)}
    if form["type"] == "blaschke" and form["m"] >= 1 and abs(abs(complex(*form["c"])) - 1) < 1e-12:
        k = rng.choice((3, 4, 5, 6, 7, 8))
        j = rng.choice([j for j in range(1, k) if math.gcd(j, k) == 1])
        # full precision, so the ratio stays a root of unity to ~1e-16
        lam = cmath.exp(2j * math.pi * j / k)
        sign = "+" if lam.imag >= 0 else "-"
        op["rotated"] = {"lam": [lam.real, lam.imag], "order": k,
                         "text": f"({lam.real!r}{sign}{abs(lam.imag)!r}i)*({op['text']})"}
    return op


def _reject_op(text: str, form: dict | None, true_sup: float | None, band_name: str,
               coeff: str, known: str | None = None) -> dict:
    return {"kind": "reject", "text": text, "form": form, "true_sup": true_sup,
            "tags": {"coeff": coeff, "inner": "non_inner", "band": band_name, "must_reject": True},
            "known_defect": known}


def symbol_kernels(rng: random.Random) -> list[dict]:
    ops = [_symbol_op(_sk_symbol(rng, fam, **opt), rng) for fam, opt in SK_PLAN]
    # selfmaps the fixed boundary grids cannot resolve (known defects): a z^4096
    # term aliases to 1 in p_norm's quadrature; a z^4095 term puts the sup
    # between the 4096 scan points
    for exps, defect in (((0, rng.randint(1, 3), 4096), "pnorm_grid_alias"),
                         ((0, 2, 4095), "sup_grid_resolution")):
        op = _symbol_op(_poly(rng, exps, rng.uniform(0.6, 0.95)), rng)
        op["known_defect"] = defect
        ops.append(op)
    # must-reject inputs: boundary sup above 1, and a pole inside the disk
    for _ in range(2):
        k = rng.randint(2, 40)
        f = _poly(rng, (0, k), rng.uniform(1.1, 1.5))
        ops.append(_reject_op(form_text(f), f, sum(math.hypot(re, im) for _, re, im in f["terms"]),
                              band(k), "complex"))
    q = _polar(rng, rng.uniform(0.3, 0.8), True)
    ops.append(_reject_op(f"z/(1 - {num(1 / q)}*z)", None, None, "1-4", "complex"))
    # the aliased literal accepted by validate_selfmap (known defect, kept verbatim)
    lit = poly_form({0: 0.6, 4096: -0.6})
    ops.append(_reject_op("0.6 - 0.6*z^4096", lit, 1.2, "513-4096", "real", "selfmap_grid_alias"))
    ops += [_rotation_op(rng, case) for case in ("odd_root", "even_root", "contractive")]
    return ops


# ---------------------------------------------------------------------------
# operator-sweep


def _sched(task: str, forms: dict, dims: list[int]) -> dict:
    tags = form_tags(forms["s" if "s" in forms else "a"])
    tags["band"] = band(max(form_degree(f) for f in forms.values()))
    return {"kind": "schedule", "task": task, "dims": dims,
            "forms": forms, "texts": {k: form_text(f) for k, f in forms.items()},
            "tags": tags, "known_defect": None}


def _one_op(kind: str, form: dict, **kw) -> dict:
    return {"kind": kind, "form": form, "text": form_text(form), "tags": form_tags(form),
            "known_defect": None, **kw}


def _rot(rng: random.Random, r: float) -> complex:
    """Modulus fixed by the slot, phase from the seed."""
    return cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))


def _fast_gap_symbol(rng: random.Random, i: int) -> dict:
    """Non-inner symbols: scaled Blaschke products and polynomials."""
    cplx = i % 7 != 3
    if i % 5 == 0:
        return blaschke_form(_polar(rng, rng.uniform(0.3, 0.8), cplx), i % 2,
                             _zeros(rng, 1 + i % 2, cplx))
    return _poly(rng, (0, 1, 2 + i % 3), rng.uniform(0.5, 0.9), cplx)


def _fast_gap_schedule(rng: random.Random, i: int, dims: list[int]) -> dict:
    task = ("opnorm", "distance", "restricted", "weighted")[i % 4]
    if task in ("restricted", "weighted"):
        s = _fixing0_pair(rng, rng.uniform(0.5, 0.9))
        return _sched(task, {"s": s} if task == "restricted" else {"w": s, "s": s}, dims)
    s = _fast_gap_symbol(rng, i)
    if task == "distance":
        b = poly_form({0: _polar(rng, rng.uniform(0.1, 0.6), i % 7 != 3)})
        return _sched(task, {"a": s, "b": b}, dims)
    return _sched(task, {"s": s}, dims)


def operator_sweep(rng: random.Random) -> list[dict]:
    """112 operations in cost groups, so that the median and the 90th
    percentile fall inside groups of like operations rather than between
    them.  From the cheapest: 49 small schedules and iterate sweeps, 20
    numerical ranges at N=64 (the median; dense eigh makes their cost
    independent of the values), 25 schedules to N=512 and exponent solves,
    12 numerical ranges at N=128 (the 90th percentile), 6 large operations."""
    ops = []
    # an inner symbol above the dense eigensolver cut-off (known defect); fixed
    # input, because the stall's length depends on the symbol
    ops.append(_one_op("boundary", blaschke_form(1.0, 0, [0.5]), N=520, grid=16, samples=0,
                       known_defect="boundary_above_dense_cut"))
    # inner symbols: slow spectral gaps that exhaust the power budget and
    # escalate to a dense SVD; moduli fixed, phases seeded
    ops.append(_sched("opnorm", {"s": blaschke_form(1.0, 0, [_rot(rng, 0.5)])},
                      [128, 256, 512, 1024]))
    ops.append(_sched("distance", {"a": blaschke_form(1.0, 0, [_rot(rng, 0.5)]),
                                   "b": poly_form({1: 1.0})}, [64, 128, 256]))
    ops.append(_sched("restricted", {"s": blaschke_form(1.0, 1, [_rot(rng, 0.4)])}, [256, 512]))
    ops.append(_sched("opnorm", {"s": blaschke_form(1.0, 0, [_rot(rng, 0.3), _rot(rng, 0.5)])},
                      [128, 256]))
    ops.append(_one_op("boundary", _poly(rng, (0, 1, 2), rng.uniform(0.5, 0.9)), N=256, grid=64,
                       samples=50, sample_seed=rng.randrange(1 << 30)))
    # numerical ranges of automorphisms at N=128, checked against the ellipse
    for _ in range(12):
        ops.append(_one_op("boundary", blaschke_form(1.0, 0, [_rot(rng, rng.uniform(0.2, 0.6))]),
                           N=128, grid=64, samples=50, sample_seed=rng.randrange(1 << 30)))
    # fast-gap schedules to 512 and exponent solves
    for i in range(20):
        ops.append(_fast_gap_schedule(rng, i, [128, 256, 512]))
    for _ in range(4):
        ops.append(_one_op("p_solve", _fixing0_pair(rng, rng.uniform(0.995, 0.998)), N=256))
    ops.append(_one_op("p_solve", _fixing0_pair(rng, rng.uniform(0.6, 0.8)), N=256,
                       known_defect="pnorm_underflow"))
    # numerical ranges of polynomials at N=64
    for _ in range(20):
        ops.append(_one_op("boundary", _poly(rng, (0, 1, 2), rng.uniform(0.5, 0.9)), N=64, grid=64,
                           samples=50, sample_seed=rng.randrange(1 << 30)))
    # fast-gap schedules to 256, iterate sweeps of contractions fixing 0, and
    # small schedules to 64 and 128
    for i in range(16):
        ops.append(_fast_gap_schedule(rng, i, [64, 128, 256]))
    for _ in range(10):
        ops.append(_one_op("iterate_sweep", _fixing0_pair(rng, rng.uniform(0.5, 0.9)), n_max=3, N=64))
    for i in range(23):
        ops.append(_fast_gap_schedule(rng, i, [16, 32, 64] if i % 2 else [32, 64, 128]))
    return ops


# ---------------------------------------------------------------------------
# verify-all


def verify_all(rng: random.Random) -> list[dict]:
    """The paper's checks run on fixed inputs; the seed changes nothing."""
    return [{"kind": "verify", "suite": "all",
             "tags": {"coeff": "real", "inner": "mixed", "band": "1-4", "must_reject": False},
             "known_defect": None}]


def generate(workload: str, seed: int, pass_no: int = 0) -> list[dict]:
    """The workload's operations for this seed and pass; same seed and pass,
    same list.  Every pass draws its own inputs from the same plan, so a
    repeat is never the same call again."""
    key = f"{workload}:{seed}" if pass_no == 0 else f"{workload}:{seed}:{pass_no}"
    ops = {"verify-all": verify_all, "operator-sweep": operator_sweep,
           "symbol-kernels": symbol_kernels}[workload](random.Random(key))
    # A fixed interleaving of the cost groups: the operations around each
    # percentile are spread over the whole pass instead of one short window,
    # so a momentary slowdown of the machine moves them less.
    random.Random(f"order:{workload}").shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"{workload}#{i}" if pass_no == 0 else f"{workload}#{i}@{pass_no}"
    return ops


def class_shares(ops: list[dict]) -> dict:
    """Share of operations per input class (coefficients, inner, degree band, must-reject)."""
    out: dict = {}
    for key in ("coeff", "inner", "band", "must_reject"):
        counts: dict = {}
        for op in ops:
            v = str(op["tags"][key])
            counts[v] = counts.get(v, 0) + 1
        out[key] = {k: round(c / len(ops), 4) for k, c in sorted(counts.items())}
    return out
