"""Independent output checks, run after the timed region.

Each check returns a list of reasons (empty means the output is right).  The
references never reuse the solver under test: symbols are evaluated from the
generator's exact form, Taylor series come from ``scipy.signal.lfilter``,
top singular values from dense LAPACK (``np.linalg.norm(A, 2)``), support
values from dense ``eigvalsh``, even p-norms from exact quadrature, and
rotation sups from a direct scan.  The operations return no matrices: the
oracles rebuild them with the program's ``comp_matrix`` and check them on
their own, against ``lfilter`` columns or an FFT-sampled compression.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npp
from scipy.signal import lfilter

POWER_TOL = 1e-12
CERT_FACTOR = 100.0        # the solver's residual certificate: 100 tol on sigma^2
PROBE = 0.8 * np.exp(2j * np.pi * np.arange(7) / 7 + 0.3) * np.array([1, 0.5, 0.9, 0.2, 0.7, 0.95, 0.4])


# ---------------------------------------------------------------------------
# symbols from their exact form


def form_eval(form: dict, z):
    z = np.asarray(z, dtype=complex)
    if form["type"] == "poly":
        return sum(complex(re, im) * z**k for k, re, im in form["terms"])
    out = complex(*form["c"]) * z ** form["m"]
    for p in form["zeros"]:
        p = complex(*p)
        out = out * (p - z) / (1 - p.conjugate() * z)
    return out


def form_num_den(form: dict) -> tuple[np.ndarray, np.ndarray]:
    if form["type"] == "poly":
        num = np.zeros(max(k for k, _, _ in form["terms"]) + 1, dtype=complex)
        for k, re, im in form["terms"]:
            num[k] = complex(re, im)
        return num, np.ones(1, dtype=complex)
    num = np.zeros(form["m"] + 1, dtype=complex)
    num[form["m"]] = complex(*form["c"])
    den = np.ones(1, dtype=complex)
    for p in form["zeros"]:
        p = complex(*p)
        num = npp.polymul(num, [p, -1.0])
        den = npp.polymul(den, [1.0, -p.conjugate()])
    return num, den


def series(num, den, n: int) -> np.ndarray:
    """First n Taylor coefficients of num/den (den[0] = 1) by lfilter."""
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    return lfilter(np.asarray(num, dtype=complex), np.asarray(den, dtype=complex), x)


def sup_abs(form: dict) -> float:
    """Sum of |coefficients| (an upper bound of the boundary sup)."""
    return sum(math.hypot(re, im) for _, re, im in form["terms"])


def _fine_grid_max(form: dict, points: int) -> float:
    th = 2 * np.pi * (np.arange(points) + 0.5) / points
    return float(np.abs(form_eval(form, np.exp(1j * th))).max())


def _even_p_norm(form: dict, p: int) -> float:
    """||phi||_p for a polynomial and even p: |phi|^p is a trigonometric
    polynomial of degree p*deg/2, so the mean over more points is exact."""
    deg = max(k for k, _, _ in form["terms"])
    points = p * deg + 16
    th = 2 * np.pi * np.arange(points) / points
    return float(np.mean(np.abs(form_eval(form, np.exp(1j * th))) ** p) ** (1.0 / p))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _eval_nd(num, den, z):
    return npp.polyval(z, num) / npp.polyval(z, den)


# ---------------------------------------------------------------------------
# symbol-kernels


def check_symbol(h, op: dict, out: dict) -> list[str]:
    bad = []
    form = op["form"]
    got = _eval_nd(out["num"], out["den"], PROBE)
    want = form_eval(form, PROBE)
    if np.max(np.abs(got - want)) > 1e-9 * max(1.0, float(np.max(np.abs(want)))):
        bad.append("parse: symbol values differ from the generated form")
    if not out["is_selfmap"]:
        return bad + ["validate_selfmap rejected a selfmap"]
    num, den = form_num_den(form)
    ref = series(num, den, 2048)
    if np.max(np.abs(out["taylor"] - ref)) > 1e-10:
        bad.append("taylor differs from lfilter")
    pn = out["p_norms"]
    vals = [pn[p] for p in sorted(pn)] + [out["sup"]]
    if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
        bad.append(f"p-norms not nondecreasing in p: {vals}")
    if form["type"] == "blaschke":
        c = abs(complex(*form["c"]))
        if any(not _close(v, c, 1e-8) for v in vals):
            bad.append(f"p-norms of an inner multiple must all equal |c|={c}: {vals}")
        inner = abs(c - 1.0) < 1e-12
        if out["is_inner"] != inner:
            bad.append(f"is_inner={out['is_inner']}, expected {inner}")
        ok, mag = out["inner_multiple"]
        if not ok or not _close(mag, c, 1e-9):
            bad.append(f"inner_multiple={out['inner_multiple']}, expected (True, {c})")
    else:
        for p in (2, 4, 8):
            exact = _even_p_norm(form, p)
            if not _close(pn[p], exact, 1e-8):
                bad.append(f"p_norm(p={p})={pn[p]!r}, exact {exact!r}")
        deg = max(k for k, _, _ in form["terms"])
        lower = _fine_grid_max(form, 16 * deg + 1024)
        if out["sup"] < lower - 1e-9 or out["sup"] > sup_abs(form) + 1e-12:
            bad.append(f"sup={out['sup']!r} outside [{lower!r}, {sup_abs(form)!r}]")
        if out["is_inner"] or out["inner_multiple"][0]:
            bad.append("a polynomial with two or more terms reported inner (multiple)")
    if "compose" in out:
        g = op["compose_with"]["form"]
        if np.max(np.abs(_eval_nd(*out["compose"], PROBE) - form_eval(form, form_eval(g, PROBE)))) > 1e-9:
            bad.append("compose(s, g) differs from s(g(z))")
        if np.max(np.abs(_eval_nd(*out["iterate2"], PROBE) - form_eval(form, form_eval(form, PROBE)))) > 1e-9:
            bad.append("iterate(s, 2) differs from s(s(z))")
    if "fixed_point" in out:
        z = out["fixed_point"]
        if abs(z) >= 1 or abs(complex(form_eval(form, z)) - z) > 1e-9:
            bad.append(f"fixed_point {z!r} is not an interior fixed point")
    bad += _check_targets(op, out)
    return bad


def _check_targets(op: dict, out: dict) -> list[str]:
    bad = []
    form = op["form"]
    p0 = complex(form_eval(form, 0.0))
    inner = form["type"] == "blaschke" and abs(abs(complex(*form["c"])) - 1) < 1e-12
    if abs(p0) <= 1e-13:
        want = 1.0
    elif inner:
        want = math.sqrt((1 + abs(p0)) / (1 - abs(p0)))
    else:
        want = None
    got = out["opnorm_target"]
    if (got is None) != (want is None) or (want is not None and not _close(got, want, 1e-12)):
        bad.append(f"recognize_opnorm_target={got!r}, expected {want!r}")
    want = None
    if abs(p0) <= 1e-13:
        if form["type"] == "blaschke":
            want = abs(complex(*form["c"]))
        elif _powers_orthogonal(form):
            want = math.sqrt(sum(re * re + im * im for _, re, im in form["terms"]))
    got = out["restricted_target"]
    if (got is None) != (want is None) or (want is not None and not _close(got, want, 1e-12)):
        bad.append(f"recognize_restricted_target={got!r}, expected {want!r}")
    want = None
    if inner and form["m"] == 0 and len(form["zeros"]) == 1:
        a = abs(complex(*form["zeros"][0]))
        want = (2 / math.sqrt(1 - a * a), 2 * a / math.sqrt(1 - a * a))
    got = out["ellipse"]
    if (got is None) != (want is None) or (
            want is not None and max(abs(x - y) for x, y in zip(got, want)) > 1e-12):
        bad.append(f"recognize_ellipse={got!r}, expected {want!r}")
    if "rotated" in op:
        lam = complex(*op["rotated"]["lam"])
        want = max(abs(lam**n - 1) for n in range(1, op["rotated"]["order"] + 1))
        got = out["rotated_target"]
        if got is None or got[1] != "rotation" or not _close(got[0], want, 1e-12):
            bad.append(f"recognize_distance_target(lambda*s, s)={got!r}, expected rotation {want!r}")
    return bad


def _powers_orthogonal(form: dict) -> bool:
    """<phi, phi^n> = 0 for every n >= 2 (polynomial fixing 0), by truncated
    expansion: phi^n has no exponent <= deg once n * lowest > deg."""
    num, _ = form_num_den(form)
    lowest = min(k for k, re, im in form["terms"] if re or im)
    deg = num.size - 1
    power = num.copy()
    for _ in range(2, deg // lowest + 1):
        power = np.convolve(power, num)[: deg + 1]
        if abs(np.dot(num, np.conj(power))) > 1e-14:
            return False
    return True


def check_reject(h, op: dict, out: dict) -> list[str]:
    if out["accepted"]:
        sup = op["true_sup"]
        return [f"accepted a non-selfmap (true boundary sup {sup})"]
    return []


def check_rotation(h, op: dict, out: dict) -> list[str]:
    bad = []
    lam, mu = complex(*op["lam"]), complex(*op["mu"])
    if op["order"] is not None:
        # unimodular with a root-of-unity ratio: |lam^n - mu^n| has period k
        ks = np.arange(1, op["order"] + 1)
    else:
        r = max(abs(lam), abs(mu))
        ks = np.arange(1, int(math.log(1e-17) / math.log(r)) + 2)
    want = float(np.max(np.abs(lam**ks - mu**ks)))
    if not _close(out["value"], want, 1e-12):
        bad.append(f"rotation_distance={out['value']!r}, exact {want!r}")
    if not _close(out["value"], out["brute"], 1e-9):
        bad.append(f"rotation_distance {out['value']!r} vs brute force {out['brute']!r}")
    return bad


# ---------------------------------------------------------------------------
# operator-sweep


def top_sv_ok(value: float, M: np.ndarray) -> str | None:
    """The solver's certificate bounds sigma^2 within 100 tol relative."""
    ref = float(np.linalg.norm(M, 2))
    if abs(value * value - ref * ref) > CERT_FACTOR * POWER_TOL * ref * ref + 1e-300:
        return f"top singular value {value!r} vs LAPACK {ref!r}"
    return None


def fft_matrix(form: dict, N: int, basis: str = "full") -> np.ndarray:
    """Compression from boundary samples: column k holds the Taylor
    coefficients of phi^k, read off an FFT of phi^k on a fine circle grid."""
    # polynomials: exact once M exceeds the degree of phi^N; rational: the
    # coefficients of phi^k have decayed far below 1e-12 by index 16 N
    size = N * max(k for k, _, _ in form["terms"]) + 2 if form["type"] == "poly" else 16 * N
    M = 1 << max(10, int(math.ceil(math.log2(size))))
    w = np.exp(2j * np.pi * np.arange(M) / M)
    phi = form_eval(form, w)
    ks = np.arange(N) if basis == "full" else np.arange(1, N + 1)
    rows = slice(0, N) if basis == "full" else slice(1, N + 1)
    out = np.empty((N, N), dtype=complex)
    for j in range(0, N, 64):   # 64 powers at a time bounds the memory
        powers = phi[None, :] ** ks[j:j + 64, None]
        out[:, j:j + 64] = (np.fft.fft(powers, axis=1) / M)[:, rows].T
    return out


def _program_matrix(h, task: str, texts: dict, N: int) -> np.ndarray:
    p = {k: h.parse_symbol(t) for k, t in texts.items()}
    if task == "distance":
        return h.comp_matrix(p["a"], N).entries - h.comp_matrix(p["b"], N).entries
    if task == "restricted":
        return h.comp_matrix(p["s"], N, "h20").entries
    if task == "weighted":
        return h.weighted_matrix(p["w"], p["s"], N).entries
    return h.comp_matrix(p["s"], N).entries


def check_schedule(h, op: dict, out: dict) -> list[str]:
    bad = []
    vals = out["values"]
    if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
        bad.append("schedule values decrease")
    for N, v in zip(op["dims"], vals):
        M = _program_matrix(h, op["task"], op["texts"], N)
        msg = top_sv_ok(v, M)
        if msg:
            bad.append(f"N={N}: {msg}")
    # the matrix itself: leading columns against lfilter series of phi^k
    key = "a" if op["task"] == "distance" else "s"
    form, text = op["forms"][key], op["texts"][key]
    N = op["dims"][0]
    basis = "h20" if op["task"] == "restricted" else "full"
    got = h.comp_matrix(h.parse_symbol(text), N, basis).entries
    num, den = form_num_den(form)
    for k in range(1, 4):
        col = series(npp.polypow(num, k), npp.polypow(den, k), N + 1)
        ref = col[:N] if basis == "full" else col[1:]
        j = k if basis == "full" else k - 1
        if np.max(np.abs(got[:, j] - ref)) > 1e-10:
            bad.append(f"comp_matrix column {k} differs from the lfilter series")
    return bad


def check_iterate_sweep(h, op: dict, out: dict) -> list[str]:
    bad = []
    form = op["form"]
    z = out["fixed_pt"]
    if abs(complex(form_eval(form, z)) - z) > 1e-10:
        bad.append(f"fixed point {z!r} is not fixed")
    A = h.comp_matrix(h.parse_symbol(op["text"]), op["N"]).entries
    C = h.const_matrix(z, op["N"]).entries
    for label, v, M in (("dist_to_fixed[0]", out["dist_to_fixed"][0], A - C),
                        ("op_norms[0]", out["op_norms"][0], A)):
        msg = top_sv_ok(v, M)
        if msg:
            bad.append(f"{label}: {msg}")
    return bad


def check_p_solve(h, op: dict, out: dict) -> list[str]:
    bad = []
    if out["outcome"] != "finite" or out["p"] is None or not 2 <= out["p"] <= 65536:
        return [f"p_solve outcome {out['outcome']} p={out['p']!r}"]
    form = op["form"]
    points = 1 << 16
    th = 2 * np.pi * np.arange(points) / points
    vals = np.abs(form_eval(form, np.exp(1j * th)))
    p = out["p"]
    norm_p = float(np.mean((vals / vals.max()) ** p) ** (1 / p) * vals.max())
    if not _close(norm_p, out["r"], 1e-7):
        bad.append(f"||phi||_p at p={p!r} is {norm_p!r}, not r={out['r']!r}")
    M = h.comp_matrix(h.parse_symbol(op["text"]), op["N"], "h20").entries
    msg = top_sv_ok(out["r"], M)
    if msg:
        bad.append(f"restricted norm: {msg}")
    return bad


def check_boundary(h, op: dict, out: dict) -> list[str]:
    bad = []
    A = h.comp_matrix(h.parse_symbol(op["text"]), op["N"], "full").entries
    th, hv = out["thetas"], out["support"]
    if np.max(np.abs(A - fft_matrix(op["form"], op["N"]))) > 1e-9:
        bad.append("comp_matrix differs from the FFT-sampled compression")
    g = len(th)
    for j in sorted({0, g // 4 + 1, g // 2 + 2, (3 * g) // 4 + 3}):
        B = np.exp(-1j * th[j]) * A
        lam = float(np.linalg.eigvalsh((B + B.conj().T) / 2)[-1])
        if abs(hv[j] - lam) > 1e-10 * max(1.0, abs(lam)):
            bad.append(f"support value at angle {j}: {hv[j]!r} vs eigvalsh {lam!r}")
    if out["radius"] < float(np.max(hv)) - 1e-12:
        bad.append("numerical radius below the largest support value")
    form = op["form"]
    automorphism = (form["type"] == "blaschke" and form["m"] == 0 and len(form["zeros"]) == 1
                    and abs(abs(complex(*form["c"])) - 1) < 1e-12)
    if automorphism and out["ellipse"] is None:
        bad.append("recognize_ellipse missed an automorphism")
    if out["ellipse"] is not None:
        a = abs(complex(*form["zeros"][0]))
        semi_major, semi_minor = 1 / math.sqrt(1 - a * a), a / math.sqrt(1 - a * a)
        he = np.sqrt((semi_major * np.cos(th)) ** 2 + (semi_minor * np.sin(th)) ** 2)
        excess = float(np.max(hv - he))
        major, minor, contained, viol = out["ellipse"]
        if not _close(major, 2 * semi_major, 1e-12) or not _close(minor, 2 * semi_minor, 1e-12):
            bad.append("recognized ellipse axes differ from the closed form")
        if excess > 1e-8 or not contained or not _close(viol, excess, 1e-9):
            bad.append(f"numerical range leaves the ellipse by {excess!r} (reported {viol!r})")
    if "w" in out:
        proj = (np.exp(-1j * th)[None, :] * out["w"][:, None]).real
        if float(np.max(proj - hv[None, :])) > 1e-9:
            bad.append("a sampled Rayleigh quotient lies outside the support half-planes")
    return bad


# ---------------------------------------------------------------------------
# verify-all


def check_verify_report(report: dict, rc: int) -> dict[str, list[str]]:
    """Reasons per check name, from the CLI report and independent values."""
    checks = {c["name"]: c for c in report["checks"]}
    out: dict[str, list[str]] = {}
    for name, c in checks.items():
        bad = []
        bad += [f"assertion failed: {a['label']} (value {a['value']!r}, target {a['target']!r})"
                for a in c["assertions"] if not a["ok"]]
        if c["pass"] != all(a["ok"] for a in c["assertions"]):
            bad.append("pass flag disagrees with its assertions")
        for a in c["assertions"]:
            if a["ok"] and a["slack"] is not None and a["slack"] < 0:
                bad.append(f"assertion {a['label']!r} ok with negative slack")
        out[name] = bad
    want_rc = 0 if all(c["pass"] for c in checks.values()) else 1
    if rc != want_rc or report["pass"] != (want_rc == 0):
        for bad in out.values():
            bad.append(f"exit code {rc}, expected {want_rc}")

    def values(name: str, label_start: str) -> list[float]:
        return [a["value"] for a in checks[name]["assertions"] if a["label"].startswith(label_start)]

    def expect(name: str, got: float, want: float, tol: float, what: str) -> None:
        if not _close(got, want, tol):
            out[name].append(f"{what}: {got!r} vs independent {want!r}")

    const = math.sqrt(sum(0.25**k for k in range(1, 64)))
    expect("const_distance", values("const_distance", "distance(")[0], const, 1e-12,
           "N=64 compression")
    expect("rotation_distance", values("rotation_distance", "rotation_distance(")[0],
           math.sqrt(3.0), 1e-12, "cube-root chord")
    for v in values("inner_const_convergence", "value <= target"):
        if v > 1 / math.sqrt(0.75) + 1e-9:
            out["inner_const_convergence"].append(f"value {v!r} above the closed form")
    alpha = {"type": "blaschke", "c": [1.0, 0.0], "m": 0, "zeros": [[0.5, 0.0]]}
    ident = {"type": "poly", "terms": [[1, 1.0, 0.0]]}
    v128 = values("automorphism_distance", "value <= target")[0]
    msg = top_sv_ok(v128, fft_matrix(alpha, 128) - fft_matrix(ident, 128))
    if msg:
        out["automorphism_distance"].append(f"N=128: {msg}")
    for v in values("automorphism_distance", "value <= target"):
        if v > 2 / math.sqrt(0.75) + 1e-9:
            out["automorphism_distance"].append(f"value {v!r} above the closed form")
    for name, major, minor in (("const_range_ellipse", 1 / math.sqrt(0.75), math.sqrt(1 / 3)),
                               ("automorphism_range_ellipse", 2 / math.sqrt(0.75), 1 / math.sqrt(0.75))):
        expect(name, values(name, "ellipse major")[0], major, 1e-12, "major axis")
        expect(name, values(name, "ellipse minor")[0], minor, 1e-12, "minor axis")
    half = {"type": "poly", "terms": [[1, 0.5, 0.0], [2, 0.5, 0.0]]}
    r = [float(np.linalg.norm(fft_matrix(half, n, "h20"), 2)) for n in (256, 512)]
    expect("restricted_norms", values("restricted_norms", "plateau")[0], r[1] - r[0], 1e-9,
           "plateau r(512) - r(256)")
    for text, form in (("z^2", {"type": "poly", "terms": [[2, 1.0, 0.0]]}),
                       ("z^3", {"type": "poly", "terms": [[3, 1.0, 0.0]]})):
        want = float(np.linalg.norm(fft_matrix(form, 128, "h20"), 2))
        expect("restricted_norms", values("restricted_norms", f"restricted norm of {text} ")[0],
               want, 1e-9, f"restricted norm of {text}")
    expect("minimal_norm_case", values("minimal_norm_case", "restricted norm")[0],
           1 / math.sqrt(2), 1e-9, "restricted norm at N=16")
    expect("p_norm_solve", values("p_norm_solve", "(z^2+z^3)/2 exponent")[0], 2.0, 1e-6, "exponent")
    expect("inner_pullback", values("inner_pullback", "left side")[0], 2.6, 1e-9, "left side")
    q = {"type": "poly", "terms": [[2, 0.5, 0.0], [3, 0.5, 0.0]]}
    expect("quadrature_norms", values("quadrature_norms", "||phi||_4")[0], _even_p_norm(q, 4),
           1e-8, "||phi||_4")
    expect("iterate_contraction", values("iterate_contraction", "fixed point")[0], 0.0, 1e-10,
           "|fixed point - 1/2|")
    return out


CHECKS = {
    "symbol": check_symbol,
    "reject": check_reject,
    "rotation": check_rotation,
    "schedule": check_schedule,
    "iterate_sweep": check_iterate_sweep,
    "p_solve": check_p_solve,
    "boundary": check_boundary,
}
