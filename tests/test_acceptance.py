"""Acceptance suite: one test per verification criterion, each printing a
PASS/FAIL line with its margin (run pytest -s to see them inline).

`restricted_norms` checks the plateau of the non-inner symbol (z+z^2)/2 as
first-order settling: the compressions close like O(1/N) toward ~0.81650 =
sqrt(2/3), so the increment value(512) - value(256) (measured 2.9e-4) must be
positive and at most half of value(256) - value(128) (measured 6.0e-4).  An
absolute 1e-6 step is out of reach at these dimensions.  See the package
README.
"""

import pytest

from hardyop import compop, numrange, verify


def _run(check) -> verify.CheckResult:
    result = check()
    assert result.name == check.__name__.removeprefix("check_")
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name} margin={result.margin:.3g} "
          f"elapsed={result.elapsed_ms:.0f}ms")
    for item in result.assertions:
        if not item["ok"]:
            print(f"    failed assertion: {item['label']} "
                  f"(value={item['value']:.12g}, target={item['target']:.12g})")
    return result


def test_every_check_registered_once_in_definition_order():
    module_checks = [fn for name, fn in vars(verify).items() if name.startswith("check_")]
    assert list(verify.ALL_CHECKS) == module_checks
    assert verify.SUITES["all"] == verify.ALL_CHECKS
    named = {k: v for k, v in verify.SUITES.items() if k != "all"}
    assert sorted(named) == ["formulas", "iterates", "nrange", "restricted"]
    for checks in named.values():
        positions = [module_checks.index(fn) for fn in checks]
        assert positions == sorted(positions)
    # the named suites partition "all"
    assert sorted(module_checks.index(fn) for v in named.values() for fn in v) == list(
        range(len(module_checks)))


def test_criterion_01_const_distance():
    assert _run(verify.check_const_distance).passed


def test_criterion_02_rotation_distance():
    assert _run(verify.check_rotation_distance).passed


def test_criterion_03_inner_const_convergence():
    result = _run(verify.check_inner_const_convergence)
    assert result.passed
    # one comparison per step of the 16..128 schedule, at the schedule's tolerance
    steps = [a for a in result.assertions if a["label"] == "values nondecreasing"]
    assert len(steps) == 3
    assert all(a["target"] - a["value"] >= compop.MONOTONE_TOL - 1e-15 for a in steps)


def test_criterion_04_automorphism_distance():
    assert _run(verify.check_automorphism_distance).passed


def test_criterion_05_const_range_ellipse():
    assert _run(verify.check_const_range_ellipse).passed


def test_criterion_06_automorphism_range_ellipse(monkeypatch):
    compare, margins = numrange.ellipse_compare, []

    def recorded(nr, e):
        cmp_ = compare(nr, e)
        margins.append(cmp_.interior_margin)
        return cmp_

    monkeypatch.setattr(numrange, "ellipse_compare", recorded)
    result = _run(verify.check_automorphism_range_ellipse)
    assert result.passed
    # one interior assertion per dimension, each on that dimension's margin
    interior = [a for a in result.assertions if a["label"].startswith("boundary points")]
    assert [a["label"] for a in interior] == [
        f"boundary points strictly interior at N={N}" for N in (64, 256)]
    assert [a["value"] for a in interior] == margins
    assert min(margins) > 0


def test_criterion_07_restricted_norms():
    assert _run(verify.check_restricted_norms).passed


def test_criterion_08_minimal_norm_case():
    assert _run(verify.check_minimal_norm_case).passed


def test_criterion_09_p_norm_solve():
    assert _run(verify.check_p_norm_solve).passed


def test_criterion_10_inner_pullback():
    assert _run(verify.check_inner_pullback).passed


def test_criterion_11_quadrature_norms():
    assert _run(verify.check_quadrature_norms).passed


def test_criterion_12_iterate_contraction():
    assert _run(verify.check_iterate_contraction).passed


def test_criterion_13_inner_const_general():
    result = _run(verify.check_inner_const_general)
    assert result.passed
    # one recognized target per schedule: 3 sqrt(3)/4 attained, then sqrt(3)
    bounds = [a["target"] - 1e-9 for a in result.assertions
              if a["label"] == "value <= target + 1e-9"]
    assert bounds == pytest.approx([1.299038105676658] * 2 + [3 ** 0.5] * 2, abs=1e-15)
