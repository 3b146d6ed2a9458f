import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded(code: str, package: str = "scipy") -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, check=True, cwd=SRC,
    ).stdout
    return [m for m in ast.literal_eval(out.splitlines()[-1]) if m.startswith(package)]


@pytest.mark.parametrize("module", ["hardyop", "hardyop.cli"])
def test_import_loads_no_scipy(module):
    # the runtime needs numpy only: scipy.fft alone adds about 0.3 s and 26 MB
    # to every process, and scipy.linalg brings a second BLAS thread pool
    assert _loaded(f"import {module}") == []


def test_fft_compressions_load_no_scipy():
    # series with over 320 coefficients above eps^2, the real alpha(0.8) and the
    # complex blaschke([0.8, 0.3i]), build their N=512 columns on numpy alone
    code = (
        "from hardyop import alpha, blaschke, comp_matrix\n"
        "for s in (alpha(0.8), blaschke([0.8, 0.3j])):\n"
        "    for basis in ('full', 'h20'):\n"
        "        comp_matrix(s, 512, basis)\n"
    )
    assert _loaded(code) == []


def test_sample_w_loads_no_numpy_random():
    # sample_w draws from the standard library's generator, which import
    # hardyop has already loaded; numpy.random would add about 5 MB
    code = (
        "from hardyop import alpha, comp_matrix, sample_w\n"
        "sample_w(comp_matrix(alpha(0.5), 16), 10, 0)\n"
    )
    assert _loaded(code, "numpy.random") == []


def test_runtime_reads_no_environment():
    # every tolerance, cap and grid size is a constant of the program
    reads = []
    for path in sorted((SRC / "hardyop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


@pytest.mark.parametrize("module", ["closedform.py", "hardy.py"])
def test_recognizers_import_no_taylor(module):
    # identities are decided on polynomial coefficients, never on Taylor series
    tree = ast.parse((SRC / "hardyop" / module).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "taylor" not in imported


def test_modules_import_no_private_names():
    # a module's underscore names are its own; the others use its public ones
    private = []
    for path in sorted((SRC / "hardyop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "hardyop"):
                private += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_compop_solves_no_svd():
    # one top-singular-value policy: op_norm's Gram eigensolve, for real and
    # complex matrices alike
    tree = ast.parse((SRC / "hardyop" / "compop.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "svd")
             or (isinstance(node, ast.Name) and node.id == "svd")]
    assert calls == []


def test_compop_takes_no_fft():
    # one convolution path for compression columns: np.convolve at every size,
    # so a leading block is the compression built at its own dimension
    tree = ast.parse((SRC / "hardyop" / "compop.py").read_text())
    uses = [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "fft")
            or (isinstance(node, ast.Name) and node.id == "fft")
            or (isinstance(node, ast.alias) and "fft" in node.name)]
    assert uses == []


def test_one_coefficient_product_and_one_evaluation():
    # numpy.polynomial's polymul and polyval belong inside symbolic's shared
    # product and evaluation only; every other product and point value goes
    # through those two, and symbolic evaluates no symbol by an outer product
    # of points and exponents
    names = {"polymul", "polyval"}
    homes = {("symbolic.py", "poly_product"), ("symbolic.py", "poly_eval")}
    uses = []
    for path in sorted((SRC / "hardyop").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) in homes:
                continue
            uses += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                     if (isinstance(node, ast.Attribute) and node.attr in names)
                     or (isinstance(node, ast.Name) and node.id in names)
                     or (isinstance(node, ast.alias) and node.name in names)
                     or (path.name == "symbolic.py" and isinstance(node, ast.Attribute)
                         and node.attr == "outer" and isinstance(node.value, ast.Attribute)
                         and node.value.attr == "multiply")]
    assert uses == []


def test_one_owner_for_power_expansions():
    # symbolic.powers expands c^n for compose, which needs every power of num
    # and den, and for rudin_audit, which needs every pair <phi^m, phi^n>;
    # every other overlap <phi, phi^n> comes from hardy.power_overlaps
    homes = {("symbolic.py", "compose"), ("hardy.py", "power_overlaps"),
             ("analysis.py", "rudin_audit")}
    calls = []
    for path in sorted((SRC / "hardyop").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) in homes:
                continue
            calls += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and ((isinstance(node.func, ast.Name) and node.func.id == "powers")
                           or (isinstance(node.func, ast.Attribute)
                               and node.func.attr == "powers"))]
    assert calls == []


def test_analysis_samples_no_circle():
    # one boundary quadrature: every boundary integral in analysis goes
    # through hardy.p_norm's grid ladder, never a grid of its own
    names = {"circle_values", "boundary_moduli"}
    tree = ast.parse((SRC / "hardyop" / "analysis.py").read_text())
    uses = [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.alias) and node.name in names)]
    assert uses == []


@pytest.mark.parametrize("module", ["symbolic", "hardy", "compop", "closedform", "numrange",
                                    "analysis"])
def test_numeric_modules_do_no_io(module):
    # the numeric modules return numbers; only the CLI renders and writes them
    tree = ast.parse((SRC / "hardyop" / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert imported.isdisjoint({"csv", "io", "json", "os", "sys", "tempfile"})


def test_modules_import_only_what_they_use():
    # each name has one home: a module imports what its own code calls, and
    # only the package's __init__ gathers names for others to import
    unused = []
    for path in sorted((SRC / "hardyop").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert unused == []
