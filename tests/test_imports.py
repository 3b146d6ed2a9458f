import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_heavy_scipy_subpackages():
    # scipy.optimize adds about 0.2 s and 20 MB to the import; scipy.linalg
    # and scipy.sparse bring scipy's own OpenBLAS, a second BLAS thread pool
    # that contends with numpy's
    out = subprocess.run(
        [sys.executable, "-c", "import hardyop, sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, check=True, cwd=SRC,
    ).stdout
    loaded = set(ast.literal_eval(out))
    for name in ("scipy.optimize", "scipy.linalg", "scipy.sparse"):
        assert name not in loaded
