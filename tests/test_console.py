"""Console commands with their bounds, run in process through `cli.main`.

Each row is one `hardyop` command line and a predicate on the JSON report it
writes; every row must exit 0.  A new console-script guard is a row here, not
a CI step: `test_ci_runs_the_console_script_once` keeps the workflow at one
installed entry-point smoke.  Commands whose expected outcome is an input
error sit beside their siblings in test_cli.py, apart from the pair below that
must print one message for one fault.
"""

import math
import re
from pathlib import Path

import pytest

from hardyop.cli import main
from test_cli import run_json


def passed(doc):
    return doc["pass"] is True


def recognized(label, target=None):
    """pass, and the closed-form target `label`, within 1e-15 of `target` when given."""
    def check(doc):
        return (passed(doc) and doc["params"]["target_label"] == label
                and (target is None or abs(doc["target"] - target) <= 1e-15))
    return check


def contained(doc):
    # every dimension inside the target, strictly interior, at most 5 dense solves each
    return (all(c is True for c in doc["contained"]) and min(doc["interior_margin"]) > 0
            and max(doc["diagnostics"]["dense_solves"]) <= 5)


ROWS = [
    (["norm", "(z+z^2)/2", "--restricted", "-N", "16,64"], passed),
    (["norm", "z*alpha((0.3+0.4i))", "--restricted", "-N", "128,256"], passed),
    (["norm", "alpha(1e-100)@z^2@z*alpha(0.5)", "-N", "16,64"],
     lambda doc: passed(doc) and doc["target"] == 1),
    (["distance", "alpha(0.5)", "z", "-N", "16,32"], passed),
    (["distance", "alpha(0.5)", "z", "-N", "512,1024"], passed),
    (["distance", "alpha((0.3+0.4i))", "0.5i*z", "-N", "16,64"], passed),
    (["distance", "blaschke(0.8, 0.3i)", "z", "-N", "256,512"], passed),
    (["distance", "i*z", "z", "-N", "3,8"], passed),
    (["distance", "0.5i*z", "alpha((0.3+0.4i))", "-N", "128,256"], passed),
    (["distance", "z^2", "0.5i", "-N", "128,256"], passed),
    (["distance", "alpha(0.2)", "0.6", "-N", "16,64"],
     recognized("inner_const", 3 * math.sqrt(3) / 4)),
    (["distance", "alpha(0.5)", "0", "-N", "16,64"], recognized("inner_const")),
    (["distance", "(0.3+0.4i)*z+0.2i*z^2", "0", "-N", "65,129"], passed),
    (["distance", "1.0000000000001*z", "0.3*z", "-N", "16,64"], recognized("rotation", 1.0)),
    (["distance", "const(6.980282610082109e-10)",
      "const((-2.9048225263906997e-10+6.347153015863714e-10i))", "-N", "16,64"], passed),
    (["psolve", "(z+z^2)/2", "-N", "64"], passed),
    (["nrange", "alpha(0.5)", "-N", "64,256"], contained),
    (["nrange", "alpha(0.5)", "-N", "520", "--grid", "16"], contained),
    (["nrange", "alpha((0.3+0.4i))", "-N", "64,128", "--grid", "64"], contained),
]


@pytest.mark.parametrize("argv, check", ROWS, ids=[" ".join(argv) for argv, _ in ROWS])
def test_console_command(tmp_path, argv, check):
    code, doc = run_json(argv, tmp_path)
    assert code == 0 and doc["command"] == argv[0]
    assert check(doc), doc


@pytest.mark.parametrize("argv", [["norm", "alpha(0.5)", "-N", "1"],
                                  ["norm", "(z+z^2)/2", "--restricted", "-N", "1"]],
                         ids=["norm", "restricted"])
def test_dimension_one_names_its_value(capsys, argv):
    # the plain build and the restricted block reject N = 1 with one message
    assert main(argv) == 2
    assert "compression dimension must be >= 2, got 1" in capsys.readouterr().err


def test_ci_runs_the_console_script_once():
    # the one installed entry-point smoke; every other console check is a row above
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    calls = re.findall(r"(?<![\w./-])(?:hardyop|-m hardyop\.cli) [^|&;>\n]*", workflow.read_text())
    assert [c.strip() for c in calls] == ["hardyop verify iterates"]
