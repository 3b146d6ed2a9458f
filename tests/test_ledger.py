"""The value ledger: every `hardyop verify all` assertion's label, value and
target, checked in as tests/ledger.json.

Check names, labels and their order must match exactly, and each value and
target within 1e-13 max(1, |v|): below the smallest tolerance any check
states (1e-12), above the rounding a change of BLAS thread count moves
(4.4e-16).  A change that moves a value on purpose rewrites the ledger in the
same commit and names each moved entry:

    PYTHONPATH=src python tests/test_ledger.py
"""

import json
import sys
import tempfile
from pathlib import Path

LEDGER = Path(__file__).with_name("ledger.json")
REL_TOL = 1e-13


def ledger(doc: dict) -> list:
    """The ledger rows of a `verify all` JSON report."""
    return [{"name": check["name"],
             "assertions": [{k: a[k] for k in ("label", "value", "target")}
                            for a in check["assertions"]]}
            for check in doc["checks"]]


def labels(rows: list) -> list:
    return [(check["name"], [a["label"] for a in check["assertions"]]) for check in rows]


def test_verify_all_values_match_the_ledger(verify_all_report):
    code, doc = verify_all_report
    assert code == 0
    got, want = ledger(doc), json.loads(LEDGER.read_text())
    assert labels(got) == labels(want)
    moved = [(check["name"], a["label"], k, a[k], b[k])
             for check, expected in zip(got, want)
             for a, b in zip(check["assertions"], expected["assertions"])
             for k in ("value", "target")
             if not abs(a[k] - b[k]) <= REL_TOL * max(1.0, abs(b[k]))]
    assert moved == []


if __name__ == "__main__":
    sys.path.insert(0, str(LEDGER.parent))
    from test_cli import run_json

    with tempfile.TemporaryDirectory() as tmp:
        code, doc = run_json(["verify", "all"], Path(tmp))
    if code != 0:
        sys.exit(f"verify all exited {code}; the ledger is not rewritten")
    LEDGER.write_text(json.dumps(ledger(doc), indent=1) + "\n")
