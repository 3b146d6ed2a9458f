import pytest


@pytest.fixture(scope="session")
def verify_all_report(tmp_path_factory):
    """Exit code and JSON report of one in-process `hardyop verify all` run,
    shared by the tests that read it; none may modify it."""
    from test_cli import run_json
    return run_json(["verify", "all"], tmp_path_factory.mktemp("verify_all"))
