"""The red-test status script: summary parsing and the documented ids."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "red_status", ROOT / "scripts" / "red_status.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_documented_red_ids_name_existing_tests():
    for test_id in _load().DOCUMENTED_RED:
        file, name = test_id.split("::")
        assert f"\ndef {name}(" in (ROOT / file).read_text(), test_id


def test_failing_ids_and_compare():
    rs = _load()
    red = rs.DOCUMENTED_RED
    summary = "\n".join([
        "..F.",
        "=========================== short test summary info ===",
        f"FAILED {red[0]} - AssertionError: assert 0.657 >= 0.9",
        "FAILED tests/test_cli.py::test_x[a-b] - ValueError: a - b",
        "ERROR tests/test_broken.py - ImportError: no module",
        "2 failed, 5 passed, 1 error in 1.00s",
    ])
    failed = rs.failing_ids(summary)
    assert failed == {red[0], "tests/test_cli.py::test_x[a-b]",
                      "tests/test_broken.py"}
    groups = rs.compare({red[0], "tests/test_new.py::test_y"})
    assert groups == {"still red": [red[0]],
                      "now passing": sorted(red[1:]),
                      "new failures": ["tests/test_new.py::test_y"]}


def test_slowest_reads_the_durations_section():
    output = "\n".join([
        "..F.",
        "============================= slowest 5 durations ==============",
        "12.33s call     tests/test_acceptance.py::test_criterion_08_anti",
        "3.48s setup    tests/test_theory.py::test_x",
        "",
        "(3 durations < 0.005s hidden.  Use -vv to show these durations.)",
        "=========================== short test summary info ===",
        "FAILED tests/test_cli.py::test_y - AssertionError",
        "1 failed, 3 passed in 16.00s",
    ])
    assert _load().slowest(output) == [
        "12.33s call     tests/test_acceptance.py::test_criterion_08_anti",
        "3.48s setup    tests/test_theory.py::test_x"]
    assert _load().slowest("4 passed in 1.00s") == []
