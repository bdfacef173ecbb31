"""Every output of scripts/output_digest.py's commands, byte for byte.

tests/output_digest.txt holds the script's output: a first line naming
the Python and numpy versions it was made with, then one sha256 (or exit
code) per output of each of its COMMANDS. This test runs the same
COMMANDS through the script and names each line that differs. A change
that alters output bytes on purpose regenerates the file in the same
commit (python scripts/output_digest.py > tests/output_digest.txt) and
names each changed line.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "output_digest.txt"


def load_script():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_command_output_matches_the_golden_digest():
    versions, *want = GOLDEN.read_text().splitlines()
    script = load_script()
    if script.VERSIONS != versions:
        pytest.fail(f"{GOLDEN.name} was made with {versions[2:]}, and this "
                    f"is {script.VERSIONS[2:]}: regenerate it at a commit "
                    "whose outputs are known good")
    got = script.digest()
    # output -> its sha256 or value, per side
    want_at = dict(line.split(" ", 1) for line in want)
    got_at = dict(line.split(" ", 1) for line in got)
    changed = [f"{key}: {want_at.get(key, 'none')} -> "
               f"{got_at.get(key, 'none')}" for key in {**want_at, **got_at}
               if want_at.get(key) != got_at.get(key)]
    assert not changed, "changed lines:\n" + "\n".join(changed)
    assert got == want  # and in the same order
