"""The answer digests of `scripts/digests.py`, pinned.

The four fast digests run in full; the oracle digest runs on every 10th
corpus datum of its sequence, which covers both Haar modes.  The values in
`answer_digests.json` are what the library answers today: a change that
means to change an answer edits the stored value, and says which digest
moved and why.  The reductions digest and the full oracle digest stay in
the script.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
STORED = json.loads((Path(__file__).resolve().parent / "answer_digests.json").read_text())


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("blgroups_digests",
                                                  ROOT / "scripts" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["subgroups", "formula", "lie", "scan"])
def test_fast_digest_is_unchanged(digests, name):
    assert digests.digest(digests.DIGESTS[name]()) == STORED[name]


def test_oracle_digest_of_every_10th_datum_is_unchanged(digests):
    lines = digests.oracle_lines(step=10)
    assert digests.digest(lines) == STORED["oracle every 10th datum"]


def test_script_prints_only_the_named_digests(digests, capsys):
    digests.main(["scan"])
    assert capsys.readouterr().out == f"scan {STORED['scan']}\n"
    with pytest.raises(SystemExit, match="unknown digest 'nope'"):
        digests.main(["nope"])
