"""The answer digests of `scripts/digests.py`, pinned.

The five fast digests run in full, and the formula digest runs twice: over
the listed lattices and through the kernel lattice of `bl_constant(d)`,
against the same stored value.  The oracle digest runs on every 10th
corpus datum of its sequence, and the reductions digest on every 10th
corpus frame; each covers both Haar modes.  The values in
`answer_digests.json` are what the library answers today: a change that
means to change an answer edits the stored value, and says which digest
moved and why.  The full reductions and oracle digests are stored there
too; the script checks them, and exits 1 when any digest it prints moved.
"""

import json
from pathlib import Path

import pytest

STORED = json.loads((Path(__file__).resolve().parent / "answer_digests.json").read_text())


@pytest.mark.parametrize("name", ["subgroups", "formula", "lie", "scan", "large"])
def test_fast_digest_is_unchanged(digests, name):
    assert digests.digest(digests.DIGESTS[name]()) == STORED[name]


def test_formula_digest_through_the_kernel_lattice_is_unchanged(digests):
    assert digests.digest(digests.formula_lines(listed=False)) == STORED["formula"]


def test_oracle_digest_of_every_10th_datum_is_unchanged(digests):
    lines = digests.oracle_lines(step=10)
    assert digests.digest(lines) == STORED["oracle every 10th datum"]


def test_reductions_digest_of_every_10th_frame_is_unchanged(digests):
    lines = digests.reduction_lines(step=10)
    assert digests.digest(lines) == STORED["reductions every 10th frame"]


def test_script_prints_only_the_named_digests(digests, capsys):
    digests.main(["scan"])
    assert capsys.readouterr().out == f"scan {STORED['scan']}\n"
    with pytest.raises(SystemExit, match="unknown digest 'nope'"):
        digests.main(["nope"])


def test_script_exits_1_when_a_digest_moved(digests, capsys, monkeypatch):
    assert digests.STORED == STORED
    monkeypatch.setitem(digests.STORED, "scan", "0" * 64)
    with pytest.raises(SystemExit) as info:
        digests.main(["subgroups", "scan"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == f"subgroups {STORED['subgroups']}\nscan {STORED['scan']}\n"
    assert f"scan: differs from the stored {'0' * 64}" in captured.err
    assert "subgroups: differs" not in captured.err
