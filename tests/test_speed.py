"""tests/speed.py: two copies of one program time every task alike and read the same results."""

import shutil
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"


def test_copy_against_itself_reads_no_difference(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    base, new, differing = speed.compare(copy, SRC, seeds=[1], rounds=1, limit=4)
    assert len(base) == len(new) == 4 and all(t > 0 for t in base + new)
    assert differing == []
