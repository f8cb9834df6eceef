"""tests/digest.py: both sides of a lockstep run time every capture, a capture
list repeats to the bit, and a one-ulp change shows."""

import shutil
from pathlib import Path

import pytest

import digest

SRC = Path(__file__).resolve().parent.parent / "src"


def copy_of_src(directory: Path) -> Path:
    copy = directory / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


@pytest.fixture(scope="module")
def same_tree(tmp_path_factory):
    """The reduced list in lockstep over a copy of src/ and src/ itself, under hash seed 1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONHASHSEED", "1")
        return digest.lockstep(copy_of_src(tmp_path_factory.mktemp("copy")), SRC, reduced=True)


def test_a_copy_against_itself_times_every_capture_and_reads_equal_bytes(same_tree):
    base, new = same_tree
    assert [(part, name) for part, name, *_ in base] == [(part, name) for part, name, *_ in new]
    assert {part for part, *_ in new} == set(digest.PARTS)
    assert not [name for _, name, *_ in base + new if name.endswith("[raised]")]
    assert all(ns > 0 and faults >= 0 for *_, ns, faults in base + new)
    # A CLI capture's faults are its child interpreter's, thousands of them.
    assert all(faults > 1_000 for part, *_, faults in base + new if part == "cli")
    assert digest.differences(base, new) == {}
    assert digest.part_digests(base) == digest.part_digests(new)


def test_reduced_captures_repeat_and_name_a_planted_change(tmp_path, monkeypatch, same_tree):
    planted = copy_of_src(tmp_path)
    finder_py = planted / "analogybench" / "finder.py"
    text = finder_py.read_text()
    # One bit of descent's first step set, 0.5 to 0x1.0000000000002p-1: the
    # grow factor 1 + delta moves by one ulp, and so does every descent.
    old = "x0, best, delta = x, start, 0.5\n"
    assert text.count(old) == 1
    finder_py.write_text(text.replace(old, old.replace("0.5", "0.5000000000000002")))
    # Under another hash seed than same_tree's, so no set or dict order can
    # leak into a capture.
    monkeypatch.setenv("PYTHONHASHSEED", "2")
    first, changed = digest.lockstep(SRC, planted, reduced=True)
    assert [c[:3] for c in first] == [c[:3] for c in same_tree[1]]
    differing = digest.differences(first, changed)
    assert "solve" in differing and "grid" not in differing
    assert digest.part_digests(first)["overall"] != digest.part_digests(changed)["overall"]


def test_differences_name_every_differing_capture():
    base = [("solve", "a", "1"), ("solve", "b", "2"), ("solve", "c", "3"), ("grid", "g", "4")]
    assert digest.differences(base, base) == {}
    # Moved in the middle and at the end of a part, and in a second part.
    moved = [base[0], ("solve", "b", "9"), ("solve", "c", "8"), ("grid", "g", "7")]
    assert digest.differences(base, moved) == {"solve": ["b", "c"], "grid": ["g"]}
    # On one side only; matched by name, a missing capture moves no other.
    assert digest.differences(base, [base[0], *base[2:]]) == {"solve": ["b (base only)"]}
    assert digest.differences(base[:3], base) == {"grid": ["g (new only)"]}
    assert digest.differences([base[0], ("solve", "b", "9"), *base[2:]], base[1:]) == {
        "solve": ["b", "a (base only)"]}


def test_timing_reads_the_captures_both_sides_ran():
    ms = 1_000_000
    base = [("solve", "a", "s", 1 * ms, 4), ("solve", "b", "s", 2 * ms, 6),
            ("solve", "c", "s", 4 * ms, 2), ("solve", "d", "s", ms // 2, 0),
            ("grid", "g", "s", ms, 1)]
    # a and b ran faster on the new side, c slower, and d on the base side alone.
    new = [("solve", "a", "s", ms // 2, 1), ("solve", "b", "s", 3 * ms // 2, 1),
           ("solve", "c", "s", 8 * ms, 1)]
    assert digest.timing(base, new, "solve") == (
        "  time: median new / base 0.750, new faster on 2 of 3\n"
        "  p50 base 1.500 ms, new 1.500 ms; minor faults per capture base 3.0, new 1.0")
    assert digest.timing(base, new, "grid") == "  time: no capture ran on both sides"
