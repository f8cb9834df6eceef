"""tests/digest.py: a capture list repeats to the bit, and a one-ulp change shows."""

import shutil
from pathlib import Path

import digest

SRC = Path(__file__).resolve().parent.parent / "src"


def test_reduced_captures_repeat_and_name_a_planted_change(tmp_path, monkeypatch):
    planted = tmp_path / "src"
    shutil.copytree(SRC, planted, ignore=shutil.ignore_patterns("__pycache__"))
    finder_py = planted / "analogybench" / "finder.py"
    text = finder_py.read_text()
    # One bit of descent's first step set, 0.5 to 0x1.0000000000002p-1: the
    # grow factor 1 + delta moves by one ulp, and so does every descent.
    old = "x0, best, delta = x, start, 0.5\n"
    assert text.count(old) == 1
    finder_py.write_text(text.replace(old, old.replace("0.5", "0.5000000000000002")))
    # Two children over the working tree under different hash seeds, so no
    # set or dict order can leak into a capture, and one over the copy.
    children = []
    for hash_seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        children.append(digest.start_capture(SRC, reduced=True))
    children.append(digest.start_capture(planted, reduced=True))
    first, second, changed = (digest.finish_capture(child) for child in children)
    assert {part for part, _, _ in first} == set(digest.PARTS)
    assert not [name for _, name, _ in first if name.endswith("[raised]")]
    assert first == second
    assert digest.part_digests(first) == digest.part_digests(second)
    differing = digest.first_differences(first, changed)
    assert "solve" in differing and "grid" not in differing
    assert digest.part_digests(first)["overall"] != digest.part_digests(changed)["overall"]


def test_first_differences_names_the_first_differing_capture():
    base = [("solve", "a", "1"), ("solve", "b", "2"), ("grid", "g", "3")]
    assert digest.first_differences(base, base) == {}
    assert digest.first_differences(base, [*base[:1], ("solve", "b", "9"), base[2]]) == {
        "solve": "b"}
    assert digest.first_differences(base, base[:2]) == {"grid": "g"}
    assert digest.first_differences(base[1:], base) == {"solve": "b"}
