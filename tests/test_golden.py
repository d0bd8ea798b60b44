"""Golden outputs: every CLI command and the bee colony, pinned byte for byte.

``tests/golden_cases.py`` lists each case, the file under
``tests/golden/`` that holds its expected bytes, and the producer that
makes them: CLI output files and stdout for ``configs/paper.cfg`` and
the published-constants model, and the ``repr`` of seeded colony
results.  The colony is deterministic for a given seed, so a change to
the draw order, the arithmetic of a neighbourhood move or the
objective's evaluation order shows up here, as does a refactor of the
rate, fairness or split code that changes any printed byte.

A failing case names its file and shows a unified diff of the first
lines that differ.  Re-pin only for a change that is meant to alter
results, only with ``python tests/regen_golden.py``, and report it in
CHANGES.md.
"""

import difflib

import pytest

from golden_cases import CASES, GOLDEN, golden_files, prepare

MAX_DIFF_LINES = 24  # a moved 44 KB sweep shows its first hunks, not every row


def check_golden(name: str, actual: bytes, golden=GOLDEN) -> None:
    """Fail unless ``actual`` is the bytes of ``golden/name``, with a bounded diff."""
    label = f"tests/golden/{name}"
    path = golden / name
    if not path.is_file():
        pytest.fail(f"{label} is missing; re-pin with python tests/regen_golden.py",
                    pytrace=False)
    expected = path.read_bytes()
    if actual == expected:
        return
    diff = list(difflib.unified_diff(
        expected.decode(errors="replace").splitlines(),
        actual.decode(errors="replace").splitlines(),
        fromfile=label, tofile="produced", lineterm="",
    ))
    if len(diff) > MAX_DIFF_LINES:
        diff[MAX_DIFF_LINES:] = [f"... {len(diff) - MAX_DIFF_LINES} more diff lines"]
    shown = "\n".join(diff) or f"same lines, other bytes ({len(expected)} -> {len(actual)})"
    pytest.fail(f"{label} differs from the produced output:\n{shown}", pytrace=False)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    prepare(work)
    return work


@pytest.mark.parametrize("case", CASES)
def test_golden(work, case):
    name, produce = CASES[case]
    check_golden(name, produce(work))


def test_golden_dir_holds_exactly_the_named_files():
    named, on_disk = {name for name, _ in CASES.values()}, golden_files()
    stale, missing = sorted(on_disk - named), sorted(named - on_disk)
    assert (stale, missing) == ([], []), f"not named by any case: {stale}; missing: {missing}"


# ------------------------------------------------------- the comparison itself

LINES = [f"line {i}" for i in range(1, 101)]


def test_check_golden_passes_equal_bytes(tmp_path):
    (tmp_path / "same.txt").write_text("\n".join(LINES) + "\n")
    check_golden("same.txt", ("\n".join(LINES) + "\n").encode(), tmp_path)


def test_check_golden_shows_the_differing_line_only(tmp_path):
    (tmp_path / "text.txt").write_text("\n".join(LINES) + "\n")
    moved = LINES[:59] + ["line 60 moved"] + LINES[60:]
    with pytest.raises(pytest.fail.Exception) as failed:
        check_golden("text.txt", ("\n".join(moved) + "\n").encode(), tmp_path)
    shown = str(failed.value).splitlines()
    assert shown[0] == "tests/golden/text.txt differs from the produced output:"
    assert shown.index("-line 60") + 1 == shown.index("+line 60 moved")
    assert not {f" line {i}" for i in range(1, 51)} & set(shown)


def test_check_golden_bounds_the_diff(tmp_path):
    (tmp_path / "sweep.csv").write_text("\n".join(LINES * 20) + "\n")
    with pytest.raises(pytest.fail.Exception) as failed:
        check_golden("sweep.csv", "\n".join(f"{x} moved" for x in LINES * 20).encode(), tmp_path)
    shown = str(failed.value).splitlines()
    assert len(shown) == 1 + MAX_DIFF_LINES + 1
    # ---, +++ and one @@ line, then a - and a + line for each of 2000 lines
    assert shown[-1] == f"... {3 + 2 * 2000 - MAX_DIFF_LINES} more diff lines"


@pytest.mark.parametrize("actual, expect", [
    (b"a\r\nb\r\n", "same lines, other bytes (4 -> 6)"),
    (None, "tests/golden/absent.txt is missing; re-pin with python tests/regen_golden.py"),
])
def test_check_golden_names_what_no_diff_shows(tmp_path, actual, expect):
    (tmp_path / "text.txt").write_bytes(b"a\nb\n")
    with pytest.raises(pytest.fail.Exception) as failed:
        check_golden("absent.txt" if actual is None else "text.txt", actual or b"", tmp_path)
    assert str(failed.value).splitlines()[-1] == expect
