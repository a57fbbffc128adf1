"""The source tree: one package under ``src/``, and no symbolic links to follow out of the checkout."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def walk(path):
    """Every entry under ``path``, links included but not followed."""
    with os.scandir(path) as entries:
        for entry in list(entries):
            yield entry
            if entry.is_dir(follow_symlinks=False):
                yield from walk(entry.path)


def test_src_holds_only_the_package():
    # ``pip install .`` leaves ``src/curveindex.egg-info`` behind; it is build output, not source.
    with os.scandir(ROOT / "src") as entries:
        names = {entry.name for entry in entries if not entry.name.endswith(".egg-info")}
    assert names == {"curveindex"}


def test_nothing_under_src_or_tests_is_a_symlink():
    assert [entry.path for top in ("src", "tests") for entry in walk(ROOT / top) if entry.is_symlink()] == []
