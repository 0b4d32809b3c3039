"""Golden output of ``sg export`` and ``sg norms``: every file each command
writes at a tiny configuration, compared byte for byte with the files
kept under ``tests/golden``.

To rewrite the golden files after an intended change of the numbers:
``PYTHONPATH=src python tests/test_golden_export.py``.
"""

import contextlib
import io
import os

import pytest

from sgfem.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# N = 2, P = 1: 3 blocks and 6 K_i; n = 3: 16 nodes, so the dense global
# matrix (48 rows) is written too
TINY = ["--N", "2", "--P", "1", "--n", "3"]
NORMS = ("frob", "two")


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def _export(dest):
    _run(["export", *TINY, "--dest", str(dest)])


def _norms(which, prefix):
    _run(["norms", *TINY, "--norm", which, "--out", str(prefix)])


def _files(folder):
    """Each file's name and bytes under ``folder``."""
    out = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_export_matches_golden(tmp_path):
    _export(tmp_path)
    want = _files(os.path.join(GOLDEN, "export"))
    got = _files(tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("which", NORMS)
def test_norms_match_golden(which, tmp_path):
    _norms(which, tmp_path / f"norms-{which}")
    for part in ("norms", "weighted"):
        name = f"norms-{which}_{part}.csv"
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            want = fh.read()
        assert (tmp_path / name).read_bytes() == want, name


if __name__ == "__main__":
    folder = os.path.join(GOLDEN, "export")
    os.makedirs(folder, exist_ok=True)
    for name in os.listdir(folder):
        os.remove(os.path.join(folder, name))
    _export(folder)
    for which in NORMS:
        _norms(which, os.path.join(GOLDEN, f"norms-{which}"))
