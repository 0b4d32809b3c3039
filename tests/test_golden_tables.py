"""Golden output of ``sg tables``: all six sweeps at a tiny configuration,
as CSV and as Markdown, compared byte for byte with text kept under
``tests/golden``.

To rewrite the golden files after an intended change of the numbers:
``PYTHONPATH=src python tests/test_golden_tables.py``.
"""

import contextlib
import io
import os

import pytest
from test_experiments import TINY

from sgfem.cli import main
from sgfem.experiments import TABLE_KINDS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _config_text():
    lines = []
    for key, value in TINY.items():
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _render(which, markdown, config_path):
    argv = ["tables", which, "--config", str(config_path)]
    if markdown:
        argv.append("--markdown")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _golden_path(which, markdown):
    return os.path.join(GOLDEN, f"{which}.{'md' if markdown else 'csv'}")


@pytest.mark.parametrize("markdown", [False, True], ids=["csv", "markdown"])
@pytest.mark.parametrize("which", TABLE_KINDS)
def test_tables_match_golden(which, markdown, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(_config_text())
    with open(_golden_path(which, markdown), encoding="utf-8") as fh:
        want = fh.read()
    assert _render(which, markdown, cfg) == want


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "tiny.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(_config_text())
        for which in TABLE_KINDS:
            for markdown in (False, True):
                with open(_golden_path(which, markdown), "w",
                          encoding="utf-8") as fh:
                    fh.write(_render(which, markdown, cfg))
