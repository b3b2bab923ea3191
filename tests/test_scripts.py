import runpy
import sys

import pytest

from conftest import REPO_ROOT


@pytest.mark.parametrize(
    "script, args, needle",
    [
        ("two_path_table.py", ["--max-degree", "4"], "first divergence at degree 3"),
        ("survey_decompositions.py", ["--cutoff", "4"], "== d = 0"),
    ],
)
def test_script_runs(monkeypatch, capsys, script, args, needle):
    """Each script in ``scripts/`` runs to exit 0 on the library's public API."""
    path = REPO_ROOT / "scripts" / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_info.value.code == 0
    assert needle in capsys.readouterr().out
