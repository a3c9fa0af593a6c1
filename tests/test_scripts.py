"""The experiment scripts run end to end on small arguments."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, argv, closing",
    [
        (
            "bounds_survey.py",
            ["3", "2"],
            "every generated basis satisfied the bounds (checked exactly)",
        ),
        (
            "polygon_frames.py",
            ["4"],
            "frames grow linearly; the family never exceeds 2^2 = 4",
        ),
    ],
    ids=["bounds_survey", "polygon_frames"],
)
def test_script_runs_to_its_closing_line(script, argv, closing, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path)] + argv)
    runpy.run_path(str(path), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == closing
