"""Every demo script runs to completion."""

import pathlib
import runpy

import pytest

from entflow.cli import EXIT_OK, main

DEMO_DIR = pathlib.Path(__file__).parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")


def test_stability_map_demo_writes_the_cli_table(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMO_DIR / "stability_map.py"), run_name="__main__")
    out = tmp_path / "cli.csv"
    argv = ["figure", "stability", "--grid", "16x11", "--range", "0:1.5,0:1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "stability_map.csv").read_bytes() == out.read_bytes()
    capsys.readouterr()
