"""The code shown in README.md runs as shown."""

import pathlib
import re

import pytest

from entflow.cli import EXIT_OK, main

README = pathlib.Path(__file__).parents[1] / "README.md"


def fenced_blocks(language: str) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


PYTHON_BLOCKS = fenced_blocks("python")


def test_readme_has_its_examples():
    assert len(PYTHON_BLOCKS) >= 2
    assert len(fenced_blocks("ini")) == 1


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=lambda code: code.splitlines()[-1][:40])
def test_python_block_runs(code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    capsys.readouterr()


def test_ini_block_is_a_config_file(tmp_path, capsys):
    (text,) = fenced_blocks("ini")
    path = tmp_path / "chain.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["point", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "M=10 direction=forward r_over_omega=0.10000000000000001" in out
    assert "stable=true" in out
