"""The README's code runs as written: its Python block and its quick start."""
import re
import shlex
from pathlib import Path

from sectorspace import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_python_block_finds_the_planted_turn(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    found, planted = map(int, capsys.readouterr().out.splitlines()[-1].split())
    assert abs(found - planted) <= 1  # "agree within a year"


def test_quick_start_writes_a_manifest(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Quick start.*?```sh\n(.*?)```", README, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip()]
    assert [argv[:2] for argv in commands] == [["sectorspace", "synth"], ["sectorspace", "all"]]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, capsys.readouterr().err
    assert (tmp_path / "results" / "manifest_all.json").is_file()
