"""The README's code runs as documented."""

import re
from pathlib import Path

import pytest

from archspread.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"\n## Library\n[^#]*?```python\n(.*?)```", text, re.DOTALL)
    # Leading newlines keep the README's line numbers in a traceback.
    code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--sets", "3", "--n", "5", "--seed", "1", "-o", "bundle.json"]) == 0
    exec(compile(code, str(README), "exec"), {})


OPTION = re.compile(r"(?<![\w-])--?[A-Za-z][\w-]*")


@pytest.mark.parametrize("command", ["indicators", "mds", "compare"])
def test_cli_synopsis_names_every_option_of_the_command(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    text = README.read_text(encoding="utf-8")
    synopsis = re.search(rf"^archspread {command} (?:.*\\\n)*.*$", text, re.MULTILINE).group(0)
    assert set(OPTION.findall(synopsis)) == set(OPTION.findall(usage)) - {"-h"}
