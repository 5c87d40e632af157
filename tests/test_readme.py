"""The README's examples run: every fenced ``python`` block, in order, in one namespace."""

import re
from pathlib import Path

from quantdet import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(tmp_path)  # keep anything a block writes out of the checkout
    namespace = {}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_flag_table_matches_cli():
    # the "flags besides --config" table names each subcommand once, with its flags in order
    text = README.read_text(encoding="utf-8")
    table = text.split("| subcommand | flags besides `--config` |\n| --- | --- |\n", 1)[1]
    documented = {}
    for row in re.findall(r"^\| (.*?) \| `(.*?)` \|$", table.split("\n\n", 1)[0], re.M):
        for command in re.findall(r"`([^`]+)`", row[0]):
            assert command not in documented, command
            documented[command] = row[1].split()
    actual = {name: [f for f in flags if f != "--config"]
              for name, (_, _, flags) in cli._SUBCOMMANDS.items()}
    assert documented == actual
