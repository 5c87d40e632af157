"""The README's examples run: every fenced ``python`` block, in order, in one namespace.

What those blocks import from ``quantdet`` is the package namespace, the
flag table is the CLI's, and the layout table names each module once.
"""

import ast
import re
from pathlib import Path

import quantdet
from quantdet import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = _python_blocks()
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(tmp_path)  # keep anything a block writes out of the checkout
    namespace = {}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_imports_are_the_public_names():
    # the package namespace is what the README imports from it: no more, no less
    imported = {alias.name for block in _python_blocks() for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "quantdet"
                for alias in node.names}
    assert imported == set(quantdet.__all__)


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


def test_readme_layout_table_names_each_module_once():
    # the "Library layout" table is the one module map
    text = README.read_text(encoding="utf-8")
    table = text.split("## Library layout\n\n", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `quantdet\.(\w+)` \|", table, re.M)
    modules = [p.stem for p in Path(quantdet.__file__).parent.glob("*.py") if p.stem != "__init__"]
    assert sorted(documented) == sorted(modules)
