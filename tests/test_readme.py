"""README.md as a test: its Python blocks run and its CLI examples parse.

Each ```python block runs as written in a new interpreter, and the size-map
block must print exactly the table README shows under it, so a result that
moves breaks this test instead of leaving the README stale.  The exact
``ddk`` size table is recomputed from its oracle the same way.
"""

import re
import shlex
from pathlib import Path

import pytest

from crtest.cli import build_parser

from oracles import ddk_exact_law, ddk_exact_size

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SECTIONS = dict(re.findall(r"^## (.+?)\n(.*?)(?=^## |\Z)", README, re.M | re.S))
SIZE_MAP = SECTIONS["`jel` size map (report only)"]
DDK_EXACT = SECTIONS["Exact `ddk` size"]


def blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def normalised(lines) -> list[str]:
    return [" ".join(line.split()) for line in lines]


PYTHON_BLOCKS = blocks(README, "python")
SIZE_MAP_BLOCK = blocks(SIZE_MAP, "python")[0]
# the size map table's rows after its header and separator
SIZE_MAP_ROWS = [line for line in SIZE_MAP.splitlines() if line.startswith("|")][2:]


def test_readme_has_its_python_blocks():
    assert len(PYTHON_BLOCKS) == 3 and SIZE_MAP_BLOCK in PYTHON_BLOCKS
    assert len(SIZE_MAP_ROWS) == 12


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(code, fresh):
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if code == SIZE_MAP_BLOCK:
        # the block prints the rows of the table README shows under it
        assert normalised(proc.stdout.splitlines()) == normalised(SIZE_MAP_ROWS)


def test_exact_ddk_table_is_its_oracle():
    rows = [line for line in DDK_EXACT.splitlines() if line.startswith("|")][2:]
    expected = []
    for n in (10, 20, 50, 100, 200):
        law = ddk_exact_law(n)
        sizes = " | ".join(f"{ddk_exact_size(law, p1, 0.05):.4f}" for p1 in (0.1, 0.3, 0.5))
        expected.append(f"| {n} | {sizes} |")
    assert normalised(rows) == normalised(expected)


def cli_commands() -> list[str]:
    block = blocks(SECTIONS["Quick start (CLI)"], "")[0]
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("crtest ")]


def test_cli_examples_parse():
    commands = cli_commands()
    assert len(commands) == 4
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
