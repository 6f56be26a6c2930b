"""README.md as a test: its Python blocks run and its CLI examples parse.

Each ```python block runs as written in a new interpreter, and the size-map
and power blocks must print exactly the table rows README shows under them
(the power block its harness columns), so a result that moves breaks this
test instead of leaving the README stale.  The exact ``ddk`` size table and
the power table's theory columns are recomputed from their oracles the same
way.
"""

import math
import re
import shlex
from pathlib import Path

import pytest

from crtest.cli import build_parser

from oracles import asymptotic_power, ddk_exact_law, ddk_exact_size

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SECTIONS = dict(re.findall(r"^## (.+?)\n(.*?)(?=^## |\Z)", README, re.M | re.S))
SIZE_MAP = SECTIONS["`jel` size map (report only)"]
DDK_EXACT = SECTIONS["Exact `ddk` size"]
POWER = SECTIONS["Power against U-statistic theory (report only)"]


def blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def normalised(lines) -> list[str]:
    return [" ".join(line.split()) for line in lines]


def table_rows(text: str) -> list[str]:
    """The rows of the section's table after its header and separator."""
    return [line for line in text.splitlines() if line.startswith("|")][2:]


def cells(row: str) -> list[str]:
    return [cell.strip() for cell in row.strip().strip("|").split("|")]


PYTHON_BLOCKS = blocks(README, "python")
SIZE_MAP_BLOCK = blocks(SIZE_MAP, "python")[0]
SIZE_MAP_ROWS = table_rows(SIZE_MAP)
POWER_BLOCK = blocks(POWER, "python")[0]
POWER_ROWS = table_rows(POWER)
# what each table's block prints: the size map's rows, and the power
# table's n, p1, h and harness columns
PRINTS = {
    SIZE_MAP_BLOCK: normalised(SIZE_MAP_ROWS),
    POWER_BLOCK: [f"| {n} | {p1} | {h} | {jel} | {ddk} |"
                  for n, p1, h, _, jel, _, ddk in map(cells, POWER_ROWS)],
}


def test_readme_has_its_python_blocks():
    assert len(PYTHON_BLOCKS) == 4
    assert SIZE_MAP_BLOCK in PYTHON_BLOCKS and POWER_BLOCK in PYTHON_BLOCKS
    assert len(SIZE_MAP_ROWS) == 12
    assert len(POWER_ROWS) == 24


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(code, fresh):
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if code in PRINTS:
        # the block prints the rows of the table README shows under it
        assert normalised(proc.stdout.splitlines()) == PRINTS[code]


def test_exact_ddk_table_is_its_oracle():
    rows = [line for line in DDK_EXACT.splitlines() if line.startswith("|")][2:]
    expected = []
    for n in (10, 20, 50, 100, 200):
        law = ddk_exact_law(n)
        sizes = " | ".join(f"{ddk_exact_size(law, p1, 0.05):.4f}" for p1 in (0.1, 0.3, 0.5))
        expected.append(f"| {n} | {sizes} |")
    assert normalised(rows) == normalised(expected)


def test_power_table_theory_is_its_oracle():
    grid = [(n, p1, h) for n in (20, 100, 400, 1600) for p1 in (0.1, 0.3, 0.5) for h in (2, 4)]
    assert [tuple(cells(row)[:3]) for row in POWER_ROWS] == [
        (str(n), str(p1), str(h)) for n, p1, h in grid]
    for (n, p1, h), row in zip(grid, POWER_ROWS):
        a = 1 + h / math.sqrt(n)
        theory = [f"{asymptotic_power(p1, a, n, 0.05, m):.3f}" for m in ("jel", "ddk")]
        assert cells(row)[3::2] == theory, row


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
