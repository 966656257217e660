"""The README's examples print and return what the README says they do."""

from __future__ import annotations

import ast
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from polytri import Triangulation, cli
from polytri.disjoint import snake

README = Path(__file__).parent.parent / "README.md"


def readme_block(heading: str, fence: str) -> list[str]:
    """The code lines of the first `fence` block under the README's
    `## heading`, each without its trailing comment."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    block = section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line for line in lines if line]


def verify_report(last: str):
    """A check of a verify report: PASS or ERRATUM rows, then `last`."""
    def check(out: str) -> bool:
        *rows, tail = out.splitlines()
        return tail == last and all(row.split()[0] in ("PASS", "ERRATUM") for row in rows)
    return check


def snake11_figure(out: str) -> bool:
    """svg --out writes the figure of the snake to the file and nothing to stdout."""
    title = ET.parse("snake11.svg").getroot().find("{http://www.w3.org/2000/svg}title")
    return out == "" and title.text == str(snake(11))


# each `polytri` line of the "Command line" block, as the README gives it,
# with a check of the output its comment states
COMMAND_LINES = {
    "enumerate --n 4": "4:0-2\n4:1-3\n".__eq__,
    "enumerate --n 6 --ears 3 --count-only": "2\n".__eq__,
    "symmetry --n 6..8 --ears 2 --method both": "6 2 2\n7 3 3\n8 6 6\n".__eq__,
    "symmetry --n 6 --ears all": "3\n".__eq__,
    "disjoint --arrow --n 6 --method both": "5 5\n".__eq__,
    "disjoint --type 1,1,2 --n 7 --method both": lambda out: out.startswith(
        "11 11\nnote: the published closed-form variant evaluates to 5 for type (2, 1, 1) "
        "(known erratum;") and out.count("\n") == 2,
    'disjoint --t "6:0-2,2-4,0-4" --method brute': "4\n".__eq__,
    "verify --max-n 8": verify_report("checked 149: 148 pass, 0 fail, 1 erratum"),
    "verify --suite disjoint-2ear --max-n 11": verify_report("checked 24: 24 pass, 0 fail, 0 erratum"),
    "svg --snake --n 11 --out snake11.svg": snake11_figure,
    "sequence --what sym2 --n 5..10": "1\n2\n3\n6\n10\n20\n".__eq__,
}


def test_every_command_line_of_the_readme_is_checked():
    lines = readme_block("Command line", "sh")
    assert all(line.startswith("polytri ") for line in lines)
    assert [line.removeprefix("polytri ") for line in lines] == list(COMMAND_LINES)


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command_line_prints_what_the_readme_says(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # where `svg --out` writes its file
    assert cli.run(shlex.split(line)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert COMMAND_LINES[line](captured.out), captured.out


# each expression of the "Library example" block with the value its comment states
LIBRARY_VALUES = {
    "t.ear_tips()": (1, 3, 5),
    "t.ears()": ((0, 1, 2), (0, 4, 5), (2, 3, 4)),
    "t.internal_triangles()": ((0, 2, 4),),
    "t.canonical()": min(Triangulation.parse("6:0-2,2-4,0-4").dihedral_images()),
    "count_disjoint(t)": 4,
    "count_disjoint(snake(11))": 1430,
    "sum(1 for _ in enumerate_triangulations(8))": 132,
    "sum(1 for _ in enumerate_triangulations(8, ears=2))": 64,
}


def test_readme_library_example_returns_what_the_readme_says():
    namespace: dict = {}
    values = {}
    for line in readme_block("Library example", "python"):
        if isinstance(ast.parse(line).body[0], ast.Expr):
            values[line] = eval(line, namespace)
        else:
            exec(line, namespace)
    assert values == LIBRARY_VALUES
