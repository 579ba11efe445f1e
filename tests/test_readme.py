"""README states only what the code and the CLI table pin: every command-line
example is a row of tests/data/cli_cases.txt, its config example runs, and
every deleted name has its one line in the removed-names list."""

import os
import re
import types

import pytest

from cli_matrix import DATA, read_cases
from jcaslink.cli import main
from jcaslink.config import parse_config_text
from test_single_path import DELETED_NAMES

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def section(text: str, heading: str) -> str:
    """The body of a level-2 section, up to the next level-2 heading."""
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def examples(text: str) -> list:
    """Each ``$ jcaslink ...`` line of a section as (argv, the error line after it or None)."""
    lines = text.splitlines()
    found = []
    for i, line in enumerate(lines):
        if line.startswith("$ "):
            assert line.startswith("$ jcaslink "), line
            after = lines[i + 1] if i + 1 < len(lines) else ""
            found.append((line.split()[2:], after if after.startswith("error[") else None))
    return found


def table_argv(words: list) -> list:
    """README's argv as the table spells it: a path under tests/data/ is a path under DATA."""
    return [os.path.join(DATA, word[len("tests/data/"):]) if word.startswith("tests/data/") else word for word in words]


def readme_problems(readme: str, cases: dict) -> list:
    """Each README example that no table row pins with the same argv and the same error line."""
    rows = {tuple(case.argv): case for case in cases.values()}
    found = []
    for argv, error in examples(section(readme, "Command line")):
        case = rows.get(tuple(table_argv(argv)))
        if case is None:
            found.append(f"no row runs jcaslink {' '.join(argv)}")
        elif case.stderr != error:
            found.append(f"row {case.name} expects {case.stderr!r}, README gives {error!r}")
    return found


def test_every_command_line_example_is_a_table_row():
    with open(README, encoding="utf-8") as f:
        readme = f.read()
    assert len(examples(section(readme, "Command line"))) >= 20
    assert readme_problems(readme, read_cases()) == []


def test_config_example_parses_and_simulates(tmp_path, capsys):
    with open(README, encoding="utf-8") as f:
        body = section(f.read(), "Command line").split("\n### Configuration files\n", 1)[1]
    (document,) = re.findall(r"\n```\n(#.*?\n)```\n", body, re.DOTALL)
    assignments = [line for line in document.splitlines() if not line.startswith("#")]
    assert len(parse_config_text(document)) == len(assignments) > 0
    config = tmp_path / "example.cfg"
    config.write_text(document, encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert set(assignments) <= set(out.splitlines())  # the ledger echoes each value as written


def qualified(owner, name: str) -> str:
    if isinstance(owner, types.ModuleType):
        return f"{owner.__name__.rpartition('.')[2]}.{name}"
    return f"{(owner if isinstance(owner, type) else type(owner)).__name__}.{name}"


@pytest.mark.parametrize("owner,name", DELETED_NAMES)
def test_deleted_name_has_one_line_in_readme(owner, name):
    with open(README, encoding="utf-8") as f:
        entries = section(f.read(), "Removed public names").split("\n\n", 1)[1].strip().splitlines()
    assert all(line.startswith("- ") for line in entries), "one line per removed name"
    pattern = re.compile(rf"- `{re.escape(qualified(owner, name))}\b")
    assert len([line for line in entries if pattern.match(line)]) == 1
